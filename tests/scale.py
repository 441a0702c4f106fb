"""Scale reports: the paper's objects on large boxes and generated graphs.

    PYTHONPATH=src python tests/scale.py

prints seven tables, in this order: wall atlases with their crossings and
perturbations, the five graph caches, ray walks, checked closures, graph
builds, the log-canonical wall of seeded ideal sums, and Poincaré series.
Jobs and seeds are fixed, so every column but the timings repeats from run
to run.  No number is gated, but every job runs with its checks on: a
refusal or a disagreement between routes raises, and the run exits nonzero.
Importing the module runs nothing.  `tests/test_api.py` checks that every
library name and graph attribute read here resolves.
`tests/test_lc_integer_reference.py` draws its ideal sums with `sums`, and
`tests/test_subadditivity.py` its rays with `seeded_ray`.
"""

import random
import time
from fractions import Fraction

from mmideal import (
    admissible_perturbation, antinef_closure_checked, attach_ideals, bijection_report,
    build_graph, build_tuple, cell_decomposition, facet_intersection_vertices,
    graph_from_adjacency, lc_region, lct_axis, load_fixture, make_ray, newton_nest, poincare,
    ray_walk, series_expand, stability_bound,
)
from mmideal import rays, unloading
from mmideal.svg import render_atlas_svg
from mmideal.unloading import BoundedCache, antinef_closure
from trees import seeded_rows, tree_rows


def caches_of(graph):
    """(name, cache) for every `BoundedCache` of a graph, in constructor order."""
    return [(name, value) for name, value in vars(graph).items() if isinstance(value, BoundedCache)]


def fresh(name):
    """A bundled fixture's tuple on a newly built graph, every cache empty."""
    return build_tuple(load_fixture(name))


def timed(call, *args, repeats=1):
    """The last result of `repeats` calls and the seconds per call."""
    began = time.perf_counter()
    for _ in range(repeats):
        result = call(*args)
    return result, (time.perf_counter() - began) / repeats


def seeded_ray(ideals, rng):
    """A ray from a seeded rational base with a seeded direction in [1, 4]^r."""
    base = [Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(ideals.r)]
    return make_ray(ideals, base, [rng.randint(1, 4) for _ in range(ideals.r)])


def shapes():
    """(shape, size, matrix) for 10, 40 and 160 components: a seeded chain
    and a seeded random tree of each size, drawn by `trees.seeded_rows`."""
    rng = random.Random(1)
    for size in (10, 40, 160):
        for shape in ("chain", "tree"):
            yield shape, size, seeded_rows(rng, shape, size)


def sums(ideals, r, rng):
    """r ideals on the tuple's graph, each a nonnegative integer sum of the
    tuple's ideals and the fundamental cycle, not all weights zero."""
    generators = list(ideals.ideals) + [ideals.graph.fundamental]
    chosen = []
    for _ in range(r):
        weights = [rng.randint(0, 2) for _ in generators]
        if not any(weights):
            weights[rng.randrange(len(generators))] = 1
        chosen.append(
            tuple(sum(w * g[j] for w, g in zip(weights, generators)) for j in range(ideals.size))
        )
    return attach_ideals(ideals.graph, chosen)


def atlas_scale():
    """Atlas scale: wall lines to SVG, perturbations at facet-intersection vertices.

    seconds: cell_decomposition plus SVG; crossings: the facet-intersection
    vertices, each given admissible_perturbation along (1, 1); held: the
    faces the graph's atlas_cache holds after the atlas (an atlas heavier
    than CLOSURE_CACHE_BOUND is returned but not held)."""
    print(
        "atlas        lines  vertices   faces  cells  facets  seconds  crossings  perturb_s"
        "   held"
    )
    for name, sides in (("RAT6", (1, 2, 3, 4)), ("CHAIN10", (1, 2))):
        ideals = fresh(name)
        for side in sides:
            atlas, atlas_s = timed(cell_decomposition, ideals, (side, side))
            _, svg_s = timed(render_atlas_svg, atlas)
            crossings = facet_intersection_vertices(atlas)
            _, perturb_s = timed(
                lambda: [admissible_perturbation(ideals, v, (1, 1)) for v in crossings]
            )
            arrangement = atlas.arrangement
            lines = sum(not line.is_box for line in arrangement.lines)
            print(
                f"{name} {side}x{side}".ljust(11),
                f"{lines:6} {len(arrangement.vertices):9} {len(arrangement.faces):7}",
                f"{len(atlas.cells):6} {len(atlas.facets):7} {atlas_s + svg_s:8.2f}",
                f"{len(crossings):10} {perturb_s:10.2f} {ideals.graph.atlas_cache.held:6}",
            )


def graph_caches():
    """Graph caches: size, hits, misses and evictions of each after a run.

    A seeded ray walk on RAT6 and on CHAIN10; the same walk twice, then a
    shorter one (both served); the same atlas twice (the second served);
    two overlapping atlases (the second re-reads records)."""
    rng = random.Random(1)
    runs = []
    for name in ("RAT6", "CHAIN10"):
        ideals = fresh(name)
        ray_walk(ideals, seeded_ray(ideals, rng), Fraction(2))
        runs.append((f"{name} ray walk", ideals.graph))
    ideals = fresh("RAT6")
    ray = make_ray(ideals, (0, 0), (1, 1))
    for until in (Fraction(2), Fraction(2), Fraction(1)):
        ray_walk(ideals, ray, until)
    runs.append(("RAT6 walk x2 + 1", ideals.graph))
    for run, sides in (("RAT6 1x1 atlas x2", (1, 1)), ("RAT6 1x1 + 1/2", (1, Fraction(1, 2)))):
        ideals = fresh("RAT6")
        for side in sides:
            cell_decomposition(ideals, (side, side))
        runs.append((run, ideals.graph))
    print("run               cache            size    hits  misses  evictions")
    for run, graph in runs:
        for cache_name, cache in caches_of(graph):
            print(
                run.ljust(17), cache_name.ljust(14),
                f"{len(cache):6} {cache.hits:7} {cache.misses:7} {cache.evictions:10}",
            )


def ray_walk_scale():
    """Ray walk scale: seeded walks, then each walk repeated and served.

    One fresh tuple per walk, so every graph cache starts empty (RAT6 and
    SMOOTH1 hold most of the benchmark's ray jobs); us_per_candidate is the
    walk's wall time over its candidates, each a checked jump_record.  The
    repeat walks the same ray again on the same tuple and is served from
    the walk_cache: its hits/misses and us per candidate are its own."""
    rng = random.Random(1)
    print(
        "walk          until  candidates  jumps  us_per_candidate  closure_hits  colength_hits"
        "  served_walk_hits/misses  served_us_per_candidate"
    )
    walks = (
        ("RAT6", Fraction(2)), ("SMOOTH1", Fraction(16)),
        ("CHAIN10", Fraction(2)), ("PROP16", Fraction(1, 2)),
    )
    for name, until in walks:
        for _ in range(3):
            ideals = fresh(name)
            ray = seeded_ray(ideals, rng)
            jumps, seconds = timed(ray_walk, ideals, ray, until)
            grid = rays._grid(ideals, ray)
            candidates = sum(1 for _ in rays._candidate_parameters(ideals, ray, until, grid))
            read = [
                f"{cache.hits:8}/{cache.hits + cache.misses:<5}"
                for cache in (ideals.graph.closure_cache, ideals.graph.colength_cache)
            ]
            served = ideals.graph.walk_cache
            hits, misses = served.hits, served.misses
            _, repeat_s = timed(ray_walk, ideals, ray, until)
            print(
                name.ljust(9), f"{str(until):>9} {candidates:11} {len(jumps):6}",
                f"{seconds / candidates * 1e6:17.1f}", *read,
                f"{served.hits - hits:17}/{served.misses - misses:<5}",
                f"{repeat_s / candidates * 1e6:24.1f}",
            )


def closure_scale():
    """Closure scale: checked closures on fresh graphs, coefficients to 10^5.

    The ceiling loop's proposals (calls still firing after graph.size
    sweeps) and how many passed its certificate; the oracle's climb, in unit
    steps (each adds one to the divisor's sum), from the certified start L
    that a checked closure gives it and from max(D, 0)."""
    graphs = [(name, fresh(name).graph.matrix) for name in ("CHAIN10", "NEST14", "PROP16")]
    graphs += [(f"chain{n}", m) for shape, n, m in shapes() if shape == "chain" and n > 10]
    # the A_40 chain of (-2)-curves, where index-order sweeps crawl
    graphs.append(("A40", tree_rows([-2] * 40, [(j, j + 1) for j in range(1, 40)])))
    proposals, certificates = [], []
    counted = ((unloading._proposal, proposals), (unloading._certified, certificates))

    def counting(original, log):
        def call(*args):
            log.append(original(*args))
            return log[-1]

        return call

    for original, log in counted:
        setattr(unloading, original.__name__, counting(original, log))
    try:
        rng = random.Random(1)
        print("graph     scale  checked_s  proposals  certified  climb_from_L  climb_from_key")
        for name, matrix in graphs:
            for scale in (10, 100, 1000, 10**4, 10**5):
                for _ in range(3):
                    graph = build_graph(matrix)
                    divisor = [rng.randint(-scale, scale) for _ in matrix]
                    proposals.clear()
                    certificates.clear()
                    closure, seconds = timed(antinef_closure_checked, graph, divisor)
                    proposed, passed = len(proposals), sum(certificates)
                    key = [max(d, 0) for d in divisor]
                    start = unloading._descend(graph, key, antinef_closure(graph, key))
                    print(
                        name.ljust(8), f"{scale:6} {seconds:10.4f} {proposed:10} {passed:10}",
                        f"{sum(closure) - sum(start):13} {sum(closure) - sum(key):15}",
                    )
    finally:
        for original, _ in counted:
            setattr(unloading, original.__name__, original)


def graph_build_scale():
    """Graph build scale: build_graph and graph_from_adjacency per call.

    Seconds per build and per round trip (edges and K back to the graph) on
    the seeded chains and trees, and the bit length of delta = det(-M), the
    integer minor over which the tree solve returns K as delta K."""
    print("shape  size  build_s  round_trip_s  delta_bits")
    for shape, size, matrix in shapes():
        repeats = 2000 // size
        graph, build_s = timed(build_graph, matrix, repeats=repeats)
        edges = [(a + 1, b + 1) for a in range(size) for b in graph.adjacency[a] if a < b]
        _, round_trip_s = timed(graph_from_adjacency, edges, graph.canonical, repeats=repeats)
        kernel = graph._edge_kernel
        _, scale = unloading._tree_solve(kernel, [True] * size, [2 + e for e in kernel[0]])
        bits = max(scale).bit_length()
        print(f"{shape:6} {size:5} {build_s:8.5f} {round_trip_s:13.5f} {bits:11}")


def lc_region_scale():
    """LC region scale: the log-canonical wall of each fixture and of seeded sums.

    us_per_report: bijection_report, every lct_axis and newton_nest on a
    fresh tuple, so the region memo starts empty; the seeded tuples are
    nonnegative sums of a fixture's ideals and its fundamental cycle, as in
    the lc benchmark."""

    def report(ideals):
        verdict = bijection_report(ideals).verdict
        for axis in range(ideals.r):
            lct_axis(ideals, axis)
        newton_nest(ideals)
        return verdict

    rng = random.Random(1)
    print("tuple               r  vertices  facet  touch  slack  verdict                      us_per_report")
    for name in ("CHAIN10", "NEST14", "PROP16", "RAT6", "SMOOTH1"):
        base = fresh(name)
        cases = [(name, base)] + [
            (f"{name} sum", sums(base, r, rng)) for r in (2, 3, 4) for _ in range(2)
        ]
        for label, ideals in cases:
            verdict, seconds = timed(report, ideals)
            polytope = lc_region(ideals).polytope
            kinds = polytope.classification
            print(
                label.ljust(18), f"{ideals.r:2} {len(polytope.vertices):9}",
                f"{kinds.count('facet'):6} {kinds.count('touch'):6} {kinds.count('slack'):6}",
                f" {verdict:28} {seconds * 1e6:13.0f}",
            )


def poincare_scale():
    """Poincaré series scale: closed forms checked to the stability bound + 2.

    poincare at horizon = stability bound + 2 walks to the horizon + 1 and
    checks its closed form over that walk in integer keys; one fresh tuple
    per series, so both memos start empty."""
    print("series                       horizon  jumps  anchors  monomials  poincare_ms  expand_ms")
    series = (
        ("RAT6", (0, 0), (1, 1)), ("RAT6", (0, 0), (1, 2)),
        ("CHAIN10", (0, Fraction(1, 3)), (2, 3)), ("PROP16", (Fraction(1, 2), 0), (1, 1)),
    )
    for name, base, direction in series:
        ideals = fresh(name)
        ray = make_ray(ideals, base, direction)
        horizon = stability_bound(ideals, ray) + 2
        form, poincare_s = timed(poincare, ideals, ray, horizon)
        jumps, expand_s = timed(series_expand, form, horizon + 1)
        label = f"{name} {','.join(map(str, base))} dir {','.join(map(str, direction))}"
        print(
            label.ljust(28), f"{str(horizon):>8} {len(jumps):6} {len(form.anchors):8}",
            f"{len(form.monomials):10} {poincare_s * 1e3:12.1f} {expand_s * 1e3:10.2f}",
        )


REPORTS = (
    atlas_scale, graph_caches, ray_walk_scale, closure_scale, graph_build_scale,
    lc_region_scale, poincare_scale,
)


def main():
    for report in REPORTS:
        print(f"\n{report.__doc__.splitlines()[0]}")
        report()


if __name__ == "__main__":
    main()
