"""Seeded inputs and the job lists of the four workloads.

A workload pass is a list of jobs.  A job is one user-level call (one atlas,
one walk or series, one report, one CLI invocation) that returns its result
as canonical exact text.  The text is compared with the output recorded at
the seed commit (``golden/<workload>.json``, keyed by the job key) and, where
independent known values exist, with those too (``Job.expect``).

Inputs come from seeded generators.  Each workload has strata (a fixture and
a kind of call); stratum item ``i`` is generated from its own
``random.Random("<workload>:<stratum>:<i>")``, and the run seed picks which
items of each stratum a pass runs.  Every item a seed can pick has a recorded
output, and strata group items of similar cost so that the pass cost moves
little from seed to seed.  Generators read fixture data straight from the
JSON files and never call the library, so an input never depends on the
code being measured, and no input is dropped because the library fails on it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "src" / "mmideal" / "fixtures"
OUT_DIR = ROOT / "bench" / "out"
GOLDEN_DIR = ROOT / "bench" / "golden"

# Jobs that fail at the seed commit.  They stay in the mix and count in
# failed_frac; their recorded output is the error.
KNOWN_FAILURES = {
    "cli point RAT6 --c 0,0": (
        "exit 3: k_2 = -1 gives v_2 = 1 at the origin, so the integrality scan "
        "puts E2 in H, but the left-floor rule needs (c.F)_2 > 0"
    ),
}


# ---------------------------------------------------------------------------
# Fixture data, read without the library.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FixtureData:
    name: str
    path: str  # what the library is given: a bundled name or a JSON path
    matrix: tuple[tuple[int, ...], ...]
    canonical: tuple[Fraction, ...]
    ideals: tuple[tuple[int, ...], ...]
    fundamental: tuple[int, ...]
    expected: dict

    @property
    def size(self) -> int:
        return len(self.canonical)

    @property
    def r(self) -> int:
        return len(self.ideals)


def _unit_unloading(matrix, start: list[int]) -> tuple[int, ...]:
    """Smallest antinef divisor above `start`, one component at a time."""
    divisor = list(start)
    while True:
        products = [sum(m * d for m, d in zip(row, divisor)) for row in matrix]
        bad = next((j for j, p in enumerate(products) if p > 0), None)
        if bad is None:
            return tuple(divisor)
        divisor[bad] += 1


def _matrix_from_tree(edges, canonical) -> tuple[tuple[int, ...], ...]:
    """Adjunction (K + E_j).E_j = -2 solved for the diagonal of a tree."""
    size = len(canonical)
    rows = [[0] * size for _ in range(size)]
    for a, b in edges:
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = 1
    for j in range(size):
        around = sum(canonical[l] for l in range(size) if rows[j][l])
        rows[j][j] = int(-(2 + around) / (canonical[j] + 1))
    return tuple(tuple(row) for row in rows)


@functools.cache
def bundled_fixture(name: str) -> FixtureData:
    data = json.loads((FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8"))
    expected = data.get("expected", {})
    canonical = tuple(
        Fraction(str(k)) for k in data.get("canonical") or expected["canonical"]
    )
    if "matrix" in data:
        matrix = tuple(tuple(row) for row in data["matrix"])
    else:
        matrix = _matrix_from_tree(data["adjacency"], canonical)
    fundamental = _unit_unloading(matrix, [1] + [0] * (len(matrix) - 1))
    return FixtureData(
        name=name,
        path=name,
        matrix=matrix,
        canonical=canonical,
        ideals=tuple(tuple(v) for v in data["ideals"]),
        fundamental=fundamental,
        expected=expected,
    )


BUNDLED = ("SMOOTH1", "RAT6", "CHAIN10", "NEST14", "PROP16")
GRAPH_POOL = 4  # generated blow-up graphs in the cli workload


def _inverse_negated(matrix) -> list[list[Fraction]]:
    """-M^-1 by Gauss-Jordan elimination over the rationals."""
    size = len(matrix)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(size)]
        for i, row in enumerate(matrix)
    ]
    for col in range(size):
        pivot = next(i for i in range(col, size) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for i in range(size):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    return [[-x for x in row[size:]] for row in rows]


@functools.cache
def blowup_graph(index: int) -> FixtureData:
    """Resolution of a smooth point by n point blow-ups, n spread over 20..40.

    Each step blows up a free point of one component or the satellite point
    where two components meet.  K follows the blow-up recurrence
    k_new = 1 + sum of k over the curves through the point, independently of
    the library's linear solve.  Blow-ups of a smooth point give
    |det M| = 1, so the columns of -M^-1 are integral antinef divisors with
    full support; column 1 is the maximal ideal, i.e. the fundamental cycle.
    The two ideals are positive sums of a few columns.
    """
    rng = random.Random(f"graph:{index}")
    size = 20 + 20 * index // (GRAPH_POOL - 1)
    diagonal = [-1]
    canonical = [1]
    edges: list[tuple[int, int]] = []
    for new in range(1, size):
        if edges and rng.random() < 0.3:
            a, b = edges.pop(rng.randrange(len(edges)))
            through = [a, b]
            edges.extend([(a, new), (b, new)])
        else:
            a = rng.randrange(new)
            through = [a]
            edges.append((a, new))
        for c in through:
            diagonal[c] -= 1
        diagonal.append(-1)
        canonical.append(1 + sum(canonical[c] for c in through))
    matrix = [[0] * size for _ in range(size)]
    for j in range(size):
        matrix[j][j] = diagonal[j]
    for a, b in edges:
        matrix[a][b] = matrix[b][a] = 1
    inverse = _inverse_negated(matrix)
    if any(x.denominator != 1 or x <= 0 for row in inverse for x in row):
        raise AssertionError(f"blow-up graph {index}: -M^-1 is not a positive integer matrix")
    columns = [tuple(int(inverse[i][j]) for i in range(size)) for j in range(size)]
    ideals = []
    for _ in range(2):
        weights = {j: rng.randint(1, 2) for j in rng.sample(range(size), rng.randint(1, 3))}
        ideals.append(
            tuple(
                sum(w * columns[j][i] for j, w in weights.items())
                for i in range(size)
            )
        )
    name = f"G{index:02d}"
    return FixtureData(
        name=name,
        path=str(OUT_DIR / "fixtures" / f"{name}.json"),
        matrix=tuple(tuple(row) for row in matrix),
        canonical=tuple(Fraction(k) for k in canonical),
        ideals=tuple(ideals),
        fundamental=columns[0],
        expected={"singularity": "LogTerminal"},
    )


def write_fixture(data: FixtureData) -> None:
    """Write a generated graph as fixture JSON for the CLI to read."""
    path = Path(data.path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = {
        "name": data.name,
        "matrix": [list(row) for row in data.matrix],
        "ideals": [list(v) for v in data.ideals],
    }
    path.write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Input generators.
# ---------------------------------------------------------------------------


def fmt(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(fmt(x) for x in value)
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else str(value)


def wall_point(rng: random.Random, fx: FixtureData) -> tuple[Fraction, ...]:
    """A point on a jumping wall: c.F_j = k_j + l for a random j and level l,
    split across the axes with random rational weights."""
    j = rng.randrange(fx.size)
    lowest = max(1, math.floor(-fx.canonical[j]) + 1)
    level = rng.randint(lowest, lowest + 2)
    target = fx.canonical[j] + level
    denominator = rng.randint(1, 6)
    weights = [rng.randint(0, denominator) for _ in range(fx.r)]
    if not any(weights):
        weights[rng.randrange(fx.r)] = 1
    total = sum(weights)
    return tuple(
        target * Fraction(w, total) / fx.ideals[i][j] for i, w in enumerate(weights)
    )


def axis_point(rng: random.Random, fx: FixtureData) -> tuple[Fraction, ...]:
    """A nonzero point on one coordinate axis; the fixed cli jobs add each
    fixture's origin."""
    point = [Fraction(0)] * fx.r
    point[rng.randrange(fx.r)] = Fraction(rng.randint(1, 12), rng.randint(2, 12))
    return tuple(point)


def closure_divisor(rng: random.Random, fx: FixtureData, scale: int) -> tuple[int, ...]:
    """An integer divisor far from antinef, coefficients from -scale/4 to scale."""
    return tuple(rng.randint(-scale // 4, scale) for _ in range(fx.size))


def ray_direction(rng: random.Random, r: int) -> tuple[int, ...]:
    direction = [rng.randint(0, 2) for _ in range(r)]
    if not any(direction):
        direction[rng.randrange(r)] = 1
    return tuple(direction)


def ray_base(rng: random.Random, r: int) -> tuple[Fraction, ...]:
    """The origin half of the time, else a point with coordinates in [0, 1/2]."""
    if rng.random() < 0.5:
        return (Fraction(0),) * r
    return tuple(Fraction(rng.randint(0, 1), rng.randint(2, 6)) for _ in range(r))


def tuple_sum(rng: random.Random, fx: FixtureData, r: int) -> tuple[tuple[int, ...], ...]:
    """r ideals, each a nonnegative integer sum of the fixture's ideals and
    its fundamental cycle; sums of antinef divisors stay antinef."""
    generators = list(fx.ideals) + [fx.fundamental]
    ideals = []
    for _ in range(r):
        weights = [rng.randint(0, 2) for _ in generators]
        if not any(weights):
            weights[rng.randrange(len(generators))] = 1
        ideals.append(
            tuple(
                sum(w * g[i] for w, g in zip(weights, generators))
                for i in range(fx.size)
            )
        )
    return tuple(ideals)


# ---------------------------------------------------------------------------
# Jobs and their canonical text.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    key: str
    fixture: FixtureData
    call: Callable  # call(mmideal, ideal_tuple) -> canonical text
    ideals: tuple[tuple[int, ...], ...] | None = None  # None: the fixture's own
    expect: tuple[str, ...] = ()  # lines the text must contain


def _labels(support) -> str:
    return ",".join(str(j + 1) for j, inside in enumerate(support) if inside) or "-"


def _record_text(record) -> str:
    walls = ",".join(f"{j + 1}:{level}" for j, level in record.wall_lines)
    minimal = _labels(record.minimal) if record.minimal is not None else "none"
    return (
        f"c={fmt(record.point)} m={record.mult} D={fmt(record.divisor)} "
        f"D_left={fmt(record.divisor_left)} H={_labels(record.maximal)} "
        f"G={minimal} walls={walls or '-'}"
    )


def atlas_call(box, direction):
    def call(mm, ideals) -> str:
        atlas = mm.cell_decomposition(ideals, box)
        arrangement = atlas.arrangement
        lines = [
            f"box = {fmt(box)}",
            f"wall lines = {sum(1 for line in arrangement.lines if not line.is_box)}",
            f"vertices = {len(arrangement.vertices)}",
            f"faces = {len(arrangement.faces)}",
            f"cells = {len(atlas.cells)}",
            f"facets = {len(atlas.facets)}",
        ]
        lines += [f"cell {fmt(divisor)}" for divisor in atlas.cell_divisors]
        for facet in atlas.facets:
            sources = ",".join(f"{j + 1}:{level}" for j, level in facet.sources)
            lines.append(
                f"facet {sources} from {fmt(facet.endpoints[0])} to "
                f"{fmt(facet.endpoints[1])} m={facet.mult} low={fmt(facet.low_divisor)} "
                f"high={fmt(facet.high_divisor)} G={_labels(facet.minimal_support)}"
            )
        for vertex in mm.facet_intersection_vertices(atlas):
            report = mm.admissible_perturbation(ideals, vertex, direction)
            crossings = ";".join(f"{fmt(p)}:{m}" for _, p, m in report.crossings)
            lines.append(
                f"vertex {fmt(vertex)} m={report.center_mult} "
                f"offset={fmt(report.offset)} crossings={crossings}"
            )
        svg = mm.svg.render_atlas_svg(atlas)
        digest = hashlib.sha256(svg.encode()).hexdigest()
        lines.append(f"svg {len(svg)} bytes sha256 {digest}")
        return "\n".join(lines)

    return call


def walk_call(base, direction, until):
    def call(mm, ideals) -> str:
        ray = mm.make_ray(ideals, base, direction)
        jumps = mm.ray_walk(ideals, ray, until)
        lines = [
            f"jumps = {len(jumps)}",
            f"mults = {fmt([jump.mult for jump in jumps])}",
        ]
        lines += [f"mu={fmt(j.parameter)} {_record_text(j.record)}" for j in jumps]
        return "\n".join(lines)

    return call


def series_call(base, direction, extra):
    """Poincare series at horizon stability_bound + extra, expanded back."""

    def call(mm, ideals) -> str:
        ray = mm.make_ray(ideals, base, direction)
        horizon = mm.stability_bound(ideals, ray) + extra
        form = mm.poincare(ideals, ray, horizon)
        lines = [
            f"horizon = {fmt(horizon)}",
            f"series = {form.render()}",
            f"exponent denominator = {form.exponent_denominator}",
        ]
        lines += [
            f"anchor mu={fmt(t.parameter)} c={fmt(t.point)} m0={t.initial} step={t.step}"
            for t in form.anchors
        ]
        lines += [
            f"term mu={fmt(mu)} c={fmt(point)} m={m}"
            for mu, point, m in mm.series_expand(form, horizon)
        ]
        return "\n".join(lines)

    return call


def bijection_call(mm, ideals) -> str:
    report = mm.bijection_report(ideals)
    lines = [
        f"verdict = {report.verdict}",
        f"nest = {fmt([j + 1 for j in report.nest])}",
        f"lc_facets = {len(report.facets)}",
        f"lct = {fmt(report.lct)}",
    ]
    for facet in report.facets:
        lines.append(
            f"facet carriers={fmt([j + 1 for j in facet.carriers])} "
            f"vertices={' '.join(fmt(v) for v in facet.vertices)} "
            f"sample={fmt(facet.sample)} m={facet.sample_mult}"
        )
    lines += [f"axis contact {fmt([j + 1 for j in s])}" for s in report.axis_supports]
    if report.degenerate_ratio is not None:
        lines.append(f"degenerate_ratio = {fmt(report.degenerate_ratio)}")
        lines.append(f"degenerate_pair = {fmt([j + 1 for j in report.degenerate_pair])}")
    if report.witness is not None:
        lines.append(f"witness {fmt(report.witness[0])} m={report.witness[1]}")
    if report.pairing is not None:
        lines.append(f"pairing {' '.join(f'{j + 1}:{i + 1}' for j, i in report.pairing)}")
    return "\n".join(lines)


def lct_call(axis):
    def call(mm, ideals) -> str:
        return f"lct axis {axis + 1} = {fmt(mm.lct_axis(ideals, axis))}"

    return call


def nest_call(mm, ideals) -> str:
    return f"nest = {fmt([j + 1 for j in mm.newton_nest(ideals)])}"


def cli_call(argv):
    def call(mm, ideals) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = mm.cli.main(list(argv))
            except SystemExit as error:  # argparse usage errors
                code = error.code
        text = f"exit {code}\n{out.getvalue()}"
        if err.getvalue():
            text += f"stderr:\n{err.getvalue()}"
        if code != 0:
            raise CliFailure(text)
        return text

    return call


class CliFailure(Exception):
    """cli.main returned a nonzero exit code; the message is the job text."""


# ---------------------------------------------------------------------------
# Workloads: fixed jobs with known values, plus seeded strata.
# ---------------------------------------------------------------------------


def _cli_job(fx: FixtureData, *args: str, expect: tuple[str, ...] = ()) -> Job:
    command = [args[0], fx.path, *args[1:]]
    key = " ".join(["cli", args[0], fx.name, *args[1:]])
    return Job(key, fx, cli_call(command), expect=expect)


def _known_graph_lines(fx: FixtureData, command: str) -> tuple[str, ...]:
    """Lines of validate/kpi/fcycle output known without the library."""
    if command == "kpi":
        return (f"K = {fmt(fx.canonical)}",)
    if command == "fcycle":
        return (f"Z = {fmt(fx.fundamental)}", "colength = 1")
    singularity = fx.expected.get("singularity")
    return (f"singularity: {singularity}",) if singularity else ()


def _lc_expect(fx: FixtureData, kind: str, axis: int = 0) -> tuple[str, ...]:
    """Lines of a bijection, nest or lct job known from the expected block."""
    expected = fx.expected
    lines = []
    if kind == "bijection":
        for key in ("verdict", "lc_facets", "degenerate_ratio"):
            if key in expected:
                lines.append(f"{key} = {expected[key]}")
    if kind in ("bijection", "nest") and "nest" in expected:
        lines.append(f"nest = {fmt(expected['nest'])}")
    if kind == "bijection" and "lct" in expected:
        lines.append(f"lct = {fmt([Fraction(str(x)) for x in expected['lct']])}")
    if kind == "lct" and "lct" in expected:
        lines.append(f"lct axis {axis + 1} = {fmt(Fraction(str(expected['lct'][axis])))}")
    return tuple(lines)


def _sides(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in text.split())


def _atlas_item(name: str, sides: tuple[Fraction, ...]):
    def make(rng: random.Random) -> Job:
        box = (rng.choice(sides), rng.choice(sides))
        direction = rng.choice(((1, 1), (1, 2), (2, 1)))
        return Job(
            f"atlas {name} box={fmt(box)} dir={fmt(direction)}",
            bundled_fixture(name),
            atlas_call(box, direction),
        )

    return make


def _walk_item(name: str, candidates: int):
    """A walk from a seeded base along a seeded direction, with the horizon
    set so that about `candidates` candidate parameters lie on it."""

    def make(rng: random.Random) -> Job:
        fx = bundled_fixture(name)
        base = ray_base(rng, fx.r)
        direction = ray_direction(rng, fx.r)
        slope = sum(
            sum(u * fx.ideals[i][j] for i, u in enumerate(direction))
            for j in range(fx.size)
        )
        until = Fraction(candidates, slope)
        return Job(
            f"walk {name} base={fmt(base)} dir={fmt(direction)} until={fmt(until)}",
            fx,
            walk_call(base, direction, until),
        )

    return make


def _series_item(name: str, direction: tuple[int, ...]):
    def make(rng: random.Random) -> Job:
        fx = bundled_fixture(name)
        base = ray_base(rng, fx.r)
        return Job(
            f"series {name} base={fmt(base)} dir={fmt(direction)}",
            fx,
            series_call(base, direction, 2),
        )

    return make


def _lc_item(name: str, r: int, kind: str):
    def make(rng: random.Random) -> Job:
        fx = bundled_fixture(name)
        ideals = tuple_sum(rng, fx, r)
        tag = ";".join(fmt(v) for v in ideals)
        if kind == "lct":
            axis = rng.randrange(r)
            return Job(f"lct {name} axis={axis + 1} ideals={tag}", fx, lct_call(axis), ideals)
        call = bijection_call if kind == "bijection" else nest_call
        return Job(f"{kind} {name} ideals={tag}", fx, call, ideals)

    return make


def _fixture(name: str) -> FixtureData:
    """A bundled fixture, or generated graph "G<index>"."""
    return bundled_fixture(name) if name in BUNDLED else blowup_graph(int(name[1:]))


def _point_item(name: str):
    def make(rng: random.Random) -> Job:
        fx = _fixture(name)
        point = wall_point(rng, fx) if rng.random() < 0.75 else axis_point(rng, fx)
        return _cli_job(fx, "point", "--c", fmt(point))

    return make


def _closure_item(name: str, scale: int):
    def make(rng: random.Random) -> Job:
        fx = _fixture(name)
        return _cli_job(fx, "closure", f"--divisor={fmt(closure_divisor(rng, fx, scale))}")

    return make


def _fixed_jobs(workload: str) -> list[Job]:
    """Jobs run in every pass, most of them with independently known values."""
    F = {name: bundled_fixture(name) for name in BUNDLED}
    if workload == "atlas":
        return [
            Job(
                "atlas RAT6 box=1,1 dir=1,1",
                F["RAT6"],
                atlas_call((1, 1), (1, 1)),
                # README transcript of `mmideal walls RAT6 --box 1,1`
                expect=(
                    "wall lines = 40", "vertices = 91", "faces = 85",
                    "cells = 27", "facets = 37",
                ),
            )
        ]
    if workload == "rays":
        return [
            Job(
                "walk RAT6 base=0,0 dir=1,1 until=1/2",
                F["RAT6"],
                walk_call((0, 0), (1, 1), Fraction(1, 2)),
                expect=("jumps = 6", "mults = 1,3,4,1,5,1"),  # README transcript
            ),
            Job(
                "series SMOOTH1 base=0 dir=1 horizon=3",
                F["SMOOTH1"],
                series_call((0,), (1,), 2),
                expect=("horizon = 3", "series = t^2/(1 - t)^2"),  # README transcript
            ),
        ]
    if workload == "lc":
        jobs = []
        for fx in F.values():
            jobs.append(Job(f"bijection {fx.name}", fx, bijection_call,
                            expect=_lc_expect(fx, "bijection")))
            jobs.append(Job(f"nest {fx.name}", fx, nest_call, expect=_lc_expect(fx, "nest")))
            jobs += [
                Job(f"lct {fx.name} axis={axis + 1}", fx, lct_call(axis),
                    expect=_lc_expect(fx, "lct", axis))
                for axis in range(fx.r)
            ]
        return jobs
    # cli: graph data and the origin of every bundled fixture, graph data of
    # every generated graph, and the README transcripts for RAT6
    rat6 = F["RAT6"]
    jobs = [
        _cli_job(rat6, "closure", "--divisor", "0,1,-1,0,0,0",
                 expect=("closure = 3,2,3,1,1,1", "colength = 1")),
        _cli_job(rat6, "point", "--c", "1/4,1/4", expect=(
            "c = 1/4,1/4", "D = 6,3,6,3,1,1", "D_left = 4,2,4,2,1,1",
            "H = E1, E2, E3, E4",
            "m = 3 (adjunction) = 3 (fractional) = 3 (colength oracle)",
            "G = E1, E2, E4", "m via G = 3",
            "walls: V_{1,5}, V_{2,3}, V_{3,4}, V_{4,3}",
        )),
    ]
    for fx in F.values():
        for command in ("validate", "kpi", "fcycle"):
            jobs.append(_cli_job(fx, command, expect=_known_graph_lines(fx, command)))
        jobs.append(_cli_job(fx, "point", "--c", fmt((0,) * fx.r)))
    for g in range(GRAPH_POOL):
        fx = blowup_graph(g)
        for command in ("validate", "fcycle"):
            jobs.append(_cli_job(fx, command, expect=_known_graph_lines(fx, command)))
    return jobs


# (stratum name, items per pass, item generator)
STRATA: dict[str, list[tuple[str, int, Callable]]] = {
    "atlas": [
        ("rat6", 50, _atlas_item("RAT6", _sides("1/4 2/7 1/3 3/8 2/5 3/7"))),
        ("chain10", 6, _atlas_item("CHAIN10", _sides("1/3 5/14 3/8 2/5"))),
        ("prop16", 44, _atlas_item("PROP16", _sides("1/16 2/31 1/15 2/29 1/14 2/27"))),
    ],
    # Half the jobs are RAT6 walks, between cheap SMOOTH1 jobs and dearer
    # walks and series, so the middle band of job times (job_ms.p50) lies
    # inside one stratum of similar cost.
    "rays": [
        ("smooth1", 25, _walk_item("SMOOTH1", 20)),
        ("series-smooth1-1", 3, _series_item("SMOOTH1", (1,))),
        ("rat6", 50, _walk_item("RAT6", 30)),
        ("chain10", 8, _walk_item("CHAIN10", 30)),
        ("nest14", 6, _walk_item("NEST14", 20)),
        ("prop16", 6, _walk_item("PROP16", 20)),
        ("series-rat6-1,1", 2, _series_item("RAT6", (1, 1))),
        ("series-rat6-1,2", 2, _series_item("RAT6", (1, 2))),
    ],
    # (fixture, r): picks of bijection, lct and nest jobs; a bijection report
    # rebuilds the lc region about 16 times, a nest about 6, an lct once
    "lc": [
        (f"{name}-r{r}-{kind}", count, _lc_item(name, r, kind))
        for name, r, counts in (
            ("SMOOTH1", 2, (6, 6, 6)),
            ("SMOOTH1", 3, (4, 6, 4)),
            ("RAT6", 2, (5, 8, 5)),
            ("RAT6", 3, (1, 4, 1)),
            ("CHAIN10", 2, (2, 6, 2)),
            ("PROP16", 2, (1, 5, 1)),
            ("NEST14", 2, (1, 5, 1)),
        )
        for kind, count in zip(("bijection", "lct", "nest"), counts)
    ],
    "cli": [
        *((f"{name}-point", 8, _point_item(name)) for name in BUNDLED),
        *(
            (f"{name}-closure-{scale}", 2, _closure_item(name, scale))
            for name in BUNDLED
            for scale in (10, 100, 1000)
        ),
        *((f"G{g:02d}-point", 2, _point_item(f"G{g:02d}")) for g in range(GRAPH_POOL)),
        *(
            (f"G{g:02d}-closure-{scale}", 1, _closure_item(f"G{g:02d}", scale))
            for g in range(GRAPH_POOL)
            for scale in (100, 1000)
        ),
    ],
}


def pool_size(count: int) -> int:
    """Items a stratum holds when a pass draws `count` of them.  Most items
    are shared between seeds, so the job mix, and with it the job-time
    percentiles, moves little from seed to seed."""
    return count + max(1, count // 4)


def stratum_items(workload: str) -> list[tuple[str, list[Job]]]:
    """Every job a seed can pick, stratum by stratum."""
    return [
        (name, [make(random.Random(f"{workload}:{name}:{i}")) for i in range(pool_size(count))])
        for name, count, make in STRATA[workload]
    ]


def all_jobs(workload: str) -> list[Job]:
    """Every job any seed can run; the recorded outputs cover exactly these."""
    jobs = _fixed_jobs(workload)
    for _, items in stratum_items(workload):
        jobs += items
    return jobs


def pass_jobs(workload: str, seed: int) -> list[Job]:
    """The seed's job list: the fixed jobs plus a seeded draw per stratum,
    in seeded order."""
    rng = random.Random(seed)
    jobs = _fixed_jobs(workload)
    for name, count, make in STRATA[workload]:
        for i in sorted(rng.sample(range(pool_size(count)), count)):
            jobs.append(make(random.Random(f"{workload}:{name}:{i}")))
    rng.shuffle(jobs)
    return jobs
