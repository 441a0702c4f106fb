"""Wall atlases, the log-canonical wall, Newton nests, and the facet pairing."""

import hashlib
import math
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

import frozen
import scale
from conftest import (
    FIXTURE_NAMES,
    bench_module,
    cold,
    divisor_leq,
    edge_point,
    face_barycenter,
    on_line,
    record_calls,
    vertex_points,
)
from trees import random_tree_matrix, seeded_rows
from mmideal.arrangement import build_arrangement, merge_lines
from mmideal.evaluate import _evaluate_at
from mmideal.rationals import format_point
from mmideal.svg import _decimal, render_atlas_svg
from mmideal import (
    RegionReport,
    attach_ideals,
    bijection_report,
    build_graph,
    cell_decomposition,
    evaluate_point,
    facet_intersection_vertices,
    lc_region,
    lct_axis,
    make_ray,
    newton_nest,
    ray_walk,
    region,
    subtuple,
    wall_lines,
)
from mmideal import cli, svg, walls
from mmideal.errors import (
    BindingNonRuptureConstraint,
    BoxTooSmall,
    InternalConsistencyError,
    LengthMismatch,
    NoCleanSample,
    ValidationError,
)
from mmideal.evaluate import mmi_divisor
from mmideal.walls import require_valid_region


def test_wall_lines_have_positive_levels(rat6):
    lines = wall_lines(rat6, (Fraction(1), Fraction(1)))
    assert len(lines) == 57  # one per (component, level) pair meeting the box
    assert len(merge_lines(lines)) == 40  # distinct geometric lines
    for line in lines:
        assert line.sources
        assert all(level >= 1 for _, level in line.sources)


def test_box_too_small(rat6):
    with pytest.raises(BoxTooSmall):
        wall_lines(rat6, (Fraction(1, 100), Fraction(1, 100)))


@pytest.mark.parametrize("box", [(1,), (1, 1, 5)], ids=["one side", "three sides"])
def test_box_needs_two_sides(rat6, box):
    with pytest.raises(LengthMismatch, match="box sides: expected 2 entries"):
        cell_decomposition(rat6, box)


@pytest.mark.parametrize(
    "box",
    [(0.3, 0.3), (True, 1), (1, False), ("1/2", 1)],
    ids=["float", "bool", "bool second", "str"],
)
def test_box_sides_are_ints_or_fractions(rat6, box):
    with pytest.raises(ValidationError, match="integers or Fractions"):
        cell_decomposition(rat6, box)


def test_int_and_fraction_sides_build_the_same_walls(rat6):
    assert wall_lines(rat6, (1, Fraction(1, 2))) == wall_lines(
        rat6, (Fraction(1), Fraction(1, 2))
    )


def test_rat6_atlas_counts(rat6_atlas):
    arr = rat6_atlas.arrangement
    assert len([line for line in arr.lines if not line.is_box]) == 40
    assert len(arr.vertices) == 91
    assert len(arr.faces) == 85
    assert len(rat6_atlas.cells) == 27
    assert len(rat6_atlas.facets) == 37


def test_chain10_atlas_counts(chain10_atlas):
    arr = chain10_atlas.arrangement
    assert len([line for line in arr.lines if not line.is_box]) == 141
    assert len(arr.vertices) == 2482
    assert len(arr.faces) == 2469
    assert len(chain10_atlas.cells) == 134
    assert len(chain10_atlas.facets) == 240


def test_rat6_atlas_at_scale(rat6, inject):
    # the full 4x4 atlas; cell_decomposition runs the outer-orbit, Euler,
    # barycenter, propagation and facet-sample checks on the way
    direct = walls.mmi_divisor
    calls = []

    def counted(ideals, point):
        calls.append(point)
        return direct(ideals, point)

    inject(walls, "mmi_divisor", counted)
    atlas = cell_decomposition(cold(rat6), (Fraction(4), Fraction(4)))
    arr = atlas.arrangement
    assert len([line for line in arr.lines if not line.is_box]) == 163
    assert (len(arr.vertices), len(arr.faces)) == (832, 1012)
    assert len(arr.vertices) - len(arr.edges) + len(arr.faces) == 1
    assert (len(atlas.cells), len(atlas.facets)) == (447, 760)
    # face divisors are propagated; only one face per cell is evaluated
    assert len(calls) <= len(atlas.cells)


# box sides the benchmark's atlas workload draws from
ATLAS_SIDES = {
    "RAT6": "1/4 2/7 1/3 3/8 2/5 3/7",
    "CHAIN10": "1/3 5/14 3/8 2/5",
    "PROP16": "1/16 2/31 1/15 2/29 1/14 2/27",
}


def _seeded_boxes(seed, per_fixture):
    rng = random.Random(seed)
    cases = []
    for name, text in ATLAS_SIDES.items():
        sides = [Fraction(side) for side in text.split()]
        cases += [
            (name, (rng.choice(sides), rng.choice(sides)))
            for _ in range(per_fixture)
        ]
    return cases


PROPAGATION_CASES = [
    *(("RAT6", (Fraction(n), Fraction(n))) for n in range(1, 5)),
    ("CHAIN10", (Fraction(1), Fraction(1))),
    ("PROP16", (Fraction(1, 8), Fraction(1, 8))),
    ("smooth pair", (Fraction(3), Fraction(3))),
    ("smooth pair", (Fraction(5, 2), Fraction(7, 2))),
    *_seeded_boxes(seed=1, per_fixture=2),
]


def _smooth_pair():
    return attach_ideals(build_graph([[-1]]), [(1,), (1,)])


@pytest.mark.parametrize(
    "name, box",
    PROPAGATION_CASES,
    ids=[f"{name} {format_point(box)}" for name, box in PROPAGATION_CASES],
)
def test_propagated_faces_match_direct_evaluation(tuples, name, box):
    ideals = _smooth_pair() if name == "smooth pair" else tuples[name]
    atlas = cell_decomposition(ideals, box)
    floors = walls._face_floors(ideals, atlas.arrangement)
    assert len(floors) == len(atlas.face_divisors) == len(atlas.arrangement.faces)
    for face, propagated, divisor in zip(
        atlas.arrangement.faces, floors, atlas.face_divisors
    ):
        evaluation = evaluate_point(ideals, face_barycenter(atlas.arrangement, face))
        assert propagated == tuple(max(f, 0) for f in evaluation.floors)
        assert divisor == mmi_divisor(ideals, evaluation)


def _swap_sides(arrangement, position):
    interior = [
        e
        for e, (low, high) in enumerate(arrangement.edge_faces)
        if low is not None and high is not None
    ]
    edge_faces = list(arrangement.edge_faces)
    low, high = edge_faces[interior[position]]
    edge_faces[interior[position]] = (high, low)
    return arrangement._replace(edge_faces=tuple(edge_faces))


def _drop_source(arrangement, index=None, source=None):
    """The arrangement with one source removed from one line; by default the
    first source of the first line that has two or more."""
    if index is None:
        index = next(
            i for i, line in enumerate(arrangement.lines) if len(line.sources) >= 2
        )
    line = arrangement.lines[index]
    kept = tuple(s for s in line.sources if s != (source or line.sources[0]))
    assert len(kept) == len(line.sources) - 1
    lines = list(arrangement.lines)
    lines[index] = line._replace(sources=kept)
    return arrangement._replace(lines=tuple(lines))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda arrangement: _swap_sides(arrangement, 0), "crossing edge"),
        (lambda arrangement: _swap_sides(arrangement, -1), "crossing edge"),
        (_drop_source, "crossing edge"),
        # line 31 carries no facet, so no crossing of it exposes these two
        (lambda arrangement: _drop_source(arrangement, 31, (0, 18)), "wall line 31"),
        (lambda arrangement: _drop_source(arrangement, 31, (2, 17)), "wall line 31"),
    ],
    ids=[
        "first interior edge swapped",
        "last interior edge swapped",
        "source dropped",
        "source E1 level 18 dropped from line 31",
        "source E3 level 17 dropped from line 31",
    ],
)
def test_corrupted_arrangement_is_caught(rat6, inject, corrupt, message):
    build = walls.build_arrangement
    inject(walls, "build_arrangement", lambda lines, box: corrupt(build(lines, box)))
    with pytest.raises(InternalConsistencyError, match=message):
        cell_decomposition(cold(rat6), (Fraction(1), Fraction(1)))


def test_every_dropped_source_is_caught(rat6, inject):
    box = (Fraction(1), Fraction(1))
    build = walls.build_arrangement
    arrangement = build(wall_lines(rat6, box), box)
    drops = [
        (index, source)
        for index, line in enumerate(arrangement.lines)
        if not line.is_box
        for source in line.sources
    ]
    # 34 of the 57 come from lines with two or more sources
    shared = sum(len(arrangement.lines[index].sources) >= 2 for index, _ in drops)
    assert (len(drops), shared) == (57, 34)
    for index, source in drops:
        inject(
            walls,
            "build_arrangement",
            lambda lines, box: _drop_source(build(lines, box), index, source),
        )
        with pytest.raises(InternalConsistencyError):
            cell_decomposition(cold(rat6), box)


# Reference for the wall-line source check in `walls._face_floors`: the wall
# lines of the point evaluation at the midpoint of each wall line's first
# edge, the route the integer scan `walls._walls_through` replaced.  The scan
# is also compared at every vertex, where several walls can meet.


@pytest.mark.parametrize(
    "name, side",
    [("RAT6", 1), ("RAT6", 2), ("RAT6", 3), ("RAT6", 4), ("CHAIN10", 1),
     ("PROP16", Fraction(1, 8))],
)
def test_wall_scan_matches_point_evaluation(tuples, name, side):
    ideals = tuples[name]
    box = (Fraction(side), Fraction(side))
    arrangement = build_arrangement(wall_lines(ideals, box), box)
    for line_index, line in enumerate(arrangement.lines):
        if line.is_box:
            continue
        tail, head, _ = arrangement.edges[arrangement.line_edges[line_index][0]]
        (x, y), w = midpoint = arrangement.mean((tail, head))
        reference = _evaluate_at(ideals, *midpoint).wall_lines
        assert tuple(walls._walls_through(ideals, x, y, w)) == reference
        assert set(reference) == set(line.sources)
    crowded = 0
    for x, y, w in arrangement.vertices:
        reference = _evaluate_at(ideals, (x, y), w).wall_lines
        assert tuple(walls._walls_through(ideals, x, y, w)) == reference
        crowded += len(reference) >= 2
    assert crowded > 0


def test_chain10_arrangement_at_scale(chain10):
    box = (Fraction(2), Fraction(2))
    arr = build_arrangement(wall_lines(chain10, box), box)
    assert len([line for line in arr.lines if not line.is_box]) == 336
    assert (len(arr.vertices), len(arr.faces)) == (11760, 11934)
    assert len(arr.vertices) - len(arr.edges) + len(arr.faces) == 1


def test_atlas_svg_with_lct_ticks(rat6, rat6_atlas):
    # the picture `mmideal walls --svg` writes; the digest was computed with
    # the earlier Fraction arrangement, per-face vertex formatting and
    # digit-by-digit decimal expansion, so it pins that all three are unchanged
    ticks = lc_region(rat6).thresholds
    assert ticks == (Fraction(1, 6), Fraction(1))
    svg = render_atlas_svg(rat6_atlas, ticks)
    assert svg.count('stroke="crimson"') == 2
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "7fa5540fe851103bf6334558570326fd427a49a422456df889d2c70dff3221a6"
    )


@pytest.mark.parametrize(
    "ticks",
    [(0.5,), ("1/2",), (Fraction(1, 2), None), Fraction(1, 2), "1/2"],
    ids=["float", "str", "none", "scalar", "text"],
)
def test_svg_ticks_take_ints_and_fractions(rat6_atlas, ticks):
    with pytest.raises(ValidationError):
        render_atlas_svg(rat6_atlas, ticks)


def _reference_pixels(atlas, ticks):
    """Every coordinate string of the picture by the `Fraction` formulas
    _MARGIN + x/bx * _WIDTH and _MARGIN + (1 - y/by) * height."""
    bx, by = atlas.box

    def decimal(value):
        return _decimal(value.numerator, value.denominator)

    def x_pix(x):
        return decimal(svg._MARGIN + Fraction(x, bx) * svg._WIDTH)

    def y_pix(y):
        return decimal(svg._MARGIN + (1 - Fraction(y, by)) * svg._WIDTH)

    arr = atlas.arrangement
    points = vertex_points(arr)
    polygons = [
        " ".join(f"{x_pix(points[v][0])},{y_pix(points[v][1])}" for v in loop)
        for cell in atlas.cells
        for loop in (arr.faces[face] for face in cell)
    ]
    segments = [
        (x_pix(x0), y_pix(y0), x_pix(x1), y_pix(y1))
        for (x0, y0), (x1, y1) in (facet.endpoints for facet in atlas.facets)
    ]
    tick_x = [x_pix(ticks[0])] if len(ticks) > 0 and 0 <= ticks[0] <= bx else []
    tick_y = [y_pix(ticks[1])] if len(ticks) > 1 and 0 <= ticks[1] <= by else []
    return polygons, segments, tick_x, tick_y


@pytest.mark.parametrize(
    "name, box",
    [*(("RAT6", (n, n)) for n in range(1, 5)), ("RAT6", (Fraction(3, 7), Fraction(2, 5))),
     ("CHAIN10", (1, 1)), ("PROP16", (Fraction(1, 8), Fraction(2, 27)))],
)
def test_svg_pixels_match_fraction_formula(tuples, name, box):
    ideals = tuples[name]
    atlas = cell_decomposition(ideals, box)
    ticks = lc_region(ideals).thresholds
    picture = render_atlas_svg(atlas, ticks)
    polygons, segments, tick_x, tick_y = _reference_pixels(atlas, ticks)
    assert re.findall(r'<polygon points="([^"]*)"', picture) == polygons
    assert re.findall(
        r'<line x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)" stroke="#222222"',
        picture,
    ) == segments
    assert re.findall(r'<line x1="([^"]*)" y1="780"', picture) == tick_x
    assert re.findall(r'<line x1="50" y1="([^"]*)"', picture) == tick_y
    assert 'x="60" y="824"' in picture and 'x="780" y="48"' in picture


def test_facet_transitions(rat6_atlas, chain10_atlas):
    for atlas in (rat6_atlas, chain10_atlas):
        arr = atlas.arrangement
        vertices = set(vertex_points(arr))
        for facet in atlas.facets:
            assert facet.mult >= 1
            assert divisor_leq(facet.low_divisor, facet.high_divisor)
            assert facet.low_divisor != facet.high_divisor
            assert any(facet.minimal_support)
            # samples sit inside the open first and last edges of the run
            first = arr.edges[facet.edge_indices[0]]
            last = arr.edges[facet.edge_indices[-1]]
            assert facet.samples == (
                edge_point(arr, first, Fraction(1, 3)),
                edge_point(arr, last, Fraction(2, 3)),
            )
            assert not vertices & set(facet.samples)


def test_rat6_lc_facets(rat6, rat6_atlas):
    origin = mmi_divisor(rat6, (0, 0))
    lc_facets = [f for f in rat6_atlas.facets if f.low_divisor == origin]
    assert len(lc_facets) == frozen.RAT6_LC_FACETS
    details = {
        (f.minimal_support, f.mult, f.endpoints) for f in lc_facets
    }
    corner = frozen.RAT6_CORNER
    assert details == {
        (
            (False, False, False, True, False, False),
            1,
            (corner, (Fraction(1, 6), Fraction(0))),
        ),
        (
            (False, True, False, False, False, False),
            2,
            ((Fraction(0), Fraction(1)), corner),
        ),
    }


def test_facet_intersection_vertices(rat6_atlas):
    vertices = facet_intersection_vertices(rat6_atlas)
    assert len(vertices) == 17
    assert frozen.RAT6_CORNER in vertices


# Theorem checks across layers.  Each ties the arrangement's C-facets to a
# second layer through a statement about the walls, not a second copy of a
# loop; both stay in tests, since `cell_decomposition` already runs its own.


def _lowest_terms(key):
    """A `Fraction` hyperplane key as its integer triple with gcd 1."""
    scale = math.lcm(*(entry.denominator for entry in key))
    entries = [int(entry * scale) for entry in key]
    divisor = math.gcd(*entries)
    return tuple(entry // divisor for entry in entries)


def _seeded_pairs(tuples, seed, count):
    """Pairs of nonnegative integer combinations, with coefficients 0 or 1, of
    one fixture's ideals and its fundamental cycle."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        ideals = tuples[rng.choice(FIXTURE_NAMES)]
        generators = ideals.ideals + (ideals.graph.fundamental,)
        pair = []
        for _ in range(2):
            coefficients = [0] * len(generators)
            while not any(coefficients):
                coefficients = [rng.randint(0, 1) for _ in generators]
            pair.append(
                [
                    sum(c * entry for c, entry in zip(coefficients, column))
                    for column in zip(*generators)
                ]
            )
        pairs.append(attach_ideals(ideals.graph, pair))
    return pairs


def test_lc_polytope_facets_bound_the_origin_cell(tuples):
    """In a box that holds the lc region, the carrier lines of the C-facets
    leaving the origin cell are exactly the lc polytope's facet hyperplanes.

    The polytope clips the orthant by one row per component; the atlas finds
    the same wall as where the propagated face divisors first change.  The
    origin cell is the cell of the face at the corner (0, 0), vertex 0, and
    carries that face's divisor.  A region bound of k_j + e_j + 1/2 in place
    of k_j + 1 + e_j passes the per-axis threshold check on RAT6 but fails
    here."""
    nest14 = tuples["NEST14"]
    cases = [tuples[name] for name in ("RAT6", "CHAIN10", "PROP16")]
    cases += [subtuple(nest14, pair) for pair in ((0, 1), (0, 2), (1, 2))]
    cases += _seeded_pairs(tuples, seed=1, count=10)
    for ideals in cases:
        report = lc_region(ideals)
        box = tuple(threshold + Fraction(1, 5) for threshold in report.thresholds)
        atlas = cell_decomposition(ideals, box)
        arr = atlas.arrangement
        assert arr.vertices[0] == (0, 0, 1)
        corner = next(face for face, loop in enumerate(arr.faces) if 0 in loop)
        origin = atlas.face_divisors[corner]
        carriers = {
            arr.lines[facet.line_index].form
            for facet in atlas.facets
            if facet.low_divisor == origin
        }
        assert carriers == {_lowest_terms(key) for key in report.polytope.facet_keys}


def test_facets_lie_on_contributing_walls(tuples, rat6_atlas, chain10_atlas):
    """Every C-facet has a source component that is rupture or dicritical.

    For one ideal, only rupture and dicritical divisors contribute jumping
    numbers (Smith–Thompson 2007; Tucker, Trans. AMS 2010).  For the walls of
    a tuple the property is measured here, not proven: Alberich-Carramiñana,
    Àlvarez Montaner, Dachs-Cadefau and González-Alonso, "Constancy regions
    of mixed multiplier ideals…", is where a statement would be, and none has
    been checked there.  Wall lines whose sources are all unmarked do cross
    these boxes (77 of 141 on CHAIN10 1x1, 186 of 440 on PROP16 1/4x1/4, none
    on RAT6), so the check is not vacuous.  Marking rupture components at
    valence 4 instead of 3 fails it."""
    nest14 = tuples["NEST14"]
    boxes = [(tuples["RAT6"], (side, side)) for side in (2, 3, 4)]
    boxes.append((tuples["PROP16"], (Fraction(1, 4), Fraction(1, 4))))
    boxes += [
        (subtuple(nest14, pair), (Fraction(1, 2), Fraction(1, 2)))
        for pair in ((0, 1), (0, 2), (1, 2))
    ]
    atlases = [(tuples["RAT6"], rat6_atlas), (tuples["CHAIN10"], chain10_atlas)]
    atlases += [(ideals, cell_decomposition(ideals, box)) for ideals, box in boxes]
    unmarked_lines = 0
    for ideals, atlas in atlases:
        keep = ideals.rupture_or_dicritical
        for facet in atlas.facets:
            assert any(keep[j] for j, _ in facet.sources), facet.sources
        unmarked_lines += sum(
            not line.is_box and not any(keep[j] for j, _ in line.sources)
            for line in atlas.arrangement.lines
        )
    assert unmarked_lines > 0


def test_lct_axes(tuples):
    expected = {
        "RAT6": frozen.RAT6_LCT,
        "CHAIN10": (Fraction(15, 44), Fraction(10, 21)),
        "NEST14": frozen.NEST14_LCT,
        "PROP16": frozen.PROP16_LCT,
        "SMOOTH1": (Fraction(2),),
    }
    for name, ideals in tuples.items():
        axes = tuple(lct_axis(ideals, i) for i in range(ideals.r))
        assert axes == tuple(Fraction(x) for x in expected[name]), name


def test_axis_Gprime(rat6, chain10, nest14):
    # G' of each axis: the rupture-or-dicritical components whose wall passes
    # through that ideal's threshold point
    assert bijection_report(rat6).axis_supports == ((3,), (1,))
    assert bijection_report(chain10).axis_supports == ((9,), (4,))
    assert bijection_report(nest14).axis_supports == ((4,), (5,), (13,))


def test_newton_nests(tuples):
    expected_one_based = {
        "RAT6": frozen.RAT6_NEST,
        "CHAIN10": (5, 10),
        "NEST14": frozen.NEST14_NEST,
        "PROP16": frozen.PROP16_NEST,
        "SMOOTH1": (1,),
    }
    for name, ideals in tuples.items():
        nest = newton_nest(ideals)
        assert tuple(j + 1 for j in nest) == expected_one_based[name], name


def test_lc_region_valid(tuples):
    for ideals in tuples.values():
        report = require_valid_region(lc_region(ideals))
        assert report.valid
        assert report.binding_non_rupture == ()


def test_binding_non_rupture_components_refuse_the_region(tuples, inject, capsys):
    """A region that components neither rupture nor dicritical bind is
    refused by name: by `require_valid_region`, and by `lct` with exit 2."""
    inject(RegionReport, "binding_non_rupture", property(lambda report: (1, 3)))
    with pytest.raises(BindingNonRuptureConstraint, match="components 2, 4 bind"):
        require_valid_region(lc_region(tuples["RAT6"]))
    assert cli.main(["lct", "RAT6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "validation error: components 2, 4 bind the region despite being "
        "neither rupture nor dicritical\n"
    )


def test_lc_region_is_the_region_of_the_origin(tuples):
    """The bounds the graph holds for the origin, B_j = D*k_j + D*(1 + e_j)
    with e the closure of floor(-K), against `region` evaluating c = 0 as
    any other point.  Each side runs on its own cold graph, so neither is
    served the other's closure.  The cases are every bundled fixture, the
    benchmark's blow-up graphs 0..3, and seeded r = 2 and r = 3 sums on each
    fixture's graph.  Those graphs give floor(-K) and its ceiling one
    closure, so the cases end with the fundamental cycle and its seeded sums
    on seeded chains and trees, where -K has fractional positive entries:
    reading floor(-K) as a ceiling fails there."""
    cases = list(tuples.values())
    for index in range(4):
        fixture = bench_module("workloads").blowup_graph(index)
        cases.append(attach_ideals(build_graph(fixture.matrix), fixture.ideals))
    rng = random.Random(1)
    cases += [scale.sums(ideals, r, rng) for ideals in tuples.values() for r in (2, 3)]
    for shape in ("chain", "tree"):
        graph = build_graph(seeded_rows(rng, shape, 12))
        ideals = attach_ideals(graph, [graph.fundamental])
        cases += [ideals] + [scale.sums(ideals, r, rng) for r in (2, 3)]
    for ideals in cases:
        origin = (Fraction(0),) * ideals.r
        expected = region(cold(ideals), origin)
        report = lc_region(cold(ideals))
        assert report.scaled_bounds == expected.scaled_bounds
        assert report.center == expected.center == origin


def test_the_origin_closure_is_asked_once_per_graph(monkeypatch, nest14):
    """Twenty lc calls over three tuples on one cold graph ask for the
    closure of floor(-K), the origin's floors, once, and evaluate no point
    at the origin."""
    ideals = cold(nest14)
    denominator, scaled = ideals.graph.scaled_canonical
    floors = tuple(-k // denominator for k in scaled)
    closures = record_calls(monkeypatch, "unloading", "antinef_closure_checked")
    evaluated = record_calls(monkeypatch, "evaluate", "_evaluate_at")
    cases = [ideals, subtuple(ideals, (0, 1)), subtuple(ideals, (1, 2))]
    calls = (lambda t: lct_axis(t, 1), newton_nest, bijection_report)
    for call in range(20):
        calls[call // 3 % 3](cases[call % 3])
    assert sum(tuple(args[1]) == floors for args in closures) == 1
    assert evaluated and all(any(args[1]) for args in evaluated)


def test_lct_routes_must_agree(inject, capsys, nest14, rat6):
    # the min-ratio route drifts on the second axis; the polytope's vertex on
    # that axis no longer matches it, in every region build; the honest route
    # is the class's own descriptor, read for each report
    honest = RegionReport.thresholds.__get__

    def drifted(report):
        values = list(honest(report))
        values[1] += Fraction(1, 7)
        return tuple(values)

    inject(RegionReport, "thresholds", property(drifted))
    with pytest.raises(InternalConsistencyError, match="axis 2: min-ratio route"):
        bijection_report(nest14)
    with pytest.raises(InternalConsistencyError, match="axis 2: min-ratio route"):
        region(rat6, (Fraction(1, 3), Fraction(1, 5))).polytope
    assert cli.main(["lct", "RAT6"]) == 3
    assert "axis 2: min-ratio route gives" in capsys.readouterr().err


def _path_union_nest(adjacency, keep, supports):
    """The nest as the union of tree paths from one member to every other."""
    members = set().union(*supports)
    if not members:
        return ()
    anchor = min(members)
    subtree = set()
    for member in members:
        previous = {anchor: anchor}
        queue = [anchor]
        while queue:
            current = queue.pop(0)
            for neighbor in adjacency[current]:
                if neighbor not in previous:
                    previous[neighbor] = current
                    queue.append(neighbor)
        step = member
        subtree.add(step)
        while step != anchor:
            step = previous[step]
            subtree.add(step)
    return tuple(sorted(j for j in subtree if keep[j]))


def test_nest_pruning_matches_path_union():
    rng = random.Random(23)
    for _ in range(300):
        rows = random_tree_matrix(rng, max_size=12)
        size = len(rows)
        adjacency = tuple(
            tuple(l for l in range(size) if l != j and rows[j][l]) for j in range(size)
        )
        for keep in ((True,) * size, tuple(rng.random() < 0.5 for _ in range(size))):
            tree = SimpleNamespace(
                graph=SimpleNamespace(adjacency=adjacency), rupture_or_dicritical=keep
            )
            chosen = rng.sample(range(size), rng.randint(1, size))
            split = rng.randint(0, len(chosen))
            cases = [
                [],
                [()],
                [(rng.randrange(size),)],
                [tuple(range(size))],
                [tuple(chosen[:split]), tuple(chosen[split:])],
            ]
            for supports in cases:
                assert walls._nest(tree, supports) == _path_union_nest(
                    adjacency, keep, supports
                )


def test_bijection_rat6(rat6):
    report = bijection_report(rat6)
    assert report.verdict == "MultiplicityHypothesisFails"
    assert not report.bijection
    assert len(report.facets) == frozen.RAT6_LC_FACETS
    assert tuple(j + 1 for j in report.nest) == frozen.RAT6_NEST
    assert report.lct == frozen.RAT6_LCT
    assert report.axis_supports == ((3,), (1,))
    # the facet carried by E2 has an interior point of multiplicity 2
    assert report.witness == ((Fraction(1, 24), Fraction(7, 8)), 2)
    assert {(f.carriers, f.sample_mult) for f in report.facets} == {
        ((3,), 1),
        ((1,), 2),
    }


def test_bijection_chain10(chain10):
    report = bijection_report(chain10)
    assert report.verdict == "Bijection"
    assert report.bijection
    assert tuple(j + 1 for j in report.nest) == (5, 10)
    assert report.pairing == ((9, 0), (4, 1))
    assert all(f.sample_mult == 1 for f in report.facets)


def test_bijection_nest14(nest14):
    report = bijection_report(nest14)
    assert report.verdict == "Bijection"
    assert tuple(j + 1 for j in report.nest) == frozen.NEST14_NEST
    assert len(report.facets) == frozen.NEST14_LC_FACETS
    assert [f.carriers for f in report.facets] == [(4,), (0,), (13,), (5,)]
    assert report.pairing == ((4, 0), (0, 1), (13, 2), (5, 3))


def test_bijection_prop16(prop16):
    report = bijection_report(prop16)
    assert report.verdict == "DegenerateProportional"
    assert tuple(j + 1 for j in report.nest) == frozen.PROP16_NEST
    assert report.degenerate_pair == (3, 12)
    assert report.degenerate_ratio == frozen.PROP16_RATIO
    assert len(report.facets) == frozen.PROP16_LC_FACETS
    facet = report.facets[0]
    # the two proportional constraints canonicalize to one supporting line
    assert facet.key == (Fraction(1), Fraction(1), Fraction(1, 9))
    assert {3, 12} <= set(facet.carriers)


def test_bijection_smooth1(smooth1):
    report = bijection_report(smooth1)
    assert report.verdict == "Bijection"
    assert report.nest == (0,)
    assert report.pairing == ((0, 0),)


def test_smooth_pair_atlas_is_diagonal_strips():
    atlas = cell_decomposition(_smooth_pair(), (Fraction(3), Fraction(3)))
    walls_only = [l for l in atlas.arrangement.lines if not l.is_box]
    assert len(walls_only) == 4  # z1 + z2 = 2, 3, 4, 5
    assert sorted(atlas.cell_divisors) == [(n,) for n in range(5)]
    transitions = sorted(
        (f.low_divisor, f.high_divisor, f.mult) for f in atlas.facets
    )
    assert transitions == [
        ((0,), (1,), 1),
        ((1,), (2,), 2),
        ((2,), (3,), 3),
        ((3,), (4,), 4),
    ]


def _on_some_facet(atlas, point):
    for facet in atlas.facets:
        line = atlas.arrangement.lines[facet.line_index]
        if not on_line(line, point):
            continue
        (x0, y0), (x1, y1) = facet.endpoints
        if (
            min(x0, x1) <= point[0] <= max(x0, x1)
            and min(y0, y1) <= point[1] <= max(y0, y1)
        ):
            return True
    return False


def test_walk_jumps_lie_on_atlas_facets(chain10, chain10_atlas):
    ray = make_ray(chain10, frozen.RAY_L_BASE, frozen.RAY_DIR)
    walk = ray_walk(chain10, ray, Fraction(2369, 3640))
    in_box = [j.point for j in walk if all(0 <= c <= 1 for c in j.point)]
    assert len(in_box) == 13
    assert all(_on_some_facet(chain10_atlas, p) for p in in_box)


def test_duple_nests_nest(nest14):
    full = set(newton_nest(nest14))
    expected = {
        (0, 1): (0, 4, 5),
        (0, 2): (0, 4, 13),
        (1, 2): (0, 5, 13),
    }
    for pair, nest in expected.items():
        duple = subtuple(nest14, pair)
        assert newton_nest(duple) == nest
        assert set(nest) <= full


def test_sample_search_failure_is_a_validation_error(rat6):
    # both vertices lie on the wall 6 z1 + 2 z2 = 1 of E2 (v_2 = 2 there),
    # so every weighting hits a wall that no carrier owns
    vertices = ((Fraction(1, 6), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    with pytest.raises(NoCleanSample) as failure:
        walls._interior_sample(rat6, (), vertices)
    # a ValidationError, so the CLI exits 2 rather than 3
    assert isinstance(failure.value, ValidationError)
    assert not isinstance(failure.value, InternalConsistencyError)
