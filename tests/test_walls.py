"""Wall atlases, the log-canonical wall, Newton nests, and the facet pairing."""

import hashlib
import random
import re
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

import frozen
from conftest import edge_point, face_barycenter
from trees import random_tree_matrix
from mmideal.arrangement import build_arrangement, merge_lines
from mmideal.rationals import format_point
from mmideal.svg import decimal_approx, render_atlas_svg
from mmideal import (
    RegionReport,
    attach_ideals,
    axis_Gprime,
    bijection_report,
    build_graph,
    build_tuple,
    cell_decomposition,
    divisor_leq,
    evaluate_point,
    facet_intersection_vertices,
    lc_region,
    lct_axis,
    load_fixture,
    make_ray,
    mmi_divisor,
    newton_nest,
    ray_walk,
    region,
    require_valid_region,
    subtuple,
    wall_lines,
)
from mmideal import cli, svg, walls
from mmideal.errors import (
    BoxTooSmall,
    InternalConsistencyError,
    LengthMismatch,
    NoCleanSample,
    ValidationError,
)


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


def test_rat6_atlas_at_scale(rat6, monkeypatch):
    # the full 4x4 atlas; cell_decomposition runs the outer-orbit, Euler,
    # barycenter, propagation and facet-sample checks on the way
    direct = walls.mmi_divisor
    calls = []

    def counted(ideals, point):
        calls.append(point)
        return direct(ideals, point)

    monkeypatch.setattr(walls, "mmi_divisor", counted)
    atlas = cell_decomposition(rat6, (Fraction(4), Fraction(4)))
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
    return replace(arrangement, edge_faces=tuple(edge_faces))


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
    lines[index] = replace(line, sources=kept)
    return replace(arrangement, lines=tuple(lines))


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
def test_corrupted_arrangement_is_caught(rat6, monkeypatch, corrupt, message):
    build = walls.build_arrangement
    monkeypatch.setattr(
        walls, "build_arrangement", lambda lines, box: corrupt(build(lines, box))
    )
    with pytest.raises(InternalConsistencyError, match=message):
        cell_decomposition(rat6, (Fraction(1), Fraction(1)))


def test_every_dropped_source_is_caught(rat6, monkeypatch):
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
        monkeypatch.setattr(
            walls,
            "build_arrangement",
            lambda lines, box: _drop_source(build(lines, box), index, source),
        )
        with pytest.raises(InternalConsistencyError):
            cell_decomposition(rat6, box)


def test_chain10_arrangement_at_scale(chain10):
    box = (Fraction(2), Fraction(2))
    arr = build_arrangement(wall_lines(chain10, box), box)
    assert len([line for line in arr.lines if not line.is_box]) == 336
    assert (len(arr.vertices), len(arr.faces)) == (11760, 11934)
    assert len(arr.vertices) - len(arr.edges) + len(arr.faces) == 1


def test_atlas_svg_with_lct_ticks(rat6, rat6_atlas):
    # the picture `mmideal walls --svg` writes; the digest was computed with
    # the earlier Fraction arrangement, per-face vertex formatting and
    # digit-by-digit decimal_approx, so it pins that all three are unchanged
    ticks = lc_region(rat6).thresholds
    assert ticks == (Fraction(1, 6), Fraction(1))
    svg = render_atlas_svg(rat6_atlas, ticks)
    assert svg.count('stroke="crimson"') == 2
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "7fa5540fe851103bf6334558570326fd427a49a422456df889d2c70dff3221a6"
    )


def _reference_pixels(atlas, ticks):
    """Every coordinate string of the picture by the `Fraction` formulas
    _MARGIN + x/bx * _WIDTH and _MARGIN + (1 - y/by) * height."""
    bx, by = atlas.box

    def x_pix(x):
        return decimal_approx(svg._MARGIN + Fraction(x, bx) * svg._WIDTH)

    def y_pix(y):
        return decimal_approx(svg._MARGIN + (1 - Fraction(y, by)) * svg._WIDTH)

    arr = atlas.arrangement
    polygons = [
        " ".join(f"{x_pix(arr.vertices[v][0])},{y_pix(arr.vertices[v][1])}" for v in loop)
        for cell in atlas.cells
        for loop in (arr.faces[face].loop for face in cell)
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
        vertices = set(arr.vertices)
        for facet in atlas.facets:
            assert facet.mult >= 1
            assert divisor_leq(facet.low_divisor, facet.high_divisor)
            assert facet.low_divisor != facet.high_divisor
            assert any(facet.minimal_support)
            # samples sit inside the open first and last edges of the run
            first = arr.edges[facet.edge_indices[0]]
            last = arr.edges[facet.edge_indices[-1]]
            assert facet.samples == (
                edge_point(arr.vertices, first, Fraction(1, 3)),
                edge_point(arr.vertices, last, Fraction(2, 3)),
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
    assert [axis_Gprime(rat6, i) for i in range(2)] == [(3,), (1,)]
    assert [axis_Gprime(chain10, i) for i in range(2)] == [(9,), (4,)]
    assert [axis_Gprime(nest14, i) for i in range(3)] == [(4,), (5,), (13,)]


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


def test_lct_routes_must_agree(monkeypatch, capsys, nest14, rat6):
    # the min-ratio route drifts on the second axis; the polytope's vertex on
    # that axis no longer matches it, in every region build
    honest = RegionReport.thresholds.func

    def drifted(report):
        values = list(honest(report))
        values[1] += Fraction(1, 7)
        return tuple(values)

    monkeypatch.setattr(RegionReport, "thresholds", property(drifted))
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
        if not line.contains(point):
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
