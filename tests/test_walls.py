"""Wall atlases, the log-canonical wall, Newton nests, and the facet pairing."""

import hashlib
from fractions import Fraction

import pytest

import frozen
from mmideal.arrangement import build_arrangement, merge_lines
from mmideal.svg import render_atlas_svg
from mmideal import (
    attach_ideals,
    axis_Gprime,
    bijection_report,
    build_graph,
    build_tuple,
    cell_decomposition,
    divisor_leq,
    facet_intersection_vertices,
    lc_region,
    lct_axis,
    load_fixture,
    make_ray,
    mmi_divisor,
    newton_nest,
    ray_walk,
    require_valid_region,
    subtuple,
    wall_lines,
)
from mmideal import cli, walls
from mmideal.errors import (
    BoxTooSmall,
    InternalConsistencyError,
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


def test_rat6_atlas_at_scale(rat6):
    # the full 4x4 atlas; cell_decomposition runs the outer-orbit, Euler,
    # barycenter and facet-sample checks on the way
    atlas = cell_decomposition(rat6, (Fraction(4), Fraction(4)))
    arr = atlas.arrangement
    assert len([line for line in arr.lines if not line.is_box]) == 163
    assert (len(arr.vertices), len(arr.faces)) == (832, 1012)
    assert len(arr.vertices) - len(arr.edges) + len(arr.faces) == 1
    assert (len(atlas.cells), len(atlas.facets)) == (447, 760)


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
    ticks = walls._thresholds(rat6, lc_region(rat6))
    assert ticks == (Fraction(1, 6), Fraction(1))
    svg = render_atlas_svg(rat6_atlas, ticks)
    assert svg.count('stroke="crimson"') == 2
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "7fa5540fe851103bf6334558570326fd427a49a422456df889d2c70dff3221a6"
    )


def test_facet_transitions(rat6_atlas, chain10_atlas):
    for atlas in (rat6_atlas, chain10_atlas):
        for facet in atlas.facets:
            assert facet.mult >= 1
            assert divisor_leq(facet.low_divisor, facet.high_divisor)
            assert facet.low_divisor != facet.high_divisor
            assert any(facet.minimal_support)


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


def test_lct_routes_must_agree(monkeypatch, capsys, nest14):
    # the min-ratio route drifts on the second axis; the polytope's axis
    # vertex no longer matches it
    honest = walls._thresholds

    def drifted(ideals, report):
        values = list(honest(ideals, report))
        values[1] += Fraction(1, 7)
        return tuple(values)

    monkeypatch.setattr(walls, "_thresholds", drifted)
    with pytest.raises(InternalConsistencyError, match="lct axis 2"):
        bijection_report(nest14)
    assert cli.main(["lct", "RAT6"]) == 3
    assert "lct axis 2: min-ratio route gives" in capsys.readouterr().err


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
    graph = build_graph([[-1]])
    pair = attach_ideals(graph, [(1,), (1,)])
    atlas = cell_decomposition(pair, (Fraction(3), Fraction(3)))
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
