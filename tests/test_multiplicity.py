"""Multiplicities by several routes, jumping criterion, perturbation sums."""

import random
from fractions import Fraction

import pytest

import frozen
from conftest import cold
from mmideal import (
    admissible_perturbation,
    attach_ideals,
    cell_decomposition,
    evaluate_point,
    jump_record,
    minimal_jumping_divisor,
    multiplicity_checked,
    perturbation_sum,
)
from mmideal import evaluate, unloading
from mmideal import multiplicity as routes
from mmideal.errors import (
    InequalityViolated,
    InternalConsistencyError,
    NotAJumpingPoint,
    OffsetTooLarge,
)
from mmideal.multiplicity import (
    default_offset,
    is_jumping,
    multiplicity,
    multiplicity_fractional,
    multiplicity_oracle,
    multiplicity_via_G,
)


def test_corner_multiplicity_all_routes(rat6):
    corner = frozen.RAT6_CORNER
    expected = frozen.RAT6_CORNER_MULT
    assert multiplicity(rat6, corner) == expected
    assert multiplicity_fractional(rat6, corner) == expected
    assert multiplicity_oracle(rat6, corner) == expected
    assert multiplicity_via_G(rat6, corner) == expected
    assert multiplicity_checked(rat6, corner) == expected


def test_corner_minimal_divisor(rat6):
    minimal = minimal_jumping_divisor(rat6, frozen.RAT6_CORNER)
    assert minimal == (True, True, False, True, False, False)


def test_is_jumping_and_witness(rat6):
    jumping, witness = is_jumping(rat6, frozen.RAT6_CORNER)
    assert jumping
    assert witness  # a nonempty connected component of H realizes the jump
    jumping, witness = is_jumping(rat6, (Fraction(1, 100), Fraction(1, 100)))
    assert not jumping
    assert witness is None


def test_not_a_jumping_point_raises(rat6):
    with pytest.raises(NotAJumpingPoint):
        minimal_jumping_divisor(rat6, (Fraction(1, 100), Fraction(1, 100)))


def test_smooth1_jumping_numbers(smooth1):
    for parameter, expected in frozen.SMOOTH1_JUMPS:
        assert multiplicity_checked(smooth1, (parameter,)) == expected
    assert multiplicity_checked(smooth1, (Fraction(3, 2),)) == 0


def test_jump_record_consistency(rat6):
    record = jump_record(rat6, frozen.RAT6_CORNER)
    assert record.mult == frozen.RAT6_CORNER_MULT
    assert record.divisor == (5, 3, 5, 2, 1, 1)
    assert record.divisor_left == frozen.RAT6_FUNDAMENTAL
    assert record.minimal == (True, True, False, True, False, False)
    walls = {(j + 1, level) for j, level in record.wall_lines}
    assert walls == {(1, 4), (2, 3), (3, 3), (4, 2)}


def test_wall_membership_chain10(chain10):
    evaluation = evaluate_point(chain10, frozen.RAY_L_DOUBLE_POINT)
    walls = {(j + 1, level) for j, level in evaluation.wall_lines}
    assert walls == frozen.RAY_L_DOUBLE_WALLS


def test_h_inequality_single_entry(chain10):
    singles, connected = evaluate_point(chain10, frozen.RAY_L_FLAGGED).maximal_values
    assert singles == ((4, 0),)
    assert connected == (((4,), 0),)


def test_h_inequality_empty_when_off_wall(rat6):
    evaluation = evaluate_point(rat6, (Fraction(1, 100), Fraction(1, 100)))
    assert evaluation.maximal_values == ((), ())


def test_h_inequalities_on_random_points(tuples):
    rng = random.Random(23)
    for ideals in tuples.values():
        for _ in range(60):
            point = tuple(
                Fraction(rng.randint(0, 50), rng.randint(1, 25))
                for _ in range(ideals.r)
            )
            singles, connected = evaluate_point(ideals, point).maximal_values
            assert all(value >= -1 for _, value in singles)
            assert all(value >= -1 for _, value in connected)


# At RAT6 (1/12, 1/12), H has the connected components {E1, E3} and {E6}, of
# adjunction values -1 each, and single values E1: 0, E3: -1, E6: -1.  A
# mutant shifts H's adjoint products (ceil(K - c.F) + H).E_j by `delta`.
_TWO_PARTS = (Fraction(1, 12), Fraction(1, 12))


def _shift_adjoint_products(monkeypatch, delta):
    original = evaluate.intersection_products

    def shifted(graph, divisor):
        return tuple(p + d for p, d in zip(original(graph, divisor), delta))

    monkeypatch.setattr(evaluate, "intersection_products", shifted)


@pytest.mark.parametrize(
    "delta, message",
    [
        # singles -1, -1, 0; parts -2 and 0: the criterion finds a witness
        # while m = (-2 + 1) + (0 + 1) = 0
        ((-1, 0, 0, 0, 0, 1), r"H-component \[0, 2\] gives -2 < -1"),
        # singles -2, 1, 0; parts -1 and 0
        ((-2, 0, 2, 0, 0, 1), r"component E1 gives -2 < -1"),
    ],
    ids=["connected", "single"],
)
def test_every_evaluated_point_asserts_the_H_inequalities(
    monkeypatch, rat6, delta, message
):
    _shift_adjoint_products(monkeypatch, delta)
    ideals = cold(rat6)
    def maximal_values(ideals, point):
        return evaluate_point(ideals, point).maximal_values

    for read in (multiplicity_checked, jump_record, is_jumping, maximal_values):
        with pytest.raises(InequalityViolated, match=message):
            read(ideals, _TWO_PARTS)


def _without_divisor_jump(ideals, point):
    """An evaluation whose left-limit divisor is forced equal to D_c."""
    evaluation = evaluate_point(ideals, point)
    evaluation.__dict__["divisor_left"] = evaluation.divisor
    return evaluation


def test_multiplicity_checked_asserts_the_divisor_jump(rat6):
    point = (Fraction(1, 4), Fraction(1, 4))
    message = "multiplicity 3 inconsistent with divisor jump"
    # a refused point stores nothing, so the tuple stays cold at the point
    ideals = cold(rat6)
    with pytest.raises(InternalConsistencyError, match=message):
        multiplicity_checked(ideals, _without_divisor_jump(ideals, point))
    offset = admissible_perturbation(rat6, point, frozen.RAY_DIR).offset
    with pytest.raises(InternalConsistencyError, match=message):
        perturbation_sum(
            ideals, _without_divisor_jump(ideals, point), frozen.RAY_DIR, offset
        )


def test_perturbation_at_corner(rat6):
    report = admissible_perturbation(rat6, frozen.RAT6_CORNER, frozen.RAY_DIR)
    assert report.matched
    assert report.center_mult == frozen.RAT6_CORNER_MULT
    # three geometric wall lines pass through the corner (two of its four
    # wall lines coincide), so the parallel ray is crossed three times
    assert len(report.crossings) == 3
    assert sorted(m for _, _, m in report.crossings) == [0, 1, 1]


def test_perturbation_at_double_point(chain10):
    report = admissible_perturbation(
        chain10, frozen.RAY_L_DOUBLE_POINT, frozen.RAY_DIR
    )
    assert report.matched
    assert report.center_mult == 2
    assert [m for _, _, m in report.crossings] == [1, 1]


def test_perturbation_single_wall_point(chain10):
    # a point in the interior of a single facet: one crossing, same m
    point = (frozen.RAY_L2_POINTS[3][0], frozen.RAY_L2_POINTS[3][1])
    report = admissible_perturbation(chain10, point, frozen.RAY_DIR)
    assert report.matched
    assert len(set(evaluate_point(chain10, point).wall_lines)) == 1
    assert len(report.crossings) == 1
    assert report.crossings[0][2] == report.center_mult == 1


def test_offset_too_large(rat6):
    with pytest.raises(OffsetTooLarge):
        perturbation_sum(
            rat6,
            frozen.RAT6_CORNER,
            frozen.RAY_DIR,
            (Fraction(1, 2), Fraction(0)),
        )


_F = Fraction


@pytest.mark.parametrize(
    "name, point, direction, offset, crossing",
    [
        # an offset parallel to the ray: the shifted ray is the ray itself
        (
            "RAT6",
            (_F(1, 4), _F(1, 4)),
            (1, 1),
            (_F(1, 64), _F(1, 64)),
            (_F(-1, 64), (_F(1, 4), _F(1, 4)), 3),
        ),
        (
            "CHAIN10",
            (_F(0), _F(2)),
            (1, 1),
            (_F(1, 4096), _F(1, 4096)),
            (_F(-1, 4096), (_F(0), _F(2)), 1),
        ),
        # three walls through the point, met by the shifted ray at one point
        (
            "NEST14",
            (_F(13, 12), _F(1, 4), _F(0)),
            (0, 0, 2),
            (_F(-1, 512), _F(-1, 512), _F(1, 1024)),
            (_F(19, 10240), (_F(1661, 1536), _F(127, 512), _F(3, 640)), 1),
        ),
    ],
    ids=["rat6-parallel", "chain10-parallel", "nest14-shared-crossing"],
)
def test_perturbation_counts_each_crossing_point_once(
    tuples, name, point, direction, offset, crossing
):
    report = perturbation_sum(tuples[name], point, direction, offset)
    assert report.crossings == (crossing,)
    assert report.matched and report.center_mult == crossing[2]


@pytest.mark.parametrize(
    "name, point",
    [("RAT6", frozen.RAT6_CORNER), ("CHAIN10", frozen.RAY_L_DOUBLE_POINT)],
    ids=["rat6-corner", "chain10-double-point"],
)
def test_perturbation_builds_no_fraction_views(tuples, name, point):
    ideals = tuples[name]
    offset = admissible_perturbation(ideals, point, frozen.RAY_DIR).offset
    evaluation = evaluate_point(ideals, point)
    report = perturbation_sum(ideals, evaluation, frozen.RAY_DIR, offset)
    assert report.matched and len(report.crossings) >= 2
    assert "wall_lines" in evaluation.__dict__  # cached views land here
    assert "weighted" not in evaluation.__dict__
    assert "values" not in evaluation.__dict__


def test_default_offset_prefers_vanishing_axis():
    delta = Fraction(1, 64)
    assert default_offset((Fraction(1, 2), Fraction(0)), delta) == (0, delta)
    assert default_offset((Fraction(1, 2), Fraction(3)), delta) == (delta, 0)


def test_multiplicity_zero_off_walls(tuples):
    rng = random.Random(29)
    for ideals in tuples.values():
        for _ in range(30):
            point = tuple(
                Fraction(rng.randint(0, 60), rng.randint(1, 30))
                for _ in range(ideals.r)
            )
            if evaluate_point(ideals, point).wall_lines:
                continue
            assert multiplicity_checked(ideals, point) == 0


@pytest.mark.parametrize(
    "route",
    [
        "multiplicity",
        "multiplicity_fractional",
        "multiplicity_oracle",
        "multiplicity_via_G",
    ],
)
def test_each_route_is_compared(monkeypatch, rat6, route):
    original = getattr(routes, route)
    monkeypatch.setattr(
        routes, route, lambda ideals, point: original(ideals, point) + 1
    )
    with pytest.raises(InternalConsistencyError):
        jump_record(cold(rat6), frozen.RAT6_CORNER)


# ---------------------------------------------------------------------------
# The record cache: each point certified once per graph.
# ---------------------------------------------------------------------------


def test_record_cache_belongs_to_its_graph(rat6, monkeypatch):
    first, second = cold(rat6), cold(rat6)
    original, oracle = routes.multiplicity_oracle, []
    monkeypatch.setattr(
        routes,
        "multiplicity_oracle",
        lambda ideals, point: oracle.append(point) or original(ideals, point),
    )
    point = frozen.RAT6_CORNER
    record = jump_record(first, point)
    evaluation = evaluate_point(first, point)
    key = (rat6.ideals, evaluation.scaled_point, evaluation.scale)
    assert first.graph.record_cache == {key: record}
    # a repeat by either entry point is the stored record, no route reruns
    assert jump_record(first, point) is record
    assert multiplicity_checked(first, evaluation) == record.mult
    assert len(oracle) == 1
    cache = first.graph.record_cache
    assert (cache.hits, cache.misses, cache.evictions) == (2, 1, 0)
    assert second.graph.record_cache == {}
    again = jump_record(second, point)
    assert again == record and again is not record
    assert len(oracle) == 2
    # another tuple on the first graph keys its points by its own ideals
    swapped = attach_ideals(first.graph, rat6.ideals[::-1])
    other = jump_record(swapped, point)
    assert other == jump_record(cold(swapped), point) and other != record
    assert len(first.graph.record_cache) == 2


def test_record_cache_is_bounded_and_counted(rat6, monkeypatch):
    monkeypatch.setattr(unloading, "CLOSURE_CACHE_BOUND", 4)
    ideals, reference = cold(rat6), cold(rat6)
    points = [(Fraction(n, 7), Fraction(1, 5)) for n in range(10)]
    for point in points + points[-3:]:
        assert jump_record(ideals, point) == jump_record(cold(reference), point)
        assert len(ideals.graph.record_cache) <= 4
    cache = ideals.graph.record_cache
    assert (cache.hits, cache.misses, cache.evictions) == (3, 10, 6)
    # the oldest entry goes first
    assert [record.point for record in cache.values()] == points[-4:]


def test_a_refused_point_stores_no_record(monkeypatch, rat6):
    ideals = cold(rat6)
    _shift_adjoint_products(monkeypatch, (-1, 0, 0, 0, 0, 1))
    for read in (multiplicity_checked, jump_record):
        with pytest.raises(InequalityViolated):
            read(ideals, _TWO_PARTS)
    cache = ideals.graph.record_cache
    assert cache == {} and (cache.hits, cache.misses) == (0, 2)
    monkeypatch.undo()
    assert jump_record(ideals, _TWO_PARTS) == jump_record(cold(rat6), _TWO_PARTS)
    assert len(cache) == 1 and (cache.hits, cache.misses) == (0, 3)


def test_overlapping_atlases_on_one_graph_equal_fresh_ones(rat6):
    shared = cold(rat6)
    for box in ((1, 1), (Fraction(1, 2), Fraction(1, 2))):
        atlas = cell_decomposition(shared, box)
        fresh = cell_decomposition(cold(rat6), box)
        for field in atlas._fields:
            assert getattr(atlas, field) == getattr(fresh, field), field
    # the smaller box re-reads facet samples the larger one certified
    assert shared.graph.record_cache.hits > 0
