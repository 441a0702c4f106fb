"""Multiplicities by several routes, jumping criterion, perturbation sums."""

import importlib
import random
from fractions import Fraction

import pytest

import frozen
from mmideal import (
    admissible_perturbation,
    check_H_inequalities,
    default_offset,
    evaluate_point,
    is_jumping,
    jump_record,
    minimal_jumping_divisor,
    multiplicity,
    multiplicity_checked,
    multiplicity_fractional,
    multiplicity_oracle,
    multiplicity_via_G,
    perturbation_sum,
)
from mmideal.errors import (
    InternalConsistencyError,
    NotAJumpingPoint,
    OffsetTooLarge,
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
    report = check_H_inequalities(chain10, frozen.RAY_L_FLAGGED)
    assert report.per_component == ((4, 0),)
    assert report.per_connected == (((4,), 0),)


def test_h_inequality_empty_when_off_wall(rat6):
    report = check_H_inequalities(rat6, (Fraction(1, 100), Fraction(1, 100)))
    assert report.per_component == ()
    assert report.per_connected == ()


def test_h_inequalities_on_random_points(tuples):
    rng = random.Random(23)
    for ideals in tuples.values():
        for _ in range(60):
            point = tuple(
                Fraction(rng.randint(0, 50), rng.randint(1, 25))
                for _ in range(ideals.r)
            )
            report = check_H_inequalities(ideals, point)
            assert all(value >= -1 for _, value in report.per_component)
            assert all(value >= -1 for _, value in report.per_connected)


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
    # the package re-exports the function `multiplicity`, which shadows the
    # submodule attribute, so the module is fetched by its full name
    module = importlib.import_module("mmideal.multiplicity")
    original = getattr(module, route)
    monkeypatch.setattr(
        module, route, lambda ideals, point: original(ideals, point) + 1
    )
    with pytest.raises(InternalConsistencyError):
        jump_record(rat6, frozen.RAT6_CORNER)
