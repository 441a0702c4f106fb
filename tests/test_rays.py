"""Monomial rays: walks, stability, and the multiplicity generating series."""

import itertools
import random
from fractions import Fraction

import pytest

import frozen
from conftest import FIXTURE_NAMES, divisor_leq
from mmideal import (
    combined_ideal,
    evaluate_point,
    is_degenerate,
    make_ray,
    perturbation_sum,
    poincare,
    ray_walk,
    rho,
    series_expand,
    stability_bound,
    subtuple,
)
from mmideal import rays
from mmideal.errors import HorizonTooSmall, InternalConsistencyError, ValidationError


def test_make_ray_validation(rat6):
    with pytest.raises(ValidationError):
        make_ray(rat6, (0,), (1, 1))  # base length
    with pytest.raises(ValidationError):
        make_ray(rat6, (0, 0), (1,))  # direction length
    with pytest.raises(ValidationError):
        make_ray(rat6, (0, 0), (1, -1))
    with pytest.raises(ValidationError):
        make_ray(rat6, (0, 0), (0, 0))
    with pytest.raises(ValidationError):
        make_ray(rat6, (0, -1), (1, 1))


def test_ray_slopes_and_point(rat6):
    ray = make_ray(rat6, (0, 0), (1, 1))
    slopes = combined_ideal(rat6, ray.direction)
    assert slopes == (18, 8, 18, 10, 3, 2)
    assert all(q > 0 for q in slopes)
    # each jump lies on the ray, at base + parameter * direction
    walk = ray_walk(rat6, ray, Fraction(1, 4))
    assert [(jump.parameter, jump.point, jump.mult) for jump in walk] == [
        (Fraction(3, 20), (Fraction(3, 20),) * 2, 1),
        (Fraction(1, 4), (Fraction(1, 4),) * 2, 3),
    ]


def test_a_ray_walks_any_tuple_with_that_tuples_slopes(rat6, chain10):
    # a ray lives in weight space: made for RAT6, it walks the swapped pair
    # and CHAIN10 exactly as each tuple's own ray does
    ray = make_ray(rat6, (0, 0), (1, 2))
    swapped = subtuple(rat6, [1, 0])
    for ideals in (swapped, chain10):
        own = make_ray(ideals, (0, 0), (1, 2))
        assert ray_walk(ideals, ray, Fraction(1)) == ray_walk(ideals, own, Fraction(1))
        assert stability_bound(ideals, ray) == stability_bound(ideals, own)
    assert len(ray_walk(swapped, ray, Fraction(1))) == 31
    assert stability_bound(swapped, ray) == Fraction(1, 66)


def test_rat6_diagonal_walk_prefix(rat6):
    ray = make_ray(rat6, (0, 0), (1, 1))
    walk = ray_walk(rat6, ray, Fraction(1, 2))
    head = [(j.parameter, j.mult, j.record.divisor) for j in walk]
    assert head == [
        (Fraction(3, 20), 1, (4, 2, 4, 2, 1, 1)),
        (Fraction(1, 4), 3, (6, 3, 6, 3, 1, 1)),
        (Fraction(7, 20), 4, (7, 3, 7, 4, 1, 1)),
        (Fraction(3, 8), 1, (8, 4, 8, 4, 2, 1)),
        (Fraction(9, 20), 5, (9, 4, 9, 5, 2, 1)),
        (Fraction(1, 2), 1, (10, 5, 10, 5, 2, 1)),
    ]


def test_non_integer_directions_are_refused(rat6, nest14):
    # truncating would walk (3/2, 1) as (1, 1) and (0.9, 1) as (0, 1), and
    # a weight 1/2 would give a non-integer "ideal" vector
    for direction in ((Fraction(3, 2), 1), (0.9, 1), (Fraction(1, 2), 0)):
        with pytest.raises(ValidationError, match="expected integers"):
            make_ray(rat6, (0, 0), direction)
        with pytest.raises(ValidationError, match="expected integers"):
            rho(rat6, frozen.RAT6_CORNER, direction)
        with pytest.raises(ValidationError, match="expected integers"):
            perturbation_sum(
                rat6, frozen.RAT6_CORNER, direction, (Fraction(1, 64), Fraction(0))
            )
    with pytest.raises(ValidationError, match="expected integers"):
        combined_ideal(nest14, (Fraction(1, 2), 1, 0))
    assert make_ray(rat6, (0, 0), (Fraction(2), 1)).direction == (2, 1)


def _takewhile_candidates(ideals, ray, until):
    """The candidates up to `until` as the walk once cut them: a `Fraction`
    comparison per candidate of a stream running far past it."""
    stream = rays._candidate_parameters(ideals, ray, Fraction(10**6), rays._grid(ideals, ray))
    return list(itertools.takewhile(lambda mu: mu <= until, stream))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_integer_stop_matches_the_takewhile_reference(tuples, name):
    ideals = tuples[name]
    rng = random.Random(f"integer stop:{name}")
    for _ in range(3):
        base = [Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(ideals.r)]
        direction = [rng.randint(1, 4) for _ in range(ideals.r)]
        ray = make_ray(ideals, base, direction)
        head = _takewhile_candidates(ideals, ray, Fraction(1))
        k = rng.randrange(min(12, len(head) - 1))
        on, after = head[k], head[k + 1]
        stops = [
            on,  # exactly on a candidate
            (on + after) / 2,  # strictly between two candidates
            after - Fraction(1, 10**9),  # just below a candidate
            Fraction(3 * on.numerator, 3 * on.denominator),  # given unreduced
            Fraction(0),
            0,
            Fraction(-1, 3),
            1,
        ]
        for until in stops:
            reference = _takewhile_candidates(ideals, ray, until)
            found = list(rays._candidate_parameters(ideals, ray, until, rays._grid(ideals, ray)))
            assert found == reference
        assert _takewhile_candidates(ideals, ray, on)[-1] == on
        for until in stops[:5]:
            expected = [
                (jump.parameter, jump.mult)
                for jump in rays._jumps(ideals, ray, _takewhile_candidates(ideals, ray, until))
            ]
            walked = [(jump.parameter, jump.mult) for jump in ray_walk(ideals, ray, until)]
            assert walked == expected


def test_walk_points_lie_on_wall_lines(tuples):
    for ideals in tuples.values():
        if ideals.r != 2:
            continue
        ray = make_ray(ideals, (0, 0), (1, 1))
        for jump in ray_walk(ideals, ray, Fraction(3, 4)):
            assert evaluate_point(ideals, jump.point).wall_lines


def test_walk_divisors_strictly_increase(chain10):
    ray = make_ray(chain10, frozen.RAY_L_BASE, frozen.RAY_DIR)
    walk = ray_walk(chain10, ray, Fraction(2))
    assert len(walk) > 30
    for earlier, later in zip(walk, walk[1:]):
        a, b = earlier.record.divisor, later.record.divisor
        assert divisor_leq(a, b) and a != b


def test_chain10_frozen_walks(chain10):
    ray_l = make_ray(chain10, frozen.RAY_L_BASE, frozen.RAY_DIR)
    walk_l = ray_walk(chain10, ray_l, Fraction(2369, 3640))
    assert set(frozen.RAY_L_POINTS) <= {j.point for j in walk_l}

    ray_l2 = make_ray(chain10, frozen.RAY_L2_BASE, frozen.RAY_DIR)
    walk_l2 = ray_walk(chain10, ray_l2, Fraction(2201, 3640))
    assert {j.point for j in walk_l2} == set(frozen.RAY_L2_POINTS)


def test_rho_and_degeneracy(rat6, smooth1):
    assert rho(rat6, frozen.RAT6_CORNER, (1, 1)) == 13
    assert rho(rat6, frozen.RAT6_CORNER, (0, 1)) > 0
    assert not is_degenerate(rat6, frozen.RAT6_CORNER)
    assert is_degenerate(smooth1, (0,))  # gap value -1
    assert is_degenerate(smooth1, (1,))  # gap value 0
    assert not is_degenerate(smooth1, (Fraction(1, 2),))
    assert not is_degenerate(smooth1, (2,))  # gap value 1 is a jump


def test_stability_bounds(rat6, chain10, smooth1):
    assert stability_bound(rat6, make_ray(rat6, (0, 0), (1, 1))) == Fraction(1, 36)
    ray_l = make_ray(chain10, frozen.RAY_L_BASE, frozen.RAY_DIR)
    assert stability_bound(chain10, ray_l) == Fraction(809, 3640)
    assert stability_bound(smooth1, make_ray(smooth1, (0,), (1,))) == 1


def test_smooth1_series(smooth1):
    ray = make_ray(smooth1, (0,), (1,))
    with pytest.raises(HorizonTooSmall):
        poincare(smooth1, ray, Fraction(1))
    form = poincare(smooth1, ray, Fraction(2))
    assert form.render() == frozen.SMOOTH1_SERIES
    expansion = [(p, m) for p, _, m in series_expand(form, Fraction(5))]
    assert expansion == [
        (Fraction(p), m) for p, m in frozen.SMOOTH1_JUMPS
    ]


def test_chain10_series_matches_walk(chain10):
    ray = make_ray(chain10, frozen.RAY_L_BASE, frozen.RAY_DIR)
    form = poincare(chain10, ray, Fraction(2))
    expansion = series_expand(form, Fraction(2))
    walk = ray_walk(chain10, ray, Fraction(2))
    assert [(p, pt, m) for p, pt, m in expansion] == [
        (j.parameter, j.point, j.mult) for j in walk
    ]
    # anchors step linearly: one extra period beyond the expansion window
    longer = series_expand(form, Fraction(3))
    walk3 = ray_walk(chain10, ray, Fraction(3))
    assert [(p, pt, m) for p, pt, m in longer] == [
        (j.parameter, j.point, j.mult) for j in walk3
    ]


def _self_intersection(ideals, direction):
    """G.G for G = sum_i u_i F_i, read densely off the intersection matrix."""
    G = [
        sum(u * vector[j] for u, vector in zip(direction, ideals.ideals))
        for j in range(ideals.size)
    ]
    return sum(g * m * h for row, g in zip(ideals.graph.matrix, G) for m, h in zip(row, G))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_series_steps_sum_to_minus_G_squared(tuples, name):
    # past Skoda's bound D(c + u) = D(c) + G with G = u.F, so consecutive
    # unit windows of the ray differ by -G.G, and the steps of all residue
    # classes sum to it; PROP16 takes about 1 s per series, so it gets one
    ideals = tuples[name]
    rng = random.Random(name)
    for _ in range(1 if name == "PROP16" else 3):
        base = tuple(Fraction(rng.randint(0, 5), rng.randint(1, 6)) for _ in range(ideals.r))
        direction = tuple(rng.choice((1, 2)) for _ in range(ideals.r))
        if name == "PROP16":
            direction = (1,) * ideals.r
        ray = make_ray(ideals, base, direction)
        form = poincare(ideals, ray, stability_bound(ideals, ray) + 2)
        steps = sum(anchor.step for anchor in form.anchors)
        assert steps == -_self_intersection(ideals, direction), (base, direction)


def test_rat6_diagonal_series_steps_sum_to_139(rat6):
    ray = make_ray(rat6, (0, 0), (1, 1))
    form = poincare(rat6, ray, stability_bound(rat6, ray) + 2)
    assert sum(anchor.step for anchor in form.anchors) == 139
    assert _self_intersection(rat6, (1, 1)) == -139


def test_series_refuses_a_walk_missing_a_class_member(rat6, inject):
    # every jump left in the walk still fits its class's recurrence; only
    # the re-expansion over the walk sees the dropped member
    ray = make_ray(rat6, (0, 0), (1, 1))
    horizon = stability_bound(rat6, ray) + 2
    assert len(poincare(rat6, ray, horizon).anchors) == 21
    walk = rays.ray_walk
    inject(rays, "ray_walk", lambda *args: (lambda w: w[:-2] + w[-1:])(walk(*args)))
    with pytest.raises(InternalConsistencyError, match="closed form predicts"):
        poincare(rat6, ray, horizon)
