"""The perturbation sums against a `Fraction` reference.

The reference below is an earlier `perturbation_sum`: it evaluates c.F again
at the shifted base in `Fraction`s, keys the walls through the point by their
canonical halfspace, intersects one wall per key with the shifted ray and
keeps one crossing per distinct crossing point (its own `Fraction` tuple), and
also skips a level wall whose key is that of a wall through the point.  The
library reads the point's evaluation and keeps one crossing per distinct
parameter of the shifted ray instead.  The two must give equal reports, or
raise the same exception class, on seeded on-wall points of every fixture and
at every facet-intersection vertex of two atlases.
"""

import math
import random
from fractions import Fraction

import pytest

from conftest import FIXTURE_NAMES
from mmideal import (
    admissible_perturbation,
    default_offset,
    evaluate_point,
    facet_intersection_vertices,
    multiplicity_checked,
    perturbation_sum,
)
from mmideal.errors import InternalConsistencyError, OffsetTooLarge, ValidationError
from mmideal.evaluate import _integer_direction, weighted_F
from mmideal.multiplicity import PerturbationReport
from mmideal.polytope import make_halfspace


def reference_perturbation_sum(ideals, point, ray_dir, offset):
    evaluation = evaluate_point(ideals, point)
    coords = evaluation.point
    direction = _integer_direction(ideals, ray_dir, "ray direction")
    shift = tuple(Fraction(o) for o in offset)
    if len(shift) != ideals.r or all(s == 0 for s in shift):
        raise ValidationError("offset must be a nonzero rational vector")
    base = tuple(c + s for c, s in zip(coords, shift))
    if any(b < 0 for b in base):
        raise OffsetTooLarge("shifted base leaves the orthant")

    columns = [
        tuple(ideals.ideals[i][j] for i in range(ideals.r))
        for j in range(ideals.size)
    ]
    weighted_at = evaluation.weighted
    weighted_base = weighted_F(ideals, base)
    groups = {}
    for j, level in evaluation.wall_lines:
        key = make_halfspace(columns[j], weighted_at[j]).key()
        groups.setdefault(key, []).append((j, level))

    crossings = {}  # one per distinct crossing point
    for key, members in sorted(groups.items()):
        j = members[0][0]
        slope = sum(n * u for n, u in zip(columns[j], direction))
        if slope == 0:
            raise OffsetTooLarge("ray direction is parallel to a wall line")
        parameter = (weighted_at[j] - weighted_base[j]) / slope
        crossing = tuple(b + parameter * u for b, u in zip(base, direction))
        if any(x < 0 for x in crossing):
            raise OffsetTooLarge("crossing leaves the orthant")
        crossings[crossing] = parameter

    if crossings:
        low = min(Fraction(0), *crossings.values())
        high = max(Fraction(0), *crossings.values())
        through_keys = set(groups)
        for j in range(ideals.size):
            normal = columns[j]
            slope = sum(n * u for n, u in zip(normal, direction))
            k_j = ideals.graph.canonical[j]
            corners = (
                weighted_at[j] + low * slope,
                weighted_at[j] + high * slope,
                weighted_base[j] + low * slope,
                weighted_base[j] + high * slope,
            )
            level_low = math.ceil(min(corners) - k_j)
            level_high = math.floor(max(corners) - k_j)
            for level in range(level_low, level_high + 1):
                bound = k_j + level
                if bound == weighted_at[j]:
                    continue
                if make_halfspace(normal, bound).key() in through_keys:
                    continue
                raise OffsetTooLarge("a foreign wall line meets the swept region")
    crossings = [
        (parameter, crossing, multiplicity_checked(ideals, crossing))
        for crossing, parameter in sorted(crossings.items(), key=lambda c: c[1])
    ]

    center_mult = multiplicity_checked(ideals, evaluation)
    total = sum(m for _, _, m in crossings)
    report = PerturbationReport(coords, center_mult, shift, tuple(crossings), total)
    if not report.matched:
        raise InternalConsistencyError("perturbation sum does not match")
    return report


def reference_admissible(ideals, point, ray_dir):
    delta = Fraction(1, 64)
    for _ in range(200):
        try:
            return reference_perturbation_sum(
                ideals, point, ray_dir, default_offset(point, delta)
            )
        except OffsetTooLarge:
            delta /= 2
    raise OffsetTooLarge("no admissible offset")


def _outcome(function, *args):
    """The report, or the class of the library error raised."""
    try:
        return function(*args)
    except (ValidationError, InternalConsistencyError) as error:
        return type(error)


def _fraction(rng):
    return Fraction(rng.randint(0, 40), rng.choice((1, 2, 3, 4, 5, 6, 8, 12)))


def _on_walls(rng, ideals, count):
    """A point on `count` (at most r) random wall lines v_j = l, l >= 1; the
    other coordinates are random, and None when the solve leaves the
    orthant or the chosen lines are dependent."""
    axes = rng.sample(range(ideals.r), count)
    coords = [_fraction(rng) / 4 for _ in range(ideals.r)]
    rows, rhs = [], []
    for j in rng.sample(range(ideals.size), count):
        fixed = sum(
            coords[i] * ideals.ideals[i][j] for i in range(ideals.r) if i not in axes
        )
        rows.append([Fraction(ideals.ideals[i][j]) for i in axes])
        rhs.append(ideals.graph.canonical[j] + rng.randint(1, 5) - fixed)
    if count == 2:
        (a, b), (c, d) = rows
        det = a * d - b * c
        if det == 0:
            return None
        solved = ((rhs[0] * d - b * rhs[1]) / det, (a * rhs[1] - c * rhs[0]) / det)
    else:
        solved = (rhs[0] / rows[0][0],)
    if any(x < 0 for x in solved):
        return None
    for axis, x in zip(axes, solved):
        coords[axis] = x
    return tuple(coords)


def _offset(rng, r):
    """Single-axis, uniform or mixed-sign, of either sign, of seeded size."""
    size = rng.choice((-1, 1)) * Fraction(2) ** rng.randint(-16, 1)
    kind = rng.randrange(3) if r > 1 else 0
    if kind == 0:
        axis = rng.randrange(r)
        return tuple(size if i == axis else Fraction(0) for i in range(r))
    if kind == 1:
        return (size,) * r
    return tuple(size * rng.randint(-2, 3) for _ in range(r))


def _direction(rng, r):
    direction = [rng.randint(0, 3) for _ in range(r)]
    direction[rng.randrange(r)] = rng.randint(1, 3)
    return tuple(direction)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_perturbation_sum_matches_reference(tuples, name):
    ideals = tuples[name]
    rng = random.Random(f"perturbation {name}")
    reports = multi_line = failures = points = 0
    while points < 60:
        point = _on_walls(rng, ideals, rng.choice((1, min(2, ideals.r))))
        if point is None:
            continue
        points += 1
        for _ in range(3):
            direction, offset = _direction(rng, ideals.r), _offset(rng, ideals.r)
            expected = _outcome(
                reference_perturbation_sum, ideals, point, direction, offset
            )
            found = _outcome(perturbation_sum, ideals, point, direction, offset)
            assert found == expected, (point, direction, offset)
            if isinstance(found, PerturbationReport):
                reports += 1
                multi_line += len(found.crossings) > 1
            else:
                failures += 1
    assert reports >= 30 and failures >= 10
    if ideals.r > 1:
        assert multi_line >= 10


@pytest.mark.parametrize("name", ("RAT6", "CHAIN10"))
@pytest.mark.parametrize("direction", ((1, 1), (2, 1)))
def test_admissible_perturbation_matches_reference(
    tuples, rat6_atlas, chain10_atlas, name, direction
):
    ideals = tuples[name]
    atlas = {"RAT6": rat6_atlas, "CHAIN10": chain10_atlas}[name]
    vertices = facet_intersection_vertices(atlas)
    assert vertices
    for vertex in vertices:
        expected = reference_admissible(ideals, vertex, direction)
        assert admissible_perturbation(ideals, vertex, direction) == expected
