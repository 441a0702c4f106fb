"""The scaled-integer point evaluation and candidate merge against Fraction
references.

The references compute c.F, the gap values, floors, left floors, wall lines,
the fractional-form total and the ray candidates in `Fraction` arithmetic,
straight from their definitions, and are compared with the library point by
point and candidate by candidate.  Points the library builds in integers
(atlas edge and face points, ray candidates) are compared field by field
with `evaluate_point` of the same `Fraction` point.
"""

import heapq
import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import FIXTURE_NAMES, edge_point, face_barycenter
from mmideal import (
    cell_decomposition,
    combined_ideal,
    evaluate_point,
    is_degenerate,
    jump_record,
    make_ray,
    multiplicity_fractional,
    ray_next,
    ray_point,
    ray_walk,
    stability_bound,
)
from mmideal import evaluate, rays
from mmideal.errors import InternalConsistencyError


def reference_evaluation(ideals, point):
    """(c.F, v, floors, left floors, wall lines) in `Fraction` arithmetic."""
    coords = tuple(Fraction(x) for x in point)
    weighted = tuple(
        sum((c * vector[j] for c, vector in zip(coords, ideals.ideals)), Fraction(0))
        for j in range(ideals.size)
    )
    values = tuple(w - k for w, k in zip(weighted, ideals.graph.canonical))
    floors = tuple(v.numerator // v.denominator for v in values)
    left_floors = tuple(
        f - 1 if v.denominator == 1 and w > 0 else f
        for w, v, f in zip(weighted, values, floors)
    )
    wall_lines = tuple(
        (j, v.numerator)
        for j, v in enumerate(values)
        if v.denominator == 1 and v > 0
    )
    return weighted, values, floors, left_floors, wall_lines


def reference_fractional(ideals, evaluation, values):
    coords, support = evaluation.point, evaluation.maximal
    adjacency = ideals.graph.adjacency
    total = Fraction(0)
    for i, inside in enumerate(support):
        if not inside:
            continue
        fractional = sum((values[j] % 1 for j in adjacency[i]), Fraction(0))
        excess = sum(
            (coords[k] * ideals.excesses[k][i] for k in range(ideals.r)),
            Fraction(0),
        )
        total += fractional + excess
    return total - len(evaluation.maximal_components)


def reference_candidates(ideals, ray, after):
    values = reference_evaluation(ideals, ray.base)[1]
    slopes = combined_ideal(ideals, ray.direction)

    def stream(j):
        q, v = slopes[j], values[j]
        if q == 0:
            return
        first = max(1, math.floor(after * q + v) + 1)
        for n in itertools.count(first):
            yield (n - v) / q

    merged = heapq.merge(*(stream(j) for j in range(ideals.size)))
    previous = None
    for mu in merged:
        if mu <= after:
            continue
        if previous is not None and mu == previous:
            continue
        previous = mu
        yield mu


def _fraction(rng):
    return Fraction(rng.randint(0, 48), rng.choice((1, 2, 3, 5, 6, 7, 12, 24, 35)))


def _wall_point(rng, ideals):
    """A point with v_j = l for a random component j and level l >= 1."""
    while True:
        j, level = rng.randrange(ideals.size), rng.randint(1, 6)
        axis = rng.choice([i for i in range(ideals.r) if ideals.ideals[i][j]])
        coords = [_fraction(rng) / 4 for _ in range(ideals.r)]
        coords[axis] = 0
        rest = sum(c * vector[j] for c, vector in zip(coords, ideals.ideals))
        solved = (ideals.graph.canonical[j] + level - rest) / ideals.ideals[axis][j]
        if solved >= 0:
            coords[axis] = solved
            return tuple(coords)


def _points(ideals, seed):
    rng = random.Random(seed)
    points = [(Fraction(0),) * ideals.r]
    for i in range(ideals.r):
        for _ in range(4):
            points.append(
                tuple(_fraction(rng) if k == i else 0 for k in range(ideals.r))
            )
    points += [_wall_point(rng, ideals) for _ in range(12)]
    points += [tuple(_fraction(rng) for _ in range(ideals.r)) for _ in range(12)]
    return points


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_evaluation_matches_fraction_reference(tuples, name):
    ideals = tuples[name]
    walls_seen = 0
    for point in _points(ideals, seed=name):
        evaluation = evaluate_point(ideals, point)
        weighted, values, floors, left_floors, wall_lines = reference_evaluation(
            ideals, point
        )
        assert evaluation.floors == floors
        assert evaluation.left_floors == left_floors
        assert evaluation.wall_lines == wall_lines
        assert evaluation.weighted == weighted
        assert evaluation.values == values
        walls_seen += bool(wall_lines)
        try:
            evaluation.maximal
        except InternalConsistencyError:
            continue  # H is not defined, as at the origin of RAT6 (k_2 = -1)
        expected = reference_fractional(ideals, evaluation, values)
        assert expected.denominator == 1
        assert multiplicity_fractional(ideals, evaluation) == expected
        record = jump_record(ideals, evaluation)
        if record.mult > 0:
            divisor_left = evaluation.divisor_left
            assert record.minimal == tuple(
                v == 1 + e for v, e in zip(values, divisor_left)
            )
        assert is_degenerate(ideals, point) == any(
            v.denominator == 1 and v <= 0 for v in values
        )
    assert walls_seen >= 12


def _rays(ideals, seed):
    rng = random.Random(seed)
    bases = [(0,) * ideals.r]
    bases += [tuple(_fraction(rng) / 8 for _ in range(ideals.r)) for _ in range(3)]
    out = []
    for base in bases:
        direction = [rng.randint(0, 3) for _ in range(ideals.r)]
        direction[rng.randrange(ideals.r)] = rng.randint(1, 3)
        out.append(make_ray(ideals, base, direction))
    return out


def _head(candidates, count):
    return list(itertools.islice(candidates, count))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_candidates_match_fraction_reference(tuples, name):
    ideals = tuples[name]
    for ray in _rays(ideals, seed=name):
        values = reference_evaluation(ideals, ray.base)[1]
        slopes = combined_ideal(ideals, ray.direction)
        assert stability_bound(ideals, ray) == max(
            Fraction(0), *(-v / q for v, q in zip(values, slopes))
        )
        head = _head(reference_candidates(ideals, ray, Fraction(0)), 40)
        afters = [Fraction(0), head[0], head[7], head[8] + Fraction(1, 10007)]
        afters.append(Fraction(math.floor(head[20] * 101), 101))  # foreign denominator
        for after in afters:
            expected = _head(reference_candidates(ideals, ray, after), 40)
            found = _head(rays._candidate_parameters(ideals, ray, after), 40)
            assert found == expected


@pytest.mark.parametrize("name", ("RAT6", "CHAIN10", "SMOOTH1"))
def test_ray_next_matches_fraction_reference(tuples, name):
    ideals = tuples[name]
    for ray in _rays(ideals, seed=f"next {name}"):
        head = _head(reference_candidates(ideals, ray, Fraction(0)), 12)
        # after = a candidate, after = just past one, after with a
        # denominator foreign to every candidate
        for after in (head[3], head[5] + Fraction(1, 9973), Fraction(1, 97)):
            expected = next(
                (mu, record)
                for mu in reference_candidates(ideals, ray, after)
                for record in [jump_record(ideals, ray_point(ray, mu))]
                if record.mult > 0
            )
            jump = ray_next(ideals, ray, after)
            assert (jump.parameter, jump.record) == expected
            assert jump.parameter > after


_FIELDS = (
    "point",
    "scale",
    "scaled_point",
    "scaled_weighted",
    "scaled_values",
    "floors",
    "left_floors",
    "wall_lines",
    "divisor",
)


def _assert_same_evaluation(got, want):
    for field in _FIELDS:
        assert getattr(got, field) == getattr(want, field), field


@pytest.mark.parametrize(
    "name, box",
    [("RAT6", (1, 1)), ("RAT6", (Fraction(3, 7), Fraction(2, 5))),
     ("CHAIN10", (Fraction(1, 3), Fraction(3, 8))), ("PROP16", (Fraction(1, 16), Fraction(2, 27)))],
)
def test_atlas_points_enter_as_integers(tuples, name, box):
    """Edge midpoints, facet samples and face barycenters, combined from
    the vertex triples, evaluate as their `Fraction` points do."""
    ideals = tuples[name]
    atlas = cell_decomposition(ideals, box)
    arr = atlas.arrangement
    for edge in arr.edges:
        _assert_same_evaluation(
            evaluate._evaluate_at(ideals, *arr.mean((edge.tail, edge.head))),
            evaluate_point(ideals, edge_point(arr.vertices, edge, Fraction(1, 2))),
        )
    for facet in atlas.facets:
        first = arr.edges[facet.edge_indices[0]]
        last = arr.edges[facet.edge_indices[-1]]
        samples = (
            arr.mean((first.tail, first.tail, first.head)),
            arr.mean((last.tail, last.head, last.head)),
        )
        for sample, point in zip(samples, facet.samples):
            _assert_same_evaluation(
                evaluate._evaluate_at(ideals, *sample), evaluate_point(ideals, point)
            )
    for face in arr.faces:
        _assert_same_evaluation(
            evaluate._evaluate_at(ideals, *arr.mean(face.loop)),
            evaluate_point(ideals, face_barycenter(arr, face)),
        )


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_ray_candidates_enter_as_integers(tuples, name, monkeypatch):
    """Every candidate the walk hands to `jump_record` is evaluated as
    base + mu*direction is in `Fraction` arithmetic."""
    ideals = tuples[name]
    seen = []
    record = rays.jump_record
    monkeypatch.setattr(
        rays, "jump_record", lambda ideals, point: seen.append(point) or record(ideals, point)
    )
    for ray in _rays(ideals, seed=f"integer {name}"):
        seen.clear()
        limit = _head(reference_candidates(ideals, ray, Fraction(0)), 30)[-1]
        ray_walk(ideals, ray, limit)
        candidates = _head(reference_candidates(ideals, ray, Fraction(0)), 30)
        assert len(seen) == len(candidates)
        for evaluation, mu in zip(seen, candidates):
            _assert_same_evaluation(evaluation, evaluate_point(ideals, ray_point(ray, mu)))
