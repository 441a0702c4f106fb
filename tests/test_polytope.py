"""Exact halfspace intersection and facet classification."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import frozen
from mmideal import attach_ideals, lc_region, region, subtuple
from mmideal.dualgraph import IdealTuple
from mmideal.errors import ValidationError
from mmideal.polytope import (
    affine_rank,
    intersect_halfspaces,
    make_halfspace,
    orthant_halfspaces,
    solve_square,
)


def unit_square():
    return orthant_halfspaces(2) + [
        make_halfspace((1, 0), 1),
        make_halfspace((0, 1), 1),
    ]


@pytest.mark.parametrize(
    "normal, bound",
    [((0.5, 1), 1), ((1, 0), "1"), ((True, 0), 1), ((1, 0), None)],
    ids=["float", "str", "bool", "none"],
)
def test_make_halfspace_takes_ints_and_fractions(normal, bound):
    with pytest.raises(ValidationError, match="expected integers or Fractions"):
        make_halfspace(normal, bound)


def test_unit_square_vertices():
    polytope = intersect_halfspaces(unit_square())
    assert set(polytope.vertices) == {
        (0, 0), (1, 0), (0, 1), (1, 1)
    }
    assert all(polytope.classification[i] == "facet" for i in range(4))


def test_touch_and_slack_classification():
    # a diagonal constraint through one corner touches; a distant one is slack
    halfspaces = unit_square() + [
        make_halfspace((1, 1), 2),
        make_halfspace((1, 1), 5),
    ]
    polytope = intersect_halfspaces(halfspaces)
    assert polytope.classification[4] == "touch"
    assert polytope.classification[5] == "slack"


def test_coincident_facet_constraints_share_a_key():
    halfspaces = orthant_halfspaces(2) + [
        make_halfspace((2, 2), 2),
        make_halfspace((3, 3), 3),  # the same line scaled
    ]
    polytope = intersect_halfspaces(halfspaces)
    keys = polytope.facet_keys()
    diagonal = [indices for key, indices in keys.items() if len(indices) == 2]
    assert diagonal == [[2, 3]]


def test_solve_square():
    assert solve_square(
        ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(4))),
        (Fraction(1), Fraction(1)),
    ) == (Fraction(1, 2), Fraction(1, 4))
    assert (
        solve_square(
            ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))),
            (Fraction(0), Fraction(0)),
        )
        is None
    )


def test_affine_rank():
    assert affine_rank([(Fraction(0), Fraction(0))]) == 0
    assert affine_rank([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]) == 1
    assert (
        affine_rank(
            [
                (Fraction(0), Fraction(0)),
                (Fraction(1), Fraction(0)),
                (Fraction(0), Fraction(1)),
            ]
        )
        == 2
    )


def test_empty_intersection():
    halfspaces = orthant_halfspaces(1) + [make_halfspace((1,), -1)]
    polytope = intersect_halfspaces(halfspaces)
    assert not polytope.vertices


def test_no_halfspaces_rejected():
    with pytest.raises(ValueError):
        intersect_halfspaces(())


def test_unbounded_input_rejected():
    # no lower bound on either axis
    with pytest.raises(ValueError):
        intersect_halfspaces([make_halfspace((1, 0), 1), make_halfspace((0, 1), 1)])
    # the orthant, but nothing caps the second axis
    with pytest.raises(ValueError):
        intersect_halfspaces(orthant_halfspaces(2) + [make_halfspace((1, -1), 1)])


def test_input_outside_the_orthant_rejected():
    # z_1 >= -1 is a floor below 0: the orthant start would cut the region
    with pytest.raises(ValueError, match="orthant"):
        intersect_halfspaces(
            [make_halfspace((-1, 0), 1), make_halfspace((0, -1), 0)]
            + [make_halfspace((1, 1), 3)]
        )


# ---------------------------------------------------------------------------
# Reference: the brute-force enumeration the clipping replaced.  It solves
# every r-subset of constraint hyperplanes and keeps the solutions inside
# every halfspace; incidences are re-evaluated per vertex.
# ---------------------------------------------------------------------------


def _reference_vertices(spaces):
    dimension = len(spaces[0].normal)
    found = set()
    for subset in combinations(range(len(spaces)), dimension):
        solution = solve_square(
            [spaces[i].normal for i in subset], [spaces[i].bound for i in subset]
        )
        if solution is not None and all(
            h.value(solution) <= h.bound for h in spaces
        ):
            found.add(solution)
    return tuple(sorted(found))


def _reference_incident(spaces, vertices, index):
    space = spaces[index]
    return tuple(v for v in vertices if space.value(v) == space.bound)


def _reference_classify(spaces, vertices, index):
    incident = _reference_incident(spaces, vertices, index)
    if not incident:
        return "slack"
    if affine_rank(incident) == len(spaces[0].normal) - 1:
        return "facet"
    return "touch"


def _assert_matches_reference(spaces):
    spaces = tuple(spaces)
    polytope = intersect_halfspaces(spaces)
    vertices = _reference_vertices(spaces)
    assert polytope.vertices == vertices
    keys = {}
    for index in range(len(spaces)):
        assert polytope.incident_vertices(index) == _reference_incident(
            spaces, vertices, index
        )
        kind = _reference_classify(spaces, vertices, index)
        assert polytope.classification[index] == kind
        if kind == "facet":
            keys.setdefault(spaces[index].key(), []).append(index)
    assert polytope.facet_keys() == keys


def _random_down_closed(rng, dimension):
    """The orthant and nonnegative-normal constraints: some through vertices
    of the constraints so far (degenerate vertices), coincident scaled
    copies, redundant constraints, and one cap per axis."""
    spaces = orthant_halfspaces(dimension)
    for axis in range(dimension):
        normal = [rng.randint(0, 3) for _ in range(dimension)]
        normal[axis] = rng.randint(1, 4)
        spaces.append(make_halfspace(normal, rng.randint(1, 12)))
    for _ in range(rng.randint(1, 7)):
        normal = [rng.randint(0, 4) for _ in range(dimension)]
        if not any(normal):
            normal[rng.randrange(dimension)] = 1
        kind = rng.random()
        if kind < 0.05:
            bound = 0  # through the origin: a lower-dimensional polytope
        elif kind < 0.55:
            values = [
                sum(n * x for n, x in zip(normal, v))
                for v in _reference_vertices(spaces)
            ]
            if kind < 0.4:
                # through a vertex off the normal's zero set
                bound = rng.choice([value for value in values if value > 0] or values)
            else:
                bound = max(values) + rng.choice((0, 1, Fraction(1, 3)))  # redundant
        else:
            bound = Fraction(rng.randint(1, 40), rng.randint(1, 4))
        spaces.append(make_halfspace(normal, bound))
        if rng.random() < 0.25:
            scale = rng.randint(2, 4)
            spaces.append(make_halfspace([scale * n for n in normal], scale * bound))
    rng.shuffle(spaces)
    return spaces


def test_clip_matches_reference_on_random_down_closed_polytopes():
    rng = random.Random(17)
    for dimension, trials in ((1, 60), (2, 60), (3, 40)):
        for _ in range(trials):
            _assert_matches_reference(_random_down_closed(rng, dimension))


def test_clip_matches_reference_on_positive_floors():
    # z_i >= l_i > 0 replaces the orthant; some of these polytopes are empty
    rng = random.Random(29)
    for dimension, trials in ((1, 30), (2, 30), (3, 20)):
        for _ in range(trials):
            spaces = [
                space
                for space in _random_down_closed(rng, dimension)
                if space.bound != 0 or any(n > 0 for n in space.normal)
            ]
            for axis in range(dimension):
                normal = [0] * dimension
                normal[axis] = -rng.randint(1, 3)
                floor = Fraction(rng.randint(1, 3), rng.randint(2, 8))
                spaces.append(make_halfspace(normal, normal[axis] * floor))
            rng.shuffle(spaces)
            _assert_matches_reference(spaces)


def _kept_halfspaces(report):
    """The orthant planes and the rupture/dicritical components' constraints
    of a region's polytope, in its halfspace order."""
    kept = (True,) * report.ideals.r + report.ideals.rupture_or_dicritical
    return [space for space, keep in zip(report.polytope.halfspaces, kept) if keep]


def _with_fundamental_cycle(ideals):
    return attach_ideals(ideals.graph, ideals.ideals + (ideals.graph.fundamental,))


@pytest.mark.parametrize("name", ["CHAIN10", "NEST14", "PROP16", "RAT6", "SMOOTH1"])
def test_clip_matches_reference_on_fixture_lc_regions(tuples, name):
    # the fixture's first two ideals (r <= 2), then with Z added (r <= 3),
    # then NEST14's own three ideals
    ideals = tuples[name]
    pair = subtuple(ideals, range(min(ideals.r, 2)))
    chosen_tuples = [pair, _with_fundamental_cycle(pair)]
    if ideals.r > 2:
        chosen_tuples.append(ideals)
    for chosen in chosen_tuples:
        report = lc_region(chosen)
        _assert_matches_reference(report.polytope.halfspaces)
        _assert_matches_reference(_kept_halfspaces(report))


def test_clip_matches_reference_on_sample_regions(tuples):
    rng = random.Random(7)
    points = [("RAT6", frozen.RAT6_CORNER), ("RAT6", (Fraction(1, 3), Fraction(1, 5)))]
    for name in ("RAT6", "CHAIN10", "NEST14"):
        for _ in range(4):
            point = tuple(
                Fraction(rng.randint(0, 40), rng.randint(1, 24))
                for _ in range(tuples[name].r)
            )
            points.append((name, point))
    for name, point in points:
        report = region(tuples[name], point)
        _assert_matches_reference(report.polytope.halfspaces)
        _assert_matches_reference(_kept_halfspaces(report))


def test_valid_matches_the_two_clip_rule_on_random_masks(monkeypatch, tuples):
    # the former rule: a region is valid exactly when clipping the orthant by
    # the kept constraints alone gives the full polytope's vertex set
    rng = random.Random(41)
    verdicts = {True: 0, False: 0}
    for name in ("CHAIN10", "NEST14", "PROP16", "RAT6", "SMOOTH1"):
        ideals = tuples[name]
        centres = [(0,) * ideals.r] + [
            tuple(
                Fraction(rng.randint(0, 30), rng.randint(1, 12))
                for _ in range(ideals.r)
            )
            for _ in range(3)
        ]
        for centre in centres:
            for _ in range(8):
                share = rng.random()
                mask = tuple(rng.random() < share for _ in range(ideals.size))
                if not any(mask):
                    continue  # the orthant alone is unbounded
                monkeypatch.setattr(IdealTuple, "rupture_or_dicritical", mask)
                report = region(ideals, centre)
                restricted = intersect_halfspaces(_kept_halfspaces(report))
                expected = set(restricted.vertices) == set(report.polytope.vertices)
                assert report.valid == expected, (name, centre, mask)
                verdicts[expected] += 1
                carriers = list(report.polytope.facet_keys().values())
                for j in report.binding_non_rupture:
                    assert not mask[j]
                    (facet,) = [c for c in carriers if ideals.r + j in c]
                    assert all(i >= ideals.r and not mask[i - ideals.r] for i in facet)
    assert verdicts[True] >= 30 and verdicts[False] >= 30, verdicts
