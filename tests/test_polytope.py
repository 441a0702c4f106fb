"""Exact halfspace intersection and facet classification."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

import frozen
from conftest import fraction_rank, hyperplane_key
from mmideal import attach_ideals, lc_region, region, subtuple
from mmideal.dualgraph import IdealTuple
from mmideal.polytope import Halfspace, _rank, intersect_halfspaces, solve_square


def row(normal, bound):
    """normal . z <= bound for `int` or `Fraction` entries, as the integer
    row scaled by the lcm of their denominators."""
    entries = [Fraction(x) for x in (*normal, bound)]
    scale = math.lcm(*(x.denominator for x in entries))
    *normal, bound = (int(x * scale) for x in entries)
    return Halfspace(tuple(normal), bound)


def unit_square():
    return [row((1, 0), 1), row((0, 1), 1)]


def test_unit_square_vertices():
    polytope = intersect_halfspaces(unit_square())
    assert set(polytope.vertices) == {
        (0, 0), (1, 0), (0, 1), (1, 1)
    }
    assert polytope.classification == ("facet", "facet")


def test_touch_and_slack_classification():
    # a diagonal constraint through one corner touches; a distant one is slack
    halfspaces = unit_square() + [row((1, 1), 2), row((1, 1), 5)]
    polytope = intersect_halfspaces(halfspaces)
    assert polytope.classification[2] == "touch"
    assert polytope.classification[3] == "slack"


def test_coincident_facet_constraints_share_a_key():
    halfspaces = [
        row((2, 2), 2),
        row((3, 3), 3),  # the same line scaled
    ]
    polytope = intersect_halfspaces(halfspaces)
    assert list(polytope.facet_keys.values()) == [[0, 1]]


def test_facet_keys_are_built_once(inject):
    # a bijection report and the region's binding check both read the map
    polytope = intersect_halfspaces(unit_square() + [row((2, 2), 2), row((3, 3), 3)])
    calls = []
    key = Halfspace.key
    inject(Halfspace, "key", lambda self: calls.append(self) or key(self))
    keys = polytope.facet_keys
    assert polytope.facet_keys is keys
    assert len(calls) == polytope.classification.count("facet") == sum(map(len, keys.values()))


def test_the_polytope_keeps_the_clip_integers():
    # a Halfspace of ints is kept as it is; any other row becomes one
    rows = unit_square() + [row((1, 1), 2)]
    polytope = intersect_halfspaces(rows + [((1, 3), 5), Halfspace((Fraction(2), 1), 7)])
    assert all(kept is given for kept, given in zip(polytope.halfspaces, rows))
    assert polytope.halfspaces[3:] == (Halfspace((1, 3), 5), Halfspace((2, 1), 7))
    assert all(type(x) is int for space in polytope.halfspaces[3:] for x in space.normal)
    # classification reads the rows (X, W), never the Fraction vertices
    assert polytope.classification == ("facet", "facet", "touch", "slack", "slack")
    assert "vertices" not in vars(polytope)
    for (*X, W), vertex in zip(polytope.homogeneous, polytope.vertices):
        assert W > 0 and math.gcd(*X, W) == 1
        assert vertex == tuple(Fraction(x, W) for x in X)
    again = intersect_halfspaces(rows + [((1, 3), 5), Halfspace((2, 1), 7)])
    assert again == polytope and hash(again) == hash(polytope)


def test_key_divides_in_fractions():
    key = Halfspace((3, 6), 2).key()
    assert key == (1, 2, Fraction(2, 3))
    assert all(type(entry) is Fraction for entry in key)
    assert Halfspace((0, -4), 6).key() == (0, -1, Fraction(3, 2))
    with pytest.raises(ValueError):
        Halfspace((0, 0), 1).key()


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


def test_solve_square_is_exact_on_int_rows():
    # `/` on two ints gives a float; the solution must stay exact
    solution = solve_square([[2, 0], [0, 4]], [1, 1])
    assert solution == (Fraction(1, 2), Fraction(1, 4))
    assert all(type(x) is Fraction for x in solution)
    assert solve_square([[1, 1], [2, 2]], [0, 0]) is None


def test_affine_rank():
    # the affine rank of points p is one less than the rank `_rank` gives
    # their integer rows (L*p, L), L the lcm of p's denominators
    assert _rank([[0, 0, 1]]) - 1 == 0
    assert _rank([[0, 0, 1], [1, 1, 1]]) - 1 == 1
    assert _rank([[0, 0, 1], [1, 0, 1], [0, 1, 1]]) - 1 == 2
    # (1/2, 1/3), (1, 2/3) and the origin lie on one line
    assert _rank([[3, 2, 6], [3, 2, 3], [0, 0, 1]]) - 1 == 1
    assert _rank([]) - 1 == -1


def test_empty_intersection():
    polytope = intersect_halfspaces([row((1,), -1)])
    assert not polytope.vertices


def test_no_halfspaces_rejected():
    with pytest.raises(ValueError):
        intersect_halfspaces(())


def test_unbounded_input_rejected():
    # the orthant is the starting cone, so two caps bound it
    assert len(intersect_halfspaces(unit_square()).vertices) == 4
    # nothing caps the second axis
    with pytest.raises(ValueError, match="unbounded"):
        intersect_halfspaces([row((1, -1), 1)])


def test_input_outside_the_orthant_is_clipped():
    # z_1 >= -1 reaches below the orthant; the clip keeps z >= 0, so that
    # row is slack and z_2 >= 0 carries the orthant's own facet
    polytope = intersect_halfspaces([row((-1, 0), 1), row((0, -1), 0), row((1, 1), 3)])
    assert polytope.vertices == ((0, 0), (0, 3), (3, 0))
    assert polytope.classification == ("slack", "facet", "facet")


# ---------------------------------------------------------------------------
# Reference: the brute-force enumeration the clipping replaced.  It adds the
# orthant rows -z_i <= 0, solves every r-subset of hyperplanes in
# `Fraction`s and keeps the solutions inside every halfspace; incidences are
# re-evaluated per vertex.
# ---------------------------------------------------------------------------


def _dot(normal, point):
    return sum((n * x for n, x in zip(normal, point)), Fraction(0))


def _reference_vertices(spaces):
    dimension = len(spaces[0].normal)
    rows = [(space.normal, space.bound) for space in spaces] + [
        (tuple(-int(i == axis) for i in range(dimension)), 0)
        for axis in range(dimension)
    ]
    found = set()
    for subset in combinations(rows, dimension):
        solution = solve_square(
            [[Fraction(n) for n in normal] for normal, _ in subset],
            [Fraction(bound) for _, bound in subset],
        )
        if solution is not None and all(
            _dot(normal, solution) <= bound for normal, bound in rows
        ):
            found.add(solution)
    return tuple(sorted(found))


def _reference_incident(spaces, vertices, index):
    space = spaces[index]
    return tuple(v for v in vertices if _dot(space.normal, v) == space.bound)


def _reference_classify(spaces, vertices, index):
    incident = _reference_incident(spaces, vertices, index)
    if not incident:
        return "slack"
    if fraction_rank(incident) == len(spaces[0].normal) - 1:
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
            key = hyperplane_key(spaces[index].normal, spaces[index].bound)
            keys.setdefault(key, []).append(index)
    assert polytope.facet_keys == keys


def _random_down_closed(rng, dimension):
    """Nonnegative-normal constraints: one cap per axis, some through
    vertices of the constraints so far (degenerate vertices), coincident
    scaled copies and redundant constraints."""
    spaces = []
    for axis in range(dimension):
        normal = [rng.randint(0, 3) for _ in range(dimension)]
        normal[axis] = rng.randint(1, 4)
        spaces.append(row(normal, rng.randint(1, 12)))
    for _ in range(rng.randint(1, 7)):
        normal = [rng.randint(0, 4) for _ in range(dimension)]
        if not any(normal):
            normal[rng.randrange(dimension)] = 1
        kind = rng.random()
        if kind < 0.05:
            bound = 0  # through the origin: a lower-dimensional polytope
        elif kind < 0.55:
            values = [_dot(normal, v) for v in _reference_vertices(spaces)]
            if kind < 0.4:
                # through a vertex off the normal's zero set
                bound = rng.choice([value for value in values if value > 0] or values)
            else:
                bound = max(values) + rng.choice((0, 1, Fraction(1, 3)))  # redundant
        else:
            bound = Fraction(rng.randint(1, 40), rng.randint(1, 4))
        spaces.append(row(normal, bound))
        if rng.random() < 0.25:
            scale = rng.randint(2, 4)
            spaces.append(row([scale * n for n in normal], scale * bound))
    rng.shuffle(spaces)
    return spaces


def test_clip_matches_reference_on_random_down_closed_polytopes():
    rng = random.Random(17)
    for dimension, trials in ((1, 60), (2, 60), (3, 40)):
        for _ in range(trials):
            _assert_matches_reference(_random_down_closed(rng, dimension))


def test_clip_matches_reference_on_positive_floors():
    # floors z_i >= l_i > 0 inside the orthant; some of these polytopes are
    # empty
    rng = random.Random(29)
    for dimension, trials in ((1, 30), (2, 30), (3, 20)):
        for _ in range(trials):
            spaces = _random_down_closed(rng, dimension)
            for axis in range(dimension):
                normal = [0] * dimension
                normal[axis] = -rng.randint(1, 3)
                floor = Fraction(rng.randint(1, 3), rng.randint(2, 8))
                spaces.append(row(normal, normal[axis] * floor))
            rng.shuffle(spaces)
            _assert_matches_reference(spaces)


def _kept_halfspaces(report):
    """The rupture/dicritical components' constraints of a region's
    polytope, in its halfspace order."""
    kept = report.ideals.rupture_or_dicritical
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
        assert all(
            type(n) is int for space in report.polytope.halfspaces
            for n in (*space.normal, space.bound)
        )
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


def test_valid_matches_the_two_clip_rule_on_random_masks(inject, tuples):
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
                    continue  # no row caps the orthant
                inject(IdealTuple, "rupture_or_dicritical", property(lambda self: mask))
                report = region(ideals, centre)
                restricted = intersect_halfspaces(_kept_halfspaces(report))
                expected = set(restricted.vertices) == set(report.polytope.vertices)
                assert report.valid == expected, (name, centre, mask)
                verdicts[expected] += 1
                carriers = list(report.polytope.facet_keys.values())
                for j in report.binding_non_rupture:
                    assert not mask[j]
                    (facet,) = [c for c in carriers if j in c]
                    assert not any(mask[i] for i in facet)
    assert verdicts[True] >= 30 and verdicts[False] >= 30, verdicts
