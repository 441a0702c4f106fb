"""The integer log-canonical path against test-local `Fraction` references.

The references compute, from their definitions and in `Fraction`
arithmetic, what the library now computes in integers: a region's bounds
k_j + 1 + e_j, its per-axis thresholds min_j bound_j / F_i[j], the axis
contact supports, the facet samples as weighted `Fraction` averages of the
facet's vertices, the vertex order of a clip and the affine rank of a point
set.  They run on the bundled fixtures and on seeded r = 2, 3, 4 tuples of
nonnegative sums of a fixture's ideals and its fundamental cycle.
"""

import random
from fractions import Fraction

import pytest

from conftest import FIXTURE_NAMES, fraction_rank
from mmideal import (
    bijection_report,
    evaluate_point,
    lc_region,
    lct_axis,
    multiplicity_checked,
    region,
)
from mmideal import evaluate, walls
from mmideal.errors import LengthMismatch, NoCleanSample, ValidationError
from mmideal.evaluate import mmi_divisor
from mmideal.polytope import Halfspace, _rank, intersect_halfspaces
from mmideal.rationals import over_common_denominator
from scale import sums


@pytest.fixture(scope="module")
def lc_tuples(tuples):
    """(label, tuple): every fixture, then three seeded sums per fixture and
    per r = 2, 3, 4."""
    rng = random.Random(30)
    chosen = [(name, tuples[name]) for name in FIXTURE_NAMES]
    for name in FIXTURE_NAMES:
        for r in (2, 3, 4):
            for n in range(3):
                chosen.append((f"{name} r={r} #{n}", sums(tuples[name], r, rng)))
    return chosen


def _reference_bounds(ideals, centre):
    divisor = mmi_divisor(ideals, centre)
    return tuple(k + 1 + e for k, e in zip(ideals.graph.canonical, divisor))


def _reference_thresholds(ideals, bounds):
    return tuple(
        min(bound / vector[j] for j, bound in enumerate(bounds)) for vector in ideals.ideals
    )


def _reference_supports(ideals, bounds, thresholds):
    keep = ideals.rupture_or_dicritical
    return tuple(
        tuple(j for j, bound in enumerate(bounds) if keep[j] and t * vector[j] == bound)
        for vector, t in zip(ideals.ideals, thresholds)
    )


def _reference_sample(ideals, carriers, vertices):
    """The first weighting whose `Fraction` average lies on no wall outside
    the carriers, evaluated from that point; None if 50 weightings fail."""
    count = len(vertices)
    for attempt in range(50):
        weights = [1] * count
        weights[attempt % count] += attempt
        total = sum(weights)
        sample = tuple(
            sum((w * v[i] for w, v in zip(weights, vertices)), Fraction(0)) / total
            for i in range(ideals.r)
        )
        evaluation = evaluate_point(ideals, sample)
        if all(j in carriers for j, _ in evaluation.wall_lines):
            return evaluation
    return None


def _assert_same_evaluation(ideals, got, expected):
    assert got.point == expected.point
    assert all(type(x) is Fraction for x in got.point)
    for field in ("scale", "scaled_point", "scaled_values", "floors", "left_floors"):
        assert getattr(got, field) == getattr(expected, field), field
    assert got.wall_lines == expected.wall_lines
    assert got.divisor == expected.divisor
    assert got.divisor_left == expected.divisor_left
    assert multiplicity_checked(ideals, got) == multiplicity_checked(ideals, expected)


def test_lc_bounds_and_thresholds_match_the_fraction_reference(lc_tuples):
    for label, ideals in lc_tuples:
        report = lc_region(ideals)
        bounds = _reference_bounds(ideals, (0,) * ideals.r)
        denominator = ideals.graph.scaled_canonical[0]
        assert all(type(b) is int for b in report.scaled_bounds), label
        assert report.scaled_bounds == tuple(denominator * b for b in bounds), label
        assert report.bounds == bounds, label
        assert all(type(b) is Fraction for b in report.bounds), label
        thresholds = _reference_thresholds(ideals, bounds)
        assert report.thresholds == thresholds, label
        assert all(type(t) is Fraction for t in report.thresholds), label
        assert tuple(lct_axis(ideals, i) for i in range(ideals.r)) == thresholds, label


def test_region_bounds_keep_their_fraction_repr(tuples):
    rng = random.Random(3)
    for name in FIXTURE_NAMES:
        ideals = tuples[name]
        for _ in range(4):
            centre = tuple(Fraction(rng.randint(0, 20), rng.randint(1, 9)) for _ in range(ideals.r))
            report = region(ideals, centre)
            bounds = _reference_bounds(ideals, centre)
            assert report.bounds == bounds
            assert report.thresholds == _reference_thresholds(ideals, bounds)
            assert repr(report) == (
                f"RegionReport(ideals={ideals!r}, center={report.center!r}, "
                f"bounds={bounds!r})"
            )


def test_axis_supports_match_the_fraction_test(lc_tuples):
    for label, ideals in lc_tuples:
        report = lc_region(ideals)
        bounds = _reference_bounds(ideals, (0,) * ideals.r)
        expected = _reference_supports(ideals, bounds, _reference_thresholds(ideals, bounds))
        assert walls._axis_supports(ideals, report) == expected, label
        assert bijection_report(ideals).axis_supports == expected, label


def test_interior_samples_match_the_fraction_averages(lc_tuples):
    sampled = 0
    for label, ideals in lc_tuples:
        polytope = lc_region(ideals).polytope
        for carriers in polytope.facet_keys.values():
            vertices = polytope.incident_vertices(carriers[0])
            expected = _reference_sample(ideals, set(carriers), vertices)
            if expected is None:
                with pytest.raises(NoCleanSample):
                    walls._interior_sample(ideals, carriers, vertices)
                continue
            got = walls._interior_sample(ideals, carriers, vertices)
            _assert_same_evaluation(ideals, got, expected)
            sampled += 1
    assert sampled >= 60, sampled


def test_bijection_samples_and_touch_points_match_the_references(inject, lc_tuples):
    # every point bijection_report certifies, facet sample or touch vertex,
    # is evaluated as evaluate_point evaluates the same Fraction point
    checked = []
    certify = walls.multiplicity_checked
    inject(
        walls, "multiplicity_checked",
        lambda ideals, point: checked.append(point) or certify(ideals, point),
    )
    touched = 0
    for label, ideals in lc_tuples:
        checked.clear()
        try:
            report = bijection_report(ideals)
        except NoCleanSample:
            continue
        polytope = lc_region(ideals).polytope
        for facet in report.facets:
            vertices = polytope.incident_vertices(facet.carriers[0])
            expected = _reference_sample(ideals, set(facet.carriers), vertices)
            assert facet.sample == expected.point, label
            assert facet.sample_mult == certify(ideals, expected), label
        touch = {
            vertex
            for j, kind in enumerate(polytope.classification) if kind == "touch"
            for vertex in polytope.incident_vertices(j) if any(vertex)
        }
        for evaluation in checked:
            _assert_same_evaluation(ideals, evaluation, evaluate_point(ideals, evaluation.point))
            touched += evaluation.point in touch
    assert touched, "no touch vertex among the tuples"


# ---------------------------------------------------------------------------
# The clip: vertex order, rank and row refusals.
# ---------------------------------------------------------------------------


def _random_rows(rng, dimension):
    rows = []
    for axis in range(dimension):
        normal = [rng.randint(0, 9) for _ in range(dimension)]
        normal[axis] = rng.randint(1, 60)
        rows.append(Halfspace(tuple(normal), rng.randint(1, 200)))
    for _ in range(rng.randint(0, 6)):
        normal = tuple(rng.randint(-3, 40) for _ in range(dimension))
        rows.append(Halfspace(normal, rng.randint(-5, 150)))
    return rows


def test_vertex_order_matches_sorting_fraction_tuples():
    rng = random.Random(11)
    empty = 0
    for dimension, trials in ((1, 40), (2, 80), (3, 60), (4, 30)):
        for _ in range(trials):
            polytope = intersect_halfspaces(_random_rows(rng, dimension))
            pairs = list(zip(polytope.vertices, polytope.incidence))
            assert pairs == sorted(pairs, key=lambda pair: pair[0])
            assert len(set(polytope.vertices)) == len(polytope.vertices)
            assert all(type(x) is Fraction for v in polytope.vertices for x in v)
            empty += not polytope.vertices
    assert empty, "no empty intersection among the random row sets"


def test_vertex_order_separates_near_ties():
    # x = 33/100, 1/3 and 67/200 differ by 1/300 and 1/600; a key with too
    # few bits would tie the last two and order them by y
    rows = [
        Halfspace((0, 1), 2),
        Halfspace((300, 1), 101),
        Halfspace((600, 1), 201),
    ]
    polytope = intersect_halfspaces(rows)
    assert polytope.vertices == (
        (0, 0), (0, 2), (Fraction(33, 100), 2), (Fraction(1, 3), 1), (Fraction(67, 200), 0)
    )
    assert polytope.incidence[3] == frozenset({1, 2})


def test_empty_intersection_has_no_vertices():
    polytope = intersect_halfspaces([Halfspace((1, 1), -1), Halfspace((1, 0), 3)])
    assert polytope.vertices == () and polytope.incidence == ()
    assert polytope.classification == ("slack", "slack")


def test_fraction_free_rank_matches_the_fraction_rank():
    rng = random.Random(5)
    seen = set()
    for dimension in (1, 2, 3, 4):
        for _ in range(150):
            count = rng.randint(0, 6)
            points = [
                tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(dimension))
                for _ in range(count)
            ]
            if points and rng.random() < 0.4:
                # points on a line or plane through the first, plus repeats
                base, *spans = points[: 1 + rng.randint(1, 2)]
                points = [base]
                for _ in range(rng.randint(1, 5)):
                    steps = [rng.randint(-3, 3) for _ in spans]
                    points.append(tuple(
                        b + sum(t * (d[i] - b) for t, d in zip(steps, spans))
                        for i, b in enumerate(base)
                    ))
            if rng.random() < 0.2:
                points = [tuple(int(x) for x in p) for p in points]
            # the library's rank of the integer rows (L*p, L), L the lcm of
            # p's denominators, is one more than the points' affine rank
            rows = [n + (scale,) for scale, n in map(over_common_denominator, points)]
            rank = _rank(rows) - 1
            assert rank == fraction_rank(points), points
            seen.add(rank)
    assert seen == {-1, 0, 1, 2, 3, 4}


@pytest.mark.parametrize(
    "rows, error",
    [
        ([Halfspace((1, 1), 2), Halfspace((1, 1, 1), 2)], LengthMismatch),
        ([Halfspace((1, 1, 1), 2), Halfspace((1, 1), 2)], LengthMismatch),
        ([Halfspace((True, 1), 2)], ValidationError),
        ([Halfspace((1, 1), 2), Halfspace((1, 1), False)], ValidationError),
        ([Halfspace((1.0, 1), 2)], ValidationError),
        ([Halfspace((1, 1), 2.0)], ValidationError),
        ([Halfspace((1, Fraction(1, 2)), 2)], ValidationError),
        ([Halfspace((1, 1), Fraction(3, 2))], ValidationError),
        ([Halfspace("12", 2)], ValidationError),
    ],
    ids=[
        "longer", "shorter", "bool-entry", "bool-bound", "float-entry",
        "float-bound", "fraction-entry", "fraction-bound", "string-normal",
    ],
)
def test_rows_are_read_through_the_rational_helpers(rows, error):
    with pytest.raises(error):
        intersect_halfspaces(rows)


def test_integral_fraction_rows_are_read_as_ints():
    polytope = intersect_halfspaces([Halfspace((Fraction(2), 1), Fraction(4))])
    assert polytope.halfspaces == (Halfspace((2, 1), 4),)
    assert all(type(n) is int for n in polytope.halfspaces[0].normal)
    assert polytope.vertices == ((0, 0), (0, 4), (2, 0))
    with pytest.raises(ValueError, match="no halfspaces"):
        intersect_halfspaces([])
    with pytest.raises(ValueError, match="unbounded"):
        intersect_halfspaces([Halfspace((1, 0), 1)])


def test_region_clips_through_the_module_binding(inject, rat6):
    calls = []
    clip = evaluate.intersect_halfspaces
    inject(evaluate, "intersect_halfspaces", lambda rows: calls.append(rows) or clip(rows))
    report = lc_region(rat6)
    report.polytope, report.classification, report.binding_non_rupture
    assert len(calls) == 1 and len(calls[0]) == rat6.size


# ---------------------------------------------------------------------------
# The kept components.
# ---------------------------------------------------------------------------


def test_kept_components_match_their_definitions(lc_tuples):
    for label, ideals in lc_tuples:
        graph = ideals.graph
        rupture = tuple(len(neighbors) >= 3 for neighbors in graph.adjacency)
        assert graph.rupture == rupture and graph.rupture is graph.rupture, label
        dicritical = tuple(
            any(ideals.excesses[i][j] > 0 for i in range(ideals.r)) for j in range(ideals.size)
        )
        assert ideals.dicritical == dicritical, label
        assert ideals.rupture_or_dicritical == tuple(
            a or b for a, b in zip(rupture, dicritical)
        ), label
