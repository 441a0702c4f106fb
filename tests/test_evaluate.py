"""Weighted divisors, one-sided limits, constancy regions."""

import random
import sys
from fractions import Fraction

import pytest

import frozen
from conftest import cold, divisor_leq, record_calls
from mmideal import (
    PointEvaluation,
    bijection_report,
    combined_ideal,
    evaluate_point,
    jump_record,
    lct_axis,
    make_ray,
    newton_nest,
    ray_walk,
    region,
    subtuple,
)
from mmideal import cli, evaluate, rays, walls
from mmideal.dualgraph import IdealTuple
from mmideal.errors import InternalConsistencyError, LengthMismatch, ValidationError
from mmideal.evaluate import (
    gap_values,
    maximal_jumping_divisor,
    mmi_divisor,
    mmi_divisor_left,
    weighted_F,
)


def test_weighted_and_gap_values(rat6):
    corner = frozen.RAT6_CORNER
    weighted = weighted_F(rat6, corner)
    expected = tuple(
        Fraction(1, 12) * a + Fraction(3, 4) * b
        for a, b in zip(frozen.RAT6_F1, frozen.RAT6_F2)
    )
    assert weighted == expected
    gaps = gap_values(rat6, corner)
    assert gaps == tuple(w - k for w, k in zip(weighted, frozen.RAT6_CANONICAL))
    assert gaps == (4, 3, 3, 2, Fraction(19, 12), Fraction(5, 3))


def test_corner_divisors(rat6):
    corner = frozen.RAT6_CORNER
    assert mmi_divisor(rat6, corner) == (5, 3, 5, 2, 1, 1)
    assert mmi_divisor_left(rat6, corner) == frozen.RAT6_FUNDAMENTAL
    assert maximal_jumping_divisor(rat6, corner) == (
        True, True, True, True, False, False,
    )


def test_origin_divisor_is_fundamental_cycle(rat6):
    origin = (Fraction(0), Fraction(0))
    assert mmi_divisor(rat6, origin) == frozen.RAT6_FUNDAMENTAL


def test_left_limit_dominated_and_equality_rule(tuples):
    rng = random.Random(7)
    for name in ("RAT6", "CHAIN10", "NEST14"):
        ideals = tuples[name]
        for _ in range(40):
            point = tuple(
                Fraction(rng.randint(0, 40), rng.randint(1, 24))
                for _ in range(ideals.r)
            )
            left = mmi_divisor_left(ideals, point)
            right = mmi_divisor(ideals, point)
            assert divisor_leq(left, right)
            support = maximal_jumping_divisor(ideals, point)
            if not any(support):
                assert left == right


def test_anti_monotonicity(chain10):
    rng = random.Random(11)
    for _ in range(40):
        low = tuple(Fraction(rng.randint(0, 30), 17) for _ in range(2))
        high = tuple(c + Fraction(rng.randint(0, 20), 13) for c in low)
        assert divisor_leq(mmi_divisor(chain10, low), mmi_divisor(chain10, high))


def test_point_validation(rat6):
    with pytest.raises(LengthMismatch):
        mmi_divisor(rat6, (Fraction(1),))
    with pytest.raises(ValidationError):
        mmi_divisor(rat6, (Fraction(-1, 2), Fraction(1)))


def test_support_components(rat6):
    # E1 is adjacent to E2, E3, E4; E5 and E6 hang off E2
    support = (True, False, True, True, False, True)
    assert evaluate._components(rat6.graph, support) == [[0, 2, 3], [5]]
    support = (True, True, True, True, False, False)
    assert evaluate._components(rat6.graph, support) == [[0, 1, 2, 3]]


def test_region_binding_rat6(rat6):
    report = region(rat6, (Fraction(0), Fraction(0)))
    assert report.valid
    binding = tuple(
        j + 1
        for j in range(rat6.size)
        if report.classification[j] == "facet"
    )
    assert binding == frozen.RAT6_LC_BINDING
    # the E1 constraint line passes through the corner but supports no facet
    assert report.classification[0] == "touch"
    assert frozen.RAT6_CORNER in report.polytope.vertices


def test_region_binding_chain10(chain10):
    report = region(chain10, (Fraction(0), Fraction(0)))
    assert report.valid
    binding = tuple(
        j + 1
        for j in range(chain10.size)
        if report.classification[j] == "facet"
    )
    assert binding == frozen.CHAIN10_LC_BINDING


def test_region_contains_only_smaller_divisors(rat6):
    rng = random.Random(13)
    center = (Fraction(1, 3), Fraction(1, 5))
    report = region(rat6, center)
    d_center = mmi_divisor(rat6, center)
    vertices = report.polytope.vertices
    for _ in range(60):
        weights = [Fraction(rng.randint(1, 9)) for _ in vertices]
        total = sum(weights)
        sample = tuple(
            sum(w * v[i] for w, v in zip(weights, vertices)) / total
            for i in range(2)
        )
        assert divisor_leq(mmi_divisor(rat6, sample), d_center)


def test_subtuple_and_combined(nest14):
    duple = subtuple(nest14, (0, 2))
    assert duple.r == 2
    assert duple.ideals == (frozen.NEST14_F1, frozen.NEST14_F3)
    merged = combined_ideal(nest14, (1, 2, 0))
    expected = tuple(a + 2 * b for a, b in zip(frozen.NEST14_F1, frozen.NEST14_F2))
    assert merged == expected
    with pytest.raises(ValidationError):
        combined_ideal(nest14, (0, 0, 0))


@pytest.mark.parametrize("function", [lct_axis, subtuple])
def test_ideal_index_outside_the_tuple_is_refused(rat6, function):
    for index in (-1, rat6.r):
        argument = [index] if function is subtuple else index
        message = rf"^ideal index {index} is outside 0\.\.1$"
        with pytest.raises(LengthMismatch, match=message):
            function(rat6, argument)


def test_bijection_report_builds_one_lc_region(monkeypatch, nest14):
    calls = record_calls(monkeypatch, "walls", "lc_region")
    bijection_report(nest14)
    assert len(calls) == 1


def test_bound_only_callers_build_no_polytope(monkeypatch, nest14):
    built = record_calls(monkeypatch, "evaluate", "intersect_halfspaces")
    for axis in range(nest14.r):
        lct_axis(nest14, axis)
    newton_nest(nest14)
    assert built == []


def test_bijection_report_builds_one_polytope(monkeypatch, inject, nest14):
    built = record_calls(monkeypatch, "evaluate", "intersect_halfspaces")
    reports = []

    def recording_lc_region(ideals):
        reports.append(evaluate.region(ideals, (Fraction(0),) * ideals.r))
        return reports[-1]

    inject(walls, "lc_region", recording_lc_region)
    bijection_report(nest14)
    (report,) = reports
    assert report.binding_non_rupture == ()
    assert len(built) == 1  # the binding test read the same polytope


def test_bijection_report_ranks_each_constraint_at_most_once(monkeypatch, inject, nest14):
    # classification ranks the polytope's integer vertex rows (X, W) directly
    ranked = record_calls(monkeypatch, "polytope", "_rank")
    reports = []

    def recording_lc_region(ideals):
        reports.append(evaluate.region(ideals, (Fraction(0),) * ideals.r))
        return reports[-1]

    inject(walls, "lc_region", recording_lc_region)
    bijection_report(nest14)
    (report,) = reports
    # one rank per constraint with incident vertices, none for the slack ones
    incident = sum(kind != "slack" for kind in report.polytope.classification)
    assert len(ranked) == incident <= len(report.polytope.halfspaces)


def test_cli_lct_still_refuses_a_binding_constraint(monkeypatch, inject, capsys):
    built = record_calls(monkeypatch, "evaluate", "intersect_halfspaces")
    inject(IdealTuple, "rupture_or_dicritical", property(lambda self: (False,) * self.size))
    assert cli.main(["lct", "RAT6"]) == 2
    assert "components 2, 4 bind the region" in capsys.readouterr().err
    assert len(built) == 1


def test_jump_record_evaluates_the_point_once(monkeypatch, rat6):
    ideals = cold(rat6)
    weighted = record_calls(monkeypatch, "evaluate", "weighted_F")
    evaluations = record_calls(monkeypatch, "evaluate", "evaluate_point")
    jump_record(ideals, frozen.RAT6_CORNER)
    # the point was certified, not served from the graph's record cache
    assert ideals.graph.record_cache.misses == 1
    assert len(weighted) <= 1
    built = [args for args in evaluations if not isinstance(args[1], PointEvaluation)]
    assert len(built) == 1


def test_jump_record_finds_G_once(monkeypatch, rat6):
    # at a jumping point the record runs the adjunction route once, and the
    # via-G route, which checks the criterion on H's values and reads G, once
    ray = make_ray(rat6, base=(0, 0), direction=(1, 1))
    points = [frozen.RAT6_CORNER]
    points += [jump.point for jump in ray_walk(rat6, ray, until=Fraction(1, 2))]
    adjunction = record_calls(monkeypatch, "multiplicity", "multiplicity")
    via_G = record_calls(monkeypatch, "multiplicity", "multiplicity_via_G")
    ideals = cold(rat6)
    for point in points:
        adjunction.clear()
        via_G.clear()
        record = jump_record(ideals, point)
        assert record.mult > 0 and record.minimal is not None
        assert len(adjunction) == 1
        assert len(via_G) == 1


def test_jump_record_reads_H_once(monkeypatch, rat6):
    # the evaluation owns H's components and adjoint products: a jumping
    # record finds components twice (H, then G) and forms H's product vector
    # (ceil(K - c.F) + H).E_j once
    components = record_calls(monkeypatch, "evaluate", "_components")
    products = record_calls(monkeypatch, "unloading", "intersection_products")
    point = (Fraction(1, 4), Fraction(1, 4))
    record = jump_record(cold(rat6), point)
    assert record.mult == 3 and record.minimal != record.maximal
    assert len(components) <= 2
    floors = evaluate_point(rat6, point).floors
    shifted = tuple(inside - f for f, inside in zip(floors, record.maximal))
    assert sum(tuple(args[1]) == shifted for args in products) == 1


def test_jump_record_builds_no_fraction_views(tuples):
    # every route reads the scaled integers; c.F and v as Fractions are views
    # for the public readers only.  Stands in for counting Fraction
    # constructions, which newer Pythons make without calling __new__.
    for name in ("RAT6", "CHAIN10", "NEST14"):
        walked = tuples[name]
        ray = make_ray(walked, (0,) * walked.r, (1,) * walked.r)
        jumps = [jump.point for jump in ray_walk(walked, ray, Fraction(1, 2))]
        assert jumps
        # certified on a fresh graph, where no record of the walk is cached
        ideals = cold(walked)
        points = jumps + [tuple(Fraction(1, 7 + i) for i in range(ideals.r))]
        for point in points:
            evaluation = evaluate_point(ideals, point)
            jump_record(ideals, evaluation)
            assert "values" not in evaluation.__dict__
            assert "weighted" not in evaluation.__dict__
        assert ideals.graph.record_cache.misses == len(points)


def test_lazy_attributes_run_once_and_stay_frozen(monkeypatch, rat6):
    closures = record_calls(monkeypatch, "evaluate", "antinef_closure_checked")
    evaluation = evaluate_point(rat6, (Fraction(1, 4), Fraction(1, 4)))
    first = [evaluation.divisor, evaluation.divisor_left, evaluation.minimal]
    for _ in range(3):
        assert [evaluation.divisor, evaluation.divisor_left, evaluation.minimal] == first
    assert [tuple(args[1]) for args in closures] == [
        evaluation.floors,
        evaluation.left_floors,
    ]
    # the values live in the instance; assigning, read or unread, still raises
    for name in ("divisor", "maximal_values", "values"):
        with pytest.raises(AttributeError):
            setattr(evaluation, name, None)
    assert evaluation.divisor == first[0]


def test_a_failed_lazy_attribute_stores_nothing(rat6):
    # at the RAT6 origin the H support check fails (see ROADMAP item 1):
    # every read raises again, and D_c stays readable
    evaluation = evaluate_point(rat6, (0, 0))
    for _ in range(2):
        with pytest.raises(InternalConsistencyError, match="integrality scan"):
            evaluation.maximal
    assert "maximal" not in evaluation.__dict__
    assert evaluation.divisor == frozen.RAT6_FUNDAMENTAL


def test_a_failed_gap_fill_stores_nothing(monkeypatch, inject, rat6):
    # the fill fails after N*(c.F) is computed: none of the four gap
    # attributes is stored, and a later fill stores all four
    gaps = ("scaled_weighted", "scaled_values", "floors", "left_floors")
    evaluation = evaluate._evaluate_at(rat6, (1, 3), 4)
    inject(evaluate, "_dot_F", lambda ideals, vector: (None,) * ideals.size)
    for name in gaps:
        with pytest.raises(TypeError):
            getattr(evaluation, name)
        assert not set(gaps) & set(vars(evaluation))
    monkeypatch.undo()
    fresh = evaluate_point(rat6, (Fraction(1, 4), Fraction(3, 4)))
    assert [getattr(evaluation, name) for name in gaps] == [getattr(fresh, name) for name in gaps]
    assert set(gaps) <= set(vars(evaluation))


def test_via_G_runs_the_kernel_only_where_G_differs_from_H(monkeypatch, tuples):
    # the kernel runs once per candidate for H, and once more at a jump only
    # where G != H; where G == H, via-G reads H's values, which are the
    # kernel's answer on the same support
    honest = sys.modules["mmideal.evaluate"]._adjunction_values
    kernel = record_calls(monkeypatch, "evaluate", "_adjunction_values")
    via_G = record_calls(monkeypatch, "multiplicity", "multiplicity_via_G")
    rng = random.Random(25)
    shapes = set()
    for name in ("RAT6", "CHAIN10"):
        for _ in range(3):
            # a fresh graph per ray, so every candidate is certified here
            ideals = cold(tuples[name])
            base = [Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(ideals.r)]
            direction = [rng.randint(1, 4) for _ in range(ideals.r)]
            ray = make_ray(ideals, base, direction)
            until = Fraction(3, 2)
            candidates = list(rays._candidate_parameters(ideals, ray, until, rays._grid(ideals, ray)))
            kernel.clear()
            via_G.clear()
            jumps = ray_walk(ideals, ray, until)
            differing = [j for j in jumps if j.record.minimal != j.record.maximal]
            assert ideals.graph.record_cache.misses == len(candidates)
            assert len(via_G) == len(jumps)
            assert len(kernel) == len(candidates) + len(differing)
            for jump in jumps:
                evaluation = evaluate_point(ideals, jump.point)
                same = evaluation.minimal == evaluation.maximal
                shapes.add(same)
                if same:
                    _, connected = honest(evaluation, evaluation.minimal)
                    assert connected == evaluation.maximal_values[1]
    assert shapes == {True, False}


def test_cli_point_runs_each_route_once(monkeypatch, capsys):
    # the command prints the routes jump_record has already compared
    routes = (
        "multiplicity_fractional",
        "multiplicity_oracle",
        "multiplicity_via_G",
    )
    calls = {route: record_calls(monkeypatch, "multiplicity", route) for route in routes}
    assert cli.main(["point", "RAT6", "--c", "1/4,1/4"]) == 0
    assert "m via G = 3" in capsys.readouterr().out
    counts = {route: len(args) for route, args in calls.items()}
    assert counts == dict.fromkeys(calls, 1)


def test_evaluation_stands_in_for_its_point(rat6, chain10):
    corner = evaluate_point(rat6, frozen.RAT6_CORNER)
    assert mmi_divisor(rat6, corner) == mmi_divisor(rat6, frozen.RAT6_CORNER)
    assert gap_values(rat6, corner) == gap_values(rat6, frozen.RAT6_CORNER)
    with pytest.raises(ValidationError):
        mmi_divisor(chain10, corner)
