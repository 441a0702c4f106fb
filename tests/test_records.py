"""The library's records: value records are NamedTuples, and the four that
cache per instance are plain classes; all of them refuse assignment and
deletion, and importing the package builds no dataclass."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import cold
from mmideal import (
    admissible_perturbation,
    attach_ideals,
    bijection_report,
    build_graph,
    cell_decomposition,
    evaluate_point,
    facet_intersection_vertices,
    jump_record,
    load_fixture,
    make_ray,
    poincare,
    ray_walk,
    region,
    stability_bound,
)
from mmideal.arrangement import make_line
from mmideal import evaluate
from mmideal.evaluate import _dot_F
from mmideal.polytope import Halfspace, intersect_halfspaces

SOURCE = Path(__file__).resolve().parents[1] / "src"

# a jumping point of RAT6 on two wall lines (m = 2), and one off every wall
WALL_POINT = (Fraction(1, 2), Fraction(1, 2))
PLAIN_POINT = (Fraction(1, 7), Fraction(1, 5))
BOX = (Fraction(1), Fraction(1))


def _atlas(rat6):
    return cell_decomposition(rat6, BOX)


def _jumps(rat6):
    return ray_walk(rat6, make_ray(rat6, (0, 0), (1, 1)), Fraction(1))


def _series(rat6):
    ray = make_ray(rat6, (0, 0), (1, 2))
    return poincare(rat6, ray, stability_bound(rat6, ray) + 2)


def _perturbation(rat6):
    vertex = facet_intersection_vertices(_atlas(rat6))[0]
    return admissible_perturbation(rat6, vertex, (1, 1))


ROWS = [Halfspace((2, 1), 1), Halfspace((1, 3), 1)]

# class name -> a call that builds a fresh record of that class from RAT6
VALUE_RECORDS = {
    "Line": lambda rat6: make_line(1, 2, Fraction(3, 4), [(0, 1)]),
    "Arrangement": lambda rat6: _atlas(rat6).arrangement,
    "IdealTuple": cold,
    "Fixture": lambda rat6: load_fixture("RAT6")._replace(expected=None),
    # on a fresh tuple each time: a repeat on one graph is the cached record
    "JumpRecord": lambda rat6: jump_record(cold(rat6), WALL_POINT),
    "PerturbationReport": _perturbation,
    "Halfspace": lambda rat6: Halfspace((1, 2), 3),
    "Ray": lambda rat6: make_ray(rat6, (Fraction(1, 3), 0), (1, 2)),
    "RayJump": lambda rat6: _jumps(rat6)[0],
    "AnchorTerm": lambda rat6: _series(rat6).anchors[0],
    "SeriesClosedForm": _series,
    "CFacet": lambda rat6: _atlas(rat6).facets[0],
    "WallAtlas": _atlas,
    "LCFacet": lambda rat6: bijection_report(rat6).facets[0],
    "BijectionReport": bijection_report,
}
CACHED_RECORDS = {
    "DualGraph": lambda rat6: build_graph(rat6.graph.matrix),
    "Polytope": lambda rat6: intersect_halfspaces(ROWS),
    "PointEvaluation": lambda rat6: evaluate_point(rat6, PLAIN_POINT),
    "RegionReport": lambda rat6: region(rat6, PLAIN_POINT),
}


def _field_names(record):
    return getattr(record, "_fields", None) or type(record)._shown


@pytest.mark.parametrize("name", sorted({**VALUE_RECORDS, **CACHED_RECORDS}))
def test_assignment_and_deletion_are_refused(rat6, name):
    build = {**VALUE_RECORDS, **CACHED_RECORDS}[name]
    record = build(rat6)
    assert type(record).__name__ == name
    assert isinstance(record, tuple) == (name in VALUE_RECORDS)
    names = _field_names(record)
    assert names
    before = [getattr(record, field) for field in names]
    for field in (*names, "unknown_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert [getattr(record, field) for field in names] == before
    assert not hasattr(record, "unknown_attribute")


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_compare_and_hash_by_their_fields(rat6, name):
    first, second = VALUE_RECORDS[name](rat6), VALUE_RECORDS[name](rat6)
    assert first is not second
    assert isinstance(first, tuple) and first._fields
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert repr(first).startswith(f"{name}({first._fields[0]}=")
    assert first._replace() == first


def test_a_fixture_with_an_expected_block_is_unhashable_as_before():
    fixture = load_fixture("RAT6")
    assert fixture == load_fixture("RAT6")
    with pytest.raises(TypeError):
        hash(fixture)


def test_dual_graph_equality_and_hash_ignore_its_caches(rat6):
    first, second = build_graph(rat6.graph.matrix), build_graph(rat6.graph.matrix)
    assert first == second and hash(first) == hash(second)
    before = repr(second)
    evaluate_point(attach_ideals(first, rat6.ideals), WALL_POINT).divisor
    assert len(first.closure_cache) > 0 and len(second.closure_cache) == 0
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) == before
    assert "cache" not in before
    assert first.closure_cache is not second.closure_cache
    assert first != build_graph(((-1,),))
    assert first != rat6.graph.matrix


def test_polytope_equality_and_hash_ignore_its_cached_classification():
    first, second = intersect_halfspaces(ROWS), intersect_halfspaces(ROWS)
    assert first.classification == ("facet", "facet")
    assert "classification" in vars(first) and "classification" not in vars(second)
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert first != intersect_halfspaces(ROWS[:1])


@pytest.mark.parametrize("name", ["PointEvaluation", "RegionReport"])
def test_evaluations_and_region_reports_compare_by_identity(rat6, name):
    build = CACHED_RECORDS[name]
    first, second = build(rat6), build(rat6)
    assert first == first and hash(first) == hash(first)
    assert first != second
    assert len({first, second}) == 2
    assert repr(first) == repr(second)
    assert repr(first).startswith(f"{name}(ideals=IdealTuple(graph=DualGraph(")


def test_importing_the_package_builds_no_dataclass():
    script = (
        "import sys; import mmideal, mmideal.cli, mmideal.svg; "
        "print('dataclasses' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={"PYTHONPATH": str(SOURCE), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"


def _column_formula(ideals, vector):
    """(u.F)_j as the sum over the ideal columns, one generator per column."""
    return tuple(sum(u * f for u, f in zip(vector, column)) for column in zip(*ideals))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("kind", [int, Fraction])
def test_dot_F_matches_the_column_formula(nest14, r, kind):
    ideals = attach_ideals(nest14.graph, nest14.ideals[:r])
    entries = [3, 0, 7][:r] if kind is int else [Fraction(3, 4), 0, Fraction(5, 2)][:r]
    vector = tuple(kind(x) for x in entries)
    dot = _dot_F(ideals, vector)
    assert dot == _column_formula(ideals.ideals, vector)
    assert len(dot) == ideals.size
    assert {type(x) for x in dot} == {kind}


def test_evaluate_point_keeps_the_point_it_checked(monkeypatch, rat6):
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(evaluate, "Fraction", counted)
    evaluation = evaluate_point(rat6, (Fraction(2, 6), 1))
    assert built == []
    assert evaluation.point == (Fraction(1, 3), Fraction(1))
    assert all(type(x) is Fraction for x in evaluation.point)
    assert evaluation.scaled_point == tuple(evaluation.scale * x for x in evaluation.point)
    # the integer entry of the rays and the atlas still builds its point
    entered = evaluate._evaluate_at(rat6, (2, 6), 6)
    assert built == [(2, 6), (6, 6)]
    assert entered.point == evaluation.point
