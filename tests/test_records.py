"""The library's records: value records are NamedTuples, and the four that
cache per instance are plain classes whose only first-read attributes are
``errors._lazy``; all of them refuse assignment and deletion, and importing
the package builds no dataclass."""

import ast
import importlib
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIXTURE_NAMES, cold
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
from mmideal import errors, evaluate, rationals, rays
from mmideal.evaluate import _dot_F
from mmideal.polytope import Halfspace, intersect_halfspaces

SOURCE = Path(__file__).resolve().parents[1] / "src"

# a jumping point of RAT6 on one wall line (m = 1), and one off every wall
WALL_POINT = (Fraction(1, 2), Fraction(1, 2))
PLAIN_POINT = (Fraction(1, 7), Fraction(1, 5))
BOX = (Fraction(1), Fraction(1))


def _atlas(rat6):
    # on a fresh tuple each time: a repeat on one graph is the cached atlas
    return cell_decomposition(cold(rat6), BOX)


def _jumps(rat6):
    # on a fresh tuple each time: a repeat on one graph is the held walk
    return ray_walk(cold(rat6), make_ray(rat6, (0, 0), (1, 1)), Fraction(1))


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


def _class_attributes(record):
    """name -> class attribute, for every non-dunder name the record's class
    and its bases define."""
    return {
        name: value
        for cls in reversed(type(record).__mro__)
        for name, value in vars(cls).items()
        if not name.startswith("__")
    }


@pytest.mark.parametrize("name", sorted(CACHED_RECORDS))
def test_every_first_read_attribute_is_lazy(rat6, name):
    record = CACHED_RECORDS[name](rat6)
    attributes = _class_attributes(record)
    descriptors = {
        attribute: value
        for attribute, value in attributes.items()
        if hasattr(type(value), "__get__") and not callable(value)
    }
    # no cached_property or other descriptor class: what is not recomputed
    # on every read (a property) is an errors._lazy
    assert {type(value) for value in descriptors.values()} <= {property, errors._lazy}
    lazy = {attribute for attribute, value in descriptors.items() if type(value) is errors._lazy}
    assert lazy
    before = set(vars(record))
    for attribute in descriptors:
        getattr(record, attribute)
    # reading everything stores exactly the lazy values, each under its name
    assert set(vars(record)) - before <= lazy <= set(vars(record))
    assert not set(vars(record)) & (set(descriptors) - lazy)


def _dict_readers(tree, scope=()):
    """(class, function) for every read of ``__dict__`` under an AST node,
    named by the innermost class and function around it."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, ast.ClassDef):
            inner = (node.name, None)
        elif isinstance(node, ast.FunctionDef):
            inner = (scope[0] if scope else None, node.name)
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            yield scope
        yield from _dict_readers(node, inner)


def test_only_constructors_and_lazy_attributes_store_into_a_record():
    # an instance __dict__ is written in a record's constructor or in
    # errors._lazy, and read nowhere else in the library
    places = {
        reader
        for path in (SOURCE / "mmideal").glob("*.py")
        for reader in _dict_readers(ast.parse(path.read_text()))
    }
    constructors = {(name, "__init__") for name in CACHED_RECORDS}
    assert places == constructors | {("_lazy", "__get__")}


def _resolve(node, names):
    """The object a name or attribute chain is bound to among *names*;
    KeyError for a name they do not hold, a local of some function."""
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, names), node.attr)
    if isinstance(node, ast.Name):
        return names[node.id]
    raise KeyError(ast.unparse(node))


def _raw_library_patches(path):
    """(line, target, name) of every ``monkeypatch.setattr`` in a test module
    on a ``mmideal`` module, under any alias, on a class that a ``mmideal``
    module defines, or on a target that the module's own names do not
    resolve.  Upper-case names are constants and pass."""
    names = vars(importlib.import_module(path.stem))
    for node in ast.walk(ast.parse(path.read_text())):
        call = node.func if isinstance(node, ast.Call) else None
        if not (
            isinstance(call, ast.Attribute) and call.attr == "setattr"
            and isinstance(call.value, ast.Name) and call.value.id == "monkeypatch"
        ):
            continue
        target, name = node.args[0], node.args[1]
        if isinstance(name, ast.Constant) and name.value.isupper():
            continue
        if isinstance(target, ast.Constant):  # the "module.name" form
            library = target.value.startswith("mmideal.")
        else:
            try:
                owner = _resolve(target, names)
            except KeyError:
                library = True
            else:
                if isinstance(owner, type):  # a class counts as its module
                    owner = sys.modules.get(owner.__module__)
                library = type(owner) is type(ast) and owner.__name__.startswith("mmideal")
        if library:
            yield node.lineno, ast.unparse(target), ast.unparse(name)


def test_tests_patch_library_callables_only_through_the_helpers():
    # a patched callable that a served result skips proves nothing; `inject`
    # fails a test whose replacement never ran, and `record_calls` is for
    # the tests that assert a call never happens
    tests = Path(__file__).resolve().parent
    raw = {
        (path.name, *patch)
        for path in tests.glob("test_*.py")
        for patch in _raw_library_patches(path)
    }
    assert raw == set()


def test_the_graph_stores_its_build_time_data_as_plain_fields(rat6):
    graph = build_graph(rat6.graph.matrix)
    for name in ("scaled_canonical", "_edge_kernel"):
        assert name in vars(graph)
        assert name not in _class_attributes(graph)
    assert graph.scaled_canonical == rationals.over_common_denominator(graph.canonical)
    diagonal, edges = graph._edge_kernel
    assert diagonal == tuple(row[j] for j, row in enumerate(graph.matrix))
    assert sorted(tuple(sorted(edge)) for edge in edges) == sorted(
        (j, l) for j, neighbors in enumerate(graph.adjacency) for l in neighbors if j < l
    )


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


def test_evaluate_point_keeps_the_point_it_checked(inject, rat6):
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    inject(evaluate, "Fraction", counted)
    evaluation = evaluate_point(rat6, (Fraction(2, 6), 1))
    assert built == []
    assert evaluation.point == (Fraction(1, 3), Fraction(1))
    assert all(type(x) is Fraction for x in evaluation.point)
    assert evaluation.scaled_point == tuple(evaluation.scale * x for x in evaluation.point)
    # the integer entry of the rays and the atlas builds its point from the
    # key (N*c, N), and only when the point is first read
    entered = evaluate._evaluate_at(rat6, (2, 6), 6)
    assert built == []
    assert "point" not in vars(entered)
    assert entered.point == evaluation.point
    assert built == [(n, entered.scale) for n in entered.scaled_point]
    assert entered.point is entered.point and len(built) == 2


def _counting_dot_F(inject):
    """Count the gap-data fills: each runs `evaluate._dot_F` once."""
    calls = []
    honest = evaluate._dot_F

    def counted(ideals, vector):
        calls.append(vector)
        return honest(ideals, vector)

    inject(evaluate, "_dot_F", counted)
    return calls


def test_a_repeated_walk_is_served_before_any_gap_data(inject, rat6):
    ideals = cold(rat6)
    ray = make_ray(ideals, (Fraction(1, 3), 0), (1, 2))
    candidates = list(rays._candidate_parameters(ideals, ray, Fraction(2), rays._grid(ideals, ray)))
    cache = ideals.graph.record_cache
    fills = _counting_dot_F(inject)
    first = list(rays._jumps(ideals, ray, candidates))
    # every candidate is a miss on the fresh graph, and each miss fills once
    assert cache.misses == len(fills) == len(candidates) > 0
    assert cache.hits == 0
    fills.clear()
    second = list(rays._jumps(ideals, ray, candidates))
    # every candidate of the second walk is a hit, served with no fill
    assert fills == []
    assert cache.hits == len(candidates) and cache.misses == len(candidates)
    assert second == first
    assert all(a.record is b.record for a, b in zip(first, second))
    # the public walk again: only the base's evaluation is filled
    walked = ray_walk(ideals, ray, Fraction(2))
    assert len(fills) == 1 and fills[0] == evaluate_point(ideals, ray.base).scaled_point
    assert cache.hits == 2 * len(candidates) and cache.misses == len(candidates)
    assert walked == first


def test_a_miss_fills_once_and_a_repeat_not_at_all(inject, rat6):
    ideals = cold(rat6)
    fills = _counting_dot_F(inject)
    record = jump_record(ideals, WALL_POINT)
    assert len(fills) == 1 and record.mult > 0
    # the same point entered in integers, in other terms, has the same key
    evaluation = evaluate._evaluate_at(ideals, (5, 5), 10)
    assert jump_record(ideals, evaluation) is record
    assert len(fills) == 1
    assert not {"scaled_weighted", "scaled_values", "floors", "left_floors", "point"} & set(
        vars(evaluation)
    )
    assert ideals.graph.record_cache.hits == 1
    # an evaluation whose gap data was read already is not filled again
    read = evaluate_point(ideals, PLAIN_POINT)
    read.floors
    jump_record(ideals, read)
    assert len(fills) == 2 and ideals.graph.record_cache.misses == 2


def _random_point(rng, r):
    """A seeded point with small denominators, off the origin (where RAT6's
    H support check fails), often on a wall."""
    while True:
        point = tuple(
            Fraction(rng.randint(0, 12), rng.randint(1, 6)) if rng.random() < 0.8 else Fraction(0)
            for _ in range(r)
        )
        if any(point):
            return point


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_served_records_equal_records_certified_from_scratch(tuples, name):
    rng = random.Random(f"served:{name}")
    warm = cold(tuples[name])
    points = [_random_point(rng, warm.r) for _ in range(30)]
    certified = [jump_record(warm, point) for point in points]
    before = warm.graph.record_cache.hits
    for point, record in zip(points, certified):
        # served through the integer entry, the point over a larger denominator
        factor = rng.randint(2, 5)
        denominator, numerators = rationals.over_common_denominator(point)
        entered = evaluate._evaluate_at(
            warm, [n * factor for n in numerators], denominator * factor
        )
        served = jump_record(warm, entered)
        assert served is record
        assert served == jump_record(cold(warm), point)
    assert warm.graph.record_cache.hits - before == len(points)
    assert any(record.mult > 0 for record in certified)
