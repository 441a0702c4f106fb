"""Shared test fixtures: loaded ideal tuples and cached wall atlases, the
benchmark's modules loaded from their files, and the two ways a test may
patch a library callable, `inject` and `record_calls`."""

import functools
import importlib
import importlib.util
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mmideal import attach_ideals, build_graph, build_tuple, cell_decomposition, load_fixture

FIXTURE_NAMES = ("CHAIN10", "NEST14", "PROP16", "RAT6", "SMOOTH1")
BENCH = Path(__file__).resolve().parents[1] / "bench"


@functools.cache
def bench_module(name):
    """bench/<name>.py, executed once from its file and registered in
    `sys.modules` under the private name ``bench_<name>`` (the dataclasses
    of `workloads` look their module up there).  The tests read the graph
    generators of `workloads`, `blowup_graph` among them, which read no
    library code, and the `TRACED` table of `spans`."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cold(ideals):
    """The same ideals on a newly built graph, every graph cache empty: each
    point is certified, each atlas computed and each ray walked for the
    first time.  A fault that `inject` puts into a computation must run on
    such a graph; on a warm one the result is served and the test fails."""
    return attach_ideals(build_graph(ideals.graph.matrix), ideals.ideals)


@pytest.fixture
def inject(monkeypatch):
    """``inject(owner, name, replacement)`` puts a fault or a probe in place
    of a library callable, as ``monkeypatch.setattr`` does, and fails the
    test at teardown if the replacement never ran: a served closure,
    colength, record, atlas or walk skips the code it patches.  The owner is
    a module or a class; on a class the replacement is a method, or a
    `property`, which counts as run when its getter is called."""
    patches = []

    def patch(owner, name, replacement):
        ran = [False]
        if inspect.ismodule(owner):
            where = owner.__name__
        else:
            where = f"{owner.__module__}.{owner.__qualname__}"
        patches.append((f"{where}.{name}", ran))
        is_property = isinstance(replacement, property)
        function = replacement.fget if is_property else replacement

        def wrapper(*args, **kwargs):
            ran[0] = True
            return function(*args, **kwargs)

        monkeypatch.setattr(owner, name, property(wrapper) if is_property else wrapper)

    yield patch
    idle = [name for name, ran in patches if not ran[0]]
    if idle:
        pytest.fail(f"injected {', '.join(idle)} never ran")


def record_calls(monkeypatch, module_name, function_name):
    """Wrap a library function at every mmideal module attribute bound to it,
    so calls are seen whichever module makes them, as the benchmark's tracer
    does; return the argument tuple of each call.  The list may stay empty:
    this is the helper for a test that asserts a call never happens."""
    original = getattr(importlib.import_module(f"mmideal.{module_name}"), function_name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "mmideal" or name.startswith("mmideal."):
            for attribute, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attribute, wrapper)
    return calls


def divisor_leq(left, right):
    """Componentwise <= for two divisors of one length."""
    assert len(left) == len(right)
    return all(a <= b for a, b in zip(left, right))


def vertex_point(vertex):
    """The `Fraction` point (X/W, Y/W) of an arrangement vertex (X, Y, W)."""
    x, y, w = vertex
    return (Fraction(x, w), Fraction(y, w))


def vertex_points(arrangement):
    """Every vertex of an arrangement as a `Fraction` point, in its order."""
    return [vertex_point(vertex) for vertex in arrangement.vertices]


def edge_point(arrangement, edge, fraction):
    """The point `fraction` of the way from the tail to the head of an edge
    (tail, head, line), in `Fraction` arithmetic."""
    tail, head, _ = edge
    p = vertex_point(arrangement.vertices[tail])
    q = vertex_point(arrangement.vertices[head])
    return tuple(a + fraction * (b - a) for a, b in zip(p, q))


def _loop_points(arrangement, loop):
    return [vertex_point(arrangement.vertices[n]) for n in loop]


def face_barycenter(arrangement, loop):
    """The average of a face's loop vertices in `Fraction` arithmetic."""
    points = _loop_points(arrangement, loop)
    return tuple(sum(coords, Fraction(0)) / len(points) for coords in zip(*points))


def face_area(arrangement, loop):
    """The shoelace area of a face's loop, read off its vertex triples."""
    points = _loop_points(arrangement, loop)
    pairs = zip(points, points[1:] + points[:1])
    return sum((x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in pairs), Fraction(0)) / 2


def fraction_rank(points):
    """The affine rank of `int` or `Fraction` points (-1 for none), by
    Gaussian elimination over the rationals: a reference that shares no code
    with the library's fraction-free rank."""
    if not points:
        return -1
    base = [Fraction(x) for x in points[0]]
    rows = [[Fraction(x) - b for x, b in zip(p, base)] for p in points[1:]]
    rank = 0
    for column in range(len(base)):
        pivot = next((row for row in rows if row[column] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [
            [a - row[column] / pivot[column] * b for a, b in zip(row, pivot)] for row in rows
        ]
        rank += 1
    return rank


def hyperplane_key(normal, bound):
    """(normal, bound) over the absolute value of the first nonzero normal
    entry, in `Fraction`s: equal for two halfspaces exactly when one is the
    other scaled by a positive factor."""
    scale = abs(next(Fraction(n) for n in normal if n))
    return tuple(Fraction(n) / scale for n in (*normal, bound))


def line_key(line):
    """The hyperplane key (a, b, c) of a line's form A*x + B*y = C."""
    A, B, C = line.form
    return hyperplane_key((A, B), C)


def line_value(line, point):
    """A*x + B*y at a `Fraction` point, for the line's form A*x + B*y = C."""
    A, B, _ = line.form
    return A * point[0] + B * point[1]


def on_line(line, point):
    return line_value(line, point) == line.form[2]


@pytest.fixture(scope="session")
def tuples():
    """Name -> IdealTuple for every bundled fixture."""
    return {name: build_tuple(load_fixture(name)) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def rat6(tuples):
    return tuples["RAT6"]


@pytest.fixture(scope="session")
def chain10(tuples):
    return tuples["CHAIN10"]


@pytest.fixture(scope="session")
def nest14(tuples):
    return tuples["NEST14"]


@pytest.fixture(scope="session")
def prop16(tuples):
    return tuples["PROP16"]


@pytest.fixture(scope="session")
def smooth1(tuples):
    return tuples["SMOOTH1"]


@pytest.fixture(scope="session")
def rat6_atlas(rat6):
    return cell_decomposition(rat6, (Fraction(1), Fraction(1)))


@pytest.fixture(scope="session")
def chain10_atlas(chain10):
    return cell_decomposition(chain10, (Fraction(1), Fraction(1)))


@pytest.fixture(scope="session")
def prop16_atlas(prop16):
    # the log-canonical wall z1 + z2 = 1/9 fits well inside this box and the
    # arrangement stays small
    box = (Fraction(1, 8), Fraction(1, 8))
    return cell_decomposition(prop16, box)
