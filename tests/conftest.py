"""Shared test fixtures: loaded ideal tuples and cached wall atlases."""

from fractions import Fraction

import pytest

from mmideal import attach_ideals, build_graph, build_tuple, cell_decomposition, load_fixture

FIXTURE_NAMES = ("CHAIN10", "NEST14", "PROP16", "RAT6", "SMOOTH1")


def cold(ideals):
    """The same ideals on a newly built graph, every graph cache empty: a
    test that injects a fault sees each point certified for the first time."""
    return attach_ideals(build_graph(ideals.graph.matrix), ideals.ideals)


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
