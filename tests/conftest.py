"""Shared test fixtures: loaded ideal tuples and cached wall atlases."""

from fractions import Fraction

import pytest

from mmideal import build_tuple, cell_decomposition, load_fixture

FIXTURE_NAMES = ("CHAIN10", "NEST14", "PROP16", "RAT6", "SMOOTH1")


def edge_point(vertices, edge, fraction):
    """The point `fraction` of the way from an edge's tail to its head, in
    `Fraction` arithmetic."""
    p, q = vertices[edge.tail], vertices[edge.head]
    return tuple(a + fraction * (b - a) for a, b in zip(p, q))


def _loop_points(arrangement, face):
    triples = (arrangement.vertex_triples[n] for n in face.loop)
    return [(Fraction(x, w), Fraction(y, w)) for x, y, w in triples]


def face_barycenter(arrangement, face):
    """The average of a face's loop vertices, read off their triples in
    `Fraction` arithmetic."""
    points = _loop_points(arrangement, face)
    return tuple(sum(coords, Fraction(0)) / len(points) for coords in zip(*points))


def face_area(arrangement, face):
    """The shoelace area of a face's loop, read off its vertex triples."""
    points = _loop_points(arrangement, face)
    pairs = zip(points, points[1:] + points[:1])
    return sum((x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in pairs), Fraction(0)) / 2


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
