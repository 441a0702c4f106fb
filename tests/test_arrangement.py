"""Exact line-arrangement geometry inside a box."""

import math
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from mmideal.arrangement import (
    Arrangement,
    Edge,
    Face,
    build_arrangement,
    make_line,
    merge_lines,
)
from mmideal import subtuple
from mmideal.errors import BoxTooSmall, ValidationError
from mmideal.walls import wall_lines

from conftest import FIXTURE_NAMES, edge_point, face_area, face_barycenter


def test_make_line_canonicalization():
    assert make_line(2, 4, 6).key == (1, 2, 3)
    assert make_line(-2, 4, 6).key == (-1, 2, 3)
    assert make_line(0, 3, 2).key == (0, 1, Fraction(2, 3))
    with pytest.raises(ValueError):
        make_line(0, 0, 1)


@pytest.mark.parametrize("a", [0.5, "1/2", True], ids=["float", "str", "bool"])
def test_make_line_takes_ints_and_fractions(a):
    with pytest.raises(ValidationError, match="expected integers or Fractions"):
        make_line(a, 1, 1)


def test_merge_lines_concatenates_sources():
    merged = merge_lines(
        [
            make_line(1, 1, 1, sources=((0, 1),)),
            make_line(2, 2, 2, sources=((1, 3),)),
            make_line(1, 0, 1, sources=((2, 1),)),
            make_line(-3, -3, -3, sources=((3, 2),)),
        ]
    )
    assert len(merged) == 2
    coincident = next(line for line in merged if line.b != 0)
    assert coincident.sources == ((0, 1), (1, 3), (3, 2))
    assert coincident.key == (1, 1, 1)  # the first line's orientation


def test_diagonal_arrangement():
    box = (Fraction(1), Fraction(1))
    arr = build_arrangement([make_line(1, -1, 0)], box)
    assert (len(arr.vertices), len(arr.edges), len(arr.faces)) == (4, 5, 2)
    assert sorted(face_area(arr, face) for face in arr.faces) == [
        Fraction(1, 2),
        Fraction(1, 2),
    ]
    diagonal = next(
        i for i, line in enumerate(arr.lines) if not line.is_box
    )
    for edge_index, edge in enumerate(arr.edges):
        low, high = arr.edge_faces[edge_index]
        if edge.line_index == diagonal:
            assert low is not None and high is not None
        else:
            assert (low is None) != (high is None)


def test_cross_arrangement():
    box = (Fraction(1), Fraction(1))
    arr = build_arrangement(
        [make_line(1, 0, Fraction(1, 2)), make_line(0, 1, Fraction(1, 2))], box
    )
    assert (len(arr.vertices), len(arr.edges), len(arr.faces)) == (9, 12, 4)
    assert {face_area(arr, face) for face in arr.faces} == {Fraction(1, 4)}
    assert sum(face_area(arr, face) for face in arr.faces) == 1


def test_edge_faces_sides():
    box = (Fraction(1), Fraction(1))
    arr = build_arrangement(
        [make_line(1, -1, 0), make_line(1, 1, Fraction(3, 4))], box
    )
    for edge_index, edge in enumerate(arr.edges):
        line = arr.lines[edge.line_index]
        mid = edge_point(arr.vertices, edge, Fraction(1, 2))
        assert line.contains(mid)
        low, high = arr.edge_faces[edge_index]
        if low is not None:
            assert line.value(face_barycenter(arr, arr.faces[low])) < line.c
        if high is not None:
            assert line.value(face_barycenter(arr, arr.faces[high])) > line.c


def _euler_characteristic(arr):
    return len(arr.vertices) - len(arr.edges) + len(arr.faces)


def test_euler_relation_fixture_atlases(rat6_atlas, chain10_atlas):
    # disc subdivision: V - E + F = 1 when the outer face is not counted
    assert _euler_characteristic(rat6_atlas.arrangement) == 1
    assert _euler_characteristic(chain10_atlas.arrangement) == 1


def test_fixture_atlas_geometry(rat6_atlas):
    arr = rat6_atlas.arrangement
    box_area = Fraction(1)
    assert sum(face_area(arr, face) for face in arr.faces) == box_area
    for point in arr.vertices:
        assert len([line for line in arr.lines if line.contains(point)]) >= 2
    for edge_index, edge in enumerate(arr.edges):
        line = arr.lines[edge.line_index]
        mid = edge_point(arr.vertices, edge, Fraction(1, 2))
        assert line.contains(mid)
        (x, y), w = arr.mean((edge.tail, edge.head))
        assert (Fraction(x, w), Fraction(y, w)) == mid
        low, high = arr.edge_faces[edge_index]
        assert low is not None or high is not None


# Reference: the plain Fraction arrangement the integer builder replaced.
# It intersects every pair in Fractions, rescans the vertices for each
# line, orders a line's vertices by their projection on its direction and
# sorts each vertex's half-edges by Fraction direction comparisons.


def _reference_intersect(first, second):
    det = first.a * second.b - first.b * second.a
    if det == 0:
        return None
    x = (first.c * second.b - first.b * second.c) / det
    y = (first.a * second.c - first.c * second.a) / det
    return (x, y)


def _reference_direction_compare(left, right):
    def half(d):
        if d[1] > 0 or (d[1] == 0 and d[0] > 0):
            return 0
        return 1

    lh, rh = half(left), half(right)
    if lh != rh:
        return -1 if lh < rh else 1
    cross = left[0] * right[1] - left[1] * right[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def _reference_arrangement(wall_lines, box):
    bx, by = Fraction(box[0]), Fraction(box[1])
    lines = merge_lines(
        list(wall_lines)
        + [
            make_line(1, 0, 0, is_box=True),
            make_line(1, 0, bx, is_box=True),
            make_line(0, 1, 0, is_box=True),
            make_line(0, 1, by, is_box=True),
        ]
    )
    incident = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            point = _reference_intersect(lines[i], lines[j])
            if point is not None and 0 <= point[0] <= bx and 0 <= point[1] <= by:
                incident.setdefault(point, set()).update((i, j))
    vertices = tuple(sorted(incident))
    vertex_index = {point: n for n, point in enumerate(vertices)}

    edges, line_edges = [], []
    for li, line in enumerate(lines):
        direction = (line.b, -line.a)
        on_line = [
            vertex_index[point]
            for point, incidents in incident.items()
            if li in incidents
        ]
        on_line.sort(
            key=lambda n: vertices[n][0] * direction[0]
            + vertices[n][1] * direction[1]
        )
        indices = []
        for tail, head in zip(on_line, on_line[1:]):
            indices.append(len(edges))
            edges.append(Edge(tail=tail, head=head, line_index=li))
        line_edges.append(tuple(indices))

    def endpoints(half):
        edge = edges[half // 2]
        return (edge.tail, edge.head) if half % 2 == 0 else (edge.head, edge.tail)

    def half_direction(half):
        tail, head = endpoints(half)
        return (
            vertices[head][0] - vertices[tail][0],
            vertices[head][1] - vertices[tail][1],
        )

    outgoing = {n: [] for n in range(len(vertices))}
    for e in range(len(edges)):
        outgoing[edges[e].tail].append(2 * e)
        outgoing[edges[e].head].append(2 * e + 1)
    order_at = {}
    for vertex, halves in outgoing.items():
        halves.sort(key=cmp_to_key(
            lambda g, h: _reference_direction_compare(
                half_direction(g), half_direction(h)
            )
        ))
        order_at[vertex] = {half: pos for pos, half in enumerate(halves)}

    def next_half(half):
        twin = half ^ 1
        vertex = endpoints(twin)[0]
        ring = outgoing[vertex]
        return ring[(order_at[vertex][twin] - 1) % len(ring)]

    face_of_half, loops = {}, []
    for start in range(2 * len(edges)):
        if start in face_of_half:
            continue
        orbit, half = [], start
        while True:
            orbit.append(half)
            face_of_half[half] = len(loops)
            half = next_half(half)
            if half == start:
                break
        loops.append(tuple(orbit))

    faces, barycenters, face_renumber = [], [], {}
    for li, orbit in enumerate(loops):
        loop = tuple(endpoints(half)[0] for half in orbit)
        doubled = Fraction(0)
        for a, b in zip(loop, loop[1:] + loop[:1]):
            pa, pb = vertices[a], vertices[b]
            doubled += pa[0] * pb[1] - pb[0] * pa[1]
        if doubled <= 0:
            face_renumber[li] = None
            continue
        barycenter = (
            sum((vertices[n][0] for n in loop), Fraction(0)) / len(loop),
            sum((vertices[n][1] for n in loop), Fraction(0)) / len(loop),
        )
        face_renumber[li] = len(faces)
        faces.append(Face(loop=loop))
        barycenters.append(barycenter)
    assert len(loops) - len(faces) == 1

    edge_faces = []
    for e, edge in enumerate(edges):
        line = lines[edge.line_index]
        sides = {False: None, True: None}
        for half in (2 * e, 2 * e + 1):
            face_id = face_renumber[face_of_half[half]]
            if face_id is not None:
                value = line.value(barycenters[face_id])
                assert value != line.c
                sides[value > line.c] = face_id
        edge_faces.append((sides[False], sides[True]))
    triples = []
    for x, y in vertices:
        w = x.denominator * y.denominator // math.gcd(x.denominator, y.denominator)
        triples.append((x.numerator * w // x.denominator, y.numerator * w // y.denominator, w))
    return Arrangement(
        lines=tuple(lines),
        vertices=vertices,
        vertex_triples=tuple(triples),
        edges=tuple(edges),
        faces=tuple(faces),
        edge_faces=tuple(edge_faces),
        line_edges=tuple(line_edges),
    )


def _assert_same_arrangement(got, want):
    assert got.lines == want.lines
    assert got.vertices == want.vertices
    assert got.vertex_triples == want.vertex_triples
    assert got.edges == want.edges
    assert got.line_edges == want.line_edges
    assert len(got.faces) == len(want.faces)
    for face, reference in zip(got.faces, want.faces):
        assert face.loop == reference.loop
    assert got.edge_faces == want.edge_faces


def _random_lines(rng, box):
    """Wall-like lines with every awkward incidence the builder must keep:
    rational c, both slope signs, both orientations, axis-parallel lines,
    three or more lines through one point, lines through box corners (some
    touching the box only there), lines outside the box, coincident copies
    and negated copies of lines and box sides."""
    bx, by = box
    corners = [(0, 0), (bx, 0), (0, by), (bx, by)]
    hubs = corners + [
        (bx * Fraction(rng.randint(1, 6), 7), by * Fraction(rng.randint(1, 4), 5))
        for _ in range(2)
    ]
    lines = []
    for _ in range(rng.randint(3, 14)):
        kind = rng.random()
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        if kind < 0.15:
            a, b = rng.randint(1, 3), 0
        elif kind < 0.3:
            a, b = 0, rng.randint(1, 3)
        elif a == 0 and b == 0:
            a = 1
        if rng.random() < 0.5:
            x0, y0 = rng.choice(hubs)
            c = a * x0 + b * y0
        else:
            c = Fraction(rng.randint(-3, 30), rng.randint(1, 9))
        lines.append(make_line(a, b, c, sources=((len(lines), 1),)))
        if rng.random() < 0.15:
            scale = rng.randint(2, 5)
            lines.append(
                make_line(scale * a, scale * b, scale * c, sources=((len(lines), 2),))
            )
        if rng.random() < 0.1:
            # the same line negated, which must merge with it
            lines.append(make_line(-a, -b, -c, sources=((len(lines), 3),)))
    if rng.random() < 0.2:
        # a box side negated, which must merge with the side
        side = rng.choice([(-1, 0, 0), (-1, 0, bx), (0, -1, 0), (0, -1, by)])
        lines.append(make_line(*side, sources=((len(lines), 1),)))
    # a line that meets the closed box in the far corner alone
    lines.append(make_line(1, 2, bx + 2 * by, sources=((len(lines), 1),)))
    return lines


def test_matches_reference_on_random_lines():
    rng = random.Random(5)
    boxes = [
        (Fraction(1), Fraction(1)),
        (Fraction(3, 2), Fraction(2, 3)),
        (Fraction(2, 7), Fraction(5, 3)),
    ]
    merged = negated = 0
    for trial in range(150):
        box = boxes[trial % len(boxes)]
        lines = _random_lines(rng, box)
        merged += len(lines) + 4 - len(merge_lines(lines + [make_line(1, 0, 0)]))
        arrangement = build_arrangement(lines, box)
        # negated copies carry level 3; a negated box side is a box line
        # with sources
        negated += sum(
            any(level == 3 for _, level in line.sources)
            or (line.is_box and bool(line.sources))
            for line in arrangement.lines
        )
        _assert_same_arrangement(arrangement, _reference_arrangement(lines, box))
    assert merged > 0  # coincident inputs did reach the merge
    assert negated > 0  # and so did negated ones


@pytest.mark.parametrize(
    "name, side",
    [("RAT6", 1), ("RAT6", 2), ("RAT6", 3), ("RAT6", 4), ("CHAIN10", 1),
     ("PROP16", Fraction(1, 8))],
)
def test_matches_reference_on_fixture_walls(tuples, name, side):
    box = (Fraction(side), Fraction(side))
    lines = wall_lines(tuples[name], box)
    _assert_same_arrangement(
        build_arrangement(lines, box), _reference_arrangement(lines, box)
    )


# Reference: the `Fraction` lines the integer forms replaced.  A line was
# (a, b, c) divided by |first nonzero of (a, b)|; merging matched the key with
# a positive first normal coefficient and sorted by those keys.


def _fraction_line(a, b, c, sources=(), is_box=False):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    scale = abs(a) if a != 0 else abs(b)
    return (a / scale, b / scale, c / scale, tuple(sources), is_box)


def _fraction_merge(lines):
    merged = {}
    for a, b, c, sources, is_box in lines:
        key = (a, b, c) if a > 0 or (a == 0 and b > 0) else (-a, -b, -c)
        seen = merged.get(key)
        merged[key] = (
            (a, b, c, sources, is_box)
            if seen is None
            else (*seen[:3], seen[3] + sources, seen[4] or is_box)
        )
    return [merged[key] for key in sorted(merged)]


def _fraction_wall_lines(ideals, box):
    bx, by = Fraction(box[0]), Fraction(box[1])
    lines = []
    for j in range(ideals.size):
        a, b = ideals.ideals[0][j], ideals.ideals[1][j]
        k = ideals.graph.canonical[j]
        for level in range(max(1, math.floor(-k) + 1), math.ceil(a * bx + b * by - k)):
            lines.append(_fraction_line(a, b, k + level, [(j, level)]))
    return lines


def _fraction_box(box):
    bx, by = Fraction(box[0]), Fraction(box[1])
    sides = [(1, 0, 0), (1, 0, bx), (0, 1, 0), (0, 1, by)]
    return [_fraction_line(*side, is_box=True) for side in sides]


def _as_tuples(lines):
    return [(line.a, line.b, line.c, line.sources, line.is_box) for line in lines]


def _pair(tuples, name):
    """A pair of ideals from every fixture: the first two ideals, or the one
    ideal twice."""
    ideals = tuples[name]
    return subtuple(ideals, (0, 1) if ideals.r > 1 else (0, 0))


_BOXES = [(1, 1), (Fraction(1, 3), Fraction(5, 14)), (Fraction(2, 7), 2), (3, Fraction(1, 2))]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_wall_lines_match_fraction_route(tuples, name):
    ideals = _pair(tuples, name)
    boxes = _BOXES
    if name == "PROP16":  # dense walls: 2901 meet the unit box
        boxes = [(Fraction(x) / 16, Fraction(y) / 16) for x, y in _BOXES]
    for box in boxes:
        reference = _fraction_wall_lines(ideals, box)
        if not reference:
            with pytest.raises(BoxTooSmall):
                wall_lines(ideals, box)
            continue
        lines = wall_lines(ideals, box)
        assert _as_tuples(lines) == reference
        assert _as_tuples(merge_lines(lines)) == _fraction_merge(reference)
        arrangement = build_arrangement(lines, box)
        assert _as_tuples(arrangement.lines) == _fraction_merge(reference + _fraction_box(box))


def test_merge_matches_fraction_route_on_random_lines():
    rng = random.Random(16)
    kinds = {"vertical": 0, "horizontal": 0, "negated": 0, "scaled": 0}
    for _ in range(300):
        coefficients = []
        for _ in range(rng.randint(1, 12)):
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            kind = rng.random()
            if kind < 0.2 or a == b == 0:
                a, b = Fraction(rng.randint(1, 3)) * rng.choice((-1, 1)), Fraction(0)
                kinds["vertical"] += 1
            elif kind < 0.4:
                a = Fraction(0)
                b = b or Fraction(-2)
                kinds["horizontal"] += 1
            coefficients.append((a, b, c))
            if coefficients and rng.random() < 0.3:
                a, b, c = rng.choice(coefficients)
                factor = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
                coefficients.append((factor * a, factor * b, factor * c))
                kinds["negated" if factor < 0 else "scaled"] += 1
        lines = [
            make_line(a, b, c, sources=((i, 1),), is_box=i % 5 == 0)
            for i, (a, b, c) in enumerate(coefficients)
        ]
        reference = [
            _fraction_line(a, b, c, ((i, 1),), i % 5 == 0)
            for i, (a, b, c) in enumerate(coefficients)
        ]
        assert _as_tuples(lines) == reference
        assert _as_tuples(merge_lines(lines)) == _fraction_merge(reference)
    assert min(kinds.values()) > 50
