"""Exact planar line arrangements clipped to an axis-aligned box.

Everything here is two-dimensional and exact: lines are a*x + b*y = c with
rational coefficients, vertices are pairwise intersections, faces are the
open convex cells of the arrangement inside the box.  The geometry runs in
integers: each line is scaled once to an integer form (A, B, C), a positive
multiple of (a, b, c), pairs are intersected with integer determinants and
tested against the box by integer comparisons, and only vertices inside the
box become `Fraction` points.  The pair loop records each vertex on both of
its lines, so a line's vertices are never searched for.  Vertices are
numbered in lexicographic order, which runs along +x on a non-vertical line
and along +y on a vertical one, so each line's edge order is its sorted
vertex numbers, reversed when its direction (b, -a) points the other way.
Faces are recovered with the usual half-edge rotation trick: every
half-edge points along its line's direction or against it, so one exact
angular sort of those directions (half-plane index plus cross-product
comparisons -- no trigonometry) ranks the half-edges at every vertex, and
each face is an orbit of the next-pointer.  The single clockwise orbit
along the box boundary is the outside and is dropped.

The module knows nothing about ideals; `walls` feeds it wall lines and
interprets the cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Sequence

from .errors import InternalConsistencyError

__all__ = [
    "Line",
    "Edge",
    "Face",
    "Arrangement",
    "make_line",
    "merge_lines",
    "build_arrangement",
]

Point2 = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Line:
    """a*x + b*y = c, scaled so the first nonzero coefficient is +/-1 stable:
    divide through by the absolute value of the first nonzero of (a, b)."""

    a: Fraction
    b: Fraction
    c: Fraction
    sources: tuple[tuple[int, int], ...] = ()
    is_box: bool = False

    @property
    def key(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c)

    def value(self, point: Point2) -> Fraction:
        return self.a * point[0] + self.b * point[1]

    def contains(self, point: Point2) -> bool:
        return self.value(point) == self.c


def make_line(a, b, c, sources: Iterable[tuple[int, int]] = (), is_box: bool = False) -> Line:
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0 and b == 0:
        raise ValueError("degenerate line with zero normal")
    scale = abs(a) if a != 0 else abs(b)
    return Line(a / scale, b / scale, c / scale, tuple(sources), is_box)


def merge_lines(lines: Iterable[Line]) -> list[Line]:
    """Collapse geometrically coincident lines, concatenating their sources.

    A line and its negation coincide: lines are matched on the key whose
    first nonzero normal coefficient is positive, and the first line seen
    keeps its orientation."""
    merged: dict[tuple[Fraction, Fraction, Fraction], Line] = {}
    for line in lines:
        positive = line.a > 0 or (line.a == 0 and line.b > 0)
        key = line.key if positive else (-line.a, -line.b, -line.c)
        seen = merged.get(key)
        if seen is None:
            merged[key] = line
        else:
            merged[key] = Line(
                seen.a,
                seen.b,
                seen.c,
                seen.sources + line.sources,
                seen.is_box or line.is_box,
            )
    return [merged[key] for key in sorted(merged)]


def _integer_form(line: Line) -> tuple[int, int, int]:
    """(A, B, C): a positive integer multiple of the line's (a, b, c)."""
    scale = math.lcm(line.a.denominator, line.b.denominator, line.c.denominator)
    return (int(line.a * scale), int(line.b * scale), int(line.c * scale))


def _direction_compare(left: tuple[int, int], right: tuple[int, int]) -> int:
    """Exact comparison of direction vectors by angle in [0, 2*pi)."""

    def half(d: tuple[int, int]) -> int:
        if d[1] > 0 or (d[1] == 0 and d[0] > 0):
            return 0
        return 1

    lh, rh = half(left), half(right)
    if lh != rh:
        return -1 if lh < rh else 1
    cross = left[0] * right[1] - left[1] * right[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


@dataclass(frozen=True)
class Edge:
    """Open segment between two arrangement vertices on one carrier line."""

    tail: int
    head: int
    line_index: int

    def midpoint(self, vertices: Sequence[Point2]) -> Point2:
        p, q = vertices[self.tail], vertices[self.head]
        return ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)


@dataclass(frozen=True)
class Face:
    """Convex open cell; `loop` lists vertex indices counterclockwise."""

    loop: tuple[int, ...]
    barycenter: Point2
    area: Fraction


@dataclass(frozen=True)
class Arrangement:
    lines: tuple[Line, ...]
    vertices: tuple[Point2, ...]
    edges: tuple[Edge, ...]
    faces: tuple[Face, ...]
    # edge index -> (face on the low side of the carrier, face on the high
    # side); None marks the outside of the box
    edge_faces: tuple[tuple[int | None, int | None], ...]
    # per line, edge indices in order along the line
    line_edges: tuple[tuple[int, ...], ...]

    def vertex_lines(self, vertex: int) -> list[int]:
        point = self.vertices[vertex]
        return [
            i for i, line in enumerate(self.lines) if line.contains(point)
        ]


def build_arrangement(wall_lines: Sequence[Line], box: tuple[Fraction, Fraction]) -> Arrangement:
    bx, by = Fraction(box[0]), Fraction(box[1])
    if bx <= 0 or by <= 0:
        raise ValueError("box sides must be positive")
    lines = merge_lines(
        list(wall_lines)
        + [
            make_line(1, 0, 0, is_box=True),
            make_line(1, 0, bx, is_box=True),
            make_line(0, 1, 0, is_box=True),
            make_line(0, 1, by, is_box=True),
        ]
    )
    forms = [_integer_form(line) for line in lines]

    # vertices: pairwise intersections (X/W, Y/W) with W > 0 and
    # gcd(X, Y, W) = 1 inside the closed box, each recorded on both lines
    px, qx = bx.numerator, bx.denominator
    py, qy = by.numerator, by.denominator
    found: dict[tuple[int, int, int], int] = {}
    on_line: list[set[int]] = [set() for _ in lines]
    for i, (a1, b1, c1) in enumerate(forms):
        for j in range(i + 1, len(forms)):
            a2, b2, c2 = forms[j]
            det = a1 * b2 - b1 * a2
            if det == 0:
                continue
            x = c1 * b2 - b1 * c2
            y = a1 * c2 - c1 * a2
            if det < 0:
                det, x, y = -det, -x, -y
            if x < 0 or y < 0 or x * qx > px * det or y * qy > py * det:
                continue
            g = math.gcd(x, y, det)
            vertex = found.setdefault((x // g, y // g, det // g), len(found))
            on_line[i].add(vertex)
            on_line[j].add(vertex)
    if not found:
        raise InternalConsistencyError("box corners missing from arrangement")

    # lexicographic order on integer keys floor(2^s * X / W): with
    # 2^s >= W * W' for every pair of denominators, distinct coordinates
    # differ by at least 2^-s, so their keys differ
    shift = 2 * max(w for _, _, w in found).bit_length()
    exact = sorted(
        found, key=lambda p: ((p[0] << shift) // p[2], (p[1] << shift) // p[2])
    )
    vertices = tuple((Fraction(x, w), Fraction(y, w)) for x, y, w in exact)
    number = [0] * len(exact)
    for position, point in enumerate(exact):
        number[found[point]] = position

    # edges: consecutive vertices along each line, in the direction (b, -a);
    # vertex numbers increase along +x, or along +y on a vertical line
    edges: list[Edge] = []
    line_edges: list[tuple[int, ...]] = []
    for li, (a, b, _) in enumerate(forms):
        along = sorted(number[n] for n in on_line[li])
        if b < 0 or (b == 0 and a > 0):
            along.reverse()
        start = len(edges)
        edges.extend(
            Edge(tail=tail, head=head, line_index=li)
            for tail, head in zip(along, along[1:])
        )
        line_edges.append(tuple(range(start, len(edges))))

    # half-edges: 2*e runs tail->head of edge e along its line's direction
    # (b, -a), 2*e+1 runs back against it; one angular sort of the reduced
    # directions ranks them all, parallel lines sharing a rank
    forward = []
    for a, b, _ in forms:
        g = math.gcd(a, b)
        forward.append((b // g, -a // g))
    backward = [(-u, -v) for u, v in forward]
    angle = {
        direction: rank
        for rank, direction in enumerate(
            sorted(set(forward + backward), key=cmp_to_key(_direction_compare))
        )
    }

    tail_of: list[int] = []
    half_angle: list[int] = []
    outgoing: list[list[int]] = [[] for _ in vertices]
    for e, edge in enumerate(edges):
        tail_of += (edge.tail, edge.head)
        half_angle += (
            angle[forward[edge.line_index]],
            angle[backward[edge.line_index]],
        )
        outgoing[edge.tail].append(2 * e)
        outgoing[edge.head].append(2 * e + 1)
    ring_position = [0] * len(tail_of)
    for halves in outgoing:
        halves.sort(key=half_angle.__getitem__)
        for position, half in enumerate(halves):
            ring_position[half] = position

    def next_half(half: int) -> int:
        # at the head vertex, rotate clockwise one step from the reversal
        twin = half ^ 1
        ring = outgoing[tail_of[twin]]
        return ring[(ring_position[twin] - 1) % len(ring)]

    # face orbits
    face_of_half: list[int | None] = [None] * len(tail_of)
    loops: list[tuple[int, ...]] = []
    for start in range(len(tail_of)):
        if face_of_half[start] is not None:
            continue
        orbit = []
        half = start
        while True:
            orbit.append(half)
            face_of_half[half] = len(loops)
            half = next_half(half)
            if half == start:
                break
        loops.append(tuple(orbit))

    # twice the signed area and the vertex sum of each loop, over the
    # loop's common denominator W; centroids[f] = (sum X, sum Y, W * n)
    faces: list[Face] = []
    centroids: list[tuple[int, int, int]] = []
    face_renumber: list[int | None] = []
    for orbit in loops:
        loop = tuple(tail_of[half] for half in orbit)
        common = math.lcm(*(exact[n][2] for n in loop))
        xs = [exact[n][0] * (common // exact[n][2]) for n in loop]
        ys = [exact[n][1] * (common // exact[n][2]) for n in loop]
        doubled = sum(
            xs[k - 1] * ys[k] - xs[k] * ys[k - 1] for k in range(len(loop))
        )
        if doubled <= 0:
            face_renumber.append(None)
            continue
        face_renumber.append(len(faces))
        centroid = (sum(xs), sum(ys), common * len(loop))
        centroids.append(centroid)
        faces.append(
            Face(
                loop=loop,
                barycenter=(
                    Fraction(centroid[0], centroid[2]),
                    Fraction(centroid[1], centroid[2]),
                ),
                area=Fraction(doubled, 2 * common * common),
            )
        )
    dropped = len(loops) - len(faces)
    if dropped != 1:
        raise InternalConsistencyError(
            f"expected exactly one outer orbit, found {dropped}"
        )
    if len(vertices) - len(edges) + (len(faces) + 1) != 2:
        raise InternalConsistencyError("Euler characteristic violated")

    # sides: the sign of A*X + B*Y - C*W at the face's centroid
    edge_faces: list[tuple[int | None, int | None]] = []
    for e, edge in enumerate(edges):
        a, b, c = forms[edge.line_index]
        sides: list[int | None] = [None, None]
        for half in (2 * e, 2 * e + 1):
            face_id = face_renumber[face_of_half[half]]
            if face_id is None:
                continue
            x, y, w = centroids[face_id]
            value = a * x + b * y - c * w
            if value == 0:
                raise InternalConsistencyError(
                    "face barycenter lies on an incident carrier line"
                )
            sides[value > 0] = face_id
        edge_faces.append((sides[0], sides[1]))

    return Arrangement(
        lines=tuple(lines),
        vertices=vertices,
        edges=tuple(edges),
        faces=tuple(faces),
        edge_faces=tuple(edge_faces),
        line_edges=tuple(line_edges),
    )
