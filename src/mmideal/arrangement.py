"""Exact planar line arrangements clipped to an axis-aligned box.

Everything here is two-dimensional, exact and in integers.  Lines arrive as
reduced integer forms (A, B, C) of A*x + B*y = C: the wall lines from
`walls.wall_lines` and the four box lines that `build_arrangement` builds
(`make_line` is the helper that brings `int` or `Fraction` coefficients to
that form).  Pairs are intersected with integer determinants and tested
against the box by integer comparisons, and each vertex is its reduced
triple (X, Y, W), the point (X/W, Y/W): `Arrangement.mean` combines triples
into edge and face points and the picture reads its pixels off them, so no
vertex is ever a `Fraction` point.
The pair loop records each vertex on both of its lines,
so a line's vertices are never searched for.  Vertices are numbered in
lexicographic order of their points, which runs along +x on a non-vertical
line and along +y on a vertical one, so each line's edge order is its
sorted vertex numbers, reversed when its direction (B, -A) points the
other way.  An edge is the plain triple (tail, head, line), running from
tail to head along the line's direction, and a face is the plain tuple of
its vertex loop, counterclockwise.  Faces are recovered with the usual
half-edge rotation trick: every half-edge points along its line's direction
or against it, so one exact angular sort of those directions (half-plane
index plus cross-product comparisons -- no trigonometry) ranks the
half-edges at every vertex, and each face is an orbit of the next-pointer.
The single clockwise orbit along the box boundary is the outside and is
dropped.  An orbit's orientation is read at its lowest-numbered vertex, the
lexicographically smallest point of a convex loop and so a strict corner,
as the sign of one 3x3 determinant of homogeneous triples; no area is
summed.  Every kept orbit runs counterclockwise, so each half-edge has its
face on its left: the orbits alone say which face lies on the low and which
on the high side of every edge, and no point is tested against a line.

The module knows nothing about ideals; `walls` feeds it wall lines and
interprets the cells.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, NamedTuple, Sequence

from .errors import InternalConsistencyError, ValidationError
from .rationals import _rational_vector, over_common_denominator


class Line(NamedTuple):
    """A*x + B*y = C as the integer form (A, B, C), gcd 1, in the orientation
    it was made with."""

    form: tuple[int, int, int]
    sources: tuple[tuple[int, int], ...] = ()
    is_box: bool = False


def make_line(a, b, c, sources: Iterable[tuple[int, int]] = (), is_box: bool = False) -> Line:
    """The line a*x + b*y = c for `int` or `Fraction` a, b, c, in lowest terms."""
    coefficients = _rational_vector((a, b, c), 3, "line coefficients")
    _, (A, B, C) = over_common_denominator(coefficients)
    if A == 0 and B == 0:
        raise ValueError("degenerate line with zero normal")
    g = math.gcd(A, B, C)
    return Line((A // g, B // g, C // g), tuple(sources), is_box)


def merge_lines(lines: Iterable[Line]) -> list[Line]:
    """Collapse geometrically coincident lines, concatenating their sources.

    A line and its negation coincide: lines are matched on the form whose
    first nonzero normal coefficient is positive, and the first line seen
    keeps its orientation.  The merged lines come in the lexicographic
    order of (A, B, C)/d for those forms, d the first nonzero of (A, B),
    compared in integers as the vertices are in `build_arrangement`."""
    merged: dict[tuple[int, int, int], Line] = {}
    for line in lines:
        A, B, C = line.form
        key = line.form if A > 0 or (A == 0 and B > 0) else (-A, -B, -C)
        seen = merged.get(key)
        merged[key] = line if seen is None else Line(
            seen.form, seen.sources + line.sources, seen.is_box or line.is_box
        )
    shift = 2 * max((A or B for A, B, _ in merged), default=0).bit_length()
    order = sorted(merged, key=lambda f: tuple((n << shift) // (f[0] or f[1]) for n in f))
    return [merged[key] for key in order]


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


class Arrangement(NamedTuple):
    lines: tuple[Line, ...]
    # per vertex (X/W, Y/W), the reduced triple (X, Y, W) with W > 0, in
    # lexicographic order of the points
    vertices: tuple[tuple[int, int, int], ...]
    # per open edge, (tail, head, line): consecutive vertices on one carrier
    # line, running along the line's direction (B, -A)
    edges: tuple[tuple[int, int, int], ...]
    # per convex open face, its vertex loop, counterclockwise
    faces: tuple[tuple[int, ...], ...]
    # edge index -> (face on the low side of the carrier, face on the high
    # side); None marks the outside of the box
    edge_faces: tuple[tuple[int | None, int | None], ...]
    # per line, edge indices in order along the line
    line_edges: tuple[tuple[int, ...], ...]

    def mean(self, vertices: Sequence[int]) -> tuple[tuple[int, int], int]:
        """The average of the listed vertices, one listed twice counting
        twice, as integer numerators over one denominator (not reduced)."""
        triples = [self.vertices[v] for v in vertices]
        common = math.lcm(*(w for _, _, w in triples))
        x = sum(X * (common // W) for X, _, W in triples)
        y = sum(Y * (common // W) for _, Y, W in triples)
        return (x, y), common * len(triples)


def build_arrangement(wall_lines: Sequence[Line], box: tuple[Fraction, Fraction]) -> Arrangement:
    bx, by = _rational_vector(box, 2, "box sides")
    if bx <= 0 or by <= 0:
        raise ValidationError("box sides must be positive")
    px, qx = bx.numerator, bx.denominator
    py, qy = by.numerator, by.denominator
    # the box lines x = 0, x = bx, y = 0 and y = by in reduced form
    lines = merge_lines(
        list(wall_lines)
        + [
            Line((1, 0, 0), (), True),
            Line((qx, 0, px), (), True),
            Line((0, 1, 0), (), True),
            Line((0, qy, py), (), True),
        ]
    )
    forms = [line.form for line in lines]

    # vertices: pairwise intersections (X/W, Y/W) with W > 0 and
    # gcd(X, Y, W) = 1 inside the closed box, each recorded on both lines
    # (where k lines meet, k - 1 times on each; the edges read each line's
    # distinct vertices)
    found: dict[tuple[int, int, int], int] = {}
    on_line: list[list[int]] = [[] for _ in lines]
    for i, (a1, b1, c1) in enumerate(forms):
        here = on_line[i]
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
            point = (x // g, y // g, det // g)
            vertex = found.get(point)
            if vertex is None:
                vertex = found[point] = len(found)
            here.append(vertex)
            on_line[j].append(vertex)
    if not found:
        raise InternalConsistencyError("box corners missing from arrangement")

    # lexicographic order on integer keys floor(2^s * X / W): with
    # 2^s >= W * W' for every pair of denominators, distinct coordinates
    # differ by at least 2^-s, so their keys differ
    shift = 2 * max(w for _, _, w in found).bit_length()
    vertices = sorted(
        found, key=lambda p: ((p[0] << shift) // p[2], (p[1] << shift) // p[2])
    )
    number = [0] * len(vertices)
    for position, point in enumerate(vertices):
        number[found[point]] = position

    # one angular sort of the reduced directions (b, -a) of the lines and
    # their reversals ranks them all, parallel lines sharing a rank
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

    # edges: consecutive vertices along each line, in the direction (b, -a);
    # vertex numbers increase along +x, or along +y on a vertical line.
    # Half-edge 2*e runs tail->head of edge e along that direction, 2*e+1
    # runs back against it, and each is listed at the vertex it leaves.
    edges: list[tuple[int, int, int]] = []
    line_edges: list[tuple[int, ...]] = []
    tail_of: list[int] = []
    half_angle: list[int] = []
    outgoing: list[list[int]] = [[] for _ in vertices]
    for li, (a, b, _) in enumerate(forms):
        along = sorted(map(number.__getitem__, set(on_line[li])))
        if b < 0 or (b == 0 and a > 0):
            along.reverse()
        ahead, back = angle[forward[li]], angle[backward[li]]
        start = len(edges)
        for tail, head in zip(along, along[1:]):
            half = 2 * len(edges)
            edges.append((tail, head, li))
            tail_of += (tail, head)
            half_angle += (ahead, back)
            outgoing[tail].append(half)
            outgoing[head].append(half + 1)
        line_edges.append(tuple(range(start, len(edges))))

    # next-pointer: after half-edge h, its face goes on along the half-edge
    # one step clockwise from the reversal h ^ 1 at h's head
    next_of = [0] * len(tail_of)
    for ring in outgoing:
        ring.sort(key=half_angle.__getitem__)
        for position, half in enumerate(ring):
            next_of[half ^ 1] = ring[position - 1]

    # face orbits, each kept at once or dropped: the turn of a loop at its
    # lowest-numbered vertex, an extreme point and so a strict corner, has
    # the sign of the determinant of the three homogeneous triples (every
    # W > 0); only the outer orbit turns clockwise.  Every kept loop runs
    # counterclockwise, so the face of a half-edge lies on its left; left of
    # the forward direction (b, -a) is the high side A*X + B*Y > C*W
    seen = [False] * len(tail_of)
    side: list[int | None] = [None] * len(tail_of)
    faces: list[tuple[int, ...]] = []
    dropped = 0
    for start in range(len(tail_of)):
        if seen[start]:
            continue
        orbit = []
        loop = []
        half = start
        while not seen[half]:
            seen[half] = True
            orbit.append(half)
            loop.append(tail_of[half])
            half = next_of[half]
        at = loop.index(min(loop))
        (x0, y0, w0), (x1, y1, w1), (x2, y2, w2) = (
            vertices[loop[at - 1]],
            vertices[loop[at]],
            vertices[loop[(at + 1) % len(loop)]],
        )
        turn = (
            x0 * (y1 * w2 - w1 * y2)
            - y0 * (x1 * w2 - w1 * x2)
            + w0 * (x1 * y2 - y1 * x2)
        )
        if turn <= 0:
            dropped += 1
            continue
        for half in orbit:
            side[half] = len(faces)
        faces.append(tuple(loop))
    if dropped != 1:
        raise InternalConsistencyError(
            f"expected exactly one outer orbit, found {dropped}"
        )
    if len(vertices) - len(edges) + (len(faces) + 1) != 2:
        raise InternalConsistencyError("Euler characteristic violated")

    return Arrangement(
        lines=tuple(lines),
        vertices=tuple(vertices),
        edges=tuple(edges),
        faces=tuple(faces),
        edge_faces=tuple(zip(side[1::2], side[::2])),
        line_edges=tuple(line_edges),
    )
