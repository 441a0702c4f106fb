"""Exact halfspace intersection in low dimension by incremental clipping.

The regions this library works with are intersections of closed halfspaces
``normal . z <= bound`` over exact rationals.  Their vertices come from the
double-description step of Motzkin et al. (1953), as in Fukuda and Prodon,
"Double description method revisited" (1996):

* Start from a simplex that contains the input.  Each axis i needs a lower
  bound l_i from a constraint whose normal is a negative multiple of e_i (the
  orthant constraints give l = 0), and an upper bound u_i from a constraint
  whose normal is nonnegative with a positive i-th entry.  The simplex is
  z >= l with the cap sum (z_i - l_i) / w_i <= r + 1, where w_i = u_i - l_i
  (or 1 if that is not positive), so the cap is strictly slack on the box
  [l, u].  Input without those bounds is refused with ``ValueError``.
* Cut by one halfspace at a time.  Vertices on its inner side stay, and
  one new vertex is formed on each edge from an inner to an outer vertex.
* Every vertex carries its incidence set: the constraints tight at it.  Two
  vertices span an edge iff their common incidence set holds at least r - 1
  constraints and no third vertex's incidence set contains it (the
  combinatorial adjacency test).  A new vertex's incidence set is that
  common set plus the cutting constraint.
* At the end the artificial cap must be slack at every vertex.

Vertices are kept in integer homogeneous coordinates (X, W), W > 0, reduced
by their gcd, so a cut is integer arithmetic only; they become `Fraction`
points once, at the end.

A constraint is classified against the resulting polytope, from the
incidence sets, as

* ``facet`` — its incident vertices affinely span dimension r - 1;
* ``touch`` — it has incident vertices but they span less;
* ``slack`` — no vertex lies on it.

Two constraints may be *coincident* (equal halfspaces up to positive
scaling); both then earn the same classification.  Geometric dedup is by the
canonical key of the hyperplane.

`solve_square` no longer takes part in the clipping.  It stays because
``bench/spans.py`` wraps it by name and the tests pin it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InternalConsistencyError

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class Halfspace:
    """The closed halfspace normal . z <= bound."""

    normal: Vector
    bound: Fraction

    def value(self, point: Sequence[Fraction]) -> Fraction:
        return sum((n * x for n, x in zip(self.normal, point)), Fraction(0))

    def key(self) -> tuple[Fraction, ...]:
        """Canonical form invariant under positive scaling (halfspace identity)."""
        for entry in self.normal:
            if entry != 0:
                scale = abs(entry)
                return tuple(n / scale for n in self.normal) + (self.bound / scale,)
        raise ValueError("halfspace with zero normal")


def make_halfspace(normal: Iterable, bound) -> Halfspace:
    return Halfspace(tuple(Fraction(n) for n in normal), Fraction(bound))


def orthant_halfspaces(dimension: int) -> list[Halfspace]:
    """The constraints z_i >= 0, written as (-e_i) . z <= 0."""
    spaces = []
    for i in range(dimension):
        normal = tuple(
            Fraction(-1) if j == i else Fraction(0) for j in range(dimension)
        )
        spaces.append(Halfspace(normal, Fraction(0)))
    return spaces


def solve_square(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve a small square system exactly; None if singular."""
    size = len(rows)
    work = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(size):
        pivot_row = next(
            (r for r in range(col, size) if work[r][col] != 0), None
        )
        if pivot_row is None:
            return None
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [entry / pivot for entry in work[col]]
        for r in range(size):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [e - factor * lead for e, lead in zip(work[r], work[col])]
    return tuple(work[r][size] for r in range(size))


def affine_rank(points: Sequence[Vector]) -> int:
    """Dimension of the affine hull of a point set (-1 for empty)."""
    if not points:
        return -1
    base = points[0]
    rows = [
        [coordinate - base_coordinate for coordinate, base_coordinate in zip(p, base)]
        for p in points[1:]
    ]
    # Gaussian elimination rank over the rationals
    rank = 0
    cols = len(base)
    pivot_col = 0
    while rows and pivot_col < cols:
        pivot_row = next((i for i, row in enumerate(rows) if row[pivot_col] != 0), None)
        if pivot_row is None:
            pivot_col += 1
            continue
        rows[0], rows[pivot_row] = rows[pivot_row], rows[0]
        lead = rows[0]
        for i in range(1, len(rows)):
            if rows[i][pivot_col] != 0:
                factor = rows[i][pivot_col] / lead[pivot_col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], lead)]
        rows = rows[1:]
        rank += 1
        pivot_col += 1
    return rank


@dataclass(frozen=True)
class Polytope:
    """A bounded intersection of closed halfspaces with its vertex set.

    ``incidence[n]`` is the set of indices of the halfspaces tight at
    ``vertices[n]``.
    """

    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[Vector, ...]
    incidence: tuple[frozenset[int], ...]

    @property
    def dimension(self) -> int:
        return len(self.halfspaces[0].normal)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def incident_vertices(self, index: int) -> tuple[Vector, ...]:
        return tuple(
            v for v, tight in zip(self.vertices, self.incidence) if index in tight
        )

    def classify(self, index: int) -> str:
        """'facet', 'touch', or 'slack' for the index-th halfspace."""
        incident = self.incident_vertices(index)
        if not incident:
            return "slack"
        if affine_rank(incident) == self.dimension - 1:
            return "facet"
        return "touch"

    def facet_keys(self) -> dict[tuple[Fraction, ...], list[int]]:
        """Distinct facet-supporting hyperplanes -> indices of carrying constraints."""
        keys: dict[tuple[Fraction, ...], list[int]] = {}
        for index in range(len(self.halfspaces)):
            if self.classify(index) == "facet":
                keys.setdefault(self.halfspaces[index].key(), []).append(index)
        return keys


def _integer_form(space: Halfspace) -> tuple[tuple[int, ...], int]:
    """(N, B): a positive integer multiple of the halfspace's (normal, bound)."""
    scale = math.lcm(space.bound.denominator, *(n.denominator for n in space.normal))
    return (
        tuple(n.numerator * (scale // n.denominator) for n in space.normal),
        space.bound.numerator * (scale // space.bound.denominator),
    )


def _homogeneous(point: Sequence[Fraction]) -> tuple[int, ...]:
    """(X_1, ..., X_r, W) with W > 0 the lcm of the denominators."""
    scale = math.lcm(*(x.denominator for x in point))
    return tuple(x.numerator * (scale // x.denominator) for x in point) + (scale,)


def _bounding_simplex(
    spaces: Sequence[Halfspace], dimension: int
) -> list[tuple[int, ...]]:
    """Homogeneous vertices of a simplex that contains the intersection:
    the corner l, then l + (r + 1) w_i e_i for each axis i."""
    lower: list[Fraction | None] = [None] * dimension
    for space in spaces:
        nonzero = [i for i, n in enumerate(space.normal) if n != 0]
        if len(nonzero) == 1 and space.normal[nonzero[0]] < 0:
            i = nonzero[0]
            floor = space.bound / space.normal[i]
            if lower[i] is None or floor > lower[i]:
                lower[i] = floor
    upper: list[Fraction | None] = [None] * dimension
    if None not in lower:
        for space in spaces:
            if any(n < 0 for n in space.normal):
                continue
            slack = space.bound - sum(n * l for n, l in zip(space.normal, lower))
            for i, n in enumerate(space.normal):
                if n > 0 and (upper[i] is None or lower[i] + slack / n < upper[i]):
                    upper[i] = lower[i] + slack / n
    unbounded = [i + 1 for i in range(dimension) if upper[i] is None]
    if unbounded:
        raise ValueError(
            "cannot bound the intersection along axes "
            f"{', '.join(map(str, unbounded))}: each axis needs a lower bound "
            "z_i >= l_i and a constraint with nonnegative normal capping it"
        )
    corner = tuple(lower)
    points = [corner]
    for i in range(dimension):
        width = upper[i] - lower[i]
        far = list(corner)
        far[i] += (dimension + 1) * (width if width > 0 else 1)
        points.append(tuple(far))
    return [_homogeneous(p) for p in points]


def intersect_halfspaces(halfspaces: Sequence[Halfspace]) -> Polytope:
    """Vertices and incidence sets of a bounded intersection of halfspaces,
    by incremental clipping of a bounding simplex."""
    spaces = tuple(halfspaces)
    if not spaces:
        raise ValueError("no halfspaces given")
    dimension = len(spaces[0].normal)
    points = _bounding_simplex(spaces, dimension)
    # artificial labels: -1 for the cap, -2 - i for the simplex facet z_i >= l_i
    corner = frozenset(range(-1 - dimension, -1))
    tight = [corner] + [corner - {-2 - i} | {-1} for i in range(dimension)]

    for index, space in enumerate(spaces):
        normal, bound = _integer_form(space)
        values = [
            sum(n * x for n, x in zip(normal, point)) - bound * point[-1]
            for point in points
        ]
        kept_points, kept_tight = [], []
        for point, labels, value in zip(points, tight, values):
            if value <= 0:
                kept_points.append(point)
                kept_tight.append(labels | {index} if value == 0 else labels)
        outside = [n for n, value in enumerate(values) if value > 0]
        if outside:
            holders: dict[int, set[int]] = {}
            for n, labels in enumerate(tight):
                for label in labels:
                    holders.setdefault(label, set()).add(n)
            everyone = set(range(len(points)))
            for a in (n for n, value in enumerate(values) if value < 0):
                for b in outside:
                    common = tight[a] & tight[b]
                    if len(common) < dimension - 1:
                        continue
                    # no third vertex may hold every constraint of the common set
                    sharing = everyone
                    for label in common:
                        sharing = sharing & holders[label]
                        if len(sharing) == 2:
                            break
                    if len(sharing) > 2:
                        continue
                    below, above = values[a], values[b]
                    point = [
                        above * p - below * q for p, q in zip(points[a], points[b])
                    ]
                    divisor = math.gcd(*point)
                    kept_points.append(tuple(x // divisor for x in point))
                    kept_tight.append(common | {index})
        points, tight = kept_points, kept_tight

    if any(-1 in labels for labels in tight):
        raise InternalConsistencyError(
            "the bounding simplex's cap is tight at a clipped vertex"
        )
    pairs = sorted(
        (
            tuple(Fraction(x, point[-1]) for x in point[:-1]),
            frozenset(label for label in labels if label >= 0),
        )
        for point, labels in zip(points, tight)
    )
    return Polytope(
        halfspaces=spaces,
        vertices=tuple(vertex for vertex, _ in pairs),
        incidence=tuple(labels for _, labels in pairs),
    )


def same_region(a: Polytope, b: Polytope) -> bool:
    """Equality of the two regions, compared through their closures.

    Both arguments are closures of regions of the form
    {z in the orthant : strict wall inequalities}; two such regions with the
    same closure are equal as sets, and bounded closed polytopes coincide iff
    their vertex sets do.
    """
    return set(a.vertices) == set(b.vertices)


def redundant_over(polytope: Polytope, halfspace: Halfspace) -> bool:
    """True iff adding the (strict) halfspace would not cut the region.

    For a bounded polytope the maximum of the linear form is attained at a
    vertex, so the open region carved from `polytope` loses points iff some
    vertex exceeds the bound.
    """
    return all(halfspace.value(v) <= halfspace.bound for v in polytope.vertices)
