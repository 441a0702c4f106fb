"""Exact intersection of the orthant with integer halfspaces by incremental
clipping.

The regions this library works with are the points z >= 0 that satisfy a
list of closed halfspaces ``normal . z <= bound``, each an integer row.
Their vertices come from the double-description step of Motzkin et al.
(1953), as in Fukuda and Prodon, "Double description method revisited"
(1996):

* Start from the homogenized orthant: the cone X >= 0, W >= 0 in
  (X, W)-space, generated by the origin (0, ..., 0, 1) and one axis ray
  (e_i, 0) per axis.  The orthant is the starting cone, never an input row.
* Cut by one row N . X <= B W at a time.  Generators on its inner side
  stay, and one new generator is formed on each edge from an inner to an
  outer generator.
* Every generator carries its incidence set: the rows tight at it, the
  cone's own facets X_i >= 0 and W >= 0 included.  Two generators span an
  edge iff their common incidence set holds at least r - 1 constraints and
  no third generator's incidence set contains it (the combinatorial
  adjacency test).  A new generator's incidence set is that common set plus
  the cutting row.
* A generator left with W = 0 at the end is a ray of the intersection, so
  the input is unbounded and is refused with ``ValueError``.

Each row is read through the ``rationals`` helpers: a normal of another
length than the first row's raises `LengthMismatch`, an entry or bound that
is no integer `ValidationError`; a `Halfspace` of `int`s passes the check
as it is.  Generators are kept in integer homogeneous coordinates (X, W),
reduced by their gcd, so a cut is integer arithmetic only.  The vertices
are ordered by the integer keys floor(2^s * X / W), as in ``arrangement``,
and the `Polytope` keeps them as those rows.

A row is classified against the resulting polytope, from the incidence
sets, as ``facet`` when its incident vertices affinely span dimension
r - 1, ``touch`` when they span less and ``slack`` when there are none.
The affine rank of vertices X / W is one less than the rank of their rows
(X, W), taken fraction-free on the rows the polytope keeps.

The `Polytope` computes three things on first read, each an
``errors._lazy`` attribute stored in the instance: the `Fraction` points
X / W, the classification of every row, and the facet map `facet_keys`,
built from that classification.

Two rows may be *coincident* (equal halfspaces up to positive scaling);
both then earn the same classification.  Geometric dedup is by the
canonical key of the hyperplane: the row over the absolute value of its
first nonzero normal entry, in `Fraction`s.

`solve_square` no longer takes part in the clipping.  It stays because
``bench/spans.py`` wraps it by name and the tests pin it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import _Frozen, _lazy
from .rationals import _entries, _integer, _integer_vector

Vector = tuple[Fraction, ...]


class Halfspace(NamedTuple):
    """The closed halfspace normal . z <= bound, an integer row."""

    normal: tuple[int, ...]
    bound: int

    def key(self) -> tuple[Fraction, ...]:
        """Canonical form invariant under positive scaling (halfspace identity)."""
        for entry in self.normal:
            if entry != 0:
                scale = abs(entry)
                return tuple(Fraction(n, scale) for n in self.normal + (self.bound,))
        raise ValueError("halfspace with zero normal")


def solve_square(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve a small square system exactly, in `Fraction`s whatever the
    entries' type (`int` rows divide exactly too); None if singular."""
    size = len(rows)
    work = [
        [Fraction(entry) for entry in row] + [Fraction(rhs[i])]
        for i, row in enumerate(rows)
    ]
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


def _rank(rows: list[Sequence[int]]) -> int:
    """The rank of integer rows, by Bareiss elimination, where every entry
    stays a minor of the input and so each division by the previous pivot
    is exact.  The list is consumed."""
    rank, previous = 0, 1
    while rows:
        lead = rows.pop()
        column = next((c for c, entry in enumerate(lead) if entry), None)
        if column is None:
            continue
        rank, pivot = rank + 1, lead[column]
        rows = [
            [(pivot * a - row[column] * b) // previous for a, b in zip(row, lead)]
            for row in rows
        ]
        previous = pivot
    return rank


class Polytope(_Frozen):
    """A bounded intersection of closed halfspaces with its vertex set.

    ``homogeneous[n]`` is vertex n as its integer row (X, W), reduced by
    its gcd with W > 0, and ``vertices[n]`` its `Fraction` point X / W,
    built on first read.  ``incidence[n]`` is the set of indices of the
    halfspaces tight at vertex n.  Equality and hash read the halfspaces,
    the rows and the incidence sets, not the `_lazy` views: a reduced row
    fixes its vertex, so two polytopes with equal rows have equal vertices.
    """

    _shown = ("halfspaces", "vertices", "incidence")

    def __init__(
        self,
        halfspaces: tuple[Halfspace, ...],
        homogeneous: tuple[tuple[int, ...], ...],
        incidence: tuple[frozenset[int], ...],
    ) -> None:
        self.__dict__.update(
            halfspaces=halfspaces, homogeneous=homogeneous, incidence=incidence
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.halfspaces, self.homogeneous, self.incidence) == (
            other.halfspaces, other.homogeneous, other.incidence
        )

    def __hash__(self) -> int:
        return hash((self.halfspaces, self.homogeneous, self.incidence))

    @_lazy
    def vertices(self) -> tuple[Vector, ...]:
        return tuple([
            tuple([Fraction(x, row[-1]) for x in row[:-1]]) for row in self.homogeneous
        ])

    @property
    def dimension(self) -> int:
        return len(self.halfspaces[0].normal)

    def incident_vertices(self, index: int) -> tuple[Vector, ...]:
        return tuple(
            v for v, tight in zip(self.vertices, self.incidence) if index in tight
        )

    @_lazy
    def classification(self) -> tuple[str, ...]:
        """'facet', 'touch', or 'slack' for every halfspace, in input order."""
        incident: list[list[tuple[int, ...]]] = [[] for _ in self.halfspaces]
        for row, tight in zip(self.homogeneous, self.incidence):
            for index in tight:
                incident[index].append(row)
        kinds = []
        for rows in incident:
            if not rows:
                kinds.append("slack")
            elif _rank(rows) == self.dimension:  # affine rank r - 1
                kinds.append("facet")
            else:
                kinds.append("touch")
        return tuple(kinds)

    @_lazy
    def facet_keys(self) -> dict[tuple[Fraction, ...], list[int]]:
        """Distinct facet-supporting hyperplanes -> indices of carrying
        constraints, built on first read."""
        keys: dict[tuple[Fraction, ...], list[int]] = {}
        for index, kind in enumerate(self.classification):
            if kind == "facet":
                keys.setdefault(self.halfspaces[index].key(), []).append(index)
        return keys


def intersect_halfspaces(halfspaces: Sequence[Halfspace]) -> Polytope:
    """Vertices and incidence sets of the orthant cut by the given rows, by
    incremental clipping of the homogenized orthant; the vertices in
    lexicographic order.  Each row is a (normal, bound) pair of integers,
    every normal as long as the first; empty or unbounded input raises
    `ValueError`."""
    halfspaces = tuple(halfspaces)
    if not halfspaces:
        raise ValueError("no halfspaces given")
    dimension = len(_entries(halfspaces[0][0], None, "halfspace normal"))
    spaces = tuple(_checked(row, dimension) for row in halfspaces)
    # generators (X, W): the origin, then the axis rays; artificial labels
    # -1 for W >= 0 and -2 - i for X_i >= 0
    points = [(0,) * dimension + (1,)] + [
        tuple(int(i == axis) for i in range(dimension)) + (0,)
        for axis in range(dimension)
    ]
    cone = frozenset(range(-1 - dimension, -1))
    tight = [cone] + [cone - {-2 - i} | {-1} for i in range(dimension)]

    for index, space in enumerate(spaces):
        normal, bound = space.normal, space.bound
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
                    # no third generator may hold every constraint of the common set
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

    if any(point[-1] == 0 for point in points):
        raise ValueError("the intersection is unbounded")
    # lexicographic order on the keys floor(2^s * X / W): 2^s >= W * W' for
    # every pair of denominators, so distinct coordinates get distinct keys
    shift = 2 * max((point[-1] for point in points), default=0).bit_length()
    order = sorted(
        zip(points, tight), key=lambda p: [(x << shift) // p[0][-1] for x in p[0][:-1]]
    )
    return Polytope(
        halfspaces=spaces,
        homogeneous=tuple([p for p, _ in order]),
        incidence=tuple(frozenset(i for i in labels if i >= 0) for _, labels in order),
    )


def _checked(row, dimension: int) -> Halfspace:
    """A caller's row as a `Halfspace` of integers; one that is already
    that is returned as it is."""
    normal, bound = row
    checked_normal = _integer_vector(normal, dimension, "halfspace normal")
    checked_bound = _integer(bound, "halfspace bound")
    if type(row) is Halfspace and checked_normal is normal and checked_bound is bound:
        return row
    return Halfspace(checked_normal, checked_bound)
