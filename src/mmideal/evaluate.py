"""Evaluation of mixed-multiplier-ideal divisors at rational weight points.

For a tuple of ideals with vanishing-order vectors F_1..F_r and a weight
point c in the nonnegative orthant, the attached ideal is encoded by the
antinef divisor

    D_c = antinef closure of floor(c_1 F_1 + ... + c_r F_r - K).

Writing v_j = (c.F)_j - k_j (the "gap value" at component j), the one-sided
limit divisor D_{(1-eps)c} for all small eps > 0 is computed symbolically:
component j gets floor(v_j) - 1 when v_j is an integer and (c.F)_j > 0, and
floor(v_j) otherwise.  No numeric epsilon is ever chosen.

A point is one `int` or `Fraction` per ideal, none negative, read through
``rationals`` (floats, bools and strings raise ValidationError); a ray
direction or weight vector is one nonnegative integer per ideal, not all
zero.

The arithmetic is in integers.  N, the lcm of the denominators of K and of
c, scales the point to the integer vector N*c; then N*(c.F) and N*v are
integer vectors too, and floor(v_j) = N*v_j // N, v_j is an integer exactly
when N*v_j % N == 0, and v_j = 1 + e_j exactly when N*v_j = N*(1 + e_j).
The rational divisor c.F and the gap values v are `Fraction` views of the
scaled vectors, built only when read.  Points built in integers (atlas edge
and face points, ray candidates) enter through the private `_evaluate_at`,
which :func:`evaluate_point` itself calls on the point it has checked.

The wall lines through c are the pairs (j, l) with v_j = l a strictly
positive integer.  The maximal jumping divisor H_c is the reduced divisor
supported on their components; the support equality between H_c and the
clamped floor-difference is asserted whenever H_c is computed.

All of this is computed once per point: :func:`evaluate_point` returns a
frozen :class:`PointEvaluation`, and every function here and in
``multiplicity`` that takes a point accepts that evaluation in its place.
The evaluation also owns what the multiplicity routes and the jumping
criterion read off H_c: its wall lines, its connected components and the
adjoint products (ceil(K - c.F) + H_c).E_j.

The constancy region of c is the set of weights with the same ideal: the
points z >= 0 with (z.F)_j < k_j + 1 + e_j^c for every j, where e^c = D_c.
Constraints are emitted for all components; a validation pass checks that
every facet of the region's polytope is carried by a rupture or dicritical
component or by an orthant plane.  The region contains its centre, so the
polytope is full-dimensional and equals the intersection of its facet
halfspaces: dropping every non-rupture, non-dicritical constraint leaves the
open region unchanged exactly when the pass finds nothing.  The pass reads
the facet map of the one polytope built, the first time the region's
polytope, classification or binding list is read; the bounds and the
per-axis thresholds alone build nothing.  Violations are reported in the
result, never raised.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .dualgraph import IdealTuple, attach_ideals
from .errors import InternalConsistencyError, ValidationError
from .polytope import Halfspace, Polytope, intersect_halfspaces, orthant_halfspaces
from .rationals import _entries, _flags, _index, _integer_vector, _rational_vector
from .rationals import format_rational, over_common_denominator
from .unloading import antinef_closure_checked, intersection_products

Point = tuple[Fraction, ...]


def _weight_point(ideals: IdealTuple, point: Sequence) -> Point:
    """A caller's weight point: one rational per ideal, none negative."""
    coords = _rational_vector(point, ideals.r, "point")
    if any(x < 0 for x in coords):
        raise ValidationError(f"point {coords} has a negative coordinate")
    return coords


def _integer_direction(
    ideals: IdealTuple, entries: Sequence, what: str
) -> tuple[int, ...]:
    """One nonnegative integer per ideal, not all zero: a ray direction or a
    weight vector."""
    direction = _integer_vector(entries, ideals.r, what)
    if any(u < 0 for u in direction) or not any(direction):
        raise ValidationError(f"{what} must be nonnegative integers, not all zero")
    return direction


def _dot_F(ideals: IdealTuple, vector: Sequence) -> tuple:
    """(u.F)_j = sum_i u_i F_i[j] for every component j, for a vector u of
    `int` or `Fraction` entries, one per ideal."""
    return tuple(
        sum(map(operator.mul, vector, column)) for column in zip(*ideals.ideals)
    )


@dataclass(frozen=True, eq=False)
class PointEvaluation:
    """Everything read off one weight point of one ideal tuple.

    The scaled gap data is computed on construction, in integers: `scale` is
    N, the lcm of the denominators of K and of the point.  `weighted` and
    `values` are their `Fraction` views.  These views, the wall lines, H,
    its connected components, its adjoint products, D_c, D_left and G are
    computed when first read, at most once: callers that need only gap
    values never unload, and D_c stays defined where the H assertion fails.
    """

    ideals: IdealTuple
    point: Point
    scale: int  # N
    scaled_point: tuple[int, ...]  # N*c
    scaled_weighted: tuple[int, ...]  # N*(c.F)
    scaled_values: tuple[int, ...]  # N*v, v = c.F - K
    floors: tuple[int, ...]
    left_floors: tuple[int, ...]  # floors of D_{(1-eps)c} before closure

    @cached_property
    def weighted(self) -> tuple[Fraction, ...]:
        """c.F"""
        return tuple(Fraction(w, self.scale) for w in self.scaled_weighted)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """v = c.F - K"""
        return tuple(Fraction(v, self.scale) for v in self.scaled_values)

    @cached_property
    def wall_lines(self) -> tuple[tuple[int, int], ...]:
        """(component j, level l) pairs with v_j = l, a positive integer."""
        scale = self.scale
        return tuple(
            (j, v // scale)
            for j, v in enumerate(self.scaled_values)
            if v > 0 and v % scale == 0
        )

    @cached_property
    def maximal(self) -> tuple[bool, ...]:
        """H_c: support = the components of the wall lines, asserted equal to
        the support of max(floor(v), 0) - max(left-floor(v), 0)."""
        on_wall = {j for j, _ in self.wall_lines}
        support = tuple(j in on_wall for j in range(len(self.floors)))
        differences = tuple(
            max(f, 0) != max(left, 0)
            for f, left in zip(self.floors, self.left_floors)
        )
        if differences != support:
            raise InternalConsistencyError(
                "clamped floor-difference support disagrees with the "
                f"integrality scan at {self.point}"
            )
        return support

    @cached_property
    def maximal_components(self) -> tuple[tuple[int, ...], ...]:
        """The connected components of H_c."""
        return tuple(
            tuple(part) for part in support_components(self.ideals, self.maximal)
        )

    @cached_property
    def maximal_products(self) -> tuple[int, ...]:
        """(ceil(K - c.F) + H_c).E_j for every component; ceil(K - c.F) =
        -floor(v) exactly."""
        shifted = [inside - f for f, inside in zip(self.floors, self.maximal)]
        return intersection_products(self.ideals.graph, shifted)

    @cached_property
    def divisor(self) -> tuple[int, ...]:
        return antinef_closure_checked(self.ideals.graph, self.floors)

    @cached_property
    def divisor_left(self) -> tuple[int, ...]:
        return antinef_closure_checked(self.ideals.graph, self.left_floors)

    @cached_property
    def minimal(self) -> tuple[bool, ...]:
        """G: support = {j : v_j = 1 + e_j^left}, asserted inside H.  It is
        the minimal jumping divisor only at jumping points."""
        scale = self.scale
        support = tuple(
            v == scale * (1 + e)
            for v, e in zip(self.scaled_values, self.divisor_left)
        )
        if any(g and not h for g, h in zip(support, self.maximal)):
            raise InternalConsistencyError(
                f"minimal jumping divisor exceeds the maximal one at {self.point}"
            )
        return support


PointLike = Union[Sequence, PointEvaluation]


def evaluate_point(ideals: IdealTuple, point: PointLike) -> PointEvaluation:
    """The evaluation of a point; an evaluation of this tuple is returned
    unchanged, one of a different tuple is refused."""
    if isinstance(point, PointEvaluation):
        if point.ideals is not ideals and point.ideals != ideals:
            raise ValidationError(
                "the point evaluation belongs to a different ideal tuple"
            )
        return point
    denominator, numerators = over_common_denominator(_weight_point(ideals, point))
    return _evaluate_at(ideals, numerators, denominator)


def _evaluate_at(
    ideals: IdealTuple, numerators: Sequence[int], denominator: int
) -> PointEvaluation:
    """The evaluation of the point numerators / denominator (integers >= 0
    over one positive denominator, in any terms), unchecked: the integer
    entry of `evaluate_point`, which checks its point first."""
    canonical_denominator, scaled_canonical = ideals.graph.scaled_canonical
    reduced = denominator // math.gcd(denominator, *numerators)
    scale = math.lcm(canonical_denominator, reduced)
    factor = scale // canonical_denominator
    scaled_point = tuple(n * scale // denominator for n in numerators)
    scaled_weighted = _dot_F(ideals, scaled_point)
    scaled_values = tuple(
        w - k * factor for w, k in zip(scaled_weighted, scaled_canonical)
    )
    floors = tuple(v // scale for v in scaled_values)
    left_floors = tuple(
        f - 1 if w > 0 and v % scale == 0 else f
        for w, v, f in zip(scaled_weighted, scaled_values, floors)
    )
    return PointEvaluation(
        ideals,
        tuple(Fraction(n, denominator) for n in numerators),
        scale,
        scaled_point,
        scaled_weighted,
        scaled_values,
        floors,
        left_floors,
    )


def weighted_F(ideals: IdealTuple, point: PointLike) -> tuple[Fraction, ...]:
    """The rational divisor c_1 F_1 + ... + c_r F_r."""
    return evaluate_point(ideals, point).weighted


def gap_values(ideals: IdealTuple, point: PointLike) -> tuple[Fraction, ...]:
    """v_j = (c.F)_j - k_j for every component."""
    return evaluate_point(ideals, point).values


def mmi_divisor(ideals: IdealTuple, point: PointLike) -> tuple[int, ...]:
    """D_c: the antinef closure of floor(c.F - K)."""
    return evaluate_point(ideals, point).divisor


def mmi_divisor_left(ideals: IdealTuple, point: PointLike) -> tuple[int, ...]:
    """D_{(1-eps)c} for all sufficiently small eps > 0, symbolically."""
    return evaluate_point(ideals, point).divisor_left


def maximal_jumping_divisor(ideals: IdealTuple, point: PointLike) -> tuple[bool, ...]:
    """H_c: support = {j : v_j is a strictly positive integer}."""
    return evaluate_point(ideals, point).maximal


def support_components(ideals: IdealTuple, support: Sequence[bool]) -> list[list[int]]:
    """Connected components (index lists) of a reduced divisor in the tree,
    given as one `bool` per component."""
    support = _flags(support, ideals.size, "support")
    adjacency = ideals.graph.adjacency
    seen = [False] * len(support)
    components = []
    for start, inside in enumerate(support):
        if not inside or seen[start]:
            continue
        stack = [start]
        seen[start] = True
        component = []
        while stack:
            current = stack.pop()
            component.append(current)
            for neighbor in adjacency[current]:
                if support[neighbor] and not seen[neighbor]:
                    seen[neighbor] = True
                    stack.append(neighbor)
        components.append(sorted(component))
    return components


@dataclass(frozen=True, eq=False)
class RegionReport:
    """The constancy-region polytope of a point, with validation results.

    `center` and `bounds` are computed on construction.  `thresholds` holds,
    per axis i, the far end min_j bound_j / F_i[j] of the region's segment on
    that axis (the log-canonical threshold of F_i for the region of the
    origin); it is read off the bounds and builds no polytope.

    The rest is built together, once, the first time any of it is read, so
    callers that need only the bounds or thresholds build no polytope.
    `polytope` uses every component's constraint plus the orthant bounds.
    The build checks each axis's extreme vertex of `polytope` against
    `thresholds` and raises `InternalConsistencyError` on a mismatch.
    `classification` classifies each component's constraint against the
    polytope as 'facet', 'touch', or 'slack'.  `binding_non_rupture` lists
    the components, neither rupture nor dicritical, that carry a facet no
    rupture/dicritical component and no orthant plane also carries.  It is
    expected to be empty always; surfaced for reporting rather than raised.
    """

    ideals: IdealTuple
    center: Point
    bounds: tuple[Fraction, ...]

    @cached_property
    def thresholds(self) -> tuple[Fraction, ...]:
        return tuple(
            min(bound / vector[j] for j, bound in enumerate(self.bounds))
            for vector in self.ideals.ideals
        )

    @cached_property
    def _geometry(self) -> tuple[Polytope, tuple[int, ...]]:
        ideals = self.ideals
        constraints = [
            Halfspace(
                tuple(Fraction(ideals.ideals[i][j]) for i in range(ideals.r)),
                self.bounds[j],
            )
            for j in range(ideals.size)
        ]
        full = intersect_halfspaces(orthant_halfspaces(ideals.r) + constraints)
        for i, threshold in enumerate(self.thresholds):
            on_axis = [v[i] for v in full.vertices if not any(v[:i] + v[i + 1 :])]
            extreme = max(on_axis, default=None)
            if extreme != threshold:
                shown = "none" if extreme is None else format_rational(extreme)
                raise InternalConsistencyError(
                    f"axis {i + 1}: min-ratio route gives "
                    f"{format_rational(threshold)}, the region polytope's "
                    f"vertex on that axis gives {shown}"
                )
        # halfspace index i >= r is component i - r; the orthant planes are kept
        kept = (True,) * ideals.r + ideals.rupture_or_dicritical
        binding = sorted(
            index - ideals.r
            for carriers in full.facet_keys().values()
            if not any(kept[i] for i in carriers)
            for index in carriers
        )
        return full, tuple(binding)

    @property
    def polytope(self) -> Polytope:
        return self._geometry[0]

    @property
    def classification(self) -> tuple[str, ...]:
        return self.polytope.classification[self.ideals.r :]

    @property
    def binding_non_rupture(self) -> tuple[int, ...]:
        return self._geometry[1]

    @property
    def valid(self) -> bool:
        return not self.binding_non_rupture


def region(ideals: IdealTuple, point: PointLike) -> RegionReport:
    """Open constancy region {z >= 0 : (z.F)_j < k_j + 1 + e_j^c for all j}."""
    evaluation = evaluate_point(ideals, point)
    bounds = tuple(
        k + 1 + e for k, e in zip(ideals.graph.canonical, evaluation.divisor)
    )
    return RegionReport(ideals, evaluation.point, bounds)


def subtuple(ideals: IdealTuple, indices: Sequence[int]) -> IdealTuple:
    """The tuple restricted to the chosen ideals (0-based indices)."""
    chosen = [
        ideals.ideals[_index(i, ideals.r, "ideal index")]
        for i in _entries(indices, None, "ideal indices")
    ]
    return attach_ideals(ideals.graph, chosen)


def combined_ideal(ideals: IdealTuple, weights: Sequence[int]) -> tuple[int, ...]:
    """The single ideal with vector sum(weights_i * F_i) (product of powers).

    Used by the planar-slice reduction: the slice through an axis point and
    an interior point sees the duple (F_a, sum of weighted others).
    """
    return _dot_F(ideals, _integer_direction(ideals, weights, "weights"))
