"""Evaluation of mixed-multiplier-ideal divisors at rational weight points.

For a tuple of ideals with vanishing-order vectors F_1..F_r and a weight
point c in the nonnegative orthant, the attached ideal is encoded by the
antinef divisor

    D_c = antinef closure of floor(c_1 F_1 + ... + c_r F_r - K).

Writing v_j = (c.F)_j - k_j (the "gap value" at component j), the one-sided
limit divisor D_{(1-eps)c} for all small eps > 0 is computed symbolically:
component j gets floor(v_j) - 1 when v_j is an integer and (c.F)_j > 0, and
floor(v_j) otherwise.  No numeric epsilon is ever chosen.

The maximal jumping divisor H_c is the reduced divisor supported on
{j : v_j is a strictly positive integer}; the support equality between H_c
and the clamped floor-difference is asserted whenever H_c is computed.

All of this is computed once per point: :func:`evaluate_point` returns a
frozen :class:`PointEvaluation`, and every function here and in
``multiplicity`` that takes a point accepts that evaluation in its place.

The constancy region of c is the set of weights with the same ideal: the
points z >= 0 with (z.F)_j < k_j + 1 + e_j^c for every j, where e^c = D_c.
Constraints are emitted for all components; a validation pass checks that
dropping every non-rupture, non-dicritical constraint leaves the open region
unchanged (the binding constraints belong to rupture or dicritical
components).  The pass runs together with the polytope build, the first
time the region's polytope, classification or binding list is read; the
bounds alone build nothing.  Violations are reported in the result, never
raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .dualgraph import IdealTuple
from .errors import InternalConsistencyError, LengthMismatch, ValidationError
from .polytope import (
    Halfspace,
    Polytope,
    intersect_halfspaces,
    orthant_halfspaces,
    redundant_over,
    same_region,
)
from .unloading import antinef_closure_checked

Point = tuple[Fraction, ...]


def normalize_point(ideals: IdealTuple, point: Sequence) -> Point:
    coords = tuple(Fraction(x) for x in point)
    if len(coords) != ideals.r:
        raise LengthMismatch(
            f"point has {len(coords)} coordinates, tuple has {ideals.r} ideals"
        )
    if any(x < 0 for x in coords):
        raise ValidationError(f"point {coords} has a negative coordinate")
    return coords


@dataclass(frozen=True, eq=False)
class PointEvaluation:
    """Everything read off one weight point of one ideal tuple.

    The gap data is computed on construction.  H, D_c, D_left and G are
    computed when first read, at most once: callers that need only gap values
    never unload, and D_c stays defined where the H assertion fails.
    """

    ideals: IdealTuple
    point: Point
    weighted: tuple[Fraction, ...]  # c.F
    values: tuple[Fraction, ...]  # v = c.F - K
    floors: tuple[int, ...]
    left_floors: tuple[int, ...]  # floors of D_{(1-eps)c} before closure

    @cached_property
    def maximal(self) -> tuple[bool, ...]:
        """H_c: support = {j : v_j is a strictly positive integer}, asserted
        equal to the support of max(floor(v), 0) - max(left-floor(v), 0)."""
        support = tuple(v.denominator == 1 and v > 0 for v in self.values)
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
    def divisor(self) -> tuple[int, ...]:
        return antinef_closure_checked(self.ideals.graph, self.floors)

    @cached_property
    def divisor_left(self) -> tuple[int, ...]:
        return antinef_closure_checked(self.ideals.graph, self.left_floors)

    @cached_property
    def minimal(self) -> tuple[bool, ...]:
        """G: support = {j : v_j = 1 + e_j^left}, asserted inside H.  It is
        the minimal jumping divisor only at jumping points."""
        support = tuple(v == 1 + e for v, e in zip(self.values, self.divisor_left))
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
    coords = normalize_point(ideals, point)
    weighted = tuple(
        sum((c * vector[j] for c, vector in zip(coords, ideals.ideals)), Fraction(0))
        for j in range(ideals.size)
    )
    values = tuple(w - k for w, k in zip(weighted, ideals.graph.canonical))
    floors = tuple(v.numerator // v.denominator for v in values)
    left_floors = tuple(
        f - 1 if v.denominator == 1 and w > 0 else f
        for w, v, f in zip(weighted, values, floors)
    )
    return PointEvaluation(ideals, coords, weighted, values, floors, left_floors)


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
    """Connected components (index lists) of a reduced divisor in the tree."""
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

    `center` and `bounds` are computed on construction.  The rest is built
    together, once, the first time any of it is read, so callers that need
    only the bounds build no polytope.  `polytope` uses every component's
    constraint plus the orthant bounds; `restricted` keeps only
    rupture/dicritical constraints.  `classification` classifies each
    component's constraint against the full polytope as 'facet', 'touch', or
    'slack'.  `binding_non_rupture` lists components whose constraint
    genuinely cuts the restricted open region — expected to be empty always;
    surfaced for reporting rather than raised.
    """

    ideals: IdealTuple
    center: Point
    bounds: tuple[Fraction, ...]

    @cached_property
    def _geometry(
        self,
    ) -> tuple[Polytope, Polytope, tuple[str, ...], tuple[int, ...]]:
        ideals = self.ideals
        axis = orthant_halfspaces(ideals.r)
        constraints = [
            Halfspace(
                tuple(Fraction(ideals.ideals[i][j]) for i in range(ideals.r)),
                self.bounds[j],
            )
            for j in range(ideals.size)
        ]
        full = intersect_halfspaces(axis + constraints)
        keep = ideals.rupture_or_dicritical
        restricted = intersect_halfspaces(
            axis + [c for j, c in enumerate(constraints) if keep[j]]
        )
        offset = len(axis)
        classification = tuple(
            full.classify(offset + j) for j in range(ideals.size)
        )
        binding = ()
        if not same_region(full, restricted):
            binding = tuple(
                j
                for j, constraint in enumerate(constraints)
                if not keep[j] and not redundant_over(restricted, constraint)
            )
        return full, restricted, classification, binding

    @property
    def polytope(self) -> Polytope:
        return self._geometry[0]

    @property
    def restricted(self) -> Polytope:
        return self._geometry[1]

    @property
    def classification(self) -> tuple[str, ...]:
        return self._geometry[2]

    @property
    def binding_non_rupture(self) -> tuple[int, ...]:
        return self._geometry[3]

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
    from .dualgraph import attach_ideals

    chosen = [ideals.ideals[i] for i in indices]
    return attach_ideals(ideals.graph, chosen)


def combined_ideal(ideals: IdealTuple, weights: Sequence[int]) -> tuple[int, ...]:
    """The single ideal with vector sum(weights_i * F_i) (product of powers).

    Used by the planar-slice reduction: the slice through an axis point and
    an interior point sees the duple (F_a, sum of weighted others).
    """
    if len(weights) != ideals.r:
        raise LengthMismatch("one integer weight per ideal required")
    if any(w < 0 for w in weights) or all(w == 0 for w in weights):
        raise ValidationError("weights must be nonnegative and not all zero")
    size = ideals.size
    return tuple(
        sum(weights[i] * ideals.ideals[i][j] for i in range(ideals.r))
        for j in range(size)
    )
