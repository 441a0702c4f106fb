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
which :func:`evaluate_point` itself calls on the point it has checked,
handing that point over to be kept as it is.  `_evaluate_at` computes only
the point's key (N*c, N); the scaled gap data N*(c.F), N*v and the two floor
vectors are computed together on first read, so a point whose certified
record is already cached (see ``multiplicity``) never computes them.

The wall lines through c are the pairs (j, l) with v_j = l a strictly
positive integer.  The maximal jumping divisor H_c is the reduced divisor
supported on their components; the support equality between H_c and the
clamped floor-difference is asserted whenever H_c is computed.

All of this is computed once per point: :func:`evaluate_point` returns a
frozen :class:`PointEvaluation`, and every function here and in
``multiplicity`` that takes a point accepts that evaluation in its place.
The readers `weighted_F`, `gap_values`, `mmi_divisor`, `mmi_divisor_left`
and `maximal_jumping_divisor` restate its attributes.  The package does
not export them: the benchmark's tracer wraps the five readers by module
attribute, and `walls`, `rays` and the CLI call `mmi_divisor` and
`maximal_jumping_divisor`.
The evaluation's attributes beyond its key are ``errors._lazy``: each is
computed on first read and stored in the instance, so a served repeat
computes none.
The evaluation also owns what the multiplicity routes and the jumping
criterion read off H_c: its wall lines and its adjunction values
(ceil(K - c.F) + H_c).E_i per component and .P per connected component P,
each asserted >= -1 (the H inequalities) where it is derived.  One private
kernel derives these values for H and, on the via-G route, for G where G
differs from H; where G == H the route reads H's values.

The constancy region of c is the set of weights with the same ideal: the
points z >= 0 with (z.F)_j < k_j + 1 + e_j^c for every j, where e^c = D_c.
Its bounds are integers scaled by K's denominator D, B_j = D*k_j +
D*(1 + e_j); the per-axis thresholds min_j B_j / (D*F_i[j]) come from
integer cross-multiplication, and the rows (D*F[j]; B_j), one per
component, go straight to the clip.  A validation pass checks that every
facet of the region's polytope is carried by a rupture or dicritical
component or by an orthant plane.  The region contains its centre, so the
polytope is full-dimensional and equals the intersection of its facet
halfspaces: dropping every non-rupture, non-dicritical constraint leaves the
open region unchanged exactly when the pass finds nothing.  The pass reads
the facet map of the one polytope, built the first time the polytope,
classification or binding list is read.  Violations are reported in the
result, never raised.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .dualgraph import DualGraph, IdealTuple, attach_ideals
from .errors import (
    InequalityViolated, InternalConsistencyError, ValidationError, _Frozen, _lazy
)
from .polytope import Halfspace, Polytope, intersect_halfspaces
from .rationals import _entries, _index, _integer_vector, _rational_vector
from .rationals import format_rational, over_common_denominator
from .unloading import antinef_closure_checked, intersection_products

Point = tuple[Fraction, ...]
Connected = tuple[tuple[tuple[int, ...], int], ...]  # (P, value) per connected part P


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
    `int` or `Fraction` entries, one per ideal: a running sum over the r
    ideal vectors."""
    rows = zip(vector, ideals.ideals)
    u, row = next(rows)
    total = [u * f for f in row]
    for u, row in rows:
        total = [t + u * f for t, f in zip(total, row)]
    return tuple(total)


class PointEvaluation(_Frozen):
    """Everything read off one weight point of one ideal tuple.

    Its key is computed on construction, in integers: `scale` is N, the lcm
    of the denominators of K and of the point, and `scaled_point` is N*c.
    Everything else is an ``errors._lazy`` attribute, computed when first
    read, at most once.  The scaled gap data, `scaled_weighted`,
    `scaled_values`, `floors` and `left_floors`, is read off one such
    attribute that computes all four in one pass; a computation that raises
    stores none of them.  `point` is built from (N*c, N) unless the caller
    handed over the `Fraction` point it checked.  `weighted` and `values`
    are the `Fraction` views of the gap data.  A certified repeat reads
    only the key, callers that need only gap values never unload, and D_c
    stays defined where an H assertion fails.  Two evaluations are equal
    only when they are the same object.
    """

    _shown = (
        "ideals", "point", "scale", "scaled_point", "scaled_weighted",
        "scaled_values", "floors", "left_floors",
    )

    def __init__(
        self,
        ideals: IdealTuple,
        scale: int,  # N
        scaled_point: tuple[int, ...],  # N*c
        point: Point | None,  # c as checked, or None to build it from N*c / N
    ) -> None:
        self.__dict__.update(ideals=ideals, scale=scale, scaled_point=scaled_point)
        if point is not None:
            self.__dict__["point"] = point

    @_lazy
    def _gap_data(self) -> tuple[tuple[int, ...], ...]:
        """The scaled gap data, computed together: N*(c.F), N*v, floor(v)
        and the floors of D_{(1-eps)c}."""
        canonical_denominator, scaled_canonical = self.ideals.graph.scaled_canonical
        scale = self.scale
        factor = scale // canonical_denominator
        scaled_weighted = _dot_F(self.ideals, self.scaled_point)
        scaled_values, floors, left_floors = [], [], []
        for w, k in zip(scaled_weighted, scaled_canonical):
            v = w - k * factor
            f, rest = divmod(v, scale)
            scaled_values.append(v)
            floors.append(f)
            left_floors.append(f - 1 if w > 0 and not rest else f)
        return scaled_weighted, tuple(scaled_values), tuple(floors), tuple(left_floors)

    scaled_weighted = _lazy(lambda self: self._gap_data[0])  # N*(c.F)
    scaled_values = _lazy(lambda self: self._gap_data[1])  # N*v, v = c.F - K
    floors = _lazy(lambda self: self._gap_data[2])  # floor(v)
    left_floors = _lazy(lambda self: self._gap_data[3])  # D_{(1-eps)c} before closure

    @_lazy
    def point(self) -> Point:
        """c, from N*c over N."""
        scale = self.scale
        return tuple([Fraction(n, scale) for n in self.scaled_point])

    @_lazy
    def weighted(self) -> tuple[Fraction, ...]:
        """c.F"""
        return tuple(Fraction(w, self.scale) for w in self.scaled_weighted)

    @_lazy
    def values(self) -> tuple[Fraction, ...]:
        """v = c.F - K"""
        return tuple(Fraction(v, self.scale) for v in self.scaled_values)

    @_lazy
    def wall_lines(self) -> tuple[tuple[int, int], ...]:
        """(component j, level l) pairs with v_j = l, a positive integer."""
        scale = self.scale
        return tuple([
            (j, v // scale)
            for j, v in enumerate(self.scaled_values)
            if v > 0 and v % scale == 0
        ])

    @_lazy
    def maximal(self) -> tuple[bool, ...]:
        """H_c: support = the components of the wall lines, asserted equal to
        the support of max(floor(v), 0) - max(left-floor(v), 0)."""
        support = [False] * len(self.floors)
        for j, _ in self.wall_lines:
            support[j] = True
        support = tuple(support)
        differences = tuple([
            (f if f > 0 else 0) != (left if left > 0 else 0)
            for f, left in zip(self.floors, self.left_floors)
        ])
        if differences != support:
            raise InternalConsistencyError(
                "clamped floor-difference support disagrees with the "
                f"integrality scan at {self.point}"
            )
        return support

    @_lazy
    def maximal_values(self) -> tuple[tuple[tuple[int, int], ...], Connected]:
        """(singles, connected): (i, (ceil(K - c.F) + H_c).E_i) for every
        component E_i of H_c and (P, (ceil(K - c.F) + H_c).P) for every
        connected component P, each asserted >= -1 (the H inequalities)."""
        support = self.maximal
        products, connected = _adjunction_values(self, support)
        singles = tuple([
            (i, products[i]) for i, inside in enumerate(support) if inside
        ])
        for i, value in singles:
            if value < -1:
                raise InequalityViolated(
                    f"component {self.ideals.graph.label(i)} gives {value} < -1 "
                    f"at {self.point}"
                )
        for component, value in connected:
            if value < -1:
                raise InequalityViolated(
                    f"H-component {list(component)} gives {value} < -1 at {self.point}"
                )
        return singles, connected

    @_lazy
    def divisor(self) -> tuple[int, ...]:
        return antinef_closure_checked(self.ideals.graph, self.floors)

    @_lazy
    def divisor_left(self) -> tuple[int, ...]:
        return antinef_closure_checked(self.ideals.graph, self.left_floors)

    @_lazy
    def minimal(self) -> tuple[bool, ...]:
        """G: support = {j : v_j = 1 + e_j^left}, asserted inside H.  It is
        the minimal jumping divisor only at jumping points."""
        scale = self.scale
        support = tuple([
            v == scale * (1 + e)
            for v, e in zip(self.scaled_values, self.divisor_left)
        ])
        for g, h in zip(support, self.maximal):
            if g and not h:
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
    checked = _weight_point(ideals, point)
    denominator, numerators = over_common_denominator(checked)
    return _evaluate_at(ideals, numerators, denominator, checked)


def _evaluate_at(
    ideals: IdealTuple,
    numerators: Sequence[int],
    denominator: int,
    point: Point | None = None,
) -> PointEvaluation:
    """The evaluation of the point numerators / denominator (integers >= 0
    over one positive denominator, in any terms), unchecked: the integer
    entry of `evaluate_point`, which checks its point first and passes it
    as `point`, the same point in `Fraction`s; without it the point is
    built from the key when first read.  Only the key (N*c, N) is computed
    here."""
    reduced = denominator // math.gcd(denominator, *numerators)
    scale = math.lcm(ideals.graph.scaled_canonical[0], reduced)
    scaled_point = tuple([n * scale // denominator for n in numerators])
    return PointEvaluation(ideals, scale, scaled_point, point)


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


def _adjunction_values(
    evaluation: PointEvaluation, support: Sequence[bool]
) -> tuple[tuple[int, ...], Connected]:
    """For a support S the library built: the products (ceil(K - c.F) + S).E_j
    for every component, and (P, (ceil(K - c.F) + S).P) for every connected
    component P of S; ceil(K - c.F) = -floor(v) exactly."""
    graph = evaluation.ideals.graph
    shifted = [inside - f for f, inside in zip(evaluation.floors, support)]
    products = intersection_products(graph, shifted)
    connected = []
    for part in _components(graph, support):
        value = 0
        for j in part:
            value += products[j]
        connected.append((tuple(part), value))
    return products, tuple(connected)


def _components(graph: DualGraph, support: Sequence[bool]) -> list[list[int]]:
    """Connected components (sorted index lists) of a support the library
    built, one `bool` per component."""
    adjacency = graph.adjacency
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


class RegionReport(_Frozen):
    """The constancy-region polytope of a point, with validation results.

    `center` and `scaled_bounds`, the integers B_j = D*k_j + D*(1 + e_j),
    are computed on construction; `bounds` is their `Fraction` view and
    `thresholds` holds, per axis i, the far end min_j B_j / (D*F_i[j]) of
    the region's segment on that axis (the log-canonical threshold of F_i
    for the region of the origin), one `Fraction` each.  Both are built on
    first read, and neither builds a polytope.

    `polytope`, built on first read, clips the orthant by the rows
    (D*F_1[j], ..., D*F_r[j]; B_j), so its halfspace j is component j's
    constraint; the build checks each axis's extreme vertex against
    `thresholds` and raises `InternalConsistencyError` on a mismatch.
    `classification` is the polytope's: 'facet', 'touch', or 'slack' per
    constraint.  `binding_non_rupture`, read off the polytope's facet map on
    first read, lists the components, neither rupture nor dicritical, that
    carry a facet no rupture/dicritical component also carries: expected to
    be empty always, and reported rather than raised.  Two reports are equal
    only when they are the same object.
    """

    _shown = ("ideals", "center", "bounds")

    def __init__(
        self, ideals: IdealTuple, center: Point, scaled_bounds: tuple[int, ...]
    ) -> None:
        self.__dict__.update(ideals=ideals, center=center, scaled_bounds=scaled_bounds)

    @_lazy
    def bounds(self) -> tuple[Fraction, ...]:
        """k_j + 1 + e_j"""
        denominator = self.ideals.graph.scaled_canonical[0]
        return tuple([Fraction(b, denominator) for b in self.scaled_bounds])

    @_lazy
    def thresholds(self) -> tuple[Fraction, ...]:
        denominator, bounds = self.ideals.graph.scaled_canonical[0], self.scaled_bounds
        thresholds = []
        for vector in self.ideals.ideals:
            low, f = bounds[0], vector[0]
            for bound, entry in zip(bounds, vector):  # every entry is positive
                if bound * f < low * entry:
                    low, f = bound, entry
            thresholds.append(Fraction(low, denominator * f))
        return tuple(thresholds)

    @_lazy
    def polytope(self) -> Polytope:
        ideals = self.ideals
        denominator = ideals.graph.scaled_canonical[0]
        rows = [
            Halfspace(tuple([denominator * f for f in column]), bound)
            for column, bound in zip(zip(*ideals.ideals), self.scaled_bounds)
        ]
        full = intersect_halfspaces(rows)
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
        return full

    @property
    def classification(self) -> tuple[str, ...]:
        return self.polytope.classification

    @_lazy
    def binding_non_rupture(self) -> tuple[int, ...]:
        # every normal is positive, so no row coincides with an orthant plane
        kept = self.ideals.rupture_or_dicritical
        return tuple(sorted(
            j
            for carriers in self.polytope.facet_keys.values()
            if not any(kept[i] for i in carriers)
            for j in carriers
        ))

    @property
    def valid(self) -> bool:
        return not self.binding_non_rupture


def region(ideals: IdealTuple, point: PointLike) -> RegionReport:
    """Open constancy region {z >= 0 : (z.F)_j < k_j + 1 + e_j^c for all j}."""
    evaluation = evaluate_point(ideals, point)
    denominator, scaled_canonical = ideals.graph.scaled_canonical
    bounds = tuple([
        k + denominator * (1 + e) for k, e in zip(scaled_canonical, evaluation.divisor)
    ])
    return RegionReport(ideals, evaluation.point, bounds)


def subtuple(ideals: IdealTuple, indices: Sequence[int]) -> IdealTuple:
    """The tuple restricted to the chosen ideals (0-based indices)."""
    chosen = [
        ideals.ideals[_index(i, ideals.r, "ideal index")]
        for i in _entries(indices, None, "ideal indices")
    ]
    return attach_ideals(ideals.graph, chosen)


def combined_ideal(ideals: IdealTuple, weights: Sequence[int]) -> tuple[int, ...]:
    """The vector sum(weights_i * F_i) of the product of the powers
    I_i^weights_i, one coefficient per component; along a ray with these
    weights as direction it gives the slopes q_j.  The weights are
    nonnegative integers, not all zero, one per ideal."""
    return _dot_F(ideals, _integer_direction(ideals, weights, "weights"))
