"""Jump multiplicities by independent routes, jumping tests, perturbation sums.

The multiplicity of a weight point c measures the codimension of the ideal
at c inside its one-sided limit ideal.  Three routes compute it for any c:

* adjunction form:   m = (ceil(K - c.F) + H_c) . H_c + #components(H_c);
* fractional form:   sum over components E_i of H_c of
                     (sum of fractional parts of v_j over graph neighbors j
                      + sum_k c_k rho_{k,i}) minus #components(H_c),
                     summed in integers scaled by N (see ``evaluate``);
* colength oracle:   colength(D_c) - colength(D_left).

A fourth route evaluates the adjunction form on the *minimal* jumping
divisor G and is valid at jumping points only.  All routes are exact; any
disagreement is an internal-consistency failure, never a rounding question.

The perturbation sum rule splits the multiplicity at a point on several
walls over the distinct points where a parallel ray, shifted by a small
exact offset, crosses them; the offset's admissibility is checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dualgraph import IdealTuple
from .errors import (
    InequalityViolated,
    InternalConsistencyError,
    NonIntegralTotal,
    NotAJumpingPoint,
    OffsetTooLarge,
    ValidationError,
)
from .evaluate import (
    Point,
    PointEvaluation,
    PointLike,
    _dot_F,
    _integer_direction,
    evaluate_point,
    support_components,
)
from .rationals import _rational, _rational_vector
from .unloading import colength, intersection_products


def multiplicity(ideals: IdealTuple, point: PointLike) -> int:
    """Adjunction-form multiplicity (the production route)."""
    evaluation = evaluate_point(ideals, point)
    products, components = evaluation.maximal_products, evaluation.maximal_components
    return sum(products[j] for part in components for j in part) + len(components)


def multiplicity_fractional(ideals: IdealTuple, point: PointLike) -> int:
    """Fractional-parts form of the multiplicity; must equal `multiplicity`.

    Summed in integers scaled by the evaluation's N: N times a fractional
    part {v_j} is N*v_j mod N, and N*c_k rho_{k,i} is an integer."""
    evaluation = evaluate_point(ideals, point)
    scale = evaluation.scale
    scaled_point, scaled_values = evaluation.scaled_point, evaluation.scaled_values
    adjacency, excesses = ideals.graph.adjacency, ideals.excesses
    total = 0
    for i, inside in enumerate(evaluation.maximal):
        if not inside:
            continue
        total += sum(scaled_values[j] % scale for j in adjacency[i])
        total += sum(c * excesses[k][i] for k, c in enumerate(scaled_point))
    total -= scale * len(evaluation.maximal_components)
    if total % scale:
        raise NonIntegralTotal(
            f"fractional-form multiplicity is {Fraction(total, scale)} at "
            f"{evaluation.point}"
        )
    return total // scale


def multiplicity_oracle(ideals: IdealTuple, point: PointLike) -> int:
    """Independent oracle: colength(D_c) - colength(D_left)."""
    evaluation = evaluate_point(ideals, point)
    at = colength(ideals.graph, evaluation.divisor)
    return at - colength(ideals.graph, evaluation.divisor_left)


def multiplicity_checked(ideals: IdealTuple, point: PointLike) -> int:
    """All always-defined routes, asserted equal; via-G added at jumping points."""
    evaluation = evaluate_point(ideals, point)
    adjunction = multiplicity(ideals, evaluation)
    fractional = multiplicity_fractional(ideals, evaluation)
    oracle = multiplicity_oracle(ideals, evaluation)
    if not (adjunction == fractional == oracle):
        raise InternalConsistencyError(
            f"multiplicity routes disagree at {evaluation.point}: "
            f"adjunction {adjunction}, fractional {fractional}, oracle {oracle}"
        )
    if adjunction > 0:
        via_G = multiplicity_via_G(ideals, evaluation)
        if via_G != adjunction:
            raise InternalConsistencyError(
                f"minimal-divisor route gives {via_G} != {adjunction} "
                f"at {evaluation.point}"
            )
    return adjunction


def is_jumping(ideals: IdealTuple, point: PointLike) -> tuple[bool, list[int] | None]:
    """(jumping?, witness component of H achieving the criterion).

    The criterion — some connected component H' of H_c with
    (ceil(K - c.F) + H_c) . H' >= 0 — is asserted to agree with m > 0.
    """
    evaluation = evaluate_point(ideals, point)
    products = evaluation.maximal_products
    witness = next(
        (
            list(component)
            for component in evaluation.maximal_components
            if sum(products[j] for j in component) >= 0
        ),
        None,
    )
    jumping = multiplicity(ideals, evaluation) > 0
    if jumping != (witness is not None):
        raise InternalConsistencyError(
            f"jumping criterion and multiplicity disagree at {evaluation.point}"
        )
    return jumping, witness


@dataclass(frozen=True)
class HInequalityReport:
    """Exact values of the adjunction form against single components and
    whole connected components of H_c; every value must be >= -1."""

    point: Point
    support: tuple[bool, ...]
    per_component: tuple[tuple[int, int], ...]  # (component index, value)
    per_connected: tuple[tuple[tuple[int, ...], int], ...]


def check_H_inequalities(ideals: IdealTuple, point: PointLike) -> HInequalityReport:
    evaluation = evaluate_point(ideals, point)
    coords, support = evaluation.point, evaluation.maximal
    products = evaluation.maximal_products
    singles = []
    for i, inside in enumerate(support):
        if not inside:
            continue
        value = products[i]
        if value < -1:
            raise InequalityViolated(
                f"component {ideals.graph.label(i)} gives {value} < -1 at {coords}"
            )
        singles.append((i, value))
    connected = []
    for component in evaluation.maximal_components:
        value = sum(products[j] for j in component)
        if value < -1:
            raise InequalityViolated(
                f"H-component {list(component)} gives {value} < -1 at {coords}"
            )
        connected.append((component, value))
    return HInequalityReport(coords, support, tuple(singles), tuple(connected))


def minimal_jumping_divisor(ideals: IdealTuple, point: PointLike) -> tuple[bool, ...]:
    """G: support = {j : (c.F)_j = k_j + 1 + e_j^left}; jumping points only."""
    evaluation = evaluate_point(ideals, point)
    jumping, _ = is_jumping(ideals, evaluation)
    if not jumping:
        raise NotAJumpingPoint(f"{evaluation.point} is not a jumping point")
    return evaluation.minimal


def _adjunction_value(
    ideals: IdealTuple, evaluation: PointEvaluation, support: Sequence[bool]
) -> int:
    """(ceil(K - c.F) + S).S + #components(S), S the reduced divisor on
    `support`; ceil(K - c.F) = -floor(v) exactly."""
    shifted = [inside - f for f, inside in zip(evaluation.floors, support)]
    products = intersection_products(ideals.graph, shifted)
    components = support_components(ideals, support)
    return sum(products[j] for part in components for j in part) + len(components)


def multiplicity_via_G(ideals: IdealTuple, point: PointLike) -> int:
    """Adjunction form on the minimal jumping divisor; jumping points only."""
    evaluation = evaluate_point(ideals, point)
    return _adjunction_value(
        ideals, evaluation, minimal_jumping_divisor(ideals, evaluation)
    )


@dataclass(frozen=True)
class JumpRecord:
    """Everything the library knows about one evaluated point."""

    point: Point
    divisor: tuple[int, ...]
    divisor_left: tuple[int, ...]
    maximal: tuple[bool, ...]
    minimal: tuple[bool, ...] | None
    mult: int
    wall_lines: tuple[tuple[int, int], ...]


def jump_record(ideals: IdealTuple, point: PointLike) -> JumpRecord:
    evaluation = evaluate_point(ideals, point)
    mult = multiplicity_checked(ideals, evaluation)
    if (mult > 0) != (evaluation.divisor != evaluation.divisor_left):
        raise InternalConsistencyError(
            f"multiplicity {mult} inconsistent with divisor jump at "
            f"{evaluation.point}"
        )
    return JumpRecord(
        point=evaluation.point,
        divisor=evaluation.divisor,
        divisor_left=evaluation.divisor_left,
        maximal=evaluation.maximal,
        minimal=evaluation.minimal if mult > 0 else None,
        mult=mult,
        wall_lines=evaluation.wall_lines,
    )


# ---------------------------------------------------------------------------
# Perturbation sum rule.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationReport:
    """m at the center versus the sum of crossing multiplicities."""

    center: Point
    center_mult: int
    offset: tuple[Fraction, ...]
    crossings: tuple[tuple[Fraction, Point, int], ...]  # (parameter, point, m)
    total: int

    @property
    def matched(self) -> bool:
        return self.center_mult == self.total


def perturbation_sum(
    ideals: IdealTuple,
    point: PointLike,
    ray_dir: Sequence[int],
    offset: Sequence,
) -> PerturbationReport:
    """Decompose m(point) across the walls through it.

    The parallel line L'(mu) = (point + offset) + mu * ray_dir crosses every
    wall V_{j,l} through the point (a line when r = 2, a hyperplane when
    r >= 3) at mu = -(offset.F_j)/q_j; the multiplicities at the distinct
    crossing points must add up to m(point).  The offset is admissible iff
    no wall *missing* the point meets the region swept between the point and
    the crossings and every crossing stays in the nonnegative orthant;
    otherwise OffsetTooLarge is raised.  An offset parallel to the ray gives
    one crossing, the point itself.

    The point's evaluation supplies the walls and the scaled gap values; no
    `Fraction` view of c.F is built.  Every ideal has full support, so each
    slope q_j = ray_dir . F_j is a positive integer and L' crosses every wall.
    """
    evaluation = evaluate_point(ideals, point)
    coords = evaluation.point
    direction = _integer_direction(ideals, ray_dir, "ray direction")
    shift = _rational_vector(offset, ideals.r, "offset")
    if not any(shift):
        raise ValidationError("offset must be a nonzero rational vector")
    base = tuple(c + s for c, s in zip(coords, shift))
    if any(b < 0 for b in base):
        raise OffsetTooLarge(f"shifted base {base} leaves the orthant")
    slopes = _dot_F(ideals, direction)
    drifts = _dot_F(ideals, shift)  # offset.F: how far the base moves each v_j

    # Two walls meet L' at one parameter exactly when they meet it at one
    # point, so the crossings are the distinct parameters.
    parameters = {-drifts[j] / slopes[j] for j, _ in evaluation.wall_lines}
    crossings = []
    for parameter in sorted(parameters):
        crossing = tuple(b + parameter * u for b, u in zip(base, direction))
        if any(x < 0 for x in crossing):
            raise OffsetTooLarge(
                f"crossing {crossing} leaves the orthant; shrink the offset"
            )
        crossings.append((parameter, crossing))

    if crossings:
        # Admissibility: sliding the ray from the point to its offset copy
        # sweeps a parallelogram spanned by the offset and the parameter hull
        # of {0} and the crossings.  No integral-level wall that misses the
        # point may meet that region, otherwise a crossing could drift onto a
        # different stretch of its wall and the crossing sum would change.
        # v_j is affine, so its range there is spanned by the four corners.
        ends = (min(0, crossings[0][0]), max(0, crossings[-1][0]))
        scale = evaluation.scale
        for j, (v, q, d) in enumerate(zip(evaluation.scaled_values, slopes, drifts)):
            corners = [Fraction(v, scale) + t * q + e for t in ends for e in (0, d)]
            for level in range(math.ceil(min(corners)), math.floor(max(corners)) + 1):
                if level * scale != v:  # else the wall passes through the point
                    raise OffsetTooLarge(
                        f"wall line of {ideals.graph.label(j)} at level {level} "
                        f"meets the swept region; shrink the offset"
                    )
    crossings = [
        (parameter, crossing, multiplicity_checked(ideals, crossing))
        for parameter, crossing in crossings
    ]

    center_mult = multiplicity_checked(ideals, evaluation)
    total = sum(m for _, _, m in crossings)
    report = PerturbationReport(
        center=coords,
        center_mult=center_mult,
        offset=shift,
        crossings=tuple(crossings),
        total=total,
    )
    if not report.matched:
        raise InternalConsistencyError(
            f"perturbation sum {total} != multiplicity {center_mult} at {coords}"
        )
    return report


def default_offset(point: Sequence[Fraction], delta: Fraction) -> tuple[Fraction, ...]:
    """Offset along the first axis on which the point vanishes, else axis 1."""
    coords = _rational_vector(point, None, "point")
    delta = _rational(delta, "offset size")
    axis = next((i for i, x in enumerate(coords) if x == 0), 0)
    return tuple(delta if i == axis else Fraction(0) for i in range(len(coords)))


_INITIAL_OFFSET = Fraction(1, 64)
_MAX_HALVINGS = 200


def admissible_perturbation(
    ideals: IdealTuple, point: PointLike, ray_dir: Sequence[int]
) -> PerturbationReport:
    """Shrink the axis offset by halving until it is exactly admissible."""
    evaluation = evaluate_point(ideals, point)
    delta = _INITIAL_OFFSET
    last_error: OffsetTooLarge | None = None
    for _ in range(_MAX_HALVINGS):
        try:
            return perturbation_sum(
                ideals, evaluation, ray_dir, default_offset(evaluation.point, delta)
            )
        except OffsetTooLarge as error:
            last_error = error
            delta /= 2
    raise OffsetTooLarge(
        f"no admissible offset found after {_MAX_HALVINGS} halvings: {last_error}"
    )
