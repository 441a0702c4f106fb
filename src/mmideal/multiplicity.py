"""Jump multiplicities by independent routes, and perturbation sums.

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

The adjunction form is the sum of v_P + 1 over the connected components P
of H_c, v_P = (ceil(K - c.F) + H_c).P, as the point's evaluation derives
them and asserts them >= -1; the via-G route reads the same values for the
jumping criterion (some v_P >= 0), and a record's G is the evaluation's
`minimal` at jumping points.  `multiplicity_checked` and `jump_record`
alone certify a point: routes equal, m > 0 exactly when D_c != D_left,
via-G.  The package exports those two; the routes `multiplicity`,
`multiplicity_fractional`, `multiplicity_oracle` and `multiplicity_via_G`
stay here unexported, called by module attribute so that the benchmark's
tracer can wrap them.

A point is certified once per graph.  Both read the graph's
``record_cache`` (see ``dualgraph``), keyed by the ideal vectors and the
point's canonical integers (N*c, N), the only part of a point's evaluation
computed on construction.  The first call runs every route, which computes
the evaluation's gap data, and stores the record only after every check
has passed; a repeat, from an atlas facet sample, a perturbation crossing
or a ray candidate alike, is served that checked record before any gap
data is computed.

The perturbation sum rule splits the multiplicity at a point on several
walls over the distinct points where a parallel ray, shifted by a small
exact offset, crosses them; the offset's admissibility is checked exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .dualgraph import IdealTuple
from .errors import (
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
    _adjunction_values,
    _dot_F,
    _evaluate_at,
    _integer_direction,
    evaluate_point,
)
from .rationals import _rational_vector, over_common_denominator
from .unloading import colength


def multiplicity(ideals: IdealTuple, point: PointLike) -> int:
    """Adjunction-form multiplicity (the production route)."""
    _, connected = evaluate_point(ideals, point).maximal_values
    total = 0
    for _, value in connected:
        total += value + 1
    return total


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
        for j in adjacency[i]:
            total += scaled_values[j] % scale
        for c, excess in zip(scaled_point, excesses):
            total += c * excess[i]
    total -= scale * len(evaluation.maximal_values[1])
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
    """All always-defined routes asserted equal, m > 0 asserted exactly when
    D_c != D_left, via-G added at jumping points: the `mult` of the point's
    certified record, which a repeat reads from the graph's cache."""
    return _certified(ideals, evaluate_point(ideals, point)).mult


def multiplicity_via_G(ideals: IdealTuple, point: PointLike) -> int:
    """Adjunction form on the minimal jumping divisor G; jumping points only,
    those where some connected component P of H has v_P >= 0.

    Where G == H the kernel would rerun on H's support, so H's values, as
    the evaluation derived them, are read instead."""
    evaluation = evaluate_point(ideals, point)
    _, connected = evaluation.maximal_values
    if all(value < 0 for _, value in connected):
        raise NotAJumpingPoint(f"{evaluation.point} is not a jumping point")
    if evaluation.minimal != evaluation.maximal:
        _, connected = _adjunction_values(evaluation, evaluation.minimal)
    total = 0
    for _, value in connected:
        total += value + 1
    return total


class JumpRecord(NamedTuple):
    """Everything the library knows about one evaluated point."""

    point: Point
    divisor: tuple[int, ...]
    divisor_left: tuple[int, ...]
    maximal: tuple[bool, ...]
    minimal: tuple[bool, ...] | None
    mult: int
    wall_lines: tuple[tuple[int, int], ...]


def _certified(ideals: IdealTuple, evaluation: PointEvaluation) -> JumpRecord:
    """The point's record, certified at most once per graph.

    Served from the graph's ``record_cache`` under the ideal vectors and the
    evaluation's key (N*c, N) before any gap data is computed; a miss runs
    :func:`_checked_record`."""
    return ideals.graph.record_cache.serve(
        (ideals.ideals, evaluation.scaled_point, evaluation.scale),
        _checked_record, ideals, evaluation,
    )


def _checked_record(ideals: IdealTuple, evaluation: PointEvaluation) -> JumpRecord:
    """Every route, compared; the first to read the gap data computes it."""
    adjunction = multiplicity(ideals, evaluation)
    if (adjunction > 0) != (evaluation.divisor != evaluation.divisor_left):
        raise InternalConsistencyError(
            f"multiplicity {adjunction} inconsistent with divisor jump at "
            f"{evaluation.point}"
        )
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
    return JumpRecord(
        evaluation.point,
        evaluation.divisor,
        evaluation.divisor_left,
        evaluation.maximal,
        evaluation.minimal if adjunction > 0 else None,
        adjunction,
        evaluation.wall_lines,
    )


def jump_record(ideals: IdealTuple, point: PointLike) -> JumpRecord:
    """The record of one point: its multiplicity as `multiplicity_checked`
    certifies it, and the evaluation's divisors and walls; G only at jumping
    points.  A repeat on the graph is served the first certified record."""
    return _certified(ideals, evaluate_point(ideals, point))


# ---------------------------------------------------------------------------
# Perturbation sum rule.
# ---------------------------------------------------------------------------


class PerturbationReport(NamedTuple):
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
    `Fraction` view of c.F is built, offset.F is summed in integers over the
    offset's common denominator, and each crossing is built, kept in the
    orthant and certified in integers; its `Fraction` point is built for the
    report and for error messages only.  Every ideal has full support, so
    each slope q_j = ray_dir . F_j is a positive integer and L' crosses
    every wall.
    """
    evaluation = evaluate_point(ideals, point)
    coords = evaluation.point
    direction = _integer_direction(ideals, ray_dir, "ray direction")
    shift = _rational_vector(offset, ideals.r, "offset")
    if not any(shift):
        raise ValidationError("offset must be a nonzero rational vector")
    # offset.F, how far the base moves each v_j, as S*(offset.F) over the
    # offset's common denominator S; the shifted base as integers over
    # B = lcm(N, S), with (N*c, N) the evaluation's key
    denominator, numerators = over_common_denominator(shift)
    drifts = _dot_F(ideals, numerators)
    over = math.lcm(evaluation.scale, denominator)
    base = [
        c * (over // evaluation.scale) + s * (over // denominator)
        for c, s in zip(evaluation.scaled_point, numerators)
    ]
    if min(base) < 0:
        base = tuple(Fraction(b, over) for b in base)
        raise OffsetTooLarge(f"shifted base {base} leaves the orthant")
    slopes = _dot_F(ideals, direction)

    # Two walls meet L' at one parameter exactly when they meet it at one
    # point, so the crossings are the distinct parameters.  The crossing at
    # p/q is (q*base + p*B*u) / (B*q), evaluated through its integers.
    parameters = {
        Fraction(-drifts[j], denominator * slopes[j]) for j, _ in evaluation.wall_lines
    }
    crossings = []
    for parameter in sorted(parameters):
        p, q = parameter.numerator, parameter.denominator
        crossing = [b * q + p * over * u for b, u in zip(base, direction)]
        if min(crossing) < 0:
            crossing = tuple(Fraction(x, over * q) for x in crossing)
            raise OffsetTooLarge(
                f"crossing {crossing} leaves the orthant; shrink the offset"
            )
        crossings.append((parameter, _evaluate_at(ideals, crossing, over * q)))

    if crossings:
        # Admissibility: sliding the ray from the point to its offset copy
        # sweeps a parallelogram spanned by the offset and the parameter hull
        # of {0} and the crossings.  No integral-level wall that misses the
        # point may meet that region, otherwise a crossing could drift onto a
        # different stretch of its wall and the crossing sum would change.
        # v_j is affine, so its range there is spanned by the four corners,
        # taken in integers over M = lcm(N, S, denominators of the two ends);
        # the levels in range are ceil(min/M)..floor(max/M).
        ends = (min(0, crossings[0][0]), max(0, crossings[-1][0]))
        common = math.lcm(evaluation.scale, denominator, *(t.denominator for t in ends))
        factor, drift_factor = common // evaluation.scale, common // denominator
        scaled_ends = [t.numerator * (common // t.denominator) for t in ends]
        for j, (v, q, d) in enumerate(zip(evaluation.scaled_values, slopes, drifts)):
            v *= factor
            d *= drift_factor
            corners = [v + t * q + e for t in scaled_ends for e in (0, d)]
            for level in range(-(-min(corners) // common), max(corners) // common + 1):
                if level * common != v:  # else the wall passes through the point
                    raise OffsetTooLarge(
                        f"wall line of {ideals.graph.label(j)} at level {level} "
                        f"meets the swept region; shrink the offset"
                    )
    crossings = [
        (parameter, crossing.point, multiplicity_checked(ideals, crossing))
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


_INITIAL_OFFSET = Fraction(1, 64)
_MAX_HALVINGS = 200


def admissible_perturbation(
    ideals: IdealTuple, point: PointLike, ray_dir: Sequence[int]
) -> PerturbationReport:
    """Shrink an axis offset by halving until it is exactly admissible: the
    first axis on which the point vanishes, else axis 1."""
    evaluation = evaluate_point(ideals, point)
    axis = next((i for i, x in enumerate(evaluation.point) if x == 0), 0)
    delta = _INITIAL_OFFSET
    last_error: OffsetTooLarge | None = None
    for _ in range(_MAX_HALVINGS):
        offset = [delta if i == axis else Fraction(0) for i in range(ideals.r)]
        try:
            return perturbation_sum(ideals, evaluation, ray_dir, offset)
        except OffsetTooLarge as error:
            last_error = error
            delta /= 2
    raise OffsetTooLarge(
        f"no admissible offset found after {_MAX_HALVINGS} halvings: {last_error}"
    )
