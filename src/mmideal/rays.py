"""Walking rays through the wall arrangement and closed-form Poincare series.

A ray is a base plus a direction, L(mu) = base + mu * direction, with a
nonnegative-integer direction, not all zero; its slopes q_j = direction . F_j
are read off the tuple it is walked on.  Because every ideal in a tuple has
full support (the tuple refuses any other), each q_j is a positive integer,
so each gap value v_j is strictly increasing and integer-periodic along the
ray: v_j(mu + 1) = v_j(mu) + q_j.  No direction is parallel to a wall line,
and no component lacks candidates.

Consequently the jumping parameters of the ray split into residue classes
modulo 1.  Within a class, once a jumping point is *non-degenerate* — no gap
value is a non-positive integer there — the support H is the same at every
later class member and the multiplicities grow exactly linearly with step
rho = sum over H of the direction-weighted excesses.  Each class therefore
contributes a rational closed form

    m0 * t^a / (1 - t^u)  +  rho * t^(a+u) / (1 - t^u)^2

anchored at its first non-degenerate jumping point a (u = direction), plus
one explicit monomial per degenerate jumping point seen before the anchor.
The closed form is checked by expanding it back over the walk that built it.

The walk runs on the base's scaled integers (see ``evaluate``): with N the
lcm of the denominators of K and of the base, v_j(mu) = n exactly when
mu = (N*n - N*v_j) / (N*q_j).  Every candidate parameter is therefore an
integer key mu*L over L = lcm_j(N*q_j); the per-component streams of keys
are merged, cut at the key floor(until*L) and deduplicated as integers, and
one `Fraction` is built per distinct candidate: no `Fraction` is compared
per candidate.  Each candidate point is built in integers, over the
base's denominator times the parameter's, evaluated through the integer
entry of ``evaluate_point`` and given a checked jump record.  The stability
bound and the degeneracy test read the scaled gap values too.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .dualgraph import IdealTuple
from .errors import HorizonTooSmall, InternalConsistencyError, ValidationError
from .evaluate import (
    Point,
    _dot_F,
    _evaluate_at,
    _integer_direction,
    _weight_point,
    evaluate_point,
    maximal_jumping_divisor,
)
from .multiplicity import JumpRecord, jump_record
from .rationals import (
    _integer_vector,
    _rational,
    _rational_vector,
    format_rational,
    over_common_denominator,
)


@dataclass(frozen=True)
class Ray:
    base: Point
    direction: tuple[int, ...]


def make_ray(ideals: IdealTuple, base: Sequence, direction: Sequence[int]) -> Ray:
    origin = _weight_point(ideals, base)
    return Ray(origin, _integer_direction(ideals, direction, "ray direction"))


def _fields(ray: Ray) -> tuple[Point, tuple[int, ...]]:
    """A caller's ray read through the contract: `Ray` is public, so a
    hand-built one has skipped `make_ray`.  The walks read it again through
    `make_ray`, which adds the tuple's rules."""
    if not isinstance(ray, Ray):
        raise ValidationError(f"expected a Ray, got {ray!r}")
    base = _rational_vector(ray.base, None, "ray base")
    return base, _integer_vector(ray.direction, len(base), "ray direction")


def ray_point(ray: Ray, parameter: Fraction) -> Point:
    base, direction = _fields(ray)
    parameter = _rational(parameter, "ray parameter")
    return tuple(b + parameter * u for b, u in zip(base, direction))


@dataclass(frozen=True)
class RayJump:
    parameter: Fraction
    record: JumpRecord

    @property
    def point(self) -> Point:
        return self.record.point

    @property
    def mult(self) -> int:
        return self.record.mult


def _candidate_parameters(
    ideals: IdealTuple, ray: Ray, after: Fraction, until: Fraction | None = None
) -> Iterator[Fraction]:
    """Strictly increasing parameters mu > after where some v_j is a positive
    integer on the ray, each distinct parameter yielded once; up to `until`
    inclusive unless that is None.  The streams carry the integer keys mu*L,
    L = lcm_j(N*q_j) (see the module text), and stop after the key
    floor(until*L)."""
    base = evaluate_point(ideals, ray.base)
    scale = base.scale
    slopes = _dot_F(ideals, ray.direction)
    common = math.lcm(*(scale * q for q in slopes))
    numerator, denominator = after.numerator, after.denominator

    def stream(j: int) -> Iterator[int]:
        q, v = slopes[j], base.scaled_values[j]
        step = common // (scale * q)
        # the first level n above v_j(after) = after*q + v/N
        first = max(
            1, (numerator * q * scale + v * denominator) // (denominator * scale) + 1
        )
        for n in itertools.count(first):
            yield (n * scale - v) * step

    merged = heapq.merge(*(stream(j) for j in range(ideals.size)))
    if until is not None:
        stop = until.numerator * common // until.denominator  # floor(until*L)
        merged = itertools.takewhile(stop.__ge__, merged)
    previous = None
    for key in merged:
        if key != previous:
            previous = key
            yield Fraction(key, common)


def _jumps(
    ideals: IdealTuple, ray: Ray, candidates: Iterable[Fraction]
) -> Iterator[RayJump]:
    """The jumping points among the candidate parameters, in their order;
    base + (n/d)*u is (M*b*d + n*M*u) / (M*d), M*b the base's integers."""
    scale, scaled_base = over_common_denominator(ray.base)
    steps = [scale * u for u in ray.direction]
    for mu in candidates:
        n, d = mu.numerator, mu.denominator
        point = [b * d + n * step for b, step in zip(scaled_base, steps)]
        record = jump_record(ideals, _evaluate_at(ideals, point, scale * d))
        if record.mult > 0:
            yield RayJump(parameter=mu, record=record)


def ray_next(ideals: IdealTuple, ray: Ray, after: Fraction) -> RayJump | None:
    """First jumping point on the ray with parameter strictly beyond
    `after`, which must be nonnegative: the walk never leaves the orthant."""
    ray = make_ray(ideals, *_fields(ray))
    after = _rational(after, "after")
    if after < 0:
        raise ValidationError(f"after must be nonnegative, got {after}")
    candidates = _candidate_parameters(ideals, ray, after)
    return next(_jumps(ideals, ray, candidates), None)


def ray_walk(ideals: IdealTuple, ray: Ray, until: Fraction) -> list[RayJump]:
    """All jumping points with parameter in (0, until], in order.

    The mixed multiplier ideals strictly decrease along the walk: each
    jump's divisor dominates the previous jump's divisor through the left
    limit.  Violations are internal errors, never data.
    """
    ray = make_ray(ideals, *_fields(ray))
    candidates = _candidate_parameters(
        ideals, ray, Fraction(0), _rational(until, "until")
    )
    jumps = list(_jumps(ideals, ray, candidates))
    for previous, jump in zip(jumps, jumps[1:]):
        record, divisor = jump.record, previous.record.divisor
        chained = all(a <= b for a, b in zip(divisor, record.divisor_left))
        if not chained or divisor == record.divisor:
            raise InternalConsistencyError(
                f"divisor chain broken between parameters "
                f"{previous.parameter} and {jump.parameter}"
            )
    return jumps


def rho(ideals: IdealTuple, point: Sequence, direction: Sequence[int]) -> int:
    """Direction-weighted excess over the support H at the point."""
    direction = _integer_direction(ideals, direction, "ray direction")
    return _rho(ideals, maximal_jumping_divisor(ideals, point), direction)


def _rho(ideals: IdealTuple, support: Sequence[bool], direction: Sequence[int]) -> int:
    return sum(
        direction[i] * ideals.excesses[i][j]
        for j, inside in enumerate(support)
        if inside
        for i in range(ideals.r)
    )


def is_degenerate(ideals: IdealTuple, point: Sequence) -> bool:
    """True when some gap value is an integer <= 0 — the support can still
    grow further along any ray through the point, so recurrences do not
    apply yet."""
    evaluation = evaluate_point(ideals, point)
    scale = evaluation.scale
    return any(v <= 0 and v % scale == 0 for v in evaluation.scaled_values)


def stability_bound(ideals: IdealTuple, ray: Ray) -> Fraction:
    """Smallest T >= 0 such that every point of the ray past T is
    non-degenerate: beyond T every integral gap value is positive.  It is
    max(0, max_j -v_j / q_j), compared in integers over the base's N."""
    ray = make_ray(ideals, *_fields(ray))
    base = evaluate_point(ideals, ray.base)
    numerator, denominator = 0, 1
    for v, q in zip(base.scaled_values, _dot_F(ideals, ray.direction)):
        if -v * denominator > numerator * q:
            numerator, denominator = -v, q
    return Fraction(numerator, denominator * base.scale)


# ---------------------------------------------------------------------------
# Closed-form Poincare series along a ray.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnchorTerm:
    """One residue class: m0 * t^point / (1 - t^u) +
    step * t^(point + u) / (1 - t^u)^2 with u = the ray direction."""

    parameter: Fraction
    point: Point
    initial: int
    step: int


@dataclass(frozen=True)
class SeriesClosedForm:
    base: Point
    direction: tuple[int, ...]
    horizon: Fraction
    anchors: tuple[AnchorTerm, ...]
    monomials: tuple[tuple[Fraction, Point, int], ...]  # (parameter, point, m)
    exponent_denominator: int

    def render(self) -> str:
        """Canonical text form; exponents are written over the common
        denominator via z_i = t_i^(1/e) when e > 1."""
        e = self.exponent_denominator
        width = len(self.base)

        def power(point: Sequence[Fraction]) -> str:
            letter = "z" if e > 1 else "t"
            scaled = [Fraction(x) * e for x in point]
            if any(s.denominator != 1 for s in scaled):
                raise InternalConsistencyError(
                    f"exponent {tuple(point)} not integral over denominator {e}"
                )
            if width == 1:
                exponent = scaled[0].numerator
                return letter if exponent == 1 else f"{letter}^{exponent}"
            body = ",".join(str(s.numerator) for s in scaled)
            return f"{letter}^({body})"

        def coefficient(value: int, tail: str) -> str:
            return tail if value == 1 else f"{value}*{tail}"

        parts: list[str] = []
        for _, point, mult in self.monomials:
            parts.append(coefficient(mult, power(point)))
        unit = power(self.direction)
        for term in self.anchors:
            denominator = f"(1 - {unit})"
            # m0*t^a/(1-t^u) + s*t^(a+u)/(1-t^u)^2
            #   = (m0*t^a + (s-m0)*t^(a+u)) / (1-t^u)^2
            shifted = tuple(
                Fraction(a) + u for a, u in zip(term.point, self.direction)
            )
            if term.step == term.initial:
                parts.append(
                    f"{coefficient(term.initial, power(term.point))}"
                    f"/{denominator}^2"
                )
            elif term.step == 0:
                parts.append(
                    f"{coefficient(term.initial, power(term.point))}/{denominator}"
                )
            else:
                head = coefficient(term.initial, power(term.point))
                extra = term.step - term.initial
                sign = "+" if extra > 0 else "-"
                tail = coefficient(abs(extra), power(shifted))
                parts.append(f"({head} {sign} {tail})/{denominator}^2")
        return " + ".join(parts) if parts else "0"


def _residue(parameter: Fraction) -> Fraction:
    return parameter - math.floor(parameter)


def poincare(
    ideals: IdealTuple, ray: Ray, horizon: Fraction
) -> SeriesClosedForm:
    """Closed form of the multiplicity generating series along the ray.

    The walk runs over (0, horizon + 1]; the closed form is expanded back
    over that interval and must list exactly the walk's jumps, so the
    extra unit interval both verifies the recurrences and proves
    completeness.  The horizon must reach one unit past the stability bound
    of the ray, and every residue class must anchor at or before it;
    otherwise HorizonTooSmall names the smallest horizon that can work.
    """
    ray = make_ray(ideals, *_fields(ray))
    limit = _rational(horizon, "horizon")
    bound = stability_bound(ideals, ray)
    if limit < bound + 1:
        raise HorizonTooSmall(
            f"horizon {format_rational(limit)} is below the stability bound "
            f"plus one ({format_rational(bound + 1)}); every class is "
            f"anchored by {format_rational(bound + 2)}"
        )

    # residue -> (anchor term, support H at the anchor)
    anchors: dict[Fraction, tuple[AnchorTerm, tuple[bool, ...]]] = {}
    monomials: list[tuple[Fraction, Point, int]] = []
    jumps = ray_walk(ideals, ray, limit + 1)
    for jump in jumps:
        residue = _residue(jump.parameter)
        if residue in anchors:
            anchor, support = anchors[residue]
            if jump.record.maximal != support:
                raise InternalConsistencyError(
                    f"support changed along the class anchored at "
                    f"{anchor.parameter}"
                )
            continue
        if is_degenerate(ideals, jump.point):
            if jump.parameter > bound:
                raise InternalConsistencyError(
                    f"degenerate point past the stability bound at "
                    f"parameter {jump.parameter}"
                )
            monomials.append((jump.parameter, jump.point, jump.mult))
            continue
        if jump.parameter > limit:
            raise HorizonTooSmall(
                f"a residue class anchors only at parameter "
                f"{format_rational(jump.parameter)} past the horizon; "
                f"rerun with horizon >= {format_rational(bound + 2)}"
            )
        step = _rho(ideals, jump.record.maximal, ray.direction)
        term = AnchorTerm(jump.parameter, jump.point, jump.mult, step)
        anchors[residue] = (term, jump.record.maximal)

    terms = sorted((term for term, _ in anchors.values()), key=lambda t: t.parameter)
    points = [term.point for term in terms] + [point for _, point, _ in monomials]
    form = SeriesClosedForm(
        base=ray.base,
        direction=ray.direction,
        horizon=limit,
        anchors=tuple(terms),
        monomials=tuple(sorted(monomials)),
        exponent_denominator=math.lcm(*(x.denominator for pt in points for x in pt)),
    )
    walked = [(jump.parameter, jump.point, jump.mult) for jump in jumps]
    for predicted, found in itertools.zip_longest(
        series_expand(form, limit + 1), walked
    ):
        if predicted != found:
            raise InternalConsistencyError(
                f"closed form predicts {_entry(predicted)} where the walk "
                f"finds {_entry(found)}"
            )
    return form


def _entry(entry: tuple[Fraction, Point, int] | None) -> str:
    if entry is None:
        return "no further jump"
    return f"multiplicity {entry[2]} at parameter {format_rational(entry[0])}"


def series_expand(
    form: SeriesClosedForm, until: Fraction
) -> list[tuple[Fraction, Point, int]]:
    """Expand the closed form back into (parameter, point, multiplicity)
    triples with parameter in (0, until], sorted by parameter."""
    limit = _rational(until, "until")
    out: list[tuple[Fraction, Point, int]] = []
    for parameter, point, mult in form.monomials:
        if 0 < parameter <= limit:
            out.append((parameter, point, mult))
    for term in form.anchors:
        steps = math.floor(limit - term.parameter)
        for k in range(steps + 1):
            mult = term.initial + k * term.step
            if mult <= 0:
                raise InternalConsistencyError(
                    f"closed form predicts nonpositive multiplicity {mult} "
                    f"at anchor offset {k}"
                )
            point = tuple(
                a + k * u for a, u in zip(term.point, form.direction)
            )
            out.append((term.parameter + k, point, mult))
    out.sort(key=lambda entry: entry[0])
    for left, right in zip(out, out[1:]):
        if left[0] == right[0]:
            raise InternalConsistencyError(
                f"closed form lists parameter {left[0]} twice"
            )
    return out
