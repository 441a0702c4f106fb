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

Everything runs on the base's scaled integers (see ``evaluate``): with N the
lcm of the denominators of K and of the base, v_j(mu) = n exactly when
mu = (N*n - N*v_j) / (N*q_j), so every candidate parameter is an integer
key mu*L over L = lcm_j(N*q_j), and component j's keys step by L/q_j.  One
heap holds each component's next key with that increment; the least is read
and advanced in place up to the key floor(until*L), and a key two components
share gives one `Fraction` candidate, whose point is built in integers and
evaluated through the integer entry of ``evaluate_point``.  The series reads
each jump back as its key kappa: its class is kappa mod L, its degeneracy
and the stability bound are read off the base's scaled gap values, and the
closed form is checked by expanding it back, anchor a to the keys
kappa_a + k*L, over the walk that built it, with no `Fraction` arithmetic
per jump.

Walks are served per graph, by prefix, under the contract of
``unloading.BoundedCache``: the graph's ``walk_cache`` holds the longest
checked walk of each (tuple, ray), keyed by the ideal vectors and the ray
as `make_ray` reads it, with the `until` it ran to, weighed in jumps, and
serves it to `ray_walk` only for an `until` up to that one.  `ray_walk`
returns the jumps with parameter <= until, as a new list, since a walk to a
shorter `until` is a prefix of a longer one.  A longer walk is computed and
checked in full by `_checked_walk` and replaces the held one.
`poincare` walks one unit past its horizon through ``ray_walk``, so its
walk is served and stored like any other, and every closed-form check
still runs on it.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .dualgraph import IdealTuple
from .errors import HorizonTooSmall, InternalConsistencyError, ValidationError
from .evaluate import (
    Point, PointEvaluation, _dot_F, _evaluate_at, _integer_direction,
    _weight_point, evaluate_point, maximal_jumping_divisor,
)
from .multiplicity import JumpRecord, jump_record
from .rationals import (
    _integer_vector, _rational, _rational_vector, over_common_denominator,
)


class Ray(NamedTuple):
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


class RayJump(NamedTuple):
    parameter: Fraction
    record: JumpRecord

    @property
    def point(self) -> Point:
        return self.record.point

    @property
    def mult(self) -> int:
        return self.record.mult


def _grid(ideals: IdealTuple, ray: Ray) -> tuple[PointEvaluation, tuple, int, int]:
    """The base's evaluation, the slopes q_j, L = lcm_j(N*q_j) and the
    stability bound max(0, max_j -v_j/q_j) as its key over L, where each
    -v_j/q_j * L is the integer -N*v_j * L/(N*q_j)."""
    base = evaluate_point(ideals, ray.base)
    slopes, scale = _dot_F(ideals, ray.direction), base.scale
    common = math.lcm(*[scale * q for q in slopes])
    gaps = zip(base.scaled_values, slopes)
    return base, slopes, common, max(0, *[-v * (common // (scale * q)) for v, q in gaps])


def _key(parameter: Fraction, common: int) -> int:
    """mu*L; a parameter off the grid of keys over L is not the walk's."""
    if common % parameter.denominator:
        raise InternalConsistencyError(f"parameter {parameter} is off the grid {common}")
    return parameter.numerator * (common // parameter.denominator)


def _candidate_parameters(
    ideals: IdealTuple, ray: Ray, until: Fraction, grid: tuple
) -> Iterator[Fraction]:
    """Strictly increasing parameters mu in (0, until] where some v_j is a
    positive integer on the ray, each distinct parameter yielded once.  A
    heap of integer keys, as in the module text, advanced in place by
    `heapq.heapreplace`; `grid` is the ray's `_grid`."""
    base, slopes, common, _ = grid
    scale = base.scale
    heap = []
    for q, v in zip(slopes, base.scaled_values):
        # the first level n above v_j(0) = v/N, at the key
        # (n*N - N*v_j) * L/(N*q_j); each further level adds L/q_j
        first = max(1, v // scale + 1)
        step = common // (scale * q)
        heap.append(((first * scale - v) * step, scale * step))
    heapq.heapify(heap)
    # floor(until*L)
    stop = until.numerator * common // until.denominator
    previous = None
    while True:
        key, increment = heap[0]
        if key > stop:
            return
        heapq.heapreplace(heap, (key + increment, increment))
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
            yield RayJump(mu, record)


_parameter = operator.attrgetter("parameter")


def ray_walk(ideals: IdealTuple, ray: Ray, until: Fraction) -> list[RayJump]:
    """All jumping points with parameter in (0, until], in order.

    The mixed multiplier ideals strictly decrease along the walk, and the
    divisor stays put from one jump up to the next: the first jump's left
    limit is the divisor at the base, and each later one's the previous
    jump's divisor, so a walk that skips a jump, the first included, breaks
    the chain.  The base's divisor is all the chain reads of the base, never
    its H.  Violations are internal errors, never data.

    The ray and `until` are read through the contract first; then the
    graph's ``walk_cache`` serves a walk no longer than the one it holds for
    the tuple and the ray, by prefix, as in the module text, and any other
    is walked and checked by `_checked_walk` and stored in its place.
    """
    ray = make_ray(ideals, *_fields(ray))
    until = _rational(until, "until")
    _, jumps = ideals.graph.walk_cache.serve(
        (ideals.ideals, ray.base, ray.direction), _checked_walk, ideals, (ray, until),
        lambda held: until <= held[0],
    )
    return list(jumps[:bisect.bisect_right(jumps, until, key=_parameter)])


def _checked_walk(ideals: IdealTuple, request: tuple[Ray, Fraction]) -> tuple:
    """(until, jumps) for a (ray, until) request, walked and its divisor
    chain checked."""
    ray, until = request
    grid = _grid(ideals, ray)
    candidates = _candidate_parameters(ideals, ray, until, grid)
    jumps = tuple(_jumps(ideals, ray, candidates))
    parameter, divisor = Fraction(0), grid[0].divisor
    for jump in jumps:
        record = jump.record
        if record.divisor_left != divisor or record.divisor == divisor:
            raise InternalConsistencyError(
                f"divisor chain broken between parameters "
                f"{parameter} and {jump.parameter}"
            )
        parameter, divisor = jump.parameter, record.divisor
    return until, jumps


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
    max(0, max_j -v_j / q_j), taken in integers as a key over L."""
    _, _, common, bound = _grid(ideals, make_ray(ideals, *_fields(ray)))
    return Fraction(bound, common)


# ---------------------------------------------------------------------------
# Closed-form Poincare series along a ray.
# ---------------------------------------------------------------------------


class AnchorTerm(NamedTuple):
    """One residue class: m0 * t^point / (1 - t^u) +
    step * t^(point + u) / (1 - t^u)^2 with u = the ray direction."""

    parameter: Fraction
    point: Point
    initial: int
    step: int


class SeriesClosedForm(NamedTuple):
    base: Point
    direction: tuple[int, ...]
    horizon: Fraction
    anchors: tuple[AnchorTerm, ...]
    monomials: tuple[tuple[Fraction, Point, int], ...]  # (parameter, point, m)
    exponent_denominator: int

    def render(self) -> str:
        """Canonical text form; exponents are written over the common
        denominator e via z_i = t_i^(1/e) when e > 1.  A coordinate p/q
        gives the exponent p*(e // q), refused unless q divides e."""
        e = self.exponent_denominator
        letter = "z" if e > 1 else "t"

        def exponents(point: Sequence[Fraction]) -> list[int]:
            if any(e % x.denominator for x in point):
                raise InternalConsistencyError(
                    f"exponent {tuple(point)} not integral over denominator {e}"
                )
            return [x.numerator * (e // x.denominator) for x in point]

        def power(scaled: Sequence[int]) -> str:
            if len(self.base) == 1:
                return letter if scaled[0] == 1 else f"{letter}^{scaled[0]}"
            return f"{letter}^({','.join(map(str, scaled))})"

        def coefficient(value: int, tail: str) -> str:
            return tail if value == 1 else f"{value}*{tail}"

        parts = [coefficient(m, power(exponents(pt))) for _, pt, m in self.monomials]
        denominator = f"(1 - {power(exponents(self.direction))})"
        for term in self.anchors:
            # m0*t^a/(1-t^u) + s*t^(a+u)/(1-t^u)^2
            #   = (m0*t^a + (s-m0)*t^(a+u)) / (1-t^u)^2
            scaled = exponents(term.point)
            head = coefficient(term.initial, power(scaled))
            if term.step == term.initial:
                parts.append(f"{head}/{denominator}^2")
            elif term.step == 0:
                parts.append(f"{head}/{denominator}")
            else:
                extra = term.step - term.initial
                shifted = [a + u * e for a, u in zip(scaled, self.direction)]
                tail = coefficient(abs(extra), power(shifted))
                sign = "+" if extra > 0 else "-"
                parts.append(f"({head} {sign} {tail})/{denominator}^2")
        return " + ".join(parts) if parts else "0"


def poincare(
    ideals: IdealTuple, ray: Ray, horizon: Fraction
) -> SeriesClosedForm:
    """Closed form of the multiplicity generating series along the ray.

    The walk runs over (0, horizon + 1]; the closed form is expanded back
    over that interval and must list exactly the walk's jumps, so the
    extra unit interval both verifies the recurrences and proves every
    class complete (the walk's divisor chain covers degenerate monomials).
    The horizon must reach one unit past the stability bound of the ray,
    and every residue class must anchor at or before it; otherwise
    HorizonTooSmall names the smallest horizon that can work.  A class
    anchored past the horizon is refused only after the walk has passed
    every check, so a walk fault is always an InternalConsistencyError.
    """
    ray = make_ray(ideals, *_fields(ray))
    limit = _rational(horizon, "horizon")
    base, slopes, common, bound = _grid(ideals, ray)
    last = limit.numerator * common // limit.denominator  # floor(horizon*L)
    if last < bound + common:
        raise HorizonTooSmall(
            f"horizon {limit} is below the stability bound plus one "
            f"({Fraction(bound + common, common)}); every class is anchored "
            f"by {Fraction(bound + 2 * common, common)}"
        )
    degenerate = _degeneracy(base, slopes, common)
    # residue kappa mod L -> (anchor term, support H at the anchor)
    anchors: dict[int, tuple[AnchorTerm, tuple[bool, ...]]] = {}
    monomials: list[tuple[Fraction, Point, int]] = []
    walked: list[tuple[int, int]] = []
    late = None  # the first anchor past the horizon
    for jump in ray_walk(ideals, ray, limit + 1):
        key, record = _key(jump.parameter, common), jump.record
        walked.append((key, record.mult))
        if key % common in anchors:
            anchor, support = anchors[key % common]
            if record.maximal != support:
                raise InternalConsistencyError(
                    f"support changed along the class anchored at {anchor.parameter}"
                )
        elif degenerate(key):
            if key > bound:
                raise InternalConsistencyError(
                    f"degenerate point past the stability bound at "
                    f"parameter {jump.parameter}"
                )
            monomials.append((jump.parameter, record.point, record.mult))
        else:
            if key > last and late is None:
                late = jump.parameter
            step = _rho(ideals, record.maximal, ray.direction)
            term = AnchorTerm(jump.parameter, record.point, record.mult, step)
            anchors[key % common] = (term, record.maximal)

    # the walk is in increasing order, and the check holds the expansion
    # to it, so anchors and monomials come out sorted
    terms = tuple([term for term, _ in anchors.values()])
    points = [term.point for term in terms] + [point for _, point, _ in monomials]
    denominator = math.lcm(*(x.denominator for pt in points for x in pt))
    form = SeriesClosedForm(
        ray.base, ray.direction, limit, terms, tuple(monomials), denominator
    )
    placed = [term[:2] for term in form.anchors + form.monomials]
    keys = [_key(parameter, common) for parameter, _ in placed]
    predicted = [entry[:2] for entry in _expansion(form, keys, common, last + common)]
    for pair in itertools.zip_longest(predicted, walked):
        if pair[0] != pair[1]:
            said = [
                f"multiplicity {e[1]} at parameter {Fraction(e[0], common)}"
                if e else "no further jump" for e in pair
            ]
            raise InternalConsistencyError(
                f"closed form predicts {said[0]} where the walk finds {said[1]}"
            )
    # each point is base + mu*u: B*L*x_i = L*B*b_i + kappa*B*u_i over B*L
    scale, numerators = over_common_denominator(ray.base)
    frame = [(common * b, scale * u) for b, u in zip(numerators, ray.direction)]
    for key, (parameter, point) in zip(keys, placed):
        if any([
            x.numerator * scale * common != (b + key * u) * x.denominator
            for x, (b, u) in zip(point, frame)
        ]):
            raise InternalConsistencyError(f"closed form puts {parameter} off the ray")
    if late is not None:
        raise HorizonTooSmall(
            f"a residue class anchors only at parameter {late} past the horizon; "
            f"rerun with horizon >= {Fraction(bound + 2 * common, common)}"
        )
    return form


def _degeneracy(
    base: PointEvaluation, slopes: Sequence[int], common: int
) -> Callable[[int], bool]:
    """Whether the point at the key kappa = mu*L is degenerate: some
    N*L*v_j(mu) = L*(N*v_j) + kappa*(N*q_j) is <= 0 and divisible by N*L."""
    whole, scale = base.scale * common, base.scale
    gaps = [(common * v, scale * q) for v, q in zip(base.scaled_values, slopes)]
    return lambda key: any([
        g <= 0 and g % whole == 0 for g in [v + key * q for v, q in gaps]
    ])


def _expansion(
    form: SeriesClosedForm, keys: Sequence[int], common: int, stop: int
) -> list[tuple[int, int, int, int | None]]:
    """(key, multiplicity, index, offset) of the form's terms up to the key
    `stop`, sorted, from the anchors' and then the monomials' keys over L:
    anchor a gives kappa_a + k*L with m0 + k*step at each offset k >= 0, a
    monomial its positive key.  Nonpositive multiplicities and repeated
    keys are refused."""
    singles = enumerate(zip(keys[len(form.anchors):], form.monomials))
    out = [(kappa, term[2], i, None) for i, (kappa, term) in singles if 0 < kappa <= stop]
    for index, (term, kappa) in enumerate(zip(form.anchors, keys)):
        for k in range((stop - kappa) // common + 1):
            if (mult := term.initial + k * term.step) <= 0:
                raise InternalConsistencyError(
                    f"closed form predicts nonpositive multiplicity {mult} "
                    f"at anchor offset {k}"
                )
            out.append((kappa + k * common, mult, index, k))
    out.sort(key=operator.itemgetter(0))
    for left, right in zip(out, out[1:]):
        if left[0] == right[0]:
            raise InternalConsistencyError(
                f"closed form lists parameter {Fraction(left[0], common)} twice"
            )
    return out


def series_expand(
    form: SeriesClosedForm, until: Fraction
) -> list[tuple[Fraction, Point, int]]:
    """Expand the closed form back into (parameter, point, multiplicity)
    triples with parameter in (0, until], sorted by parameter, as keys over
    the lcm of the parameter denominators.  Anchor p/q with point n/M over
    its common denominator M gives ((p + k*q)/q, (n + k*M*u)/M) at offset k."""
    limit = _rational(until, "until")
    parameters = [term[0] for term in form.anchors + form.monomials]
    common = math.lcm(*[parameter.denominator for parameter in parameters])
    keys = [_key(parameter, common) for parameter in parameters]
    stop = limit.numerator * common // limit.denominator  # floor(until*L)
    frames = [over_common_denominator(term.point) for term in form.anchors]
    direction = form.direction
    out: list[tuple[Fraction, Point, int]] = []
    for _, mult, index, k in _expansion(form, keys, common, stop):
        if k is None:
            out.append(form.monomials[index])
            continue
        p, q = parameters[index].numerator, parameters[index].denominator
        scale, numerators = frames[index]
        point = [Fraction(n + k * scale * u, scale) for n, u in zip(numerators, direction)]
        out.append((Fraction(p + k * q, q), tuple(point), mult))
    return out
