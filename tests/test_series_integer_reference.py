"""The Poincare series in integer keys, checked against `Fraction` references.

`poincare` reads its walk as integer keys mu*L, and `series_expand` and
`SeriesClosedForm.render` build their `Fraction`s from integer numerators.
These tests hold all three to test-local `Fraction` computations: the walk
itself, a re-expansion by `Fraction` addition, a rendering that scales each
exponent by `Fraction` multiplication, and the public `is_degenerate`.
They also feed `poincare` broken walks through the `rays.ray_walk`
attribute, and read the unloading memos on a warm cache.
"""

import math
import random
import re
from fractions import Fraction

import pytest

from conftest import FIXTURE_NAMES
from mmideal import (
    antinef_closure_checked,
    colength,
    is_degenerate,
    make_ray,
    poincare,
    ray_walk,
    series_expand,
    stability_bound,
)
from mmideal import rays
from mmideal.errors import (
    HorizonTooSmall,
    InternalConsistencyError,
    LengthMismatch,
    ValidationError,
)


# Rays whose walks hold degenerate jumps, found by a seeded search: such
# jumps are rare, and none of the draws below has one.  The first ray of
# each fixture has one after its first jump.
DEGENERATE = {
    "CHAIN10": [((0, Fraction(1, 3)), (2, 3)), ((0, 0), (3, 2))],
    "NEST14": [((0, 0, 0), (1, 3, 3))],
}


def _rays(tuples, name):
    """Seeded rays, each base with at least one zero coordinate (PROP16's
    walks are long, so it gets one, with direction entries 1), the
    degenerate rays above, and RAT6's (1,1) and (1,2) rays from the origin."""
    ideals = tuples[name]
    rng = random.Random(f"series keys:{name}")
    count, top = (1, 1) if name == "PROP16" else (3, 3)
    drawn = []
    for _ in range(count):
        base = [Fraction(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(ideals.r)]
        base[rng.randrange(ideals.r)] = Fraction(0)
        direction = [rng.randint(1, top) for _ in range(ideals.r)]
        drawn.append(make_ray(ideals, base, direction))
    if name == "RAT6":
        drawn += [make_ray(ideals, (0, 0), (1, 1)), make_ray(ideals, (0, 0), (1, 2))]
    drawn += [make_ray(ideals, *ray) for ray in DEGENERATE.get(name, ())]
    return drawn


def _reference_expand(form, until):
    """`series_expand` as `Fraction` addition: monomials in (0, until], each
    anchor a at a + k for k = 0..floor(until - a), sorted by parameter."""
    out = [(p, pt, m) for p, pt, m in form.monomials if 0 < p <= until]
    for term in form.anchors:
        for k in range(math.floor(until - term.parameter) + 1):
            point = tuple(a + k * u for a, u in zip(term.point, form.direction))
            out.append((term.parameter + k, point, term.initial + k * term.step))
    return sorted(out, key=lambda entry: entry[0])


def _reference_denominator(form):
    points = [term.point for term in form.anchors] + [pt for _, pt, _ in form.monomials]
    return math.lcm(*(Fraction(x).denominator for point in points for x in point))


def _reference_render(form):
    """The canonical text with every exponent scaled as a `Fraction`."""
    e = _reference_denominator(form)
    letter = "z" if e > 1 else "t"

    def power(point):
        scaled = [Fraction(x) * e for x in point]
        assert all(s.denominator == 1 for s in scaled)
        if len(form.base) == 1:
            return letter if scaled[0] == 1 else f"{letter}^{scaled[0]}"
        return f"{letter}^({','.join(str(s) for s in scaled)})"

    def coefficient(value, tail):
        return tail if value == 1 else f"{value}*{tail}"

    parts = [coefficient(m, power(pt)) for _, pt, m in form.monomials]
    unit = f"(1 - {power(form.direction)})"
    for term in form.anchors:
        head = coefficient(term.initial, power(term.point))
        if term.step == term.initial:
            parts.append(f"{head}/{unit}^2")
        elif term.step == 0:
            parts.append(f"{head}/{unit}")
        else:
            shifted = tuple(Fraction(a) + u for a, u in zip(term.point, form.direction))
            extra = term.step - term.initial
            tail = coefficient(abs(extra), power(shifted))
            parts.append(f"({head} {'+' if extra > 0 else '-'} {tail})/{unit}^2")
    return " + ".join(parts) if parts else "0"


def _triples(jumps):
    return [(jump.parameter, jump.point, jump.mult) for jump in jumps]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_series_matches_the_fraction_reference(tuples, name):
    ideals = tuples[name]
    for ray in _rays(tuples, name):
        horizon = stability_bound(ideals, ray) + 2
        form = poincare(ideals, ray, horizon)
        walk = ray_walk(ideals, ray, horizon + 1)
        # the re-expansion is the walk, triple by triple
        assert series_expand(form, horizon + 1) == _triples(walk)
        assert form.exponent_denominator == _reference_denominator(form)
        assert form.render() == _reference_render(form)
        # and the `Fraction` re-expansion at other ends, one past the walk too
        ends = [term.parameter for term in form.anchors[:2]]
        ends += [parameter for parameter, _, _ in form.monomials[:2]]
        for until in (horizon + 2, horizon / 3, Fraction(0), Fraction(-1, 2), *ends):
            assert series_expand(form, until) == _reference_expand(form, until)
        # the integer degeneracy test poincare reads, at every walked jump
        base, slopes, common, _ = rays._grid(ideals, ray)
        degenerate = rays._degeneracy(base, slopes, common)
        flags = []
        for jump in walk:
            key = jump.parameter * common
            assert key.denominator == 1
            flags.append(degenerate(key.numerator))
            assert flags[-1] == is_degenerate(ideals, jump.point)
        if (ray.base, ray.direction) in DEGENERATE.get(name, ()):
            assert form.monomials and any(flags)


def test_refusals_of_hand_built_forms(rat6):
    ray = make_ray(rat6, (0, 0), (1, 1))
    horizon = stability_bound(rat6, ray) + 2
    form = poincare(rat6, ray, horizon)
    assert form.exponent_denominator > 1
    with pytest.raises(InternalConsistencyError, match="not integral over denominator 1"):
        form._replace(exponent_denominator=1).render()
    first, *rest = form.anchors
    # m0 + k*step reaches 0 one period after the anchor
    fading = form._replace(anchors=(first._replace(step=-first.initial), *rest))
    with pytest.raises(InternalConsistencyError, match="nonpositive multiplicity 0"):
        series_expand(fading, horizon)
    twice = form._replace(monomials=((first.parameter, first.point, 1),))
    with pytest.raises(InternalConsistencyError, match=f"parameter {first.parameter} twice"):
        series_expand(twice, horizon)


def test_horizon_refusals(rat6, monkeypatch):
    ray = make_ray(rat6, (0, 0), (1, 1))
    bound = stability_bound(rat6, ray)
    message = f"plus one ({bound + 1}); every class is anchored by {bound + 2}"
    with pytest.raises(HorizonTooSmall, match=re.escape(message)):
        poincare(rat6, ray, bound + 1 - Fraction(1, 10**6))
    # a class whose members up to the horizon are missing anchors past it
    first = ray_walk(rat6, ray, 1)[0].parameter

    def late(walk):
        return [
            jump for jump in walk
            if (jump.parameter - first).denominator != 1 or jump.parameter > bound + 2
        ]

    message = _refused(monkeypatch, rat6, ray, late, HorizonTooSmall)
    assert message.startswith("a residue class anchors only at parameter")
    assert message.endswith(f"horizon >= {bound + 2}")


def _refused(monkeypatch, ideals, ray, mutate, refusal=InternalConsistencyError):
    """poincare on the ray, its walk changed by `mutate` through the module
    attribute; returns the message of the refusal, which must be of the
    class `refusal`: a broken walk is an internal fault, not a user error."""
    horizon = stability_bound(ideals, ray) + 2
    walk = ray_walk(ideals, ray, horizon + 1)
    monkeypatch.setattr(rays, "ray_walk", lambda *args: mutate(list(walk)))
    with pytest.raises(refusal) as raised:
        poincare(ideals, ray, horizon)
    monkeypatch.undo()
    return str(raised.value)


def _raised(jump):
    return rays.RayJump(jump.parameter, jump.record._replace(mult=jump.mult + 1))


def _moved(ideals, ray, jump):
    later = next(rays._candidate_parameters(ideals, ray, jump.parameter))
    return rays.RayJump(later, jump.record)


def test_series_refuses_a_raised_multiplicity(rat6, monkeypatch):
    ray = make_ray(rat6, (0, 0), (1, 1))
    # the first jump anchors its class, the last one lies past the horizon
    for index in (0, 10, -1):
        def mutate(walk, index=index):
            walk[index] = _raised(walk[index])
            return walk

        message = _refused(monkeypatch, rat6, ray, mutate)
        assert message.startswith("closed form predicts")


def test_series_refuses_a_jump_moved_to_the_next_candidate(rat6, monkeypatch):
    ray = make_ray(rat6, (0, 0), (1, 1))

    def mutate(walk, index=0):
        walk[index] = _moved(rat6, ray, walk[index])
        return walk

    assert _refused(monkeypatch, rat6, ray, mutate).startswith("closed form predicts")
    # any jump moved is refused as an internal fault, by the closed form or
    # by the class loop, never as a horizon too small for a class's anchor
    count = len(ray_walk(rat6, ray, stability_bound(rat6, ray) + 3))
    assert count == 57
    for index in range(count):
        _refused(monkeypatch, rat6, ray, lambda walk, index=index: mutate(walk, index))


def test_series_refuses_a_point_off_the_ray_or_a_parameter_off_the_grid(rat6, monkeypatch):
    ray = make_ray(rat6, (0, 0), (1, 1))
    # the first jump anchors its class: its point is read against the ray
    elsewhere = (Fraction(1, 7),) * 2

    def moved_point(walk):
        walk[0] = rays.RayJump(walk[0].parameter, walk[0].record._replace(point=elsewhere))
        return walk

    assert _refused(monkeypatch, rat6, ray, moved_point).endswith("off the ray")

    def off_grid(walk):
        walk[-1] = rays.RayJump(walk[-1].parameter + Fraction(1, 10**9 + 7), walk[-1].record)
        return walk

    assert "off the grid" in _refused(monkeypatch, rat6, ray, off_grid)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_series_refuses_a_walk_missing_a_degenerate_monomial(tuples, name, monkeypatch):
    # a degenerate jump has no recurrence, so the form takes it from the
    # walk and no re-expansion can miss it; the walk's divisor chain from
    # the jump before it is what breaks.  The fault goes into the candidate
    # stream, the walk's own checks after it.
    ideals = tuples[name]
    ray = make_ray(ideals, *DEGENERATE[name][0])
    horizon = stability_bound(ideals, ray) + 2
    walk = ray_walk(ideals, ray, horizon + 1)
    dropped = next(
        jump.parameter for jump in walk[1:] if is_degenerate(ideals, jump.point)
    )
    stream = rays._candidate_parameters
    monkeypatch.setattr(
        rays,
        "_candidate_parameters",
        lambda *args: (mu for mu in stream(*args) if mu != dropped),
    )
    with pytest.raises(InternalConsistencyError, match="divisor chain broken"):
        poincare(ideals, ray, horizon)


def test_walk_refuses_a_walk_missing_its_first_jump(chain10, monkeypatch):
    # the chain starts at the base's divisor, so dropping the first
    # candidate, a degenerate jump, leaves the next jump's left limit wrong
    ray = make_ray(chain10, (0, Fraction(1, 3)), (2, 3))
    first = ray_walk(chain10, ray, 1)[0]
    assert first.parameter == Fraction(1, 29) and is_degenerate(chain10, first.point)
    stream = rays._candidate_parameters
    monkeypatch.setattr(
        rays,
        "_candidate_parameters",
        lambda *args: (mu for mu in stream(*args) if mu != first.parameter),
    )
    message = "divisor chain broken between parameters 0 and 2/29"
    with pytest.raises(InternalConsistencyError, match=message):
        ray_walk(chain10, ray, 1)
    with pytest.raises(InternalConsistencyError, match=message):
        poincare(chain10, ray, stability_bound(chain10, ray) + 2)


# ---------------------------------------------------------------------------
# The unloading memos on a warm cache: one type test before the lookup.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("read", [antinef_closure_checked, colength])
def test_contract_holds_on_a_warm_cache(rat6, read):
    graph = rat6.graph
    divisor = antinef_closure_checked(graph, (4, 2, 4, 2, 1, 1))
    value = read(graph, divisor)
    assert read(graph, divisor) == value
    cache = graph.closure_cache if read is antinef_closure_checked else graph.colength_cache
    assert divisor in cache
    one = divisor.index(1)  # where `True` hashes like the cached entry
    refused = [
        tuple(float(c) for c in divisor),
        divisor[:one] + (True,) + divisor[one + 1:],
        (Fraction(1, 2),) + divisor[1:],
        list(map(float, divisor)),
    ]
    for vector in refused:
        with pytest.raises(ValidationError, match="expected integers"):
            read(graph, vector)
    with pytest.raises(LengthMismatch):
        read(graph, divisor[:5])
    hits = cache.hits
    assert read(graph, tuple(Fraction(c) for c in divisor)) == value
    assert read(graph, [Fraction(2 * c, 2) for c in divisor]) == value
    assert cache.hits == hits + 2
