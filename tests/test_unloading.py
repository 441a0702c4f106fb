"""Antinef closure (two independent routes), fundamental cycle, colength."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen
from mmideal import (
    antinef_closure,
    antinef_closure_checked,
    antinef_closure_unit,
    build_graph,
    colength,
    divisor_leq,
    fundamental_cycle,
    is_antinef,
)
from mmideal import unloading
from mmideal.errors import InternalConsistencyError, NotAntinef
from trees import random_divisor, random_tree_matrix


def test_chain10_worked_example(chain10):
    matrix = chain10.graph.matrix
    closure = antinef_closure_checked(matrix, frozen.CHAIN10_UNLOADING_START)
    assert closure == frozen.CHAIN10_UNLOADING_CLOSURE


def test_closure_fixes_antinef_inputs(rat6):
    matrix = rat6.graph.matrix
    for vector in (frozen.RAT6_F1, frozen.RAT6_F2, (0,) * 6):
        assert antinef_closure(matrix, vector) == tuple(vector)
        assert antinef_closure_unit(matrix, vector) == tuple(vector)


def test_closure_clamps_negative_entries(rat6):
    matrix = rat6.graph.matrix
    closure = antinef_closure_checked(matrix, (-5, -1, -2, -3, -4, -1))
    assert closure == (0,) * 6


def test_fundamental_cycles(tuples):
    assert fundamental_cycle(tuples["RAT6"].graph.matrix) == frozen.RAT6_FUNDAMENTAL
    assert fundamental_cycle(tuples["SMOOTH1"].graph.matrix) == (1,)


def test_colength_known_values(tuples):
    rat6 = tuples["RAT6"]
    assert colength(rat6.graph.matrix, rat6.graph.canonical, frozen.RAT6_FUNDAMENTAL) == 1
    smooth = tuples["SMOOTH1"]
    matrix, canonical = smooth.graph.matrix, smooth.graph.canonical
    assert colength(matrix, canonical, (0,)) == 0
    assert colength(matrix, canonical, (1,)) == 1
    assert colength(matrix, canonical, (2,)) == 3


def test_colength_requires_antinef(rat6):
    with pytest.raises(NotAntinef):
        colength(rat6.graph.matrix, rat6.graph.canonical, (1, 0, 0, 0, 0, 0))


def test_divisor_leq():
    assert divisor_leq((1, 2), (1, 3))
    assert not divisor_leq((2, 2), (1, 3))


def test_two_routes_agree_on_random_trees():
    rng = random.Random(101)
    for _ in range(120):
        rows = random_tree_matrix(rng)
        divisor = random_divisor(rng, len(rows))
        ceiling = antinef_closure(rows, divisor)
        unit = antinef_closure_unit(rows, divisor)
        assert ceiling == unit
        assert is_antinef(rows, ceiling)
        clamped = [max(c, 0) for c in divisor]
        assert divisor_leq(clamped, ceiling)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**62))
def test_two_routes_agree_property(seed):
    rng = random.Random(seed)
    rows = random_tree_matrix(rng, max_size=6)
    divisor = random_divisor(rng, len(rows))
    assert antinef_closure(rows, divisor) == antinef_closure_unit(rows, divisor)


def test_oracle_does_not_share_the_ceiling_loop(rat6, monkeypatch):
    # a ceiling loop that overshoots by Z must be caught by the oracle
    fundamental = rat6.graph.fundamental
    ceiling = unloading._unload
    monkeypatch.setattr(
        unloading,
        "_unload",
        lambda matrix, start: tuple(
            a + z for a, z in zip(ceiling(matrix, start), fundamental)
        ),
    )
    monkeypatch.setattr(unloading, "_closure_cache", {})
    with pytest.raises(InternalConsistencyError):
        antinef_closure_checked(rat6.graph.matrix, (4, 0, 1, 0, 0, 2))


def test_closure_is_minimal_on_small_cases():
    # on a 2-vertex chain, check minimality against brute force
    rows = ((-2, 1), (1, -2))
    build_graph(rows)
    for a in range(-2, 4):
        for b in range(-2, 4):
            closure = antinef_closure_checked(rows, (a, b))
            best = None
            for x in range(0, 12):
                for y in range(0, 12):
                    if x < max(a, 0) or y < max(b, 0):
                        continue
                    if is_antinef(rows, (x, y)):
                        if best is None or (x + y) < sum(best):
                            best = (x, y)
            assert closure == best


def test_colength_additive_on_smooth_chain():
    # colength of n times the fundamental cycle on the smooth blow-up
    # is the triangular number n(n+1)/2
    matrix = ((-1,),)
    canonical = (Fraction(1),)
    for n in range(0, 8):
        assert colength(matrix, canonical, (n,)) == n * (n + 1) // 2
