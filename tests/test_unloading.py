"""Antinef closure (two independent routes), fundamental cycle, colength."""

import random
import sys
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
    build_tuple,
    cell_decomposition,
    colength,
    divisor_leq,
    fundamental_cycle,
    is_antinef,
    load_fixture,
)
from mmideal import unloading
from mmideal.cli import main
from mmideal.errors import (
    InternalConsistencyError,
    LengthMismatch,
    NotAntinef,
    ValidationError,
)
from mmideal.unloading import intersection_products
from trees import random_any_tree_matrix, random_divisor, random_tree_matrix


def _reference_graphs(tuples):
    """Every fixture graph plus the seeded random trees of ``test_dualgraph``
    that build_graph accepts."""
    rng = random.Random(202)
    graphs = [ideals.graph for ideals in tuples.values()]
    for _ in range(400):
        try:
            graphs.append(build_graph(random_any_tree_matrix(rng)))
        except ValidationError:
            continue
    assert len(graphs) >= 100
    return rng, graphs


def test_sparse_products_match_dense_product(tuples):
    rng, graphs = _reference_graphs(tuples)
    for graph in graphs:
        for _ in range(5):
            divisor = random_divisor(rng, graph.size)
            dense = tuple(
                sum(entry * d for entry, d in zip(row, divisor)) for row in graph.matrix
            )
            assert intersection_products(graph, divisor) == dense


def test_integer_colength_matches_fraction_definition(tuples):
    rng, graphs = _reference_graphs(tuples)
    for graph in graphs:
        for _ in range(5):
            divisor = antinef_closure(graph, random_divisor(rng, graph.size))
            shifted = [d + k for d, k in zip(divisor, graph.canonical)]
            # -D.(D + K)/2 with the dense matrix and the Fraction K
            pairing = sum(
                d * entry * s
                for d, row in zip(divisor, graph.matrix)
                for entry, s in zip(row, shifted)
            )
            assert colength(graph, divisor) == -Fraction(pairing, 2)


def test_closure_cache_belongs_to_its_graph(rat6, monkeypatch):
    first = build_graph(rat6.graph.matrix)
    second = build_graph(rat6.graph.matrix)
    assert first == second
    oracle = unloading.antinef_closure_unit
    calls = []

    def counted(graph, divisor):
        calls.append(divisor)
        return oracle(graph, divisor)

    monkeypatch.setattr(unloading, "antinef_closure_unit", counted)
    divisor = (4, 0, 1, 0, 0, 2)
    closure = antinef_closure_checked(first, divisor)
    assert antinef_closure_checked(first, divisor) == closure
    assert len(calls) == 1
    assert first.closure_cache == {divisor: closure}
    assert second.closure_cache == {}
    assert antinef_closure_checked(second, divisor) == closure
    assert len(calls) == 2


def test_closure_cache_is_bounded_and_counted(rat6, monkeypatch):
    monkeypatch.setattr(unloading, "CLOSURE_CACHE_BOUND", 4)
    graph = build_graph(rat6.graph.matrix)
    divisors = [(n, 0, 1, 0, 0, n % 3) for n in range(12)]
    checked = divisors + divisors[9:] + divisors[:2]
    for divisor in checked:
        closure = antinef_closure_checked(graph, divisor)
        assert closure == antinef_closure(graph, divisor)
        assert len(graph.closure_cache) <= 4
    cache = graph.closure_cache
    assert (cache.hits, cache.misses) == (3, 14)
    assert cache.hits + cache.misses == len(checked)
    # the oldest entry goes first; a hit does not renew an entry
    assert list(cache) == [divisors[10], divisors[11], divisors[0], divisors[1]]


def test_atlas_under_a_small_closure_cache(rat6_atlas, monkeypatch):
    monkeypatch.setattr(unloading, "CLOSURE_CACHE_BOUND", 8)
    ideals = build_tuple(load_fixture("RAT6"))
    atlas = cell_decomposition(ideals, (Fraction(1), Fraction(1)))
    assert atlas.face_divisors == rat6_atlas.face_divisors
    assert atlas.facets == rat6_atlas.facets
    assert len(ideals.graph.closure_cache) <= 8


def test_chain10_worked_example(chain10):
    closure = antinef_closure_checked(chain10.graph, frozen.CHAIN10_UNLOADING_START)
    assert closure == frozen.CHAIN10_UNLOADING_CLOSURE


def test_closure_fixes_antinef_inputs(rat6):
    graph = rat6.graph
    for vector in (frozen.RAT6_F1, frozen.RAT6_F2, (0,) * 6):
        assert antinef_closure(graph, vector) == tuple(vector)
        assert antinef_closure_unit(graph, vector) == tuple(vector)


def test_closure_clamps_negative_entries(rat6):
    closure = antinef_closure_checked(rat6.graph, (-5, -1, -2, -3, -4, -1))
    assert closure == (0,) * 6


def test_closures_refuse_non_integer_coefficients(rat6):
    graph = build_graph(rat6.graph.matrix)
    # a float is refused even when it is integer-valued
    for coefficient in (Fraction(1, 2), Fraction(5, 2), 2.7, 2.0, True):
        divisor = (coefficient, 0, 0, 0, 0, 0)
        for closure in (antinef_closure, antinef_closure_unit, antinef_closure_checked):
            with pytest.raises(ValidationError, match="expected integers"):
                closure(graph, divisor)
    assert graph.closure_cache == {}
    # an integer-valued Fraction is an integer coefficient
    two = antinef_closure_checked(graph, (2, 0, 0, 0, 0, 0))
    assert antinef_closure_checked(graph, (Fraction(4, 2), 0, 0, 0, 0, 0)) == two


def test_checked_closure_keys_on_the_clamped_divisor(rat6, monkeypatch):
    graph = build_graph(rat6.graph.matrix)
    oracle = unloading.antinef_closure_unit
    calls = []

    def counted(graph, divisor):
        calls.append(divisor)
        return oracle(graph, divisor)

    monkeypatch.setattr(unloading, "antinef_closure_unit", counted)
    closure = antinef_closure_checked(graph, (3, -2, 1, 0, -7, 0))
    assert antinef_closure_checked(graph, (3, 0, 1, -1, 0, 0)) == closure
    assert len(calls) == 1
    assert graph.closure_cache == {(3, 0, 1, 0, 0, 0): closure}
    assert (graph.closure_cache.hits, graph.closure_cache.misses) == (1, 1)


def test_fundamental_cycles(tuples):
    assert fundamental_cycle(tuples["RAT6"].graph) == frozen.RAT6_FUNDAMENTAL
    assert fundamental_cycle(tuples["SMOOTH1"].graph) == (1,)


def test_colength_known_values(tuples):
    assert colength(tuples["RAT6"].graph, frozen.RAT6_FUNDAMENTAL) == 1
    smooth = tuples["SMOOTH1"].graph
    assert colength(smooth, (0,)) == 0
    assert colength(smooth, (1,)) == 1
    assert colength(smooth, (2,)) == 3


def test_colength_requires_antinef(rat6):
    with pytest.raises(NotAntinef):
        colength(rat6.graph, (1, 0, 0, 0, 0, 0))


def test_odd_colength_total_is_an_internal_error(monkeypatch, capsys, rat6):
    # one product made a unit more negative at a component of odd coefficient,
    # only where colength reads them: the divisor stays antinef and the total
    # turns odd, which no correct route produces
    honest = unloading.intersection_products

    def skewed(graph, divisor):
        products = honest(graph, divisor)
        if sys._getframe(1).f_code.co_name != "colength":
            return products
        j = next(j for j, coefficient in enumerate(divisor) if coefficient % 2)
        return products[:j] + (products[j] - 1,) + products[j + 1 :]

    monkeypatch.setattr(unloading, "intersection_products", skewed)
    with pytest.raises(InternalConsistencyError, match="fractional"):
        colength(rat6.graph, rat6.graph.fundamental)
    assert main(["fcycle", "RAT6"]) == 3
    assert "colength came out fractional" in capsys.readouterr().err


def test_divisor_leq():
    assert divisor_leq((1, 2), (1, 3))
    assert not divisor_leq((2, 2), (1, 3))


def test_divisor_leq_needs_equal_lengths():
    # zip would compare the first coefficient only and answer True
    with pytest.raises(LengthMismatch, match="right divisor: expected 3 entries, got 1"):
        divisor_leq((1, 2, 3), (5,))


def test_two_routes_agree_on_random_trees():
    rng = random.Random(101)
    for _ in range(120):
        rows = random_tree_matrix(rng)
        graph = build_graph(rows)
        divisor = random_divisor(rng, len(rows))
        ceiling = antinef_closure(graph, divisor)
        unit = antinef_closure_unit(graph, divisor)
        assert ceiling == unit
        assert is_antinef(graph, ceiling)
        clamped = [max(c, 0) for c in divisor]
        assert divisor_leq(clamped, ceiling)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**62))
def test_two_routes_agree_property(seed):
    rng = random.Random(seed)
    rows = random_tree_matrix(rng, max_size=6)
    graph = build_graph(rows)
    divisor = random_divisor(rng, len(rows))
    assert antinef_closure(graph, divisor) == antinef_closure_unit(graph, divisor)


def test_oracle_does_not_share_the_ceiling_loop(rat6, monkeypatch):
    # a ceiling loop that overshoots by Z must be caught by the oracle; a
    # fresh graph has an empty closure cache
    graph = build_graph(rat6.graph.matrix)
    fundamental = graph.fundamental
    ceiling = unloading._unload
    monkeypatch.setattr(
        unloading,
        "_unload",
        lambda graph, start: tuple(
            a + z for a, z in zip(ceiling(graph, start), fundamental)
        ),
    )
    with pytest.raises(InternalConsistencyError):
        antinef_closure_checked(graph, (4, 0, 1, 0, 0, 2))


def test_closure_is_minimal_on_small_cases():
    # on a 2-vertex chain, check minimality against brute force
    graph = build_graph(((-2, 1), (1, -2)))
    for a in range(-2, 4):
        for b in range(-2, 4):
            closure = antinef_closure_checked(graph, (a, b))
            best = None
            for x in range(0, 12):
                for y in range(0, 12):
                    if x < max(a, 0) or y < max(b, 0):
                        continue
                    if is_antinef(graph, (x, y)):
                        if best is None or (x + y) < sum(best):
                            best = (x, y)
            assert closure == best


def test_colength_additive_on_smooth_chain():
    # colength of n times the fundamental cycle on the smooth blow-up
    # is the triangular number n(n+1)/2
    graph = build_graph(((-1,),))
    assert graph.canonical == (Fraction(1),)
    for n in range(0, 8):
        assert colength(graph, (n,)) == n * (n + 1) // 2
