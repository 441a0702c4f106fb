"""K from `build_graph` against a dense reference solve kept in this file.

The reference is plain Gauss-Jordan elimination over `Fraction` on the
augmented matrix [M | b], b_j = -2 - E_j^2; it reads no tree structure and
imports nothing from the library.  Every graph is also rebuilt by
`graph_from_adjacency` from its edges and the reference K, which must give
back the same matrix.  The benchmark's blow-up graphs, read through
`conftest.bench_module`, carry a K set by the blow-up recurrence, which
the reference must give too.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bench_module
from mmideal import build_graph, graph_from_adjacency
from trees import random_tree_matrix, seeded_rows


def _reference_canonical(rows):
    """The solution of M K = b by Gauss-Jordan elimination, last column
    first (a leaf-first order on trees numbered parent before child)."""
    size = len(rows)
    augmented = [
        [Fraction(entry) for entry in row] + [Fraction(-2 - row[j])]
        for j, row in enumerate(rows)
    ]
    free = set(range(size))
    pivots = {}
    for column in reversed(range(size)):
        pivot = max(i for i in free if augmented[i][column] != 0)
        free.remove(pivot)
        pivots[column] = pivot
        lead = augmented[pivot][column]
        augmented[pivot] = [
            entry / lead if entry else entry for entry in augmented[pivot]
        ]
        # the rows stay dense; a row operation skips the pivot row's zeros
        nonzero = [(c, entry) for c, entry in enumerate(augmented[pivot]) if entry]
        for i in range(size):
            factor = augmented[i][column]
            if i != pivot and factor != 0:
                row = augmented[i]
                for c, entry in nonzero:
                    row[c] -= factor * entry
    return tuple(augmented[pivots[column]][size] for column in range(size))


def _common_denominator(values):
    scale = math.lcm(*(value.denominator for value in values))
    return scale, tuple(int(value * scale) for value in values)


def _edges(rows):
    return [
        (a + 1, b + 1)
        for a, row in enumerate(rows)
        for b in range(a + 1, len(rows))
        if row[b] == 1
    ]


def _check(rows):
    graph = build_graph(rows)
    reference = _reference_canonical(rows)
    assert graph.canonical == reference
    assert graph.scaled_canonical == _common_denominator(reference)
    if all(k != -1 for k in reference):
        rebuilt = graph_from_adjacency(_edges(rows), reference)
        assert rebuilt.matrix == graph.matrix
        assert rebuilt.canonical == reference
    return graph


def test_small_random_trees_match_the_reference():
    rng = random.Random(2201)
    for _ in range(300):
        _check(random_tree_matrix(rng))


def test_bundled_fixtures_match_the_reference(tuples):
    for ideals in tuples.values():
        _check([list(row) for row in ideals.graph.matrix])


@pytest.mark.parametrize("size", [10, 50, 200])
def test_long_chains_and_trees_match_the_reference(size):
    rng = random.Random(size)
    for _ in range(2):
        chain = _check(seeded_rows(rng, "chain", size))
        _check(seeded_rows(rng, "tree", size))
    if size == 200:
        # continuants of -2..-4 chains: the pairs outgrow machine words
        assert chain.scaled_canonical[0].bit_length() > 64


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**62))
def test_seeded_chains_and_trees_up_to_200_match_the_reference(seed):
    rng = random.Random(seed)
    shape = rng.choice(("chain", "tree"))
    _check(seeded_rows(rng, shape, rng.randint(1, 200)))


@pytest.mark.parametrize("index", range(4))
def test_blowup_graphs_match_the_reference_and_the_recurrence(index):
    # the cli workload's graphs: n point blow-ups of a smooth point, whose K
    # the generator sets by k_new = 1 + the k of the curves through the point
    fixture = bench_module("workloads").blowup_graph(index)
    assert _check(fixture.matrix).canonical == fixture.canonical
