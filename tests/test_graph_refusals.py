"""Every refusal of `build_graph`, `derive_diagonal` and `graph_from_adjacency`,
pinned by exact class and exact message."""

from fractions import Fraction

import pytest

from mmideal import build_graph, derive_diagonal, graph_from_adjacency
from mmideal.errors import (
    BadOffDiagonal,
    Disconnected,
    DivisionByZero,
    LengthMismatch,
    NonIntegralSelfIntersection,
    NotNegativeDefinite,
    NotRational,
    NotSymmetric,
    NotTree,
    ValidationError,
)
from trees import tree_rows

MATRIX_REFUSALS = {
    "empty": ([], LengthMismatch, "intersection matrix is empty"),
    "not_a_list": (
        5, ValidationError, "intersection matrix: expected a tuple or list, got 5"
    ),
    "short_row": (
        [[-2, 1], [1]], LengthMismatch,
        "intersection matrix row: expected 2 entries, got 1",
    ),
    "string_entry": (
        [[-2, 1], [1, "x"]], ValidationError,
        "intersection matrix row: expected integers, got 'x'",
    ),
    "fraction_entry": (
        [[-2, Fraction(1, 2)], [Fraction(1, 2), -2]], ValidationError,
        "intersection matrix row: expected integers, got Fraction(1, 2)",
    ),
    "not_symmetric": (
        [[-2, 1], [0, -2]], NotSymmetric, "matrix not symmetric at (1,2)"
    ),
    "off_diagonal_two": (
        [[-2, 2], [2, -2]], BadOffDiagonal, "off-diagonal entry at (1,2) is 2"
    ),
    "off_diagonal_negative": (
        [[-2, -1], [-1, -2]], BadOffDiagonal, "off-diagonal entry at (1,2) is -1"
    ),
    "zero_diagonal": (
        [[0]], NotNegativeDefinite, "self-intersection of E1 is 0 (must be <= -1)"
    ),
    "positive_diagonal_in_row_2": (
        [[-2, 1], [1, 1]], NotNegativeDefinite,
        "self-intersection of E2 is 1 (must be <= -1)",
    ),
    "disconnected_pair": (
        [[-2, 0], [0, -2]], Disconnected, "dual graph has 1 unreachable components"
    ),
    "disconnected_four": (
        tree_rows((-2, -2, -2, -2), ((1, 2),)), Disconnected,
        "dual graph has 2 unreachable components",
    ),
    "triangle": (
        [[-3, 1, 1], [1, -3, 1], [1, 1, -3]], NotTree,
        "connected graph with 3 edges on 3 vertices",
    ),
    "integer_pivot": (
        [[-1, 1], [1, -1]], NotNegativeDefinite,
        "elimination pivot of E1 is 0 (must be < 0)",
    ),
    # -1 + 1/2 + 1/2 + 1/3 at the root
    "fractional_root_pivot": (
        tree_rows((-1, -2, -2, -3), ((1, 2), (1, 3), (1, 4))), NotNegativeDefinite,
        "elimination pivot of E1 is 1/3 (must be < 0)",
    ),
    # the same star hung below E1: the refusal names the inner vertex
    "fractional_inner_pivot": (
        tree_rows((-2, -1, -2, -2, -3), ((1, 2), (2, 3), (2, 4), (2, 5))),
        NotNegativeDefinite, "elimination pivot of E2 is 1/3 (must be < 0)",
    ),
    "minimally_elliptic": (
        tree_rows((-1, -2, -3, -7), ((1, 2), (1, 3), (1, 4))), NotRational,
        "p_a(Z) = 1, so the singularity is not rational",
    ),
    # two rules broken at once: the first violation in row-major order is
    # named, and within an entry symmetry comes before the 0/1 rule
    "bad_entry_before_later_asymmetry": (
        [[-2, 2, 0], [2, -2, 1], [0, 0, -2]], BadOffDiagonal,
        "off-diagonal entry at (1,2) is 2",
    ),
    "row_1_diagonal_before_row_2_asymmetry": (
        [[0, 1, 0], [1, -2, 1], [0, 0, -2]], NotNegativeDefinite,
        "self-intersection of E1 is 0 (must be <= -1)",
    ),
    "asymmetry_before_bad_entry": (
        [[-2, 2], [1, -2]], NotSymmetric, "matrix not symmetric at (1,2)"
    ),
    "bad_entry_before_disconnection": (
        [[-2, 0, 0], [0, -2, 3], [0, 3, -2]], BadOffDiagonal,
        "off-diagonal entry at (2,3) is 3",
    ),
    "bad_entry_before_its_rows_diagonal": (
        [[-2, 1, 0], [1, 1, 2], [0, 2, -2]], BadOffDiagonal,
        "off-diagonal entry at (2,3) is 2",
    ),
}


@pytest.mark.parametrize(
    "rows, error, message", MATRIX_REFUSALS.values(), ids=MATRIX_REFUSALS.keys()
)
def test_build_graph_refusal_is_pinned(rows, error, message):
    with pytest.raises(error) as caught:
        build_graph(rows)
    assert type(caught.value) is error
    assert str(caught.value) == message


_ZERO = (
    "has canonical coefficient -1; its self-intersection is not determined by the tree"
)

DIAGONAL_REFUSALS = {
    "division_by_zero": ((), (Fraction(-1),), DivisionByZero, f"component E1 {_ZERO}"),
    "division_by_zero_at_e2": (
        ((1, 2),), (Fraction(0), Fraction(-1)), DivisionByZero, f"component E2 {_ZERO}"
    ),
    "fractional_value": (
        ((1, 2),), (Fraction(0), Fraction(1, 2)), NonIntegralSelfIntersection,
        "component E1 would need self-intersection -5/2",
    ),
    "fraction_above_minus_one": (
        (), (Fraction(3),), NonIntegralSelfIntersection,
        "component E1 would need self-intersection -1/2",
    ),
    "positive_integer": (
        (), (Fraction(-3),), NonIntegralSelfIntersection,
        "component E1 would need self-intersection 1",
    ),
    "zero_based_edge": (((0, 1),), (0, 0), LengthMismatch, "edge (0,1) out of range"),
    "self_loop": (((2, 2),), (0, 0), NotTree, "edge (2,2) is a self-loop"),
    "edge_twice": (((1, 2), (2, 1)), (0, 0), NotTree, "edge (2,1) is listed twice"),
    "string_coefficient": (
        (), ("x",), ValidationError,
        "canonical divisor: expected integers or Fractions, got 'x'",
    ),
    "edge_triple": (
        ((1, 2, 3),), (0, 0, 0), LengthMismatch, "edge: expected 2 entries, got 3"
    ),
}


@pytest.mark.parametrize(
    "edges, canonical, error, message",
    DIAGONAL_REFUSALS.values(),
    ids=DIAGONAL_REFUSALS.keys(),
)
def test_derive_diagonal_refusal_is_pinned(edges, canonical, error, message):
    with pytest.raises(error) as caught:
        derive_diagonal(edges, canonical)
    assert type(caught.value) is error
    assert str(caught.value) == message


ADJACENCY_REFUSALS = {
    **DIAGONAL_REFUSALS,
    "derived_matrix_disconnected": (
        (), (0, 0), Disconnected, "dual graph has 1 unreachable components"
    ),
    "derived_matrix_has_a_cycle": (
        ((1, 2), (2, 3), (1, 3)), (0, 0, 0), NotTree,
        "connected graph with 3 edges on 3 vertices",
    ),
    "edge_beyond_the_size": (
        ((1, 3),), (0, 0), LengthMismatch, "edge (1,3) out of range"
    ),
    "division_by_zero_at_e1": (
        ((1, 2),), (Fraction(-1), Fraction(0)), DivisionByZero, f"component E1 {_ZERO}"
    ),
    "half_integral_value": (
        ((1, 2),), (Fraction(1), Fraction(1)), NonIntegralSelfIntersection,
        "component E1 would need self-intersection -3/2",
    ),
}


@pytest.mark.parametrize(
    "edges, canonical, error, message",
    ADJACENCY_REFUSALS.values(),
    ids=ADJACENCY_REFUSALS.keys(),
)
def test_graph_from_adjacency_refusal_is_pinned(edges, canonical, error, message):
    with pytest.raises(error) as caught:
        graph_from_adjacency(edges, canonical)
    assert type(caught.value) is error
    assert str(caught.value) == message
