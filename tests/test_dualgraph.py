"""Graph validation, canonical divisor, diagonal reconstruction."""

import json
import random
from fractions import Fraction

import pytest

import frozen
from mmideal import (
    SingularityClass,
    attach_ideals,
    build_graph,
    derive_diagonal,
    graph_from_adjacency,
    singularity_class,
)
from mmideal.cli import main
from mmideal.errors import (
    BadOffDiagonal,
    Disconnected,
    DivisionByZero,
    LengthMismatch,
    NonIntegralSelfIntersection,
    NotAntinef,
    NotNegativeDefinite,
    NotRational,
    NotSymmetric,
    NotTree,
)
from trees import random_any_tree_matrix, tree_rows


def test_rat6_canonical_and_fundamental(rat6):
    assert rat6.graph.canonical == frozen.RAT6_CANONICAL
    assert rat6.graph.fundamental == frozen.RAT6_FUNDAMENTAL


def test_rat6_excesses(rat6):
    for i in range(rat6.r):
        for j in range(rat6.size):
            assert rat6.excesses[i][j] == frozen.RAT6_EXCESSES.get((i + 1, j + 1), 0)


def test_chain10_diagonal_and_canonical_round_trip():
    diagonal = derive_diagonal(frozen.CHAIN10_EDGES, frozen.CHAIN10_CANONICAL)
    assert diagonal == frozen.CHAIN10_DIAGONAL
    graph = graph_from_adjacency(frozen.CHAIN10_EDGES, frozen.CHAIN10_CANONICAL)
    assert graph.canonical == tuple(Fraction(k) for k in frozen.CHAIN10_CANONICAL)


def test_repeated_edge_is_refused():
    first = frozen.CHAIN10_EDGES[0]
    edges = tuple(frozen.CHAIN10_EDGES) + (first[::-1],)
    with pytest.raises(NotTree, match=rf"edge \({first[1]},{first[0]}\)"):
        graph_from_adjacency(edges, frozen.CHAIN10_CANONICAL)


def test_edges_are_one_based():
    # (0, 1) names no component: E1 is index 1 in an edge pair
    with pytest.raises(LengthMismatch, match=r"^edge \(0,1\) out of range$"):
        derive_diagonal(((0, 1),), frozen.CHAIN10_CANONICAL[:2])
    size = len(frozen.CHAIN10_CANONICAL)
    with pytest.raises(LengthMismatch, match=rf"^edge \(1,{size + 1}\) out of range$"):
        derive_diagonal(((1, size + 1),), frozen.CHAIN10_CANONICAL)


def test_self_loop_is_not_a_tree():
    # a loop is a cycle; it is not out of range
    with pytest.raises(NotTree, match=r"^edge \(1,1\) is a self-loop$"):
        graph_from_adjacency([(1, 1)], (1, 1))


def test_chain10_is_a_chain(chain10):
    # ten components in a path: two leaves, eight valence-2 vertices
    valences = sorted(len(neighbors) for neighbors in chain10.graph.adjacency)
    assert valences == [1, 1] + [2] * 8
    assert not any(chain10.graph.rupture)


def test_nest14_diagonal(nest14):
    diagonal = tuple(nest14.graph.matrix[j][j] for j in range(nest14.size))
    assert diagonal == frozen.NEST14_DIAGONAL


def test_nest14_inconsistent_canonical_rejected():
    with pytest.raises(NonIntegralSelfIntersection):
        derive_diagonal(frozen.NEST14_EDGES, frozen.NEST14_CANONICAL_INCONSISTENT)


def test_prop16_diagonal_and_excesses(prop16):
    diagonal = tuple(prop16.graph.matrix[j][j] for j in range(prop16.size))
    assert diagonal == frozen.PROP16_DIAGONAL
    for i in range(prop16.r):
        for j in range(prop16.size):
            assert prop16.excesses[i][j] == frozen.PROP16_EXCESSES.get(
                (i + 1, j + 1), 0
            )


def test_prop16_bad_tail_is_not_antinef(prop16):
    bad = list(frozen.PROP16_F1)
    bad[15] = frozen.PROP16_BAD_TAIL
    with pytest.raises(NotAntinef):
        attach_ideals(prop16.graph, [bad])


def test_validation_chain():
    with pytest.raises(NotSymmetric):
        build_graph([[-2, 1], [0, -2]])
    with pytest.raises(BadOffDiagonal):
        build_graph([[-2, 2], [2, -2]])
    with pytest.raises(NotNegativeDefinite):
        build_graph([[0]])
    with pytest.raises(Disconnected):
        build_graph([[-2, 0], [0, -2]])
    with pytest.raises(NotTree):
        build_graph(
            [[-3, 1, 1], [1, -3, 1], [1, 1, -3]]
        )
    with pytest.raises(NotNegativeDefinite):
        build_graph([[-1, 1], [1, -1]])
    with pytest.raises(LengthMismatch):
        build_graph([])


def test_derive_diagonal_division_by_zero():
    with pytest.raises(DivisionByZero):
        derive_diagonal((), (Fraction(-1),))


def test_attach_ideals_validation(rat6):
    graph = rat6.graph
    with pytest.raises(LengthMismatch):
        attach_ideals(graph, [(1, 2, 3)])
    with pytest.raises(NotAntinef):
        attach_ideals(graph, [(0, 0, 0, 0, 0, 0)])
    with pytest.raises(NotAntinef):
        attach_ideals(graph, [(1, 1, 1, 1, 1, 1)])  # positive products
    with pytest.raises(NotAntinef):
        attach_ideals(graph, [[-3, -2, -3, -1, -1, -1]])


@pytest.mark.parametrize(
    "ideals, message",
    [
        # (3, 2, 3, 2, 1, 1).E_1 = 1, every other product <= 0
        ([(3, 2, 3, 1, 1, 1), (3, 2, 3, 2, 1, 1)], "ideal 2 is not antinef (violations at E1)"),
        ([(15, 6, 15, 9, 2, 2)], "ideal 1 is not antinef (violations at E2)"),
        ([(-3, -2, -3, -1, -1, -1)], "ideal 1 is not antinef (violations at E1, E2, E3, E4, E5, E6)"),
        ([(0,) * 6], "ideal 1 is the zero divisor"),
    ],
)
def test_attach_ideals_refusal_is_pinned(rat6, ideals, message):
    with pytest.raises(NotAntinef) as raised:
        attach_ideals(rat6.graph, ideals)
    assert str(raised.value) == message


def test_singularity_classes(tuples):
    assert singularity_class(tuples["RAT6"].graph) is SingularityClass.LOG_CANONICAL_ONLY
    assert singularity_class(tuples["CHAIN10"].graph) is SingularityClass.LOG_TERMINAL
    assert singularity_class(tuples["SMOOTH1"].graph) is SingularityClass.LOG_TERMINAL
    # star with a (-2) center and four (-3) arms: p_a(Z) = 1, not rational
    with pytest.raises(NotRational):
        build_graph(tree_rows((-2, -3, -3, -3, -3), ((1, 2), (1, 3), (1, 4), (1, 5))))
    # a rational tree with k_2 < -1
    graph = build_graph(
        tree_rows((-5, -2, -4, -1, -4, -3), ((1, 2), (2, 3), (2, 5), (3, 4), (5, 6)))
    )
    assert graph.canonical[1] == Fraction(-259, 197)
    assert graph.fundamental == (1, 2, 1, 1, 1, 1)
    assert singularity_class(graph) is SingularityClass.NEITHER


def test_minimally_elliptic_star_is_refused(tmp_path, capsys):
    # center -1 with arms -2, -3, -7: negative definite, but p_a(Z) = 1
    rows = tree_rows((-1, -2, -3, -7), ((1, 2), (1, 3), (1, 4)))
    with pytest.raises(NotRational):
        build_graph(rows)
    path = tmp_path / "elliptic.json"
    path.write_text(json.dumps({"name": "ELLIPTIC", "matrix": rows, "ideals": [[6, 3, 2, 1]]}))
    assert main(["validate", str(path)]) == 2
    assert "p_a(Z) = 1" in capsys.readouterr().err


def _negative_definite_by_minors(rows):
    """Sylvester's criterion on the leading minors, by Laplace expansion."""

    def determinant(square):
        if not square:
            return 1
        return sum(
            (-1) ** j * entry * determinant([row[:j] + row[j + 1:] for row in square[1:]])
            for j, entry in enumerate(square[0])
            if entry
        )

    return all(
        determinant([row[:k] for row in rows[:k]]) * (-1) ** k > 0
        for k in range(1, len(rows) + 1)
    )


def test_elimination_matches_leading_minors():
    rng = random.Random(202)
    solved = 0
    for _ in range(400):
        rows = random_any_tree_matrix(rng)
        if not _negative_definite_by_minors(rows):
            with pytest.raises(NotNegativeDefinite):
                build_graph(rows)
            continue
        try:
            graph = build_graph(rows)
        except NotRational:
            continue
        solved += 1
        k = graph.canonical
        for j, row in enumerate(rows):
            # (K + E_j).E_j = -2 exactly
            assert sum(entry * (k[l] + (l == j)) for l, entry in enumerate(row)) == -2
    assert solved >= 100


def test_labels(rat6):
    graph = rat6.graph
    assert graph.label(0) == "E1"
