"""Dual graphs of resolutions: intersection matrices, canonical data, ideals.

The combinatorial input is a symmetric negative-definite intersection matrix
M over the exceptional components E_1..E_s of a resolution of a complex
surface point.  Off-diagonal entries are 0/1 (the components form a tree of
smooth rational curves), diagonal entries are integers <= -1.

From M alone the module computes, eagerly at build time:

* the relative canonical divisor K: the unique rational vector with
  (K + E_j).E_j = -2 for every j, i.e. M K = b with b_j = -2 - M[j][j],
  by one leaf-first elimination over the tree that also checks definiteness;
* the fundamental cycle Z: the smallest nonzero antinef divisor, which must
  have arithmetic genus p_a(Z) = 0 (Artin's criterion for rationality).  It
  is found by unloading on the built graph and cached on it.

A tuple of ideals is attached as a tuple of antinef vectors F_i (the
vanishing orders of the i-th ideal along each component).  Excesses
rho[i][j] = -F_i.E_j classify components: *dicritical* ones carry positive
excess for some ideal, *rupture* ones have valence >= 3 in the tree.

Component indices are 0-based in memory.  Edge pairs given to
`derive_diagonal` and `graph_from_adjacency` are 1-based, like the labels
"E1".."Es" and the fixture files; those two functions are the only place the
numbering is converted, and their errors name a pair as the caller gave it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import (
    BadOffDiagonal,
    Disconnected,
    DivisionByZero,
    InternalConsistencyError,
    LengthMismatch,
    NonIntegralSelfIntersection,
    NotAntinef,
    NotNegativeDefinite,
    NotRational,
    NotSymmetric,
    NotTree,
    ValidationError,
)
from .rationals import (
    _entries, _integer_vector, _rational_vector, over_common_denominator
)
from .unloading import (
    ClosureCache,
    fundamental_cycle,
    intersection_products,
    is_antinef,
)

Matrix = tuple[tuple[int, ...], ...]


class SingularityClass(enum.Enum):
    """Coarse classification by the coefficients of K."""

    LOG_TERMINAL = "LogTerminal"          # every k_j > -1
    LOG_CANONICAL_ONLY = "LogCanonicalOnly"  # every k_j >= -1, some = -1
    NEITHER = "Neither"                   # some k_j < -1


@dataclass(frozen=True)
class DualGraph:
    """Immutable dual graph with its canonical data.

    `closure_cache` maps a divisor to its checked antinef closure (see
    ``unloading.antinef_closure_checked``), keeping at most
    ``unloading.CLOSURE_CACHE_BOUND`` entries; it is neither compared nor shown,
    so two graphs built from one matrix are equal but share no closures.
    """

    matrix: Matrix
    canonical: tuple[Fraction, ...]
    adjacency: tuple[tuple[int, ...], ...]
    closure_cache: ClosureCache = field(
        default_factory=ClosureCache, init=False, compare=False, repr=False
    )

    @property
    def size(self) -> int:
        return len(self.matrix)

    @cached_property
    def fundamental(self) -> tuple[int, ...]:
        """Z: the smallest nonzero antinef divisor."""
        return fundamental_cycle(self)

    @cached_property
    def scaled_canonical(self) -> tuple[int, tuple[int, ...]]:
        """(D, D*K): D the lcm of the denominators of K, D*K in integers."""
        return over_common_denominator(self.canonical)

    def valence(self, j: int) -> int:
        return len(self.adjacency[j])

    @property
    def rupture(self) -> tuple[bool, ...]:
        return tuple(self.valence(j) >= 3 for j in range(self.size))

    def label(self, j: int) -> str:
        return f"E{j + 1}"


@dataclass(frozen=True)
class IdealTuple:
    """A dual graph together with r attached antinef ideal vectors."""

    graph: DualGraph
    ideals: tuple[tuple[int, ...], ...]
    excesses: tuple[tuple[int, ...], ...]  # excesses[i][j] = -F_i . E_j

    @property
    def r(self) -> int:
        return len(self.ideals)

    @property
    def size(self) -> int:
        return self.graph.size

    @property
    def dicritical(self) -> tuple[bool, ...]:
        """Components carrying positive excess for at least one ideal."""
        return tuple(
            any(self.excesses[i][j] > 0 for i in range(self.r))
            for j in range(self.size)
        )

    @property
    def rupture_or_dicritical(self) -> tuple[bool, ...]:
        rupture = self.graph.rupture
        dicritical = self.dicritical
        return tuple(a or b for a, b in zip(rupture, dicritical))


# ---------------------------------------------------------------------------
# Graph construction and validation.
# ---------------------------------------------------------------------------


def _validate_matrix(
    matrix: Matrix,
) -> tuple[tuple[tuple[int, ...], ...], tuple[Fraction, ...]]:
    """Full admissibility check; returns the adjacency lists and K.

    Checks run in a fixed order: symmetry, off-diagonal entries, diagonal
    entries, connectivity, tree shape, then negative definiteness.
    """
    size = len(matrix)
    if size == 0:
        raise LengthMismatch("intersection matrix is empty")
    for i in range(size):
        for j in range(size):
            if matrix[i][j] != matrix[j][i]:
                raise NotSymmetric(f"matrix not symmetric at ({i + 1},{j + 1})")
            if i != j and matrix[i][j] not in (0, 1):
                raise BadOffDiagonal(
                    f"off-diagonal entry at ({i + 1},{j + 1}) is {matrix[i][j]}"
                )
        if matrix[i][i] > -1:
            raise NotNegativeDefinite(
                f"self-intersection of E{i + 1} is {matrix[i][i]} (must be <= -1)"
            )
    adjacency = tuple(
        tuple(j for j in range(size) if j != i and matrix[i][j] == 1)
        for i in range(size)
    )
    edge_count = sum(len(neighbors) for neighbors in adjacency) // 2
    # breadth-first from E1: every vertex is listed after its parent
    parent = {0: 0}
    order = [0]
    for current in order:
        for neighbor in adjacency[current]:
            if neighbor not in parent:
                parent[neighbor] = current
                order.append(neighbor)
    if len(order) != size:
        raise Disconnected(f"dual graph has {size - len(order)} unreachable components")
    if edge_count != size - 1:
        raise NotTree(f"connected graph with {edge_count} edges on {size} vertices")
    # Solve M K = b, b_j = -2 - E_j^2, leaf first: folding each child c into
    # its parent p (pivot_p -= 1/pivot_c, rhs_p -= rhs_c/pivot_c) is Gaussian
    # elimination in reversed order, whose pivots are ratios of consecutive
    # leading principal minors.  By Sylvester's criterion M is negative
    # definite exactly when every pivot is negative.
    pivot = [Fraction(matrix[j][j]) for j in range(size)]
    rhs = [Fraction(-2 - matrix[j][j]) for j in range(size)]
    for vertex in reversed(order):
        if pivot[vertex] >= 0:
            raise NotNegativeDefinite(
                f"elimination pivot of E{vertex + 1} is {pivot[vertex]} (must be < 0)"
            )
        if vertex:
            pivot[parent[vertex]] -= 1 / pivot[vertex]
            rhs[parent[vertex]] -= rhs[vertex] / pivot[vertex]
    canonical = [Fraction(0)] * size
    for vertex in order:
        above = canonical[parent[vertex]] if vertex else 0
        canonical[vertex] = (rhs[vertex] - above) / pivot[vertex]
    return adjacency, tuple(canonical)


def build_graph(rows) -> DualGraph:
    """Validate an intersection matrix and build the graph with K and Z.

    Raises NotRational unless p_a(Z) = 0 (Artin's rationality criterion).
    """
    rows = _entries(rows, None, "intersection matrix")
    matrix = tuple(
        _integer_vector(row, len(rows), "intersection matrix row") for row in rows
    )
    adjacency, canonical = _validate_matrix(matrix)
    for j, row in enumerate(matrix):
        # (K + E_j).E_j, read off the sparse row of the tree
        if row[j] * (canonical[j] + 1) + sum(canonical[l] for l in adjacency[j]) != -2:
            raise InternalConsistencyError(f"K fails adjunction at E{j + 1}")
    graph = DualGraph(matrix=matrix, canonical=canonical, adjacency=adjacency)
    fundamental = graph.fundamental
    if any(coefficient < 1 for coefficient in fundamental):
        raise InternalConsistencyError("fundamental cycle is not strictly positive")
    # p_a(Z) = 1 + (Z.Z + Z.K)/2 in integers: K.E_j = -2 - E_j^2 since M K = b
    products = intersection_products(graph, fundamental)
    genus = 1 + sum(
        z * (products[j] - 2 - matrix[j][j]) for j, z in enumerate(fundamental)
    ) // 2
    if genus != 0:
        raise NotRational(f"p_a(Z) = {genus}, so the singularity is not rational")
    return graph


def _neighbor_sets(edges, size: int) -> list[set[int]]:
    """0-based neighbour sets of 1-based edge pairs; each refusal names the
    pair as given."""
    neighbor_sets: list[set[int]] = [set() for _ in range(size)]
    for pair in _entries(edges, None, "edges"):
        a, b = _integer_vector(pair, 2, "edge")
        if not (1 <= a <= size and 1 <= b <= size):
            raise LengthMismatch(f"edge ({a},{b}) out of range")
        if a == b:
            raise NotTree(f"edge ({a},{b}) is a self-loop")
        if b - 1 in neighbor_sets[a - 1]:
            raise NotTree(f"edge ({a},{b}) is listed twice")
        neighbor_sets[a - 1].add(b - 1)
        neighbor_sets[b - 1].add(a - 1)
    return neighbor_sets


def _diagonal(
    neighbor_sets: list[set[int]], canonical: tuple[Fraction, ...]
) -> tuple[int, ...]:
    diagonal = []
    for j, k in enumerate(canonical):
        if k == -1:
            raise DivisionByZero(
                f"component E{j + 1} has canonical coefficient -1; "
                "its self-intersection is not determined by the tree"
            )
        value = -(2 + sum(canonical[l] for l in neighbor_sets[j])) / (k + 1)
        if value.denominator != 1 or value > -1:
            raise NonIntegralSelfIntersection(
                f"component E{j + 1} would need self-intersection {value}"
            )
        diagonal.append(value.numerator)
    return tuple(diagonal)


def derive_diagonal(
    edges: Sequence[tuple[int, int]], canonical: Sequence[Fraction]
) -> tuple[int, ...]:
    """Reconstruct self-intersections from a tree and its canonical divisor.

    Solving (K + E_j).E_j = -2 for the diagonal gives

        E_j^2 = -(2 + sum of k_l over neighbors l of j) / (k_j + 1).

    *edges* are 1-based index pairs, as in fixture files: (1, 2) joins E1
    and E2.  A pair outside 1..s raises LengthMismatch; a self-loop, or an
    edge listed twice in either orientation, raises NotTree; each message
    names the pair as given.  Raises DivisionByZero when some k_j = -1 and
    NonIntegralSelfIntersection when the quotient is not an integer <= -1.
    """
    canonical = _rational_vector(canonical, None, "canonical divisor")
    return _diagonal(_neighbor_sets(edges, len(canonical)), canonical)


def graph_from_adjacency(
    edges: Sequence[tuple[int, int]], canonical: Sequence[Fraction]
) -> DualGraph:
    """Assemble and validate a graph from 1-based tree edges plus K.

    The derived matrix must reproduce the given K exactly (checked)."""
    canonical = _rational_vector(canonical, None, "canonical divisor")
    neighbor_sets = _neighbor_sets(edges, len(canonical))
    diagonal = _diagonal(neighbor_sets, canonical)
    size = len(canonical)
    rows = [
        [diagonal[j] if l == j else int(l in neighbors) for l in range(size)]
        for j, neighbors in enumerate(neighbor_sets)
    ]
    graph = build_graph(rows)
    if graph.canonical != canonical:
        raise InternalConsistencyError(
            "derived matrix does not reproduce the given canonical divisor"
        )
    return graph


def attach_ideals(graph: DualGraph, ideals: Sequence[Sequence[int]]) -> IdealTuple:
    """Attach a tuple of ideals given by their antinef vanishing-order vectors."""
    ideals = _entries(ideals, None, "ideals")
    if not ideals:
        raise ValidationError("at least one ideal is required")
    normalized = []
    for index, vector in enumerate(ideals):
        entries = _integer_vector(vector, graph.size, f"ideal {index + 1}")
        if all(entry == 0 for entry in entries):
            raise NotAntinef(f"ideal {index + 1} is the zero divisor")
        if not is_antinef(graph, entries):
            products = intersection_products(graph, entries)
            bad = [
                graph.label(j)
                for j, product in enumerate(products)
                if product > 0 or entries[j] < 0
            ]
            raise NotAntinef(
                f"ideal {index + 1} is not antinef (violations at {', '.join(bad)})"
            )
        if any(entry < 1 for entry in entries):
            # nonzero antinef divisors on a connected graph have full support
            raise NotAntinef(f"ideal {index + 1} lacks full support")
        normalized.append(entries)
    excesses = tuple(
        tuple(-product for product in intersection_products(graph, vector))
        for vector in normalized
    )
    return IdealTuple(graph=graph, ideals=tuple(normalized), excesses=excesses)


def singularity_class(graph: DualGraph) -> SingularityClass:
    """Classify by K: log-terminal (> -1), log-canonical only, or neither."""
    if any(k < -1 for k in graph.canonical):
        return SingularityClass.NEITHER
    if any(k == -1 for k in graph.canonical):
        return SingularityClass.LOG_CANONICAL_ONLY
    return SingularityClass.LOG_TERMINAL
