"""Dual graphs of resolutions: intersection matrices, canonical data, ideals.

The combinatorial input is a symmetric negative-definite intersection matrix
M over the exceptional components E_1..E_s of a resolution of a complex
surface point.  Off-diagonal entries are 0/1 (the components form a tree of
smooth rational curves), diagonal entries are integers <= -1.

From M alone the module computes, eagerly at build time:

* the relative canonical divisor K: the unique rational vector with
  (K + E_j).E_j = -2 for every j, i.e. M K = b with b_j = -2 - M[j][j],
  by ``unloading``'s leaf-first tree elimination, which also checks
  definiteness.  It keeps every pivot as a ratio of two integer minors and
  returns det(-M) K in integers; only K's entries become `Fraction`s.  The
  adjunction check then reads K over its common denominator D, as
  `scaled_canonical` = (D, D*K), which the graph stores;
* the fundamental cycle Z: the smallest nonzero antinef divisor, which must
  have arithmetic genus p_a(Z) = 0 (Artin's criterion for rationality).  It
  is the unchecked closure of E1 by ``unloading.antinef_closure``, taken on
  the built graph on the first read of its ``errors._lazy`` attribute
  `fundamental`, the one way in to Z.

One more invariant is computed on first read and never by a build: the
bounds of the origin's constancy region (see ``evaluate``).  At c = 0 the
gap values are v = -K and the divisor is e, the antinef closure of
floor(-K), so the bounds B_j = D*k_j + D*(1 + e_j) depend on the graph
alone; `walls.lc_region` reads them for every tuple on the graph.

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
from fractions import Fraction
from typing import NamedTuple, NoReturn, Sequence

from .errors import (
    BadOffDiagonal, Disconnected, DivisionByZero, InternalConsistencyError, LengthMismatch,
    NonIntegralSelfIntersection, NotAntinef, NotNegativeDefinite, NotRational, NotSymmetric,
    NotTree, ValidationError, _Frozen, _lazy,
)
from .rationals import (
    _entries, _integer_vector, _rational_vector, over_common_denominator
)
from . import unloading
from .unloading import (
    BoundedCache, _tree_solve, antinef_closure_checked, intersection_products
)

Matrix = tuple[tuple[int, ...], ...]


class SingularityClass(enum.Enum):
    """Coarse classification by the coefficients of K."""

    LOG_TERMINAL = "LogTerminal"          # every k_j > -1
    LOG_CANONICAL_ONLY = "LogCanonicalOnly"  # every k_j >= -1, some = -1
    NEITHER = "Neither"                   # some k_j < -1


class DualGraph(_Frozen):
    """Immutable dual graph with its canonical data.

    The constructor also makes the graph's five caches, under the contract
    of ``unloading.BoundedCache``: `closure_cache`, `colength_cache`,
    `record_cache`, `atlas_cache` and `walk_cache`.  Two graphs built from
    one matrix are equal but share no cached values.

    The constructor only stores what `build_graph` computed: besides the
    matrix, K and the adjacency lists, `scaled_canonical` = (D, D*K), D the
    lcm of the denominators of K, and `_edge_kernel`: (E_1^2, ..., E_s^2)
    and the tree's edges (parent, child) in the breadth-first order from E1
    that validation walked, each edge once; every intersection product and
    every tree solve in ``unloading`` reads it.  `fundamental`, `rupture`
    and `_origin_bounds`, the origin's scaled region bounds, whose closure
    of floor(-K) runs both unloading variants once per graph, are
    ``errors._lazy``.
    """

    _shown = ("matrix", "canonical", "adjacency")

    def __init__(
        self,
        matrix: Matrix,
        canonical: tuple[Fraction, ...],
        adjacency: tuple[tuple[int, ...], ...],
        scaled_canonical: tuple[int, tuple[int, ...]],  # (D, D*K)
        edge_kernel: tuple,  # ((E_1^2, ..., E_s^2), edges (parent, child))
    ) -> None:
        self.__dict__.update(
            matrix=matrix,
            canonical=canonical,
            adjacency=adjacency,
            scaled_canonical=scaled_canonical,
            _edge_kernel=edge_kernel,
            closure_cache=BoundedCache(),
            colength_cache=BoundedCache(),
            record_cache=BoundedCache(),
            atlas_cache=BoundedCache(lambda atlas: len(atlas.arrangement.faces)),
            walk_cache=BoundedCache(lambda walk: max(1, len(walk[1]))),  # (until, jumps)
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.matrix, self.canonical, self.adjacency) == (
            other.matrix, other.canonical, other.adjacency
        )

    def __hash__(self) -> int:
        return hash((self.matrix, self.canonical, self.adjacency))

    @property
    def size(self) -> int:
        return len(self.matrix)

    @_lazy
    def fundamental(self) -> tuple[int, ...]:
        """Z, the smallest nonzero antinef divisor: it dominates every E_j, so
        it is the closure of E1, called by module attribute for the tracer."""
        return unloading.antinef_closure(self, (1,) + (0,) * (self.size - 1))

    @_lazy
    def _origin_bounds(self) -> tuple[int, ...]:
        """B_j = D*k_j + D*(1 + e_j), e the checked closure of floor(-K)."""
        denominator, scaled = self.scaled_canonical
        closure = antinef_closure_checked(self, [-k // denominator for k in scaled])
        return tuple([k + denominator * (1 + e) for k, e in zip(scaled, closure)])

    @_lazy
    def rupture(self) -> tuple[bool, ...]:
        return tuple([len(neighbors) >= 3 for neighbors in self.adjacency])

    def label(self, j: int) -> str:
        return f"E{j + 1}"


class IdealTuple(NamedTuple):
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
        return tuple([max(column) > 0 for column in zip(*self.excesses)])

    @property
    def rupture_or_dicritical(self) -> tuple[bool, ...]:
        return tuple([a or b for a, b in zip(self.graph.rupture, self.dicritical)])


# ---------------------------------------------------------------------------
# Graph construction and validation.
# ---------------------------------------------------------------------------


def _refuse_first_violation(matrix: Matrix) -> NoReturn:
    """Raise the refusal for the first entry, row by row, that breaks
    symmetry, the 0/1 rule off the diagonal, or E_j^2 <= -1."""
    size = len(matrix)
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
    raise InternalConsistencyError("matrix refused without a violation to name")


def _validate_matrix(
    matrix: Matrix,
) -> tuple[tuple[tuple[int, ...], ...], tuple[Fraction, ...], tuple]:
    """Full admissibility check; returns the adjacency lists, K and the
    graph's `_edge_kernel`.

    Checks run in a fixed order: symmetry, off-diagonal entries, diagonal
    entries, connectivity, tree shape, then negative definiteness.  The
    first three compare the rows with the columns and then count each row's
    0s and 1s; an entry-by-entry scan runs only to name the first violation.
    """
    size = len(matrix)
    if size == 0:
        raise LengthMismatch("intersection matrix is empty")
    if any(row != column for row, column in zip(matrix, zip(*matrix))):
        _refuse_first_violation(matrix)
    adjacency = []
    for i, row in enumerate(matrix):
        ones = row.count(1)
        # E_i^2 <= -1 is neither 0 nor 1: the row is admissible exactly when
        # its other size - 1 entries are all 0 or 1
        if row[i] > -1 or row.count(0) + ones != size - 1:
            _refuse_first_violation(matrix)
        # the positions of the 1s, by searches in C rather than a Python loop
        neighbors = []
        j = -1
        for _ in range(ones):
            j = row.index(1, j + 1)
            neighbors.append(j)
        adjacency.append(tuple(neighbors))
    edge_count = sum(len(neighbors) for neighbors in adjacency) // 2
    # breadth-first from E1: each edge (parent, child), the child reached first
    edges = []
    order = [0]
    seen = [True] + [False] * (size - 1)
    for current in order:
        for neighbor in adjacency[current]:
            if not seen[neighbor]:
                seen[neighbor] = True
                edges.append((current, neighbor))
                order.append(neighbor)
    if len(order) != size:
        raise Disconnected(f"dual graph has {size - len(order)} unreachable components")
    if edge_count != size - 1:
        raise NotTree(f"connected graph with {edge_count} edges on {size} vertices")
    # M K = b, b_j = -2 - E_j^2, is (-M) K = 2 + E_j^2 on every component
    kernel = tuple([row[j] for j, row in enumerate(matrix)]), tuple(edges)
    scaled, scale = _tree_solve(kernel, [True] * size, [2 + square for square in kernel[0]])
    return tuple(adjacency), tuple([Fraction(k, scale[0]) for k in scaled]), kernel


def build_graph(rows) -> DualGraph:
    """Validate an intersection matrix and build the graph with K and Z.

    Raises NotRational unless p_a(Z) = 0 (Artin's rationality criterion).
    """
    rows = _entries(rows, None, "intersection matrix")
    matrix = tuple(
        _integer_vector(row, len(rows), "intersection matrix row") for row in rows
    )
    adjacency, canonical, kernel = _validate_matrix(matrix)
    denominator, scaled = over_common_denominator(canonical)
    graph = DualGraph(matrix, canonical, adjacency, (denominator, scaled), kernel)
    for j, product in enumerate(intersection_products(graph, scaled)):
        # D (K + E_j).E_j = (D K).E_j + D E_j^2
        if product + denominator * matrix[j][j] != -2 * denominator:
            raise InternalConsistencyError(f"K fails adjunction at E{j + 1}")
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
    """E_j^2 = -(2D + sum of D*k_l over neighbors l) / (D*k_j + D) in
    integers, D the common denominator of K."""
    denominator, scaled = over_common_denominator(canonical)
    diagonal = []
    for j, k in enumerate(scaled):
        below = k + denominator
        if below == 0:
            raise DivisionByZero(
                f"component E{j + 1} has canonical coefficient -1; "
                "its self-intersection is not determined by the tree"
            )
        above = -2 * denominator - sum(scaled[l] for l in neighbor_sets[j])
        value, remainder = divmod(above, below)
        if remainder or value > -1:
            raise NonIntegralSelfIntersection(
                f"component E{j + 1} would need self-intersection "
                f"{Fraction(above, below)}"
            )
        diagonal.append(value)
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
    rows = []
    for j, neighbors in enumerate(neighbor_sets):
        row = [0] * size
        for l in neighbors:
            row[l] = 1
        row[j] = diagonal[j]
        rows.append(row)
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
    normalized, excesses = [], []
    for index, vector in enumerate(ideals):
        entries = _integer_vector(vector, graph.size, f"ideal {index + 1}")
        if all(entry == 0 for entry in entries):
            raise NotAntinef(f"ideal {index + 1} is the zero divisor")
        # D.E_j once per ideal: the antinef test, its refusal and the excesses
        products = intersection_products(graph, entries)
        bad = [
            graph.label(j)
            for j, product in enumerate(products)
            if product > 0 or entries[j] < 0
        ]
        if bad:
            raise NotAntinef(
                f"ideal {index + 1} is not antinef (violations at {', '.join(bad)})"
            )
        if any(entry < 1 for entry in entries):
            # nonzero antinef divisors on a connected graph have full support
            raise NotAntinef(f"ideal {index + 1} lacks full support")
        normalized.append(entries)
        excesses.append(tuple([-product for product in products]))
    return IdealTuple(graph=graph, ideals=tuple(normalized), excesses=tuple(excesses))


def singularity_class(graph: DualGraph) -> SingularityClass:
    """Classify by K: log-terminal (> -1), log-canonical only, or neither."""
    if any(k < -1 for k in graph.canonical):
        return SingularityClass.NEITHER
    if any(k == -1 for k in graph.canonical):
        return SingularityClass.LOG_CANONICAL_ONLY
    return SingularityClass.LOG_TERMINAL
