"""Antinef closures and colengths on the intersection lattice of a dual graph.

A divisor here is a vector of coefficients over the exceptional components
of a :class:`~mmideal.dualgraph.DualGraph`.  The graph is a tree, so each
product D.E_j = E_j^2 d_j + (sum of d_l over the neighbours l of j) is read
off its sparse row in O(valence); no dense matrix is formed.  A divisor D is
*antinef* when it is effective and every product D.E_j is <= 0.  The closure
operator sends any integer divisor to the smallest antinef divisor bounding
it from above; it is computed by the classical unloading loop.

Two implementations of unloading are provided on purpose:

* :func:`antinef_closure` — the production version, which unloads with the
  ceiling step n_j = ceil((D.E_j) / (-E_j^2));
* :func:`antinef_closure_unit` — an independent oracle that adds one copy of
  E_j at a time, taking violated components from a last-in-first-out
  worklist instead of rescanning in index order.

Both must return the same divisor on every input; the test-suite and the
``closure`` CLI subcommand verify that exactly.  Both start from the
clamped divisor max(D, 0).  Every public function here reads its divisor
through ``rationals``: one integer (an ``int`` or a ``Fraction`` with
denominator 1) per component; a float, bool, string or non-integer
``Fraction`` raises ValidationError, a wrong length LengthMismatch.  Checked
closures are memoized per graph, keyed by the clamped divisor alone, in the
graph's own ``closure_cache``, a :class:`ClosureCache` of at most
``CLOSURE_CACHE_BOUND`` entries that counts its hits and misses; the cache
dies with its graph.

All arithmetic is in Python integers: the colength uses D.K = sum of
d_j (-2 - E_j^2), which holds because M K = b, so K itself is never read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import InternalConsistencyError, NonIntegralTotal, NotAntinef
from .rationals import _integer_vector

if TYPE_CHECKING:
    from .dualgraph import DualGraph

# Entries one graph's closure cache keeps; the largest cache a seed-1
# benchmark pass fills holds a few hundred, a RAT6 4x4 atlas about 1000.
CLOSURE_CACHE_BOUND = 4096


class ClosureCache(dict):
    """Checked closures keyed by divisor, at most ``CLOSURE_CACHE_BOUND``
    of them: storing into a full cache evicts the oldest entry first.
    ``hits`` and ``misses`` count the lookups."""

    def __init__(self) -> None:
        super().__init__()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple[int, ...]) -> tuple[int, ...] | None:
        found = self.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def store(self, key: tuple[int, ...], closure: tuple[int, ...]) -> None:
        while len(self) >= CLOSURE_CACHE_BOUND:
            del self[next(iter(self))]
        self[key] = closure


def intersection_products(graph: DualGraph, divisor: Sequence[int]) -> tuple[int, ...]:
    """Return (D.E_1, ..., D.E_s), read off the sparse rows of the tree;
    the divisor is the library's own, unchecked."""
    matrix, adjacency = graph.matrix, graph.adjacency
    return tuple(
        matrix[j][j] * coefficient + sum(divisor[l] for l in adjacency[j])
        for j, coefficient in enumerate(divisor)
    )


def _divisor(graph: DualGraph, divisor: Sequence) -> tuple[int, ...]:
    return _integer_vector(divisor, graph.size, "divisor coefficients")


def is_antinef(graph: DualGraph, divisor: Sequence[int]) -> bool:
    """True iff the integer *divisor* is effective and all products are <= 0."""
    divisor = _divisor(graph, divisor)
    if any(coefficient < 0 for coefficient in divisor):
        return False
    return all(product <= 0 for product in intersection_products(graph, divisor))


def _clamped(graph: DualGraph, divisor: Sequence) -> list[int]:
    """max(D, 0) coefficientwise.  Both closures start from it; a
    non-integer coefficient is refused, never truncated."""
    return [c if c > 0 else 0 for c in _divisor(graph, divisor)]


def _unload(graph: DualGraph, start: list[int]) -> tuple[int, ...]:
    """Ceiling-step unloading loop.

    Scans components lowest-index-first; at the first violated component j
    (D.E_j > 0) it adds n_j = ceil((D.E_j) / (-E_j^2)) copies of E_j, then
    rescans from the start.  Terminates because the closure exists and every
    intermediate divisor stays <= it.
    """
    matrix, adjacency = graph.matrix, graph.adjacency
    divisor = start
    products = list(intersection_products(graph, divisor))
    while True:
        for j, product in enumerate(products):
            if product > 0:
                # ceil(product / -E_j^2) with positive operands
                step = -(-product // -matrix[j][j])
                divisor[j] += step
                products[j] += step * matrix[j][j]
                for l in adjacency[j]:
                    products[l] += step
                break
        else:
            return tuple(divisor)


def antinef_closure(graph: DualGraph, divisor: Sequence[int]) -> tuple[int, ...]:
    """Smallest antinef divisor >= divisor (negative coefficients clamp to 0,
    non-integer ones are refused).

    Uses ceiling-step unloading.  The result is asserted antinef and above
    the clamped input.
    """
    clamped = _clamped(graph, divisor)
    result = _unload(graph, list(clamped))
    if not is_antinef(graph, result):
        raise InternalConsistencyError("unloading returned a non-antinef divisor")
    if any(r < c for r, c in zip(result, clamped)):
        raise InternalConsistencyError("unloading decreased a coefficient")
    return result


def antinef_closure_unit(graph: DualGraph, divisor: Sequence[int]) -> tuple[int, ...]:
    """Independent unloading oracle that adds one component at a time.

    Violated components wait on a last-in-first-out worklist.  Adding E_j
    changes only the products at j and its neighbours, so those are the only
    ones pushed again (j itself included: one copy of E_j may not be enough);
    a popped component that is no longer violated is skipped.
    """
    matrix, adjacency = graph.matrix, graph.adjacency
    result = _clamped(graph, divisor)
    products = list(intersection_products(graph, result))
    pending = [j for j, product in enumerate(products) if product > 0]
    while pending:
        j = pending.pop()
        if products[j] <= 0:
            continue
        result[j] += 1
        products[j] += matrix[j][j]
        if products[j] > 0:
            pending.append(j)
        for l in adjacency[j]:
            products[l] += 1
            if products[l] > 0:
                pending.append(l)
    result = tuple(result)
    if not is_antinef(graph, result):
        raise InternalConsistencyError("unit unloading returned a non-antinef divisor")
    return result


def antinef_closure_checked(graph: DualGraph, divisor: Sequence[int]) -> tuple[int, ...]:
    """Closure computed by both unloading variants, which must agree exactly.

    Memoized in the graph's ``closure_cache``, keyed by the clamped divisor
    max(D, 0), which has the same closure: atlases and perturbation sums
    evaluate heavily overlapping floor vectors, and the closure is
    deterministic.
    """
    key = tuple(_clamped(graph, divisor))
    cached = graph.closure_cache.lookup(key)
    if cached is not None:
        return cached
    fast = antinef_closure(graph, key)
    slow = antinef_closure_unit(graph, key)
    if fast != slow:
        raise InternalConsistencyError(
            f"unloading variants disagree: {fast} vs {slow}"
        )
    graph.closure_cache.store(key, fast)
    return fast


def fundamental_cycle(graph: DualGraph) -> tuple[int, ...]:
    """Smallest nonzero antinef divisor (all coefficients >= 1).

    Computed as the closure of a single unit coefficient; every nonzero
    antinef divisor dominates every unit divisor, so the starting component
    does not matter (the test-suite checks all of them).
    """
    seed = [0] * graph.size
    seed[0] = 1
    return antinef_closure(graph, seed)


def colength(graph: DualGraph, divisor: Sequence[int]) -> int:
    """Codimension of the complete ideal attached to an antinef divisor.

    colength(D) = -D.(D + K) / 2 = -(D.D + sum of d_j (-2 - E_j^2)) / 2,
    in integers.  Defined for antinef divisors only; the products D.E_j
    that test that are the ones the formula reads.  The result must be a
    nonnegative integer, zero exactly for the zero divisor; anything else
    raises NonIntegralTotal.
    """
    divisor = _divisor(graph, divisor)
    products = intersection_products(graph, divisor)
    if any(d < 0 for d in divisor) or any(product > 0 for product in products):
        raise NotAntinef(f"colength is defined for antinef divisors, got {divisor}")
    matrix = graph.matrix
    twice = -sum(
        d * (product - 2 - matrix[j][j])
        for j, (d, product) in enumerate(zip(divisor, products))
    )
    if twice % 2:
        raise NonIntegralTotal(f"colength came out fractional: {twice}/2")
    value = twice // 2
    if value < 0:
        raise NonIntegralTotal(f"colength came out negative: {value}")
    if (value == 0) != all(coefficient == 0 for coefficient in divisor):
        raise NonIntegralTotal(
            "colength must vanish exactly for the zero divisor"
        )
    return value


def divisor_leq(left: Sequence[int], right: Sequence[int]) -> bool:
    """Componentwise <= for two integer divisors of one length."""
    left = _integer_vector(left, None, "left divisor")
    right = _integer_vector(right, len(left), "right divisor")
    return all(a <= b for a, b in zip(left, right))
