"""Antinef closures and colengths on a fixed intersection lattice.

A divisor here is a vector of coefficients over the exceptional components,
paired against a symmetric negative-definite intersection matrix M.  A
divisor D is *antinef* when it is effective and every product D.E_j =
(M D)_j is <= 0.  The closure operator sends any integer divisor to the
smallest antinef divisor bounding it from above; it is computed by the
classical unloading loop.

Two implementations of unloading are provided on purpose:

* :func:`antinef_closure` — the production version, which unloads with the
  ceiling step n_j = ceil((D.E_j) / (-E_j^2));
* :func:`antinef_closure_unit` — an independent oracle that adds one copy of
  E_j at a time, taking violated components from a last-in-first-out
  worklist instead of rescanning in index order.

Both must return the same divisor on every input; the test-suite and the
``closure`` CLI subcommand verify that exactly.

All arithmetic is exact (Python integers / fractions).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    InternalConsistencyError,
    LengthMismatch,
    NonIntegralTotal,
    NotAntinef,
)

Matrix = tuple[tuple[int, ...], ...]


def _rows(matrix_like) -> Matrix:
    """Accept either a raw matrix (sequence of rows) or a graph carrying one."""
    matrix = getattr(matrix_like, "matrix", matrix_like)
    return tuple(tuple(row) for row in matrix)


def _check_length(matrix: Matrix, divisor: Sequence) -> None:
    if len(divisor) != len(matrix):
        raise LengthMismatch(
            f"divisor has {len(divisor)} coefficients, matrix has {len(matrix)} rows"
        )


def intersection_products(matrix_like, divisor: Sequence[int]) -> tuple[int, ...]:
    """Return (D.E_1, ..., D.E_s), i.e. the matrix-vector product M D."""
    matrix = _rows(matrix_like)
    _check_length(matrix, divisor)
    return tuple(
        sum(entry * coefficient for entry, coefficient in zip(row, divisor))
        for row in matrix
    )


def pairing(matrix_like, left: Sequence, right: Sequence):
    """Exact intersection pairing left . right = left^T M right."""
    matrix = _rows(matrix_like)
    _check_length(matrix, left)
    _check_length(matrix, right)
    return sum(
        left[i] * sum(matrix[i][j] * right[j] for j in range(len(matrix)))
        for i in range(len(matrix))
    )


def is_antinef(matrix_like, divisor: Sequence[int]) -> bool:
    """True iff *divisor* is effective, integral, and all products are <= 0."""
    matrix = _rows(matrix_like)
    _check_length(matrix, divisor)
    if any(coefficient != int(coefficient) for coefficient in divisor):
        return False
    if any(coefficient < 0 for coefficient in divisor):
        return False
    return all(product <= 0 for product in intersection_products(matrix, divisor))


def _unload(matrix: Matrix, start: list[int]) -> tuple[int, ...]:
    """Ceiling-step unloading loop.

    Scans components lowest-index-first; at the first violated component j
    (D.E_j > 0) it adds n_j = ceil((D.E_j) / (-E_j^2)) copies of E_j, then
    rescans from the start.  Terminates because the closure exists and every
    intermediate divisor stays <= it.
    """
    size = len(matrix)
    divisor = start
    products = list(intersection_products(matrix, divisor))
    while True:
        for j in range(size):
            if products[j] > 0:
                # ceil(products[j] / -matrix[j][j]) with positive operands
                step = -(-products[j] // -matrix[j][j])
                divisor[j] += step
                row = matrix[j]
                for i in range(size):
                    if row[i]:
                        products[i] += step * row[i]
                break
        else:
            return tuple(divisor)


def antinef_closure(matrix_like, divisor: Sequence[int]) -> tuple[int, ...]:
    """Smallest antinef divisor >= divisor (negative coefficients clamp to 0).

    Uses ceiling-step unloading.  The result is asserted antinef and above
    the clamped input.
    """
    matrix = _rows(matrix_like)
    _check_length(matrix, divisor)
    clamped = [max(int(coefficient), 0) for coefficient in divisor]
    result = _unload(matrix, list(clamped))
    if not is_antinef(matrix, result):
        raise InternalConsistencyError("unloading returned a non-antinef divisor")
    if any(r < c for r, c in zip(result, clamped)):
        raise InternalConsistencyError("unloading decreased a coefficient")
    return result


def antinef_closure_unit(matrix_like, divisor: Sequence[int]) -> tuple[int, ...]:
    """Independent unloading oracle that adds one component at a time.

    Violated components wait on a last-in-first-out worklist.  Adding E_j
    changes only the products at j and its neighbours, so those are the only
    ones pushed again; a popped component that is no longer violated is
    skipped.
    """
    matrix = _rows(matrix_like)
    _check_length(matrix, divisor)
    result = [max(int(coefficient), 0) for coefficient in divisor]
    products = list(intersection_products(matrix, result))
    pending = [j for j, product in enumerate(products) if product > 0]
    while pending:
        j = pending.pop()
        if products[j] <= 0:
            continue
        result[j] += 1
        for i, entry in enumerate(matrix[j]):
            if entry:
                products[i] += entry
                if products[i] > 0:
                    pending.append(i)
    result = tuple(result)
    if not is_antinef(matrix, result):
        raise InternalConsistencyError("unit unloading returned a non-antinef divisor")
    return result


_closure_cache: dict[tuple[Matrix, tuple[int, ...]], tuple[int, ...]] = {}


def antinef_closure_checked(matrix_like, divisor: Sequence[int]) -> tuple[int, ...]:
    """Closure computed by both unloading variants, which must agree exactly.

    Memoized per (matrix, divisor): atlases and perturbation sums evaluate
    heavily overlapping floor vectors, and the closure is deterministic.
    """
    matrix = _rows(matrix_like)
    key = (matrix, tuple(int(c) for c in divisor))
    cached = _closure_cache.get(key)
    if cached is not None:
        return cached
    fast = antinef_closure(matrix, key[1])
    slow = antinef_closure_unit(matrix, key[1])
    if fast != slow:
        raise InternalConsistencyError(
            f"unloading variants disagree: {fast} vs {slow}"
        )
    _closure_cache[key] = fast
    return fast


def fundamental_cycle(matrix_like) -> tuple[int, ...]:
    """Smallest nonzero antinef divisor (all coefficients >= 1).

    Computed as the closure of a single unit coefficient; every nonzero
    antinef divisor dominates every unit divisor, so the starting component
    does not matter (the test-suite checks all of them).
    """
    matrix = _rows(matrix_like)
    seed = [0] * len(matrix)
    seed[0] = 1
    return antinef_closure(matrix, seed)


_colength_cache: dict[tuple, int] = {}


def colength(matrix_like, canonical: Sequence[Fraction], divisor: Sequence[int]) -> int:
    """Codimension of the complete ideal attached to an antinef divisor.

    colength(D) = -D.(D + K) / 2.  Defined for antinef divisors only.  The
    result must be a nonnegative integer, zero exactly for the zero divisor;
    anything else raises NonIntegralTotal.  Successful results are memoized.
    """
    matrix = _rows(matrix_like)
    _check_length(matrix, canonical)
    _check_length(matrix, divisor)
    key = (matrix, tuple(canonical), tuple(divisor))
    cached = _colength_cache.get(key)
    if cached is not None:
        return cached
    if not is_antinef(matrix, divisor):
        raise NotAntinef(f"colength is defined for antinef divisors, got {divisor}")
    shifted = [Fraction(d) + Fraction(k) for d, k in zip(divisor, canonical)]
    total = -Fraction(pairing(matrix, divisor, shifted), 2)
    if total.denominator != 1:
        raise NonIntegralTotal(f"colength came out fractional: {total}")
    value = int(total)
    if value < 0:
        raise NonIntegralTotal(f"colength came out negative: {value}")
    if (value == 0) != all(coefficient == 0 for coefficient in divisor):
        raise NonIntegralTotal(
            "colength must vanish exactly for the zero divisor"
        )
    _colength_cache[key] = value
    return value


def divisor_leq(left: Iterable, right: Iterable) -> bool:
    """Componentwise <= for divisors."""
    return all(a <= b for a, b in zip(left, right))
