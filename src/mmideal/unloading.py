"""Antinef closures and colengths on the intersection lattice of a dual graph.

A divisor here is a vector of coefficients over the exceptional components
of a :class:`~mmideal.dualgraph.DualGraph`.  The graph is a tree, so the
products D.E_j = E_j^2 d_j + (sum of d_l over the neighbours l of j) are
read off its diagonal and its edge list, each edge once, in O(s); no dense
matrix is formed, and every product in the library goes through
:func:`intersection_products`.  A divisor D is *antinef* when it is
effective and every product D.E_j is <= 0.  The closure operator sends any
integer divisor to the smallest antinef divisor bounding it from above; it
is computed by the classical unloading loop.

Two implementations of unloading are provided on purpose:

* :func:`antinef_closure` — the production version, which sweeps the
  components in index order and fires each violated one with the ceiling
  step n_j = ceil((D.E_j) / (-E_j^2));
* :func:`antinef_closure_unit` — an independent oracle that adds one copy of
  E_j at a time, taking violated components from a last-in-first-out
  worklist instead of sweeping in index order.

Both must return the same divisor on every input; the test-suite and the
``closure`` CLI subcommand verify that exactly.  Called directly, both
start from the clamped divisor max(D, 0).  The package exports only the
checked closure below; both loops stay module-level, unexported, so that
the benchmark's tracer can wrap them.  The fundamental cycle Z is
`DualGraph.fundamental`, the ceiling loop's closure of E1.

:func:`antinef_closure_checked` does not make the oracle repeat the climb
the ceiling loop has just made.  From the ceiling result it unloads
*downward* to a start L with key <= L and L.E_j >= 0 wherever l_j > key_j
(key = max(D, 0)), checks that certificate on its own, and lets the oracle
climb from L.  The certificate alone puts L below the closure:

    Lemma.  Let M be negative definite with nonnegative off-diagonal
    entries, key <= L, and (M L)_j >= 0 wherever l_j > key_j.  Then L <= C
    for every antinef C >= key.

    Proof.  Put Y = L - C = Y+ - Y- and P = {j : y_j > 0}.  For j in P,
    l_j > c_j >= key_j, so (M L)_j >= 0 >= (M C)_j and (M Y)_j >= 0; also
    y-_j = 0, so (M Y-)_j sums off-diagonal entries times y-_l and is >= 0.
    Hence (M Y+)_j = (M Y)_j + (M Y-)_j >= 0 on P, and Y+ vanishes off P,
    so Y+^T M Y+ = sum over P of y+_j (M Y+)_j >= 0.  Negative
    definiteness forces Y+ = 0, that is L <= C.

So key <= L <= closure(key), hence closure(L) = closure(key), and every
unit step from L is forced as it is from key: the oracle's answer never
depends on the ceiling result being right, and an overshooting ceiling
loop still disagrees with it.  This is the least-element property of
Z-matrix polyhedra (Cottle and Veinott, Math. Programming 3, 1972) for the
intersection form.

Index-order sweeps behave like Gauss-Seidel and crawl on long chains at
large coefficients, so a call of the ceiling loop still firing after s
sweeps (s = graph.size), at a divisor D, proposes a new start: the least
rational x >= D with x.E_j <= 0 for every j, the least element of a
Z-matrix polyhedron (Cottle and Veinott again), which Chandrasekaran's
method (Opsearch 7, 1970) finds in at most s rounds of one tree solve each.
The same solver, in integer minors, gives K at build time.  The loop checks
the lemma for x itself, in integers (D in place of key; the proof holds for
rational vectors), and sweeps on from ceil(x), or from D if x fails: by the
lemma x <= C for the closure C of D, and ceil(x) <= C because C is integral,
so every later step is forced and a wrong proposal costs sweeps, never a
closure.  A call that settles within s sweeps runs no proposal.

On a checked closure's miss each divisor is read once and each product
vector computed once: the key and the oracle's start go to the two closures
and the descent as :class:`_Known` tuples, which carry the products the
miss has computed so far, the ceiling result's among them.

Every public function here reads its divisor through ``rationals``: one
integer (an ``int`` or a ``Fraction`` with denominator 1) per component; a
float, bool, string or non-integer ``Fraction`` raises ValidationError, a
wrong length LengthMismatch.

Checked closures are served from the graph's ``closure_cache``, keyed by
the clamped divisor alone, and colengths from its ``colength_cache``, keyed
by the divisor as read, both under the contract of :class:`BoundedCache`;
along a ray the left divisor at one candidate is the divisor at the one
before, so most colengths are repeats.

All arithmetic is in Python integers: the colength uses D.K = sum of
d_j (-2 - E_j^2), which holds because M K = b, so K itself is never read.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import InternalConsistencyError, NonIntegralTotal, NotAntinef, NotNegativeDefinite
from .rationals import _integer_vector

if TYPE_CHECKING:
    from .dualgraph import DualGraph

# Weight each of one graph's caches keeps: entries, faces in the atlas cache
# or jumps in the walk cache.  The largest cache a seed-1 benchmark pass
# fills holds a few hundred entries, a RAT6 4x4 atlas about 1000 closures and
# 1012 faces; in a seed-1 or seed-2 benchmark pass no graph's atlas cache
# holds more than 742 faces, and no walk cache more than 434 jumps.
CLOSURE_CACHE_BOUND = 4096


class BoundedCache:
    """The contract of every graph cache.  A `DualGraph` makes five in its
    constructor, which die with it and are never compared or shown:
    `closure_cache` and `colength_cache` (this module), `record_cache`
    (``multiplicity``), `atlas_cache` (``walls``) and `walk_cache`
    (``rays``).  Keys are divisors, points, or (tuple, box) and (tuple, ray)
    pairs, each read through ``rationals`` before the lookup.

    Only `serve` writes a cache.  It serves a held key, which `fits` must
    also accept when given, and counts a hit; otherwise it counts a miss,
    runs ``compute(a, b)``, the site's routes and checks, and stores and
    returns the value.  A failed check raises out of `compute`, and nothing
    is stored.  Storing evicts the oldest entries, first in first out (a
    hit does not renew its key), until the new value fits under
    ``CLOSURE_CACHE_BOUND`` in total weight, and ``evictions`` counts them;
    a value heavier than the bound is not held, and counts too.  `weigh`
    gives a value's weight, 1 unless the owner says otherwise (faces for an
    atlas, jumps for a walk, at least 1), and `held` is the total.  Storing
    under a held key drops the old value's weight and moves the key to the
    newest end.  `len`, iteration over the keys and `items` read the
    entries oldest first.  ``tests/test_caches.py`` holds the five sites to
    this contract, one row each.
    """

    def __init__(self, weigh=lambda value: 1) -> None:
        self._entries: dict = {}
        self.weigh = weigh
        self.held = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def serve(self, key: tuple, compute, a, b, fits=None):
        value = self._entries.get(key)
        if value is not None and (fits is None or fits(value)):
            self.hits += 1
            return value
        self.misses += 1
        value = compute(a, b)
        self._store(key, value)
        return value

    def _store(self, key: tuple, value) -> None:
        entries, weigh = self._entries, self.weigh
        if key in entries:
            self.held -= weigh(entries.pop(key))
        weight = weigh(value)
        if weight > CLOSURE_CACHE_BOUND:
            self.evictions += 1
            return
        while self.held + weight > CLOSURE_CACHE_BOUND:
            self.held -= weigh(entries.pop(next(iter(entries))))
            self.evictions += 1
        entries[key] = value
        self.held += weight

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def items(self):
        return self._entries.items()


def intersection_products(graph: DualGraph, divisor: Sequence[int]) -> tuple[int, ...]:
    """Return (D.E_1, ..., D.E_s); the divisor is the library's own,
    unchecked.  The products start as E_j^2 d_j, and each edge (a, b) of the
    tree, listed once in the graph's ``_edge_kernel``, adds d_b at a and d_a
    at b."""
    diagonal, edges = graph._edge_kernel
    products = list(map(operator.mul, diagonal, divisor))
    for a, b in edges:
        products[a] += divisor[b]
        products[b] += divisor[a]
    return tuple(products)


def _divisor(graph: DualGraph, divisor: Sequence) -> tuple[int, ...]:
    return _integer_vector(divisor, graph.size, "divisor coefficients")


def is_antinef(graph: DualGraph, divisor: Sequence[int]) -> bool:
    """True iff the integer *divisor* is effective and all products are <= 0."""
    divisor = _divisor(graph, divisor)
    if min(divisor) < 0:
        return False
    return max(intersection_products(graph, divisor)) <= 0


def _clamped(graph: DualGraph, divisor: Sequence) -> list[int]:
    """max(D, 0) coefficientwise.  Both public closures start from it; a
    non-integer coefficient is refused, never truncated."""
    return [c if c > 0 else 0 for c in _divisor(graph, divisor)]


class _Known(tuple):
    """A nonnegative integer divisor that a checked closure's miss has
    already read, with ``known``: the product vectors that miss has
    computed, keyed by divisor and shared by every ``_Known`` of the miss.
    It is passed in place of a plain tuple, so the closures and the descent
    keep the arity a tracer or a test wraps them with."""

    def __new__(cls, divisor: Sequence[int], known: dict) -> _Known:
        self = super().__new__(cls, divisor)
        self.known = known
        return self


def _products(graph: DualGraph, divisor: Sequence[int], known: dict | None) -> tuple[int, ...]:
    """intersection_products of *divisor*, read from and stored in *known*
    when it is a miss's dictionary."""
    if known is None:
        return intersection_products(graph, divisor)
    products = known.get(divisor)
    if products is None:
        products = known[divisor] = intersection_products(graph, divisor)
    return products


def _unload(graph: DualGraph, start: list[int]) -> tuple[int, ...]:
    """Ceiling-step unloading loop, in sweeps.

    Each sweep visits the components in index order and, at every violated
    one it meets (D.E_j > 0, read after the sweep's earlier steps), adds
    n_j = ceil((D.E_j) / (-E_j^2)) copies of E_j; sweeps repeat until one
    fires nothing.  Every step is forced: if D <= C for an antinef C, the
    step keeps D <= C.  So the loop ends, at the closure of its start.

    If the s-th sweep (s = graph.size) still fires, at a divisor D, the loop
    takes :func:`_proposal` of D once and sweeps on from its ceiling when
    :func:`_certified` puts it between D and the closure, else from D.
    """
    diagonal = graph._edge_kernel[0]
    adjacency = graph.adjacency
    divisor = start
    products = list(intersection_products(graph, divisor))
    sweeps = len(diagonal)  # left before the proposal
    fired = True
    while fired:
        fired = False
        for j, square in enumerate(diagonal):
            product = products[j]
            if product > 0:
                # ceil(product / -E_j^2) with positive operands
                step = -(-product // -square)
                divisor[j] += step
                products[j] += step * square
                for l in adjacency[j]:
                    products[l] += step
                fired = True
        sweeps -= 1
        if fired and not sweeps:
            floor = tuple(divisor)
            scaled, scale = _proposal(graph, floor)
            if _certified(graph, floor, scaled, scale):
                divisor = [-(-y // delta) for y, delta in zip(scaled, scale)]
                products = list(intersection_products(graph, divisor))
    return tuple(divisor)


def _tree_solve(kernel: tuple, free: list[bool], rhs: list[int]) -> tuple[list[int], list[int]]:
    """(delta x, delta) componentwise for the x with (A x)_j = rhs_j at every
    free j, A = -M; off the mask x_l = rhs_l over 1, which the caller has
    also moved into its neighbours' rhs.  *rhs* is overwritten.

    Leaf first over the edges (parent, child) of ``DualGraph._edge_kernel``,
    folding a free child c into a free parent p keeps p's pivot as
    det_p / minor_p: the determinants of A on the vertices folded into p so
    far, with and without p, so the expansion along the edge makes det_p
    det_c - minor_p minor_c the new det_p.  A pivot det <= 0, the first leaf
    first, raises NotNegativeDefinite (Sylvester).  A free root fixes
    delta = det for its tree, and delta x_v is an integer by Cramer's rule,
    which the way back computes by exact division.
    """
    diagonal, edges = kernel
    det = [-square for square in diagonal]
    minor = [1] * len(det)
    for up, vertex in [*reversed(edges), (None, 0)]:
        if free[vertex]:
            d = det[vertex]
            if d <= 0:
                pivot = Fraction(-d, minor[vertex])
                raise NotNegativeDefinite(
                    f"elimination pivot of E{vertex + 1} is {pivot} (must be < 0)"
                )
            if up is not None and free[up]:
                m = minor[up]
                det[up], minor[up], rhs[up] = (
                    det[up] * d - m * minor[vertex], m * d, rhs[up] * d + rhs[vertex] * m
                )
    scale = [1] * len(det)
    for up, vertex in [(None, 0), *edges]:
        if free[vertex]:
            if up is not None and free[up]:
                delta = scale[vertex] = scale[up]
                rhs[vertex] = (rhs[vertex] * delta + rhs[up] * minor[vertex]) // det[vertex]
            else:
                scale[vertex] = det[vertex]
    return rhs, scale


def _numerator(graph: DualGraph, j: int, scaled: list[int], scale: list[int]) -> int:
    """The numerator of x.E_j over a positive denominator, so of its sign,
    for x_l = scaled_l / scale_l with every scale_l > 0."""
    numerator, denominator = graph._edge_kernel[0][j] * scaled[j], scale[j]
    for l in graph.adjacency[j]:
        numerator = numerator * scale[l] + scaled[l] * denominator
        denominator *= scale[l]
    return numerator


def _proposal(graph: DualGraph, floor: Sequence[int]) -> tuple[list[int], list[int]]:
    """(delta x, delta) for the least rational x >= *floor* with x.E_j <= 0
    for every j, by Chandrasekaran's rounds: each frees the components where
    x.E_j > 0 and solves x.E_j = 0 on the free ones, x_l = floor_l on the
    others, by :func:`_tree_solve`."""
    adjacency = graph.adjacency
    free = [product > 0 for product in intersection_products(graph, floor)]
    while True:
        rhs = [
            sum([floor[l] for l in neighbors if not free[l]]) if free[j] else floor[j]
            for j, neighbors in enumerate(adjacency)
        ]
        scaled, scale = _tree_solve(graph._edge_kernel, free, rhs)
        grown = False
        for j in range(len(free)):
            if not free[j] and _numerator(graph, j, scaled, scale) > 0:
                free[j] = grown = True
        if not grown:
            return scaled, scale


def _certified(graph: DualGraph, floor: Sequence[int], scaled: list, scale: list) -> bool:
    """The module's lemma for x = scaled / scale with *floor* as key: every
    scale_l > 0, x >= floor, and x.E_j >= 0 wherever x_j > floor_j.  Then
    floor <= ceil(x) <= closure(floor)."""
    if min(scale) <= 0:
        return False
    for j, (y, delta, f) in enumerate(zip(scaled, scale, floor)):
        if y < f * delta or (y > f * delta and _numerator(graph, j, scaled, scale) < 0):
            return False
    return True


def _descend(graph: DualGraph, key: Sequence[int], top: Sequence[int]) -> tuple[int, ...]:
    """The greatest L with key <= L <= top and L.E_j >= 0 wherever
    l_j > key_j: the oracle's start in :func:`antinef_closure_checked`.

    Downward unloading from *top* (>= key): at a violated component j
    (l_j > key_j and L.E_j < 0) it removes min(l_j - key_j,
    ceil(-L.E_j / -E_j^2)) copies of E_j, after which j itself is settled,
    and pushes the neighbours whose products turned negative.  Each step
    is forced: every such L below the divisor before it is below the
    divisor after it.  So the order does not matter, and the loop ends at
    the greatest one.
    """
    diagonal = graph._edge_kernel[0]
    adjacency = graph.adjacency
    start = list(top)
    products = list(_products(graph, top, key.known if type(key) is _Known else None))
    pending = [j for j, product in enumerate(products) if product < 0]
    while pending:
        j = pending.pop()
        product, slack = products[j], start[j] - key[j]
        if product >= 0 or slack <= 0:
            continue
        # ceil(-product / -E_j^2) with positive operands
        step = min(slack, -(product // -diagonal[j]))
        start[j] -= step
        products[j] -= step * diagonal[j]
        for l in adjacency[j]:
            products[l] -= step
            if products[l] < 0:
                pending.append(l)
    return tuple(start)


def _check_start(graph: DualGraph, key: Sequence[int], start: Sequence[int]) -> tuple[int, ...]:
    """Raise unless key <= start and start.E_j >= 0 wherever start_j >
    key_j: the certificate that puts *start* below the closure of *key*.
    Returns the products of *start* it read."""
    products = _products(graph, start, key.known if type(key) is _Known else None)
    for s, k, product in zip(start, key, products):
        if s < k or (product < 0 and s > k):
            raise InternalConsistencyError(
                f"start {tuple(start)} is not certified below the closure of {tuple(key)}"
            )
    return products


def antinef_closure(graph: DualGraph, divisor: Sequence[int]) -> tuple[int, ...]:
    """Smallest antinef divisor >= divisor (negative coefficients clamp to 0,
    non-integer ones are refused).

    Uses ceiling-step unloading.  The result is asserted antinef, from a
    freshly computed product vector, and above the clamped input.
    """
    known = divisor.known if type(divisor) is _Known else None
    clamped = _clamped(graph, divisor) if known is None else list(divisor)
    result = _unload(graph, list(clamped))
    products = intersection_products(graph, result)
    if min(result) < 0 or max(products) > 0:
        raise InternalConsistencyError("unloading returned a non-antinef divisor")
    if any(r < c for r, c in zip(result, clamped)):
        raise InternalConsistencyError("unloading decreased a coefficient")
    if known is not None:
        known[result] = products
    return result


def antinef_closure_unit(graph: DualGraph, divisor: Sequence[int]) -> tuple[int, ...]:
    """Independent unloading oracle that adds one component at a time,
    climbing from max(D, 0).

    Violated components wait on a last-in-first-out worklist.  Adding E_j
    changes only the products at j and its neighbours, so those are the only
    ones pushed again (j itself included: one copy of E_j may not be enough);
    a popped component that is no longer violated is skipped.
    """
    matrix, adjacency = graph.matrix, graph.adjacency
    known = divisor.known if type(divisor) is _Known else None
    if known is None:
        result = _clamped(graph, divisor)
        products = list(intersection_products(graph, result))
    else:
        result = list(divisor)
        products = list(_products(graph, divisor, known))
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
    if min(result) < 0 or max(_products(graph, result, known)) > 0:
        raise InternalConsistencyError("unit unloading returned a non-antinef divisor")
    return result


def antinef_closure_checked(graph: DualGraph, divisor: Sequence[int]) -> tuple[int, ...]:
    """Closure computed by both unloading variants, which must agree exactly.

    The ceiling loop climbs from key = max(D, 0).  The oracle climbs from
    the start L that :func:`_descend` unloads down from the ceiling result;
    L is checked on its own to satisfy key <= L and L.E_j >= 0 wherever
    l_j > key_j, which by the module's lemma puts it below every antinef
    divisor >= key.  So the oracle's climb from L ends at the closure of
    key whatever the ceiling loop returned, and most of it is not repeated.
    A start that fails its certificate raises InternalConsistencyError.

    Served from the graph's ``closure_cache``, keyed by the clamped divisor
    max(D, 0), which has the same closure: atlases and perturbation sums
    evaluate heavily overlapping floor vectors, and the closure is
    deterministic; a divisor with no negative coefficient is its own key.
    On a miss :func:`_checked_closure` runs both variants.
    """
    key = _integer_vector(divisor, graph.size, "divisor coefficients")
    if min(key) < 0:
        key = tuple([c if c > 0 else 0 for c in key])
    return graph.closure_cache.serve(key, _checked_closure, graph, key)


def _checked_closure(graph: DualGraph, key: tuple[int, ...]) -> tuple[int, ...]:
    """A checked closure's miss: the key and L go on as :class:`_Known`
    tuples, so no product vector is computed twice."""
    known = {}
    read = _Known(key, known)
    fast = antinef_closure(graph, read)
    start = _descend(graph, read, fast)
    _check_start(graph, read, start)
    slow = antinef_closure_unit(graph, _Known(start, known))
    if fast != slow:
        raise InternalConsistencyError(
            f"unloading variants disagree: {fast} vs {slow}"
        )
    return fast


def colength(graph: DualGraph, divisor: Sequence[int]) -> int:
    """Codimension of the complete ideal attached to an antinef divisor.

    colength(D) = -D.(D + K) / 2 = -(D.D + sum of d_j (-2 - E_j^2)) / 2,
    in integers.  Defined for antinef divisors only; the products D.E_j
    that test that are the ones the formula reads.  The result must be a
    nonnegative integer, zero exactly for the zero divisor; anything else
    raises NonIntegralTotal.

    Served from the graph's ``colength_cache``, keyed by the divisor as
    read through ``rationals`` (so a float that compares equal to a stored
    int is still refused): a repeat is served, the first value always comes
    from :func:`_checked_colength`.
    """
    divisor = _integer_vector(divisor, graph.size, "divisor coefficients")
    return graph.colength_cache.serve(divisor, _checked_colength, graph, divisor)


def _checked_colength(graph: DualGraph, divisor: tuple[int, ...]) -> int:
    """The colength formula and its checks, on a divisor already read."""
    products = intersection_products(graph, divisor)
    if min(divisor) < 0 or max(products) > 0:
        raise NotAntinef(f"colength is defined for antinef divisors, got {divisor}")
    twice = 0
    for d, product, square in zip(divisor, products, graph._edge_kernel[0]):
        twice -= d * (product - 2 - square)
    if twice % 2:
        raise NonIntegralTotal(f"colength came out fractional: {twice}/2")
    value = twice // 2
    if value < 0:
        raise NonIntegralTotal(f"colength came out negative: {value}")
    if (value == 0) != (not any(divisor)):
        raise NonIntegralTotal(
            "colength must vanish exactly for the zero divisor"
        )
    return value
