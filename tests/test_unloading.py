"""Antinef closure (two independent routes), fundamental cycle, colength."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen
from conftest import divisor_leq, record_calls
from mmideal import (
    attach_ideals,
    antinef_closure_checked,
    build_graph,
    build_tuple,
    cell_decomposition,
    colength,
    is_antinef,
    load_fixture,
    make_ray,
    ray_walk,
)
from mmideal import multiplicity, unloading
from mmideal.cli import main
from mmideal.errors import (
    InternalConsistencyError,
    NotAntinef,
    ValidationError,
)
from mmideal.unloading import antinef_closure, antinef_closure_unit, intersection_products
from trees import random_any_tree_matrix, random_divisor, random_tree_matrix, tree_rows


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


def test_closure_cache_belongs_to_its_graph(rat6, inject):
    first = build_graph(rat6.graph.matrix)
    second = build_graph(rat6.graph.matrix)
    assert first == second
    oracle = unloading.antinef_closure_unit
    calls = []

    def counted(graph, divisor):
        calls.append(divisor)
        return oracle(graph, divisor)

    inject(unloading, "antinef_closure_unit", counted)
    divisor = (4, 0, 1, 0, 0, 2)
    closure = antinef_closure_checked(first, divisor)
    assert antinef_closure_checked(first, divisor) == closure
    assert len(calls) == 1
    assert dict(first.closure_cache.items()) == {divisor: closure}
    assert len(second.closure_cache) == 0
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
    # every miss stores, so all but the last 4 stored entries were evicted
    assert cache.evictions == 14 - 4
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
    assert len(graph.closure_cache) == 0
    # an integer-valued Fraction is an integer coefficient
    two = antinef_closure_checked(graph, (2, 0, 0, 0, 0, 0))
    assert antinef_closure_checked(graph, (Fraction(4, 2), 0, 0, 0, 0, 0)) == two


def test_checked_closure_keys_on_the_clamped_divisor(rat6, inject):
    graph = build_graph(rat6.graph.matrix)
    oracle = unloading.antinef_closure_unit
    calls = []

    def counted(graph, divisor):
        calls.append(divisor)
        return oracle(graph, divisor)

    inject(unloading, "antinef_closure_unit", counted)
    closure = antinef_closure_checked(graph, (3, -2, 1, 0, -7, 0))
    assert antinef_closure_checked(graph, (3, 0, 1, -1, 0, 0)) == closure
    assert len(calls) == 1
    assert dict(graph.closure_cache.items()) == {(3, 0, 1, 0, 0, 0): closure}
    assert (graph.closure_cache.hits, graph.closure_cache.misses) == (1, 1)


def test_fundamental_cycles(tuples):
    assert tuples["RAT6"].graph.fundamental == frozen.RAT6_FUNDAMENTAL
    assert tuples["SMOOTH1"].graph.fundamental == (1,)
    # Z is read as the closure of E1; the closure of every E_j is Z
    for ideals in tuples.values():
        graph = ideals.graph
        for j in range(graph.size):
            unit = tuple(int(i == j) for i in range(graph.size))
            assert antinef_closure_unit(graph, unit) == graph.fundamental


def test_colength_known_values(tuples):
    assert colength(tuples["RAT6"].graph, frozen.RAT6_FUNDAMENTAL) == 1
    smooth = tuples["SMOOTH1"].graph
    assert colength(smooth, (0,)) == 0
    assert colength(smooth, (1,)) == 1
    assert colength(smooth, (2,)) == 3


def test_colength_requires_antinef(rat6):
    with pytest.raises(NotAntinef):
        colength(rat6.graph, (1, 0, 0, 0, 0, 0))


def test_odd_colength_total_is_an_internal_error(inject, capsys, rat6):
    # the fundamental cycle's products, wherever they are computed, made a
    # unit more negative at its first component, of odd coefficient 3: the
    # cycle stays antinef and its colength total turns odd, which no correct
    # route produces.  A fresh graph has an empty colength memo, so colength
    # reads the products.
    graph = build_graph(rat6.graph.matrix)
    fundamental = graph.fundamental
    assert fundamental[0] % 2
    honest = unloading.intersection_products

    def skewed(graph, divisor):
        products = honest(graph, divisor)
        if tuple(divisor) != fundamental:
            return products
        return (products[0] - 1,) + products[1:]

    inject(unloading, "intersection_products", skewed)
    with pytest.raises(InternalConsistencyError, match="fractional"):
        colength(graph, graph.fundamental)
    assert main(["fcycle", "RAT6"]) == 3
    assert "colength came out fractional" in capsys.readouterr().err


def test_colength_cache_belongs_to_its_graph(rat6):
    first = build_graph(rat6.graph.matrix)
    second = build_graph(rat6.graph.matrix)
    assert first == second
    divisor = frozen.RAT6_FUNDAMENTAL
    assert colength(first, divisor) == 1
    assert colength(first, divisor) == 1
    assert dict(first.colength_cache.items()) == {divisor: 1}
    assert (first.colength_cache.hits, first.colength_cache.misses) == (1, 1)
    assert len(second.colength_cache) == 0
    assert colength(second, divisor) == 1
    assert (second.colength_cache.hits, second.colength_cache.misses) == (0, 1)


def test_colength_cache_is_bounded_and_counted(rat6, monkeypatch):
    reference = build_graph(rat6.graph.matrix)
    divisors = [tuple(n * z for z in reference.fundamental) for n in range(12)]
    values = {divisor: colength(reference, divisor) for divisor in divisors}
    monkeypatch.setattr(unloading, "CLOSURE_CACHE_BOUND", 4)
    graph = build_graph(rat6.graph.matrix)
    checked = divisors + divisors[9:] + divisors[:2]
    for divisor in checked:
        assert colength(graph, divisor) == values[divisor]
        assert len(graph.colength_cache) <= 4
    cache = graph.colength_cache
    assert (cache.hits, cache.misses) == (3, 14)
    assert cache.hits + cache.misses == len(checked)
    assert cache.evictions == 14 - 4
    # the oldest entry goes first; a hit does not renew an entry
    assert list(cache) == [divisors[10], divisors[11], divisors[0], divisors[1]]


def test_bounded_cache_weight_follows_every_insertion_and_removal(monkeypatch):
    # filled to the bound and cleared, a cache takes a store without
    # running its eviction loop on nothing
    cache = unloading.BoundedCache()
    for n in range(unloading.CLOSURE_CACHE_BOUND):
        cache.store((n,), n)
    assert cache.held == len(cache) == unloading.CLOSURE_CACHE_BOUND
    cache.clear()
    assert cache.held == 0
    cache.store((0,), 0)
    assert dict(cache.items()) == {(0,): 0} and cache.held == 1 and cache.evictions == 0
    # a cache weighing each value by its length, through every path
    monkeypatch.setattr(unloading, "CLOSURE_CACHE_BOUND", 10)
    cache = unloading.BoundedCache(len)
    steps = [
        (lambda: cache.store("a", "xxx"), ["a"]),
        (lambda: cache.store("b", "xxxx"), ["a", "b"]),
        # a held key: its old weight goes, and it moves to the newest end
        (lambda: cache.store("a", "x"), ["b", "a"]),
        # 5 + 6 > 10: the oldest entry goes
        (lambda: cache.store("c", "xxxxxx"), ["a", "c"]),
        (lambda: cache.serve("d", lambda a, b: a + b, "x", "x"), ["a", "c", "d"]),
        # heavier than the bound: not held
        (lambda: cache.store("e", "x" * 11), ["a", "c", "d"]),
        # the whole bound: every held entry goes
        (lambda: cache.store("f", "x" * 10), ["f"]),
        (lambda: cache.clear(), []),
        (lambda: cache.store("g", "x"), ["g"]),
    ]
    for step, keys in steps:
        step()
        assert list(cache) == keys
        assert cache.held == sum(len(value) for _, value in cache.items()) <= 10
    # b, e, then a, c and d
    assert cache.evictions == 5


def test_bounded_cache_changes_only_through_serve_store_and_clear(monkeypatch):
    # a dict's own mutators would skip the bound and the weight: a cache
    # bounded at 2 that took ten entries by `update` would hold them all
    # with `held` still 0
    monkeypatch.setattr(unloading, "CLOSURE_CACHE_BOUND", 2)
    cache = unloading.BoundedCache()
    assert not isinstance(cache, dict)
    for name in ("update", "setdefault", "pop", "popitem", "__setitem__", "__delitem__"):
        assert not hasattr(cache, name), name
    with pytest.raises(AttributeError):
        cache.update({(n,): n for n in range(10)})
    with pytest.raises(TypeError):
        cache |= {(0,): 0}
    assert len(cache) == cache.held == 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["serve", "store", "clear"]),
            st.integers(0, 5),
            st.text("x", max_size=12),
        )
    )
)
def test_bounded_cache_holds_its_weight_after_any_calls(calls):
    # after any sequence of the public calls, values heavier than the bound
    # included, `held` is the weight of what is held and at most the bound,
    # and a serve returns the held value or counts a miss and computes
    bound = unloading.CLOSURE_CACHE_BOUND
    cache = unloading.BoundedCache(lambda value: len(value) * bound // 8)
    for n, (call, key, value) in enumerate(calls):
        if call == "serve":
            held = dict(cache.items()).get(key)
            served = cache.serve(key, lambda a, b: a + b, value, "")
            assert served == (value if held is None else held)
        elif call == "store":
            cache.store(key, value)
        else:
            cache.clear()
        assert cache.held == sum(cache.weigh(held) for _, held in cache.items()) <= bound
        assert cache.hits + cache.misses == sum(c == "serve" for c, _, _ in calls[: n + 1])


def test_colength_memo_still_reads_its_input(rat6):
    # a float or a bool hashes and compares equal to the int in a stored key,
    # so the memo is read only after the divisor has passed the contract
    graph = build_graph(rat6.graph.matrix)
    assert colength(graph, frozen.RAT6_FUNDAMENTAL) == 1
    assert dict(graph.colength_cache.items()) == {frozen.RAT6_FUNDAMENTAL: 1}
    for divisor in ((3.0, 2, 3, 1, 1, 1), (3, 2, 3, True, 1, 1)):
        assert divisor == frozen.RAT6_FUNDAMENTAL
        with pytest.raises(ValidationError, match="expected integers"):
            colength(graph, divisor)
    assert colength(graph, (Fraction(3), 2, 3, 1, 1, 1)) == 1
    assert (graph.colength_cache.hits, graph.colength_cache.misses) == (1, 1)


def test_cached_int_tuples_do_not_admit_equal_refused_ones(rat6):
    # the library's own int tuple is taken after one type test and then
    # cached; a caller's tuple that compares equal to it is still read entry
    # by entry by the checked closure, colength and is_antinef
    graph = build_graph(rat6.graph.matrix)
    divisor = frozen.RAT6_FUNDAMENTAL
    assert antinef_closure_checked(graph, divisor) == divisor
    assert colength(graph, divisor) == 1
    assert is_antinef(graph, divisor)
    for refused in ((3.0, 2, 3, 1, 1, 1), (3, 2, 3, True, 1, 1)):
        for function in (antinef_closure_checked, colength, is_antinef):
            with pytest.raises(ValidationError, match="expected integers"):
                function(graph, refused)
    assert (graph.closure_cache.hits, graph.closure_cache.misses) == (0, 1)


def test_colength_memo_never_stores_a_refused_divisor(rat6):
    graph = build_graph(rat6.graph.matrix)
    for _ in range(2):
        with pytest.raises(NotAntinef):
            colength(graph, (1, 0, 0, 0, 0, 0))
    assert len(graph.colength_cache) == 0
    assert (graph.colength_cache.hits, graph.colength_cache.misses) == (0, 2)


def test_ray_walk_evaluates_each_colength_once(tuples, inject):
    # along a ray the left divisor at a candidate is the divisor at the one
    # before, so the oracle asks for most colengths twice; the formula runs
    # once per distinct divisor, and every repeat is a memo hit
    honest = unloading.colength
    asked = []

    def recorded(graph, divisor):
        asked.append(tuple(divisor))
        return honest(graph, divisor)

    # the oracle's binding
    inject(multiplicity, "colength", recorded)
    rng = random.Random(19)
    for name in ("RAT6", "CHAIN10"):
        shared = tuples[name]
        ideals = attach_ideals(build_graph(shared.graph.matrix), shared.ideals)
        asked.clear()
        base = [Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(ideals.r)]
        direction = [rng.randint(1, 4) for _ in range(ideals.r)]
        jumps = ray_walk(ideals, make_ray(ideals, base, direction), Fraction(3, 2))
        assert jumps
        cache = ideals.graph.colength_cache
        assert cache.misses == len(set(asked)) < len(asked)
        assert cache.hits + cache.misses == len(asked)
        assert len(cache) == len(set(asked))


def test_cache_counts_equal_the_calls_at_the_module_bindings(tuples, monkeypatch):
    # the checked closure and the colength count their own hits and misses;
    # together they must be exactly the calls made through the bindings
    closures = record_calls(monkeypatch, "unloading", "antinef_closure_checked")
    colengths = record_calls(monkeypatch, "unloading", "colength")

    def check_counts(ideals, run):
        closed, measured = len(closures), len(colengths)
        run()
        closure, memo = ideals.graph.closure_cache, ideals.graph.colength_cache
        assert closure.hits + closure.misses == len(closures) - closed
        assert memo.hits + memo.misses == len(colengths) - measured
        assert closure.misses == len(closure) and memo.misses == len(memo)
        assert closure.hits and memo.hits

    rng = random.Random(28)
    for name in ("RAT6", "CHAIN10"):
        for _ in range(2):
            shared = tuples[name]
            ideals = attach_ideals(build_graph(shared.graph.matrix), shared.ideals)
            base = [Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(ideals.r)]
            direction = [rng.randint(1, 4) for _ in range(ideals.r)]
            ray = make_ray(ideals, base, direction)
            check_counts(ideals, lambda: ray_walk(ideals, ray, Fraction(2)))
    ideals = build_tuple(load_fixture("RAT6"))
    check_counts(ideals, lambda: cell_decomposition(ideals, (Fraction(1), Fraction(1))))


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


def test_oracle_does_not_share_the_ceiling_loop(rat6, inject):
    # a ceiling loop that overshoots by Z must be caught by the oracle; a
    # fresh graph has an empty closure cache
    graph = build_graph(rat6.graph.matrix)
    fundamental = graph.fundamental
    ceiling = unloading._unload
    inject(
        unloading,
        "_unload",
        lambda graph, start: tuple(
            a + z for a, z in zip(ceiling(graph, start), fundamental)
        ),
    )
    with pytest.raises(InternalConsistencyError):
        antinef_closure_checked(graph, (4, 0, 1, 0, 0, 2))


def _certified(graph, key, start):
    """key <= start and start.E_j >= 0 wherever start_j > key_j, with the
    dense matrix."""
    products = [sum(m * s for m, s in zip(row, start)) for row in graph.matrix]
    return all(s >= k for s, k in zip(start, key)) and all(
        product >= 0 for product, s, k in zip(products, start, key) if s > k
    )


def test_descent_from_above_the_closure_stays_below_it(tuples):
    # the lemma of ``unloading``: a certified start lies below the closure,
    # from any top >= key, and the oracle climbs from it to the closure;
    # coefficients up to +-1000
    rng = random.Random(2101)
    graphs = [tuples[name].graph for name in ("CHAIN10", "NEST14", "PROP16")]
    graphs += [build_graph(random_tree_matrix(rng)) for _ in range(40)]
    for graph in graphs:
        for _ in range(4):
            key = tuple(max(rng.randint(-1000, 1000), 0) for _ in range(graph.size))
            closure = antinef_closure(graph, key)
            top = [c + rng.choice((0, rng.randint(0, 1000))) for c in closure]
            start = unloading._descend(graph, key, top)
            assert divisor_leq(key, start) and divisor_leq(start, closure)
            assert _certified(graph, key, start)
            assert antinef_closure_unit(graph, start) == closure
            # every certified start lies below the closure, so the greatest
            # one below top is the greatest one below the closure
            assert unloading._descend(graph, key, closure) == start


@pytest.mark.parametrize(
    "mutant",
    [
        lambda graph, key, top: top,
        lambda graph, key, top: tuple(a + z for a, z in zip(top, graph.fundamental)),
    ],
    ids=["returns_the_ceiling_result", "adds_the_fundamental_cycle"],
)
def test_uncertified_oracle_start_is_refused(rat6, inject, mutant):
    # a fresh graph has an empty closure cache, so the descent runs
    graph = build_graph(rat6.graph.matrix)
    inject(unloading, "_descend", mutant)
    with pytest.raises(InternalConsistencyError, match="not certified"):
        antinef_closure_checked(graph, (4, 0, 1, 0, 0, 2))
    assert len(graph.closure_cache) == 0


def test_oracle_keeps_its_cold_start_on_large_inputs(tuples):
    # called directly, the oracle climbs from max(D, 0) even at scale 1000
    rng = random.Random(2102)
    for name in ("CHAIN10", "NEST14", "PROP16"):
        for _ in range(3):
            graph = build_graph(tuples[name].graph.matrix)
            divisor = [rng.randint(-1000, 1000) for _ in range(graph.size)]
            unit = antinef_closure_unit(graph, divisor)
            assert unit == antinef_closure(graph, divisor)
            assert unit == antinef_closure_checked(graph, divisor)


def _sweeps_from_key(graph, divisor):
    """The ceiling loop without proposals: index-order sweeps from
    max(D, 0) until one fires nothing."""
    result = [max(d, 0) for d in divisor]
    fired = True
    while fired:
        fired = False
        for j, row in enumerate(graph.matrix):
            product = row[j] * result[j] + sum(result[l] for l in graph.adjacency[j])
            if product > 0:
                result[j] += -(-product // -row[j])
                fired = True
    return tuple(result)


def _least_element(graph, floor):
    """The least rational x >= floor with x.E_j <= 0 for every j: the
    rounds of Chandrasekaran's method, each solving the free block densely
    in Fractions."""
    matrix, size = graph.matrix, graph.size
    free, x = [], [Fraction(f) for f in floor]
    while True:
        violated = [
            j for j in range(size)
            if j not in free and sum(m * v for m, v in zip(matrix[j], x)) > 0
        ]
        if not violated:
            return x
        free = sorted(free + violated)
        rows = [
            [Fraction(matrix[i][j]) for j in free]
            + [-sum(matrix[i][l] * floor[l] for l in range(size) if l not in free)]
            for i in free
        ]
        # Gauss-Jordan; the block is negative definite, so no pivot is 0
        for c in range(len(rows)):
            rows[c] = [v / rows[c][c] for v in rows[c]]
            for r, row in enumerate(rows):
                if r != c and row[c]:
                    rows[r] = [a - row[c] * b for a, b in zip(row, rows[c])]
        x = [Fraction(f) for f in floor]
        for i, j in enumerate(free):
            x[j] = rows[i][-1]


def _a40():
    """The chain of 40 (-2)-curves: the A_40 singularity."""
    return build_graph(tree_rows([-2] * 40, [(j, j + 1) for j in range(1, 40)]))


def _counted_proposals(inject, proposal=None):
    """Put *proposal* (by default the real one) in place of
    ``unloading._proposal``; the returned list grows by the floor of each
    call."""
    calls = []
    proposal = proposal or unloading._proposal
    inject(unloading, "_proposal", lambda graph, floor: calls.append(floor) or proposal(graph, floor))
    return calls


def test_proposal_lies_between_its_floor_and_the_closure(tuples):
    # the proposal (delta x, delta) is exactly the least element that a dense
    # Fraction solve finds, key <= x <= closure, and x passes the ceiling
    # loop's own certificate; coefficients up to +-10^6
    rng = random.Random(2901)
    graphs = [tuples[name].graph for name in ("CHAIN10", "NEST14", "PROP16")]
    graphs += [_a40()]
    graphs += [build_graph(random_tree_matrix(rng, max_size=12)) for _ in range(30)]
    for graph in graphs:
        for bound in (10, 1000, 10**6):
            key = tuple(max(rng.randint(-bound, bound), 0) for _ in range(graph.size))
            closure = _sweeps_from_key(graph, key)
            scaled, scale = unloading._proposal(graph, key)
            x = [Fraction(y, delta) for y, delta in zip(scaled, scale)]
            assert x == _least_element(graph, key)
            assert divisor_leq(key, x) and divisor_leq(x, closure)
            assert unloading._certified(graph, key, scaled, scale)
            assert antinef_closure(graph, key) == closure


def test_closures_with_proposals_match_both_references(tuples, inject):
    # the ceiling loop equals the sweeps without proposals everywhere, and
    # the unit-step oracle where its climb from max(D, 0) is short enough
    calls = _counted_proposals(inject)
    rng = random.Random(2902)
    graphs = [tuples[name].graph for name in ("CHAIN10", "NEST14", "PROP16")] + [_a40()]
    graphs += [build_graph(random_tree_matrix(rng, max_size=12)) for _ in range(20)]
    unit_after_proposal = 0
    for graph in graphs:
        for scale in (100, 1000, 10**5, 10**6):
            divisor = [rng.randint(-scale, scale) for _ in range(graph.size)]
            proposals = len(calls)
            closure = antinef_closure(graph, divisor)
            proposed = len(calls) > proposals
            assert closure == _sweeps_from_key(graph, divisor)
            assert closure == antinef_closure_checked(build_graph(graph.matrix), divisor)
            if scale <= 1000:
                assert closure == antinef_closure_unit(graph, divisor)
                unit_after_proposal += proposed
    assert unit_after_proposal


def test_proposals_run_only_where_sweeps_run_long(inject):
    calls = _counted_proposals(inject)
    graph = _a40()
    rng = random.Random(2903)
    divisor = [rng.randint(-10**5, 10**5) for _ in range(graph.size)]
    assert antinef_closure_checked(graph, divisor) == _sweeps_from_key(graph, divisor)
    assert calls
    calls.clear()
    ideals = build_tuple(load_fixture("RAT6"))
    cell_decomposition(ideals, (Fraction(1), Fraction(1)))
    # walks drawn as the rays benchmark draws them: the origin or a base in
    # [0, 1/2]^r, directions in {0, 1, 2}^r, about 30 candidates each
    for name in ("RAT6", "CHAIN10"):
        for _ in range(6):
            ideals = build_tuple(load_fixture(name))
            base = [Fraction(rng.randint(0, 1), rng.randint(2, 6)) for _ in range(ideals.r)]
            if rng.random() < 0.5:
                base = [Fraction(0)] * ideals.r
            direction = [rng.randint(0, 2) for _ in range(ideals.r)]
            direction[rng.randrange(ideals.r)] = 1 + rng.randint(0, 1)
            slope = sum(u * sum(ideal) for u, ideal in zip(direction, ideals.ideals))
            ray_walk(ideals, make_ray(ideals, base, direction), Fraction(30, slope))
    assert calls == []


def _over(delta, divisor):
    """*divisor* as a proposal (delta x, delta) with every scale delta."""
    return [delta * d for d in divisor], [delta] * len(divisor)


def _one_too_high(graph, floor):
    closure = list(_sweeps_from_key(graph, floor))
    closure[len(closure) // 2] += 1
    return _over(3, closure)


@pytest.mark.parametrize(
    "mutant",
    [
        _one_too_high,
        lambda graph, floor: _over(7, floor),
        lambda graph, floor: _over(
            2, [c + z for c, z in zip(_sweeps_from_key(graph, floor), graph.fundamental)]
        ),
        lambda graph, floor: _over(5, [0] * graph.size),
        lambda graph, floor, propose=unloading._proposal: tuple(
            [-v for v in part] for part in propose(graph, floor)
        ),
    ],
    ids=["one_too_high", "the_key_itself", "adds_the_fundamental_cycle", "zero", "negated_scales"],
)
def test_a_wrong_proposal_costs_sweeps_not_closures(inject, mutant):
    # the certificate refuses every mutant but the key itself, which it
    # rightly accepts, and the loop sweeps on from the key; the negated
    # pairs name the true x over negative scales, which it refuses
    graph = _a40()
    rng = random.Random(2904)
    divisors = [[rng.randint(-scale, scale) for _ in range(graph.size)] for scale in (10**3, 10**5)]
    expected = [_sweeps_from_key(graph, divisor) for divisor in divisors]
    calls = _counted_proposals(inject, mutant)
    for divisor, closure in zip(divisors, expected):
        assert antinef_closure(graph, divisor) == closure
        assert antinef_closure_checked(build_graph(graph.matrix), divisor) == closure
    assert len(calls) >= 4


def test_an_accepted_overshooting_proposal_is_caught_by_the_oracle(inject):
    # a proposal above the closure, with a certificate that accepts anything,
    # makes the ceiling loop overshoot; the oracle climbs from its own
    # certified start and disagrees, so the checked closure raises
    graph = _a40()
    calls = _counted_proposals(inject, _one_too_high)
    inject(unloading, "_certified", lambda graph, floor, scaled, scale: True)
    # the closure of 10^5 E_1 takes index-order sweeps far past graph.size
    divisor = [10**5] + [0] * (graph.size - 1)
    with pytest.raises(InternalConsistencyError, match="disagree"):
        antinef_closure_checked(graph, divisor)
    assert calls
    assert len(graph.closure_cache) == 0


def test_a_miss_reads_its_key_once_and_multiplies_each_vector_once(tuples, inject):
    # the key is read once; the products are computed for the loop's start,
    # freshly for the ceiling result, and for the oracle's start L unless L
    # is the ceiling result; the descent and the oracle compute none
    reads, multiplied, returned = [], [], []
    read, multiply, unload = (
        unloading._integer_vector, unloading.intersection_products, unloading._unload
    )
    inject(
        unloading, "_integer_vector", lambda values, *rest: reads.append(values) or read(values, *rest)
    )
    inject(
        unloading, "intersection_products",
        lambda graph, divisor: multiplied.append(tuple(divisor)) or multiply(graph, divisor),
    )

    def marked(graph, start):
        # the products computed up to here are the ceiling loop's own
        result = unload(graph, start)
        returned.append(len(multiplied))
        return result

    inject(unloading, "_unload", marked)
    rng = random.Random(2905)
    for name in ("RAT6", "CHAIN10", "NEST14", "PROP16"):
        graph = build_graph(tuples[name].graph.matrix)
        for scale in (1, 10, 100, 1000):
            divisor = [rng.randint(-scale, scale) for _ in range(graph.size)]
            key = tuple(max(d, 0) for d in divisor)
            reads.clear()
            multiplied.clear()
            returned.clear()
            closure = antinef_closure_checked(graph, divisor)
            assert len(reads) == 1
            assert multiplied[0] == key
            after = multiplied[returned.pop():]
            start = unloading._descend(graph, key, closure)
            assert after == [closure] + ([] if start == closure else [start])


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
