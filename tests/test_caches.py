"""`unloading.BoundedCache`'s contract: three tests on each of the five graph caches, one
row each in `SITES`, on cold RAT6 graphs, and `BoundedCache` against a FIFO model."""

import operator
from collections import OrderedDict, namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scale
from conftest import cold, record_calls
from test_multiplicity import _TWO_PARTS, _shift_adjoint_products
from test_unloading import _skew_fundamental
from test_walls import _swap_sides
from mmideal import antinef_closure_checked, cell_decomposition, colength, jump_record
from mmideal import make_ray, ray_walk, rays, unloading, walls
from mmideal.errors import InequalityViolated, InternalConsistencyError
from mmideal.unloading import BoundedCache

# A row: graph attribute `name`, computed by `_checked_<name less _cache>` in `module`;
# `request(ideals, argument)`, `weigh(value)`; at `bound`, the arguments `sequence`, their
# values' `weights`, the (hits, misses, evictions) `counts` and the arguments `held` after it,
# oldest first; `fault(inject, ideals)`, after which `probe` `raises` (error, message).
Site = namedtuple("Site", "name module request weigh bound sequence weights counts held "
                         "fault probe raises")


def _crossed_edge(inject, _, build=walls.build_arrangement):
    inject(walls, "build_arrangement", lambda lines, box: _swap_sides(build(lines, box), 0))


def _first_jump_dropped(inject, _, stream=rays._candidate_parameters):
    first = Fraction(3, 20)  # the first jump from the origin along (1, 1)
    inject(rays, "_candidate_parameters", lambda *a: (mu for mu in stream(*a) if mu != first))


_SEQUENCE = (*range(12), 9, 10, 11, 0, 1)
_POINTS = [(Fraction(n, 7), Fraction(1, 5)) for n in range(10)]
_WALKS = [((1, 1), "1/2"), ((1, 2), "1/2"), ((2, 1), "1/4"), ((1, 3), "1/2"), ((1, 1), "2")]
_WALKS = [(direction, Fraction(until)) for direction, until in (*_WALKS, _WALKS[0])]
_ONE = lambda value: 1  # noqa: E731
SITES = [
    Site("closure_cache", "unloading",
         lambda ideals, n: antinef_closure_checked(ideals.graph, (n, 0, 1, 0, 0, n % 3)),
         _ONE, 4, _SEQUENCE, (1,) * 17, (3, 14, 10), (10, 11, 0, 1),
         lambda inject, _: inject(unloading, "antinef_closure_unit", lambda g, d: (0,) * g.size),
         4, (InternalConsistencyError, "unloading variants disagree")),
    Site("colength_cache", "unloading",
         lambda ideals, n: colength(ideals.graph, tuple(n * z for z in ideals.graph.fundamental)),
         _ONE, 4, _SEQUENCE, (1,) * 17, (3, 14, 10), (10, 11, 0, 1),
         _skew_fundamental, 1, (InternalConsistencyError, "colength came out fractional")),
    Site("record_cache", "multiplicity", jump_record,
         _ONE, 4, (*_POINTS, *_POINTS[-3:]), (1,) * 13, (3, 10, 6), _POINTS[-4:],
         lambda inject, _: _shift_adjoint_products(inject, (-1, 0, 0, 0, 0, 1)),
         _TWO_PARTS, (InequalityViolated, r"H-component \[0, 2\] gives -2 < -1")),
    Site("atlas_cache", "walls", lambda ideals, side: cell_decomposition(ideals, (side, side)),
         lambda atlas: len(atlas.arrangement.faces), 50,
         tuple(map(Fraction, ("1/4", "1/3", "2/5", "2/3", "1", "2/3", "1"))),
         (13, 20, 23, 46, 85, 46, 85), (1, 6, 5), (Fraction(2, 3),),
         _crossed_edge, 1, (InternalConsistencyError, "crossing edge")),
    Site("walk_cache", "rays",
         lambda ideals, walk: ray_walk(ideals, make_ray(ideals, (0, 0), walk[0]), walk[1]),
         lambda walk: max(1, len(walk[1])), 20, tuple(_WALKS),
         (6, 9, 5, 11, 36, 6), (0, 6, 4), (_WALKS[3], _WALKS[5]),
         _first_jump_dropped, _WALKS[0], (InternalConsistencyError, "divisor chain broken")),
]
_IDS = [site.name for site in SITES]


class _Fifo(OrderedDict):
    """The weighted first-in-first-out cache `BoundedCache` must equal."""

    def __init__(self, weigh, bound):
        super().__init__()
        self.weigh, self.bound, self.hits, self.misses, self.evictions = weigh, bound, 0, 0, 0

    @property
    def held(self):
        return sum(map(self.weigh, self.values()))

    def serve(self, key, compute, fits=None):
        held = self.get(key)
        if held is not None and (fits is None or fits(held)):
            self.hits += 1
            return held
        self.misses += 1
        value = compute()
        self.pop(key, None)
        if self.weigh(value) > self.bound:
            self.evictions += 1
            return value
        self[key] = value
        while self.held > self.bound:
            self.popitem(last=False)
            self.evictions += 1
        return value


def _state(cache):
    return list(cache.items()), cache.held, cache.hits, cache.misses, cache.evictions


def _is_served(value, again):
    """A repeat is the held object; a walk is a new list of the held jumps."""
    if type(value) is list:
        return again is not value and again == value and all(map(operator.is_, again, value))
    return again is value


def test_the_table_has_one_row_per_graph_cache(rat6):
    assert _IDS == [name for name, _ in scale.caches_of(rat6.graph)]


@pytest.mark.parametrize("site", SITES, ids=_IDS)
def test_a_repeat_is_served_by_its_own_graph_only(site, rat6, monkeypatch):
    checked = record_calls(monkeypatch, site.module, f"_checked_{site.name[:-6]}")
    ideals, other = cold(rat6), cold(rat6)
    cache = getattr(ideals.graph, site.name)
    value = site.request(ideals, site.probe)
    assert _is_served(value, site.request(ideals, site.probe)) and len(checked) == 1
    assert (len(cache), cache.hits, cache.misses, cache.evictions) == (1, 1, 1, 0)
    assert other.graph == ideals.graph and len(getattr(other.graph, site.name)) == 0
    assert site.request(other, site.probe) == value and len(checked) == 2


@pytest.mark.parametrize("site", SITES, ids=_IDS)
def test_bounded_counted_and_first_in_first_out(site, rat6, inject, monkeypatch):
    monkeypatch.setattr(unloading, "CLOSURE_CACHE_BOUND", site.bound)
    ideals = cold(rat6)
    cache = getattr(ideals.graph, site.name)
    model, keys, weights, serve = _Fifo(site.weigh, site.bound), {}, [], BoundedCache.serve

    def compared(served, key, compute, a, b, fits=None):
        value = serve(served, key, compute, a, b, fits)
        if served is cache:
            assert model.serve(key, lambda: value, fits) is value
            keys[argument] = key
            weights.append(site.weigh(value))
        return value

    inject(BoundedCache, "serve", compared)
    for argument in site.sequence:
        assert site.request(ideals, argument) == site.request(cold(rat6), argument)
        assert _state(cache) == _state(model)
    assert tuple(weights) == site.weights
    assert (cache.hits, cache.misses, cache.evictions) == site.counts
    assert list(cache) == [keys[argument] for argument in site.held]


@pytest.mark.parametrize("site", SITES, ids=_IDS)
def test_a_failing_check_stores_nothing(site, rat6, inject, monkeypatch):
    ideals = cold(rat6)
    cache = getattr(ideals.graph, site.name)
    site.fault(inject, ideals)
    for _ in range(2):
        with pytest.raises(site.raises[0], match=site.raises[1]):
            site.request(ideals, site.probe)
    assert (cache.hits, cache.misses, cache.evictions, cache.held, len(cache)) == (0, 2, 0, 0, 0)
    monkeypatch.undo()
    value = site.request(ideals, site.probe)
    assert value == site.request(cold(rat6), site.probe)
    assert _is_served(value, site.request(ideals, site.probe))
    assert (len(cache), cache.hits, cache.misses) == (1, 1, 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 10), st.none() | st.integers(0, 10))))
def test_bounded_cache_is_a_weighted_fifo(calls):
    assert BoundedCache.__mro__ == (BoundedCache, object)
    methods = {name for name, value in vars(BoundedCache).items() if callable(value)}
    assert methods == {"__init__", "serve", "_store", "__len__", "__iter__", "items"}
    # weights 0 to 10 in eighths of the bound; a held value lighter than `least` does not fit
    weigh = lambda value: value[1] * unloading.CLOSURE_CACHE_BOUND // 8  # noqa: E731
    cache, model = BoundedCache(weigh), _Fifo(weigh, unloading.CLOSURE_CACHE_BOUND)
    for n, (key, weight, least) in enumerate(calls):
        value = (n, weight)
        fits = None if least is None else lambda held: held[1] >= least
        served = cache.serve(key, lambda a, b: a, value, None, fits)
        assert model.serve(key, lambda: value, fits) is served
        assert _state(cache) == _state(model)
