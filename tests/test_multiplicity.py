"""Multiplicities by several routes, jumping criterion, perturbation sums."""

import random
from fractions import Fraction

import pytest

import frozen
from conftest import cold, record_calls
from mmideal import (
    admissible_perturbation,
    attach_ideals,
    cell_decomposition,
    evaluate_point,
    jump_record,
    make_ray,
    multiplicity_checked,
    perturbation_sum,
    poincare,
    ray_walk,
    stability_bound,
)
from mmideal import evaluate, rays, unloading
from mmideal import multiplicity as routes
from mmideal.errors import (
    InequalityViolated,
    InternalConsistencyError,
    NotAJumpingPoint,
    OffsetTooLarge,
    ValidationError,
)
from mmideal.multiplicity import (
    multiplicity,
    multiplicity_fractional,
    multiplicity_oracle,
    multiplicity_via_G,
)


def test_corner_multiplicity_all_routes(rat6):
    corner = frozen.RAT6_CORNER
    expected = frozen.RAT6_CORNER_MULT
    assert multiplicity(rat6, corner) == expected
    assert multiplicity_fractional(rat6, corner) == expected
    assert multiplicity_oracle(rat6, corner) == expected
    assert multiplicity_via_G(rat6, corner) == expected
    assert multiplicity_checked(rat6, corner) == expected


def test_corner_minimal_divisor(rat6):
    minimal = evaluate_point(rat6, frozen.RAT6_CORNER).minimal
    assert minimal == (True, True, False, True, False, False)


def test_is_jumping_and_witness(rat6):
    # a point jumps exactly when some connected component of H, the witness,
    # has adjunction value >= 0: the criterion the via-G route reads
    _, connected = evaluate_point(rat6, frozen.RAT6_CORNER).maximal_values
    assert [value for _, value in connected if value >= 0]
    assert jump_record(rat6, frozen.RAT6_CORNER).mult > 0
    for point in ((Fraction(1, 100),) * 2, (Fraction(1, 36),) * 2):
        _, connected = evaluate_point(rat6, point).maximal_values
        assert all(value < 0 for _, value in connected)
        assert jump_record(rat6, point).minimal is None


def test_not_a_jumping_point_raises(rat6):
    # off every wall (H = 0), and on the wall of E1 with (ceil(K - c.F) + H).E1 = -1
    for point in ((Fraction(1, 100),) * 2, (Fraction(1, 36),) * 2):
        with pytest.raises(NotAJumpingPoint, match="is not a jumping point"):
            multiplicity_via_G(rat6, point)


def test_smooth1_jumping_numbers(smooth1):
    for parameter, expected in frozen.SMOOTH1_JUMPS:
        assert multiplicity_checked(smooth1, (parameter,)) == expected
    assert multiplicity_checked(smooth1, (Fraction(3, 2),)) == 0


def test_jump_record_consistency(rat6):
    record = jump_record(rat6, frozen.RAT6_CORNER)
    assert record.mult == frozen.RAT6_CORNER_MULT
    assert record.divisor == (5, 3, 5, 2, 1, 1)
    assert record.divisor_left == frozen.RAT6_FUNDAMENTAL
    assert record.minimal == (True, True, False, True, False, False)
    walls = {(j + 1, level) for j, level in record.wall_lines}
    assert walls == {(1, 4), (2, 3), (3, 3), (4, 2)}


def test_wall_membership_chain10(chain10):
    evaluation = evaluate_point(chain10, frozen.RAY_L_DOUBLE_POINT)
    walls = {(j + 1, level) for j, level in evaluation.wall_lines}
    assert walls == frozen.RAY_L_DOUBLE_WALLS


def test_h_inequality_single_entry(chain10):
    singles, connected = evaluate_point(chain10, frozen.RAY_L_FLAGGED).maximal_values
    assert singles == ((4, 0),)
    assert connected == (((4,), 0),)


def test_h_inequality_empty_when_off_wall(rat6):
    evaluation = evaluate_point(rat6, (Fraction(1, 100), Fraction(1, 100)))
    assert evaluation.maximal_values == ((), ())


def test_h_inequalities_on_random_points(tuples):
    rng = random.Random(23)
    for ideals in tuples.values():
        for _ in range(60):
            point = tuple(
                Fraction(rng.randint(0, 50), rng.randint(1, 25))
                for _ in range(ideals.r)
            )
            singles, connected = evaluate_point(ideals, point).maximal_values
            assert all(value >= -1 for _, value in singles)
            assert all(value >= -1 for _, value in connected)


# At RAT6 (1/12, 1/12), H has the connected components {E1, E3} and {E6}, of
# adjunction values -1 each, and single values E1: 0, E3: -1, E6: -1.  A
# mutant shifts H's adjoint products (ceil(K - c.F) + H).E_j by `delta`.
_TWO_PARTS = (Fraction(1, 12), Fraction(1, 12))


def _shift_adjoint_products(inject, delta):
    original = evaluate.intersection_products

    def shifted(graph, divisor):
        return tuple(p + d for p, d in zip(original(graph, divisor), delta))

    inject(evaluate, "intersection_products", shifted)


@pytest.mark.parametrize(
    "delta, message",
    [
        # singles -1, -1, 0; parts -2 and 0: the criterion finds a witness
        # while m = (-2 + 1) + (0 + 1) = 0
        ((-1, 0, 0, 0, 0, 1), r"H-component \[0, 2\] gives -2 < -1"),
        # singles -2, 1, 0; parts -1 and 0
        ((-2, 0, 2, 0, 0, 1), r"component E1 gives -2 < -1"),
    ],
    ids=["connected", "single"],
)
def test_every_evaluated_point_asserts_the_H_inequalities(inject, rat6, delta, message):
    _shift_adjoint_products(inject, delta)
    ideals = cold(rat6)
    def maximal_values(ideals, point):
        return evaluate_point(ideals, point).maximal_values

    for read in (multiplicity_checked, jump_record, multiplicity_via_G, maximal_values):
        with pytest.raises(InequalityViolated, match=message):
            read(ideals, _TWO_PARTS)


def _without_divisor_jump(ideals, point):
    """An evaluation whose left-limit divisor is forced equal to D_c."""
    evaluation = evaluate_point(ideals, point)
    evaluation.__dict__["divisor_left"] = evaluation.divisor
    return evaluation


def test_multiplicity_checked_asserts_the_divisor_jump(rat6):
    point = (Fraction(1, 4), Fraction(1, 4))
    message = "multiplicity 3 inconsistent with divisor jump"
    # a refused point stores nothing, so the tuple stays cold at the point
    ideals = cold(rat6)
    with pytest.raises(InternalConsistencyError, match=message):
        multiplicity_checked(ideals, _without_divisor_jump(ideals, point))
    offset = admissible_perturbation(rat6, point, frozen.RAY_DIR).offset
    with pytest.raises(InternalConsistencyError, match=message):
        perturbation_sum(
            ideals, _without_divisor_jump(ideals, point), frozen.RAY_DIR, offset
        )


def test_perturbation_at_corner(rat6):
    report = admissible_perturbation(rat6, frozen.RAT6_CORNER, frozen.RAY_DIR)
    assert report.matched
    assert report.center_mult == frozen.RAT6_CORNER_MULT
    # three geometric wall lines pass through the corner (two of its four
    # wall lines coincide), so the parallel ray is crossed three times
    assert len(report.crossings) == 3
    assert sorted(m for _, _, m in report.crossings) == [0, 1, 1]


def test_perturbation_at_double_point(chain10):
    report = admissible_perturbation(
        chain10, frozen.RAY_L_DOUBLE_POINT, frozen.RAY_DIR
    )
    assert report.matched
    assert report.center_mult == 2
    assert [m for _, _, m in report.crossings] == [1, 1]


def test_perturbation_single_wall_point(chain10):
    # a point in the interior of a single facet: one crossing, same m
    point = (frozen.RAY_L2_POINTS[3][0], frozen.RAY_L2_POINTS[3][1])
    report = admissible_perturbation(chain10, point, frozen.RAY_DIR)
    assert report.matched
    assert len(set(evaluate_point(chain10, point).wall_lines)) == 1
    assert len(report.crossings) == 1
    assert report.crossings[0][2] == report.center_mult == 1


def test_offset_too_large(rat6):
    with pytest.raises(OffsetTooLarge):
        perturbation_sum(
            rat6,
            frozen.RAT6_CORNER,
            frozen.RAY_DIR,
            (Fraction(1, 2), Fraction(0)),
        )


@pytest.mark.parametrize(
    "offset, message",
    [
        ((-1, 0), "shifted base (Fraction(-1, 2), Fraction(1, 2)) leaves the orthant"),
        (
            (Fraction(1, 2), Fraction(-1, 2)),
            "crossing (Fraction(3, 4), Fraction(-1, 4)) leaves the orthant; shrink the offset",
        ),
    ],
)
def test_orthant_refusals_name_their_points_in_fractions(rat6, offset, message):
    # the shifted base and the crossings are tested in integers, and a
    # refusal names its point as the `Fraction` tuple it always named
    with pytest.raises(OffsetTooLarge) as raised:
        perturbation_sum(rat6, (Fraction(1, 2), Fraction(1, 2)), (1, 1), offset)
    assert str(raised.value) == message


_F = Fraction


@pytest.mark.parametrize(
    "name, point, direction, offset, crossing",
    [
        # an offset parallel to the ray: the shifted ray is the ray itself
        (
            "RAT6",
            (_F(1, 4), _F(1, 4)),
            (1, 1),
            (_F(1, 64), _F(1, 64)),
            (_F(-1, 64), (_F(1, 4), _F(1, 4)), 3),
        ),
        (
            "CHAIN10",
            (_F(0), _F(2)),
            (1, 1),
            (_F(1, 4096), _F(1, 4096)),
            (_F(-1, 4096), (_F(0), _F(2)), 1),
        ),
        # three walls through the point, met by the shifted ray at one point
        (
            "NEST14",
            (_F(13, 12), _F(1, 4), _F(0)),
            (0, 0, 2),
            (_F(-1, 512), _F(-1, 512), _F(1, 1024)),
            (_F(19, 10240), (_F(1661, 1536), _F(127, 512), _F(3, 640)), 1),
        ),
    ],
    ids=["rat6-parallel", "chain10-parallel", "nest14-shared-crossing"],
)
def test_perturbation_counts_each_crossing_point_once(
    tuples, name, point, direction, offset, crossing
):
    report = perturbation_sum(tuples[name], point, direction, offset)
    assert report.crossings == (crossing,)
    assert report.matched and report.center_mult == crossing[2]


@pytest.mark.parametrize(
    "name, point",
    [("RAT6", frozen.RAT6_CORNER), ("CHAIN10", frozen.RAY_L_DOUBLE_POINT)],
    ids=["rat6-corner", "chain10-double-point"],
)
def test_perturbation_builds_no_fraction_views(tuples, name, point):
    ideals = tuples[name]
    offset = admissible_perturbation(ideals, point, frozen.RAY_DIR).offset
    evaluation = evaluate_point(ideals, point)
    report = perturbation_sum(ideals, evaluation, frozen.RAY_DIR, offset)
    assert report.matched and len(report.crossings) >= 2
    assert "wall_lines" in evaluation.__dict__  # cached views land here
    assert "weighted" not in evaluation.__dict__
    assert "values" not in evaluation.__dict__


def test_default_offset_prefers_vanishing_axis(rat6):
    # the first axis on which the point vanishes, else axis 1; each of these
    # points admits the first offset, 1/64, before any halving
    half = Fraction(1, 2)
    for point, axis in (((half, 0), 1), ((0, half), 0), ((half, 3), 0)):
        offset = admissible_perturbation(rat6, point, frozen.RAY_DIR).offset
        assert offset == tuple(Fraction(1, 64) if i == axis else 0 for i in range(2))


def test_multiplicity_zero_off_walls(tuples):
    rng = random.Random(29)
    for ideals in tuples.values():
        for _ in range(30):
            point = tuple(
                Fraction(rng.randint(0, 60), rng.randint(1, 30))
                for _ in range(ideals.r)
            )
            if evaluate_point(ideals, point).wall_lines:
                continue
            assert multiplicity_checked(ideals, point) == 0


@pytest.mark.parametrize(
    "route",
    [
        "multiplicity",
        "multiplicity_fractional",
        "multiplicity_oracle",
        "multiplicity_via_G",
    ],
)
def test_each_route_is_compared(inject, rat6, route):
    original = getattr(routes, route)
    inject(routes, route, lambda ideals, point: original(ideals, point) + 1)
    with pytest.raises(InternalConsistencyError):
        jump_record(cold(rat6), frozen.RAT6_CORNER)


# ---------------------------------------------------------------------------
# The record cache: each point certified once per graph.
# ---------------------------------------------------------------------------


def test_record_cache_belongs_to_its_graph(rat6, monkeypatch):
    first, second = cold(rat6), cold(rat6)
    oracle = record_calls(monkeypatch, "multiplicity", "multiplicity_oracle")
    point = frozen.RAT6_CORNER
    record = jump_record(first, point)
    evaluation = evaluate_point(first, point)
    key = (rat6.ideals, evaluation.scaled_point, evaluation.scale)
    assert dict(first.graph.record_cache.items()) == {key: record}
    # a repeat by either entry point is the stored record, no route reruns
    assert jump_record(first, point) is record
    assert multiplicity_checked(first, evaluation) == record.mult
    assert len(oracle) == 1
    cache = first.graph.record_cache
    assert (cache.hits, cache.misses, cache.evictions) == (2, 1, 0)
    assert len(second.graph.record_cache) == 0
    again = jump_record(second, point)
    assert again == record and again is not record
    assert len(oracle) == 2
    # another tuple on the first graph keys its points by its own ideals
    swapped = attach_ideals(first.graph, rat6.ideals[::-1])
    other = jump_record(swapped, point)
    assert other == jump_record(cold(swapped), point) and other != record
    assert len(first.graph.record_cache) == 2


def test_record_cache_is_bounded_and_counted(rat6, monkeypatch):
    monkeypatch.setattr(unloading, "CLOSURE_CACHE_BOUND", 4)
    ideals, reference = cold(rat6), cold(rat6)
    points = [(Fraction(n, 7), Fraction(1, 5)) for n in range(10)]
    for point in points + points[-3:]:
        assert jump_record(ideals, point) == jump_record(cold(reference), point)
        assert len(ideals.graph.record_cache) <= 4
    cache = ideals.graph.record_cache
    assert (cache.hits, cache.misses, cache.evictions) == (3, 10, 6)
    # the oldest entry goes first
    assert [record.point for _, record in cache.items()] == points[-4:]


# ---------------------------------------------------------------------------
# The atlas cache: a repeated (tuple, box) atlas served from its graph, weighed
# in faces.
# ---------------------------------------------------------------------------


def test_a_repeated_atlas_is_served_from_its_graph(rat6):
    ideals = cold(rat6)
    cache = ideals.graph.atlas_cache
    atlas = cell_decomposition(ideals, (1, 1))
    # the box is keyed as read, so ints and Fractions of one value share it
    assert cell_decomposition(ideals, [Fraction(1), 1]) is atlas
    assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 0)
    assert cache.held == len(atlas.arrangement.faces) == 85
    # another box, another tuple on the graph, another graph: each a miss
    half = (Fraction(1, 2), Fraction(1, 2))
    other_box = cell_decomposition(ideals, half)
    assert other_box == cell_decomposition(cold(rat6), half) != atlas
    swapped = attach_ideals(ideals.graph, rat6.ideals[::-1])
    other_tuple = cell_decomposition(swapped, (1, 1))
    assert other_tuple == cell_decomposition(cold(swapped), (1, 1)) != atlas
    fresh = cold(rat6)
    other_graph = cell_decomposition(fresh, (1, 1))
    assert other_graph == atlas and other_graph is not atlas
    assert (cache.hits, cache.misses, cache.evictions) == (1, 3, 0)
    assert [atlas for _, atlas in cache.items()] == [atlas, other_box, other_tuple]
    assert cache.held == 85 + 28 + 85
    assert (fresh.graph.atlas_cache.hits, fresh.graph.atlas_cache.misses) == (0, 1)


def test_atlas_cache_is_bounded_in_faces_and_counted(rat6, monkeypatch):
    monkeypatch.setattr(unloading, "CLOSURE_CACHE_BOUND", 50)
    ideals = cold(rat6)
    graph = ideals.graph
    cache = graph.atlas_cache
    sides = [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(2, 3), Fraction(1)]
    # the sides held after each atlas, oldest first: 2/5 evicts 1/4, 2/3
    # evicts 1/3 and 2/5, and the 1x1 atlas, heavier than the bound, is not held
    held = [[0], [0, 1], [1, 2], [3], [3]]
    atlases = []
    for side, expected in zip(sides, held):
        atlas = cell_decomposition(ideals, (side, side))
        assert atlas == cell_decomposition(cold(rat6), (side, side))
        atlases.append(atlas)
        assert list(cache) == [(rat6.ideals, (sides[n], sides[n])) for n in expected]
        assert cache.held == sum(len(a.arrangement.faces) for _, a in cache.items()) <= 50
        for each in (graph.closure_cache, graph.colength_cache, graph.record_cache):
            assert each.held == len(each) <= 50
    assert [len(a.arrangement.faces) for a in atlases] == [13, 20, 23, 46, 85]
    assert (cache.hits, cache.misses, cache.evictions) == (0, 5, 4)
    # the atlas held is served; the one not held is computed again
    assert cell_decomposition(ideals, (sides[3], sides[3])) is atlases[3]
    again = cell_decomposition(ideals, (1, 1))
    assert again == atlases[4] and again is not atlases[4]
    assert (cache.hits, cache.misses, cache.evictions) == (1, 6, 5)


# ---------------------------------------------------------------------------
# The walk cache: the longest checked walk of each (tuple, ray) served from its
# graph, by prefix, weighed in jumps.
# ---------------------------------------------------------------------------


def _held_weight(cache):
    return sum(max(1, len(jumps)) for _, (_, jumps) in cache.items())


def test_a_repeated_walk_is_served_from_its_graph(rat6, monkeypatch):
    ideals = cold(rat6)
    cache = ideals.graph.walk_cache
    ray = make_ray(ideals, (0, 0), (1, 1))
    walk = ray_walk(ideals, ray, 1)
    key = (rat6.ideals, ray.base, ray.direction)
    assert dict(cache.items()) == {key: (1, tuple(walk))} and cache.held == len(walk) == 15
    records = record_calls(monkeypatch, "multiplicity", "jump_record")
    # the ray and until are keyed as read: a hand-built Ray of ints is the same
    again = ray_walk(ideals, rays.Ray((0, 0), (1, 1)), Fraction(1))
    assert again == walk and again is not walk and records == []
    assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 0)
    # the list is the caller's: changing it leaves the held walk as it was
    again.clear()
    assert ray_walk(ideals, ray, 1) == walk
    assert (cache.hits, cache.misses) == (2, 1)


def test_a_shorter_walk_is_the_held_prefix(rat6):
    ideals = cold(rat6)
    cache = ideals.graph.walk_cache
    ray = make_ray(ideals, (0, 0), (1, 1))
    walk = ray_walk(ideals, ray, 2)
    # an until on a jump keeps it, one between jumps keeps those below it
    for until in (walk[10].parameter, Fraction(1, 2), Fraction(1, 1000)):
        prefix = ray_walk(ideals, ray, until)
        assert prefix == [jump for jump in walk if jump.parameter <= until]
        assert prefix == ray_walk(cold(rat6), ray, until)
    assert len(ray_walk(ideals, ray, walk[10].parameter)) == 11
    assert (cache.hits, cache.misses) == (4, 1)
    assert dict(cache.items()) == {(rat6.ideals, ray.base, ray.direction): (2, tuple(walk))}
    assert cache.held == 36


def test_a_longer_walk_replaces_the_held_one(rat6):
    ideals = cold(rat6)
    cache = ideals.graph.walk_cache
    first, other = make_ray(ideals, (0, 0), (1, 1)), make_ray(ideals, (0, 0), (1, 2))
    short = ray_walk(ideals, first, Fraction(1, 2))
    ray_walk(ideals, other, Fraction(1, 2))
    assert cache.held == 6 + 9
    longer = ray_walk(ideals, first, 1)
    assert longer[:len(short)] == short and longer == ray_walk(cold(rat6), first, 1)
    assert (cache.hits, cache.misses, cache.evictions) == (0, 3, 0)
    # one entry per ray; the replaced one moves to the newest end
    assert [key[2] for key in cache] == [(1, 2), (1, 1)]
    assert dict(cache.items())[rat6.ideals, first.base, first.direction] == (1, tuple(longer))
    assert cache.held == _held_weight(cache) == 9 + 15
    assert ray_walk(ideals, first, Fraction(1, 2)) == short
    assert cache.hits == 1


def test_a_walk_that_raises_stores_nothing(chain10, monkeypatch, inject):
    ideals = cold(chain10)
    cache = ideals.graph.walk_cache
    ray = make_ray(ideals, (0, Fraction(1, 3)), (2, 3))
    first = ray_walk(cold(chain10), ray, 1)[0].parameter
    stream = rays._candidate_parameters
    inject(rays, "_candidate_parameters", lambda *args: (mu for mu in stream(*args) if mu != first))
    for _ in range(2):
        with pytest.raises(InternalConsistencyError, match="divisor chain broken"):
            ray_walk(ideals, ray, 1)
    assert len(cache) == cache.held == 0
    assert (cache.hits, cache.misses, cache.evictions) == (0, 2, 0)
    monkeypatch.undo()
    walk = ray_walk(ideals, ray, 1)
    assert walk[0].parameter == first and walk == ray_walk(cold(chain10), ray, 1)
    assert len(cache) == 1 and (cache.hits, cache.misses) == (0, 3)


def test_a_repeat_reads_the_ray_and_until_through_the_contract(rat6):
    # a float equal to a held until or base coordinate hashes and compares
    # equal to it, so the walk cache is read only after the contract
    warm = cold(rat6)
    ray = make_ray(warm, (0, 0), (1, 1))
    ray_walk(warm, ray, 1)
    refused = [
        (ray, 1.0),
        (ray, Fraction(1, 2) + 0j),
        (rays.Ray((0.0, 0), (1, 1)), 1),
        (rays.Ray((0, 0), (1, 1, 1)), 1),
        (rays.Ray((0, 0), (0, 0)), 1),
        (((0, 0), (1, 1)), 1),
    ]
    for bad_ray, until in refused:
        raised = []
        for ideals in (cold(rat6), warm):
            with pytest.raises(ValidationError) as error:
                ray_walk(ideals, bad_ray, until)
            raised.append((type(error.value), str(error.value)))
        assert raised[0] == raised[1]
    cache = warm.graph.walk_cache
    assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)


def test_walk_cache_is_bounded_in_jumps_and_counted(rat6, monkeypatch):
    monkeypatch.setattr(unloading, "CLOSURE_CACHE_BOUND", 20)
    ideals = cold(rat6)
    cache = ideals.graph.walk_cache
    # (direction, until) from the origin, weighing 6, 9, 5, 11, 36 and 6
    # jumps; the 36-jump walk is heavier than the bound, so it is not held
    walks = [
        ((1, 1), Fraction(1, 2)), ((1, 2), Fraction(1, 2)), ((2, 1), Fraction(1, 4)),
        ((1, 3), Fraction(1, 2)), ((1, 1), Fraction(2)), ((1, 1), Fraction(1, 2)),
    ]
    held = [[0], [0, 1], [0, 1, 2], [2, 3], [2, 3], [3, 5]]
    for (direction, until), expected in zip(walks, held):
        ray = make_ray(ideals, (0, 0), direction)
        walk = ray_walk(ideals, ray, until)
        assert walk == ray_walk(cold(rat6), ray, until)
        assert [key[2] for key in cache] == [walks[n][0] for n in expected]
        assert cache.held == _held_weight(cache) <= 20
    # the 36-jump walk is not held, so the last (1, 1) walk, its prefix, is
    # computed again
    assert (cache.hits, cache.misses, cache.evictions) == (0, 6, 4)
    assert [len(jumps) for _, (_, jumps) in cache.items()] == [11, 6]


def test_poincare_over_a_served_walk_equals_a_cold_one(rat6, smooth1):
    for ideals, base, direction in ((rat6, (0, 0), (1, 2)), (smooth1, (0,), (1,))):
        warm = cold(ideals)
        cache = warm.graph.walk_cache
        ray = make_ray(warm, base, direction)
        horizon = stability_bound(warm, ray) + 2
        # a longer walk first: the series' walk is its prefix
        ray_walk(warm, ray, horizon + 3)
        form = poincare(warm, ray, horizon)
        assert form == poincare(cold(ideals), ray, horizon)
        assert poincare(warm, ray, horizon) == form
        assert (cache.hits, cache.misses, len(cache)) == (2, 1, 1)


def test_a_refused_point_stores_no_record(monkeypatch, inject, rat6):
    ideals = cold(rat6)
    _shift_adjoint_products(inject, (-1, 0, 0, 0, 0, 1))
    for read in (multiplicity_checked, jump_record):
        with pytest.raises(InequalityViolated):
            read(ideals, _TWO_PARTS)
    cache = ideals.graph.record_cache
    assert len(cache) == 0 and (cache.hits, cache.misses) == (0, 2)
    monkeypatch.undo()
    assert jump_record(ideals, _TWO_PARTS) == jump_record(cold(rat6), _TWO_PARTS)
    assert len(cache) == 1 and (cache.hits, cache.misses) == (0, 3)


def test_overlapping_atlases_on_one_graph_equal_fresh_ones(rat6):
    shared = cold(rat6)
    for box in ((1, 1), (Fraction(1, 2), Fraction(1, 2))):
        atlas = cell_decomposition(shared, box)
        fresh = cell_decomposition(cold(rat6), box)
        for field in atlas._fields:
            assert getattr(atlas, field) == getattr(fresh, field), field
    # the smaller box re-reads facet samples the larger one certified
    assert shared.graph.record_cache.hits > 0
