"""Acceptance gate: every release criterion pinned at exact arithmetic.

Each test is one criterion.  All comparisons are exact (integers and
Fractions); there are no tolerances anywhere.  Items marked report-only
print their findings instead of asserting them.
"""

import math
import random
from fractions import Fraction

import frozen
import trees
from mmideal import (
    admissible_perturbation,
    antinef_closure,
    antinef_closure_unit,
    bijection_report,
    build_graph,
    build_tuple,
    check_H_inequalities,
    colength,
    evaluate_point,
    facet_intersection_vertices,
    fundamental_cycle,
    gap_values,
    graph_from_adjacency,
    is_degenerate,
    lc_region,
    lct_axis,
    load_fixture,
    make_ray,
    maximal_jumping_divisor,
    minimal_jumping_divisor,
    multiplicity,
    multiplicity_checked,
    multiplicity_fractional,
    multiplicity_oracle,
    poincare,
    ray_walk,
    region,
    require_valid_region,
    rho,
    series_expand,
)
from mmideal.polytope import make_halfspace


def test_01_relative_canonical_exact(rat6, chain10):
    assert rat6.graph.canonical == (
        Fraction(-1, 2),
        Fraction(-1),
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(-2, 3),
        Fraction(-5, 6),
    )
    rebuilt = graph_from_adjacency(frozen.CHAIN10_EDGES, frozen.CHAIN10_CANONICAL)
    assert rebuilt.canonical == tuple(
        Fraction(k) for k in (1, 2, 3, 6, 9, 2, 3, 6, 10, 14)
    )
    assert chain10.graph.canonical == rebuilt.canonical


def test_02_fundamental_cycle(rat6):
    graph = rat6.graph
    cycle = fundamental_cycle(graph)
    assert cycle == (3, 2, 3, 1, 1, 1)
    floor_of_minus_K = tuple(math.floor(-k) for k in graph.canonical)
    assert antinef_closure(graph, floor_of_minus_K) == cycle
    assert colength(graph, cycle) == 1


def test_03_unloading_routes_agree(tuples):
    rng = random.Random(310)
    for _ in range(200):
        rows = trees.random_tree_matrix(rng)
        graph = build_graph(rows)
        divisor = trees.random_divisor(rng, len(rows))
        assert antinef_closure(graph, divisor) == antinef_closure_unit(
            graph, divisor
        )
    for ideals in tuples.values():
        graph = ideals.graph
        for _ in range(10):
            point = tuple(
                Fraction(rng.randint(0, 60), rng.randint(1, 30))
                for _ in range(ideals.r)
            )
            floors = tuple(math.floor(v) for v in gap_values(ideals, point))
            assert antinef_closure(graph, floors) == antinef_closure_unit(
                graph, floors
            )


def _fixture_jumping_points(name, ideals, atlases):
    if name in atlases:
        atlas = atlases[name]
        points = [s for facet in atlas.facets for s in facet.samples]
        points.extend(facet_intersection_vertices(atlas))
        return points
    points = [facet.sample for facet in bijection_report(ideals).facets]
    for axis in range(ideals.r):
        value = lct_axis(ideals, axis)
        points.append(
            tuple(value if i == axis else Fraction(0) for i in range(ideals.r))
        )
    ray = make_ray(ideals, (0,) * ideals.r, (1,) * ideals.r)
    points.extend(jump.point for jump in ray_walk(ideals, ray, Fraction(1)))
    return points


def test_04_multiplicity_three_way(tuples, rat6_atlas, chain10_atlas, prop16_atlas):
    rng = random.Random(41)
    atlases = {
        "RAT6": rat6_atlas,
        "CHAIN10": chain10_atlas,
        "PROP16": prop16_atlas,
    }
    for name, ideals in tuples.items():
        for _ in range(500):
            point = tuple(
                Fraction(rng.randint(0, 80), rng.randint(1, 40))
                for _ in range(ideals.r)
            )
            first = multiplicity(ideals, point)
            assert first == multiplicity_fractional(ideals, point)
            assert first == multiplicity_oracle(ideals, point)
        for point in _fixture_jumping_points(name, ideals, atlases):
            # checked = adjunction, fractional, colength oracle, and the
            # jumping-divisor route all agree
            assert multiplicity_checked(ideals, point) >= 1


def test_05_table_membership(chain10):
    columns = {
        "L": (frozen.RAY_L_BASE, frozen.RAY_L_POINTS, frozen.RAY_L_DOUBLE_POINT),
        "L'": (frozen.RAY_L2_BASE, frozen.RAY_L2_POINTS, frozen.RAY_L2_POINTS[0]),
    }
    for label, (base, listed, highlighted) in columns.items():
        ray = make_ray(chain10, base, frozen.RAY_DIR)
        last = max(point[0] for point in listed)
        walked = {jump.point for jump in ray_walk(chain10, ray, last)}
        assert set(listed) <= walked, label
        for point in listed:
            assert evaluate_point(chain10, point).wall_lines, point
        # report-only: the highlighted pair of each column expects
        # multiplicity 2; print the whole column for reconciliation
        pattern = [
            (point, multiplicity_checked(chain10, point)) for point in listed
        ]
        print(f"column {label} multiplicities:")
        for point, value in pattern:
            marker = " (highlighted, expects 2)" if point == highlighted else ""
            print(f"  {point[0]!s},{point[1]!s}: m = {value}{marker}")
        highlighted_m = multiplicity_checked(chain10, highlighted)
        print(
            f"column {label} highlighted pair m = {highlighted_m}: "
            + ("matches" if highlighted_m == 2 else "diverges, see notes")
        )


def _random_positive_point(rng, ideals):
    return tuple(
        Fraction(rng.randint(1, 80), rng.randint(1, 40)) for _ in range(ideals.r)
    )


def _point_on_wall(rng, ideals):
    base = _random_positive_point(rng, ideals)
    j = rng.randrange(ideals.size)
    weight = sum(
        base[i] * ideals.ideals[i][j] for i in range(ideals.r)
    )
    k_j = ideals.graph.canonical[j]
    level = max(1, math.floor(-k_j) + 1) + rng.randint(0, 2)
    scale = (k_j + level) / weight
    return tuple(scale * c for c in base)


def test_06_recurrence_and_periodicity(tuples):
    rng = random.Random(67)
    for ideals in tuples.values():
        points = []
        while len(points) < 200:
            make = _point_on_wall if len(points) % 2 else _random_positive_point
            candidate = make(rng, ideals)
            if all(c > 0 for c in candidate) and not is_degenerate(
                ideals, candidate
            ):
                points.append(candidate)
        for point in points:
            base_mult = multiplicity_checked(ideals, point)
            base_H = maximal_jumping_divisor(ideals, point)
            shifts = [
                (1,) * ideals.r,
                tuple(rng.randint(0, 3) for _ in range(ideals.r)),
            ]
            for alpha in shifts:
                if not any(alpha):
                    continue
                shifted = tuple(c + a for c, a in zip(point, alpha))
                step = rho(ideals, point, alpha)
                assert (
                    multiplicity_checked(ideals, shifted) - base_mult == step
                )
                assert maximal_jumping_divisor(ideals, shifted) == base_H


def test_07_series_consistency(chain10, smooth1):
    ray = make_ray(chain10, frozen.RAY_L_BASE, frozen.RAY_DIR)
    form = poincare(chain10, ray, Fraction(2))
    expanded = series_expand(form, Fraction(2))
    walked = ray_walk(chain10, ray, Fraction(2))
    assert len(walked) >= 30
    assert [(p, pt, m) for p, pt, m in expanded] == [
        (j.parameter, j.point, j.mult) for j in walked
    ]

    maximal = make_ray(smooth1, (0,), (1,))
    assert poincare(smooth1, maximal, Fraction(2)).render() == frozen.SMOOTH1_SERIES


def test_08_perturbation_sum_rule(tuples, rat6_atlas, chain10_atlas):
    for name, atlas in (("RAT6", rat6_atlas), ("CHAIN10", chain10_atlas)):
        ideals = tuples[name]
        vertices = facet_intersection_vertices(atlas)
        assert vertices
        for vertex in vertices:
            report = admissible_perturbation(ideals, vertex, (1, 1))
            assert report.matched
            assert report.total == report.center_mult
            assert report.center_mult == multiplicity_checked(ideals, vertex)


def test_09_log_canonical_geometry(rat6, prop16, nest14):
    first = bijection_report(rat6)
    assert len(first.facets) == 2
    assert tuple(j + 1 for j in first.nest) == (1, 2, 4)
    assert not first.bijection
    assert first.verdict == "MultiplicityHypothesisFails"

    second = bijection_report(prop16)
    assert len(second.facets) == 1
    line_a, line_b = frozen.PROP16_FACET_LINES
    key_a = make_halfspace(line_a[:2], line_a[2]).key()
    key_b = make_halfspace(line_b[:2], line_b[2]).key()
    assert key_a == key_b == second.facets[0].key
    assert tuple(j + 1 for j in second.nest) == (4, 13)
    assert second.verdict == "DegenerateProportional"
    assert second.degenerate_ratio == Fraction(7, 8)

    third = bijection_report(nest14)
    carriers = {j for facet in third.facets for j in facet.carriers}
    assert {j + 1 for j in carriers} == {1, 5, 6, 14}
    assert lct_axis(nest14, 0) == Fraction(11, 24)
    assert lct_axis(nest14, 1) == Fraction(3, 8)
    # report-only: the third axis is computed here; a catalogued variant
    # gives 11/35 instead, and the divergence is documented in the project
    # notes
    computed = lct_axis(nest14, 2)
    print(
        f"third-axis log-canonical threshold computed = {computed} "
        f"(catalogued variant: {frozen.NEST14_LCT3_VARIANT})"
    )
    assert computed == frozen.NEST14_LCT[2]


def _connected(graph, members):
    pool = set(members)
    if not pool:
        return False
    seen = {next(iter(pool))}
    stack = list(seen)
    while stack:
        current = stack.pop()
        for neighbor in graph.adjacency[current]:
            if neighbor in pool and neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return seen == pool


def _induced_ends(graph, members):
    pool = set(members)
    return [
        j
        for j in members
        if len([n for n in graph.adjacency[j] if n in pool]) <= 1
    ]


def test_10_structural_lemmas(tuples, rat6_atlas, chain10_atlas):
    rng = random.Random(103)
    for name, atlas in (("RAT6", rat6_atlas), ("CHAIN10", chain10_atlas)):
        ideals = tuples[name]
        graph = ideals.graph
        flagged = ideals.rupture_or_dicritical
        meeting = set(facet_intersection_vertices(atlas))

        for facet in atlas.facets:
            if facet.mult != 1:
                continue
            # connected minimal support whose flagged members have at most
            # one neighbor inside the support
            for sample in facet.samples:
                support = [
                    j
                    for j, inside in enumerate(
                        minimal_jumping_divisor(ideals, sample)
                    )
                    if inside
                ]
                assert _connected(graph, support)
                pool = set(support)
                for j in support:
                    if flagged[j]:
                        internal = [
                            n for n in graph.adjacency[j] if n in pool
                        ]
                        assert len(internal) <= 1
            # a multiplicity-one facet that meets another facet is carried
            # by a single flagged component
            if meeting & set(facet.endpoints):
                support = [
                    j for j, inside in enumerate(facet.minimal_support) if inside
                ]
                assert len(support) == 1 and flagged[support[0]]

        for vertex in meeting:
            if multiplicity_checked(ideals, vertex) != 1:
                continue
            support = [
                j
                for j, inside in enumerate(
                    minimal_jumping_divisor(ideals, vertex)
                )
                if inside
            ]
            ends = _induced_ends(graph, support)
            assert _connected(graph, support)
            assert len(ends) == 2
            assert all(flagged[j] for j in ends)

    for ideals in tuples.values():
        require_valid_region(lc_region(ideals))
        samples = [
            tuple(
                Fraction(rng.randint(0, 60), rng.randint(1, 30))
                for _ in range(ideals.r)
            )
            for _ in range(100)
        ]
        for point in samples:
            report = check_H_inequalities(ideals, point)
            assert all(value >= -1 for _, value in report.per_component)
            assert all(value >= -1 for _, value in report.per_connected)
        for point in samples[:25]:
            require_valid_region(region(ideals, point))

    for name, atlas in (("RAT6", rat6_atlas), ("CHAIN10", chain10_atlas)):
        ideals = tuples[name]
        for facet in atlas.facets:
            for sample in facet.samples:
                check_H_inequalities(ideals, sample)
        for vertex in facet_intersection_vertices(atlas):
            check_H_inequalities(ideals, vertex)
            require_valid_region(region(ideals, vertex))
