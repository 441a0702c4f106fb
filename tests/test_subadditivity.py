"""Subadditivity: a tuple's divisor against the sum of its subtuples'.

On a smooth surface, J(a_1^c_1 ... a_r^c_r) is contained in the product
J(a_1^c_1) ... J(a_r^c_r) (Demailly, Ein and Lazarsfeld, "A subadditivity
property of multiplier ideals", Michigan Math. J. 48 (2000)).  Products of
complete ideals on a rational surface are complete, I_D I_E = I_{D+E}
(Lipman, Publ. Math. IHES 36 (1969)), and I_D is inside I_E exactly when
D >= E for antinef D and E, so in divisors the theorem reads

    D(c) >= D_1(c_1) + ... + D_r(c_r)   componentwise,

with D_i read off ``subtuple(t, [i])``.  It holds at every c, so also for
the left limits D_left, which are the divisors at (1 - eps)c.  The
resolution graph of a smooth point has |det M| = 1; CHAIN10, NEST14 (r = 3)
and PROP16 are checked at seeded points and where the divisor jumps, and
the blow-up graphs of the benchmark's cli workload (n = 20 to 40) at seeded
points.  The file also checks Skoda's identities, which tie the divisors
and the multiplicity at c to those at c - e_i once c_i >= 2.
"""

import random
from fractions import Fraction

import pytest

from conftest import bench_module
from mmideal import (
    attach_ideals, build_graph, cell_decomposition, evaluate_point, jump_record, ray_walk,
    subtuple,
)
from mmideal.evaluate import mmi_divisor
from scale import seeded_ray

SMOOTH = ("CHAIN10", "NEST14", "PROP16")


def _determinant(matrix):
    """det M by Gaussian elimination in `Fraction`s."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for column in range(len(rows)):
        pivot = next(r for r in range(column, len(rows)) if rows[r][column])
        if pivot != column:
            rows[column], rows[pivot] = rows[pivot], rows[column]
            det = -det
        det *= rows[column][column]
        for r in range(column + 1, len(rows)):
            factor = rows[r][column] / rows[column][column]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[column])]
    return det


def _summed(parts, point, side):
    """The sum of the subtuples' divisors (side "divisor" or "divisor_left")
    at their coordinates of *point*."""
    divisors = [getattr(evaluate_point(part, (c,)), side) for part, c in zip(parts, point)]
    return tuple(map(sum, zip(*divisors)))


def _violations(ideals, points):
    """The (point, side) pairs at which D or D_left falls below the sum."""
    parts = [subtuple(ideals, [i]) for i in range(ideals.r)]
    found = []
    for point in points:
        evaluation = evaluate_point(ideals, point)
        for side in ("divisor", "divisor_left"):
            total = _summed(parts, evaluation.point, side)
            if any(d < s for d, s in zip(getattr(evaluation, side), total)):
                found.append((evaluation.point, side))
    return found


def _seeded_points(rng, r, count):
    return [
        tuple(Fraction(rng.randrange(40), rng.randint(1, 12)) for _ in range(r))
        for _ in range(count)
    ]


@pytest.mark.parametrize("name", SMOOTH)
def test_subadditivity_on_smooth_bases(tuples, name):
    ideals = tuples[name]
    assert abs(_determinant(ideals.graph.matrix)) == 1
    rng = random.Random(f"subadditivity {name}")
    points = _seeded_points(rng, ideals.r, 300)
    # ray jumps, where D and D_left differ: three seeded rays
    jumps = []
    for _ in range(3):
        until = Fraction(1, 4) if name == "PROP16" else Fraction(1)
        jumps += [jump.point for jump in ray_walk(ideals, seeded_ray(ideals, rng), until)]
    assert jumps
    if ideals.r == 2:
        # the atlas: every arrangement vertex and every facet sample
        side = Fraction(1, 8) if name == "PROP16" else Fraction(1, 2)
        atlas = cell_decomposition(ideals, (side, side))
        jumps += [sample for facet in atlas.facets for sample in facet.samples]
        points += [(Fraction(x, w), Fraction(y, w)) for x, y, w in atlas.arrangement.vertices]
    assert _violations(ideals, points + jumps) == []


@pytest.mark.parametrize("index", range(4))
def test_subadditivity_on_blowup_graphs(index):
    # the cli workload's graphs: n point blow-ups of a smooth point
    fixture = bench_module("workloads").blowup_graph(index)
    ideals = attach_ideals(build_graph(fixture.matrix), fixture.ideals)
    assert abs(_determinant(ideals.graph.matrix)) == 1
    points = _seeded_points(random.Random(f"subadditivity G{index:02d}"), ideals.r, 60)
    assert _violations(ideals, points) == []


def test_rat6_is_outside_the_theorem(rat6):
    """RAT6 has |det M| = 36: its base is a rational singularity, not a
    smooth point, which the theorem assumes.  (Takagi's version for singular
    bases, Amer. J. Math. 128 (2006), needs a Jacobian ideal factor that
    dual-graph data does not give.)  At c = (7/3, 7/8) the divisor falls
    below the sum of the subtuples' divisors at E1, E2 and E3."""
    assert abs(_determinant(rat6.graph.matrix)) == 36
    point = (Fraction(7, 3), Fraction(7, 8))
    parts = [subtuple(rat6, [i]) for i in range(rat6.r)]
    assert mmi_divisor(rat6, point) == (38, 16, 38, 22, 6, 4)
    assert _summed(parts, point, "divisor") == (39, 17, 39, 22, 6, 4)


def _plus(divisor, vector):
    return tuple(d + f for d, f in zip(divisor, vector))


def _skoda_failures(ideals, point, i):
    """The Skoda identities that fail between c = *point* and c - e_i."""
    vector = ideals.ideals[i]
    at = jump_record(ideals, point)
    below = jump_record(ideals, tuple(c - (k == i) for k, c in enumerate(point)))
    # F_i.H(c): the row sums of M F_i over the components of H(c)
    products = [sum(m * f for m, f in zip(row, vector)) for row in ideals.graph.matrix]
    failed = []
    if at.divisor != _plus(below.divisor, vector):
        failed.append("D")
    # D_left(c) is D at (1 - eps)c, inside Skoda's range only when c_i > 2
    if point[i] > 2 and at.divisor_left != _plus(below.divisor_left, vector):
        failed.append("D_left")
    if at.mult != below.mult - sum(p for p, h in zip(products, at.maximal) if h):
        failed.append("m")
    return failed


@pytest.mark.parametrize("name", ("RAT6", "CHAIN10", "NEST14", "PROP16"))
def test_skoda_identities(tuples, name):
    """Skoda's theorem in dimension 2 (Lazarsfeld, *Positivity II*, §9.6)
    gives J(a^c) = a_i J(a^(c - e_i)) once c_i >= 2.  By Lipman's product
    theorem, I_D I_E = I_{D+E} for antinef D and E, this reads

        D(c) = D(c - e_i) + F_i,

    and where c_i > 2 it holds for the left limits too, D_left(c) =
    D_left(c - e_i) + F_i.  The multiplicity then moves by the maximal
    jumping divisor: m(c) = m(c - e_i) - F_i.H(c).  Checked at 60 seeded
    points per fixture with c_i in [2, 4), and at 20 jumps of a seeded ray
    moved by 2 e_i; RAT6, outside subadditivity, is checked too."""
    ideals = tuples[name]
    rng = random.Random(f"skoda {name}")
    cases = []
    for point in _seeded_points(rng, ideals.r, 60):
        i = rng.randrange(ideals.r)
        cases.append((point[:i] + (2 + Fraction(rng.randrange(24), 12),) + point[i + 1:], i))
    until = Fraction(1, 4) if name == "PROP16" else Fraction(1)
    for jump in ray_walk(ideals, seeded_ray(ideals, rng), until)[:20]:
        i = rng.randrange(ideals.r)
        cases.append((tuple(c + 2 * (k == i) for k, c in enumerate(jump.point)), i))
    assert [(c, i, f) for c, i in cases for f in _skoda_failures(ideals, c, i)] == []
    assert sum(jump_record(ideals, c).mult > 0 for c, _ in cases) >= 20


def test_skoda_bound_is_sharp(chain10):
    """At c_1 = 9/8, in [1, 2), D(c) = D(c - e_1) + F_1 fails on CHAIN10."""
    point, below = (Fraction(9, 8), 2), (Fraction(1, 8), 2)
    assert mmi_divisor(chain10, point) == (9, 14, 16, 31, 46, 13, 15, 29, 44, 59)
    assert _plus(mmi_divisor(chain10, below), chain10.ideals[0]) == (
        9, 14, 16, 31, 46, 13, 16, 30, 47, 64,
    )


def test_left_limit_at_c_i_two_is_outside_the_bound(chain10):
    """D_left(2e_1) is D at (2 - 2 eps)e_1, below Skoda's bound, and there the
    left-limit identity fails on CHAIN10 (in the last component) while D's
    and m's hold."""
    assert _skoda_failures(chain10, (2, 0), 0) == []
    at, below = jump_record(chain10, (2, 0)), jump_record(chain10, (1, 0))
    assert at.divisor_left == (7, 7, 7, 14, 21, 14, 19, 34, 54, 73)
    assert _plus(below.divisor_left, chain10.ideals[0]) == (7, 7, 7, 14, 21, 14, 19, 34, 54, 74)
