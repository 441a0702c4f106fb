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
points.
"""

import functools
import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mmideal import (
    attach_ideals, build_graph, cell_decomposition, evaluate_point, make_ray, ray_walk,
    subtuple,
)
from mmideal.evaluate import mmi_divisor

SMOOTH = ("CHAIN10", "NEST14", "PROP16")
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


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
        base = [Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(ideals.r)]
        direction = [rng.randint(1, 4) for _ in range(ideals.r)]
        until = Fraction(1, 4) if name == "PROP16" else Fraction(1)
        jumps += [jump.point for jump in ray_walk(ideals, make_ray(ideals, base, direction), until)]
    assert jumps
    if ideals.r == 2:
        # the atlas: every arrangement vertex and every facet sample
        side = Fraction(1, 8) if name == "PROP16" else Fraction(1, 2)
        atlas = cell_decomposition(ideals, (side, side))
        jumps += [sample for facet in atlas.facets for sample in facet.samples]
        points += [(Fraction(x, w), Fraction(y, w)) for x, y, w in atlas.arrangement.vertices]
    assert _violations(ideals, points + jumps) == []


@functools.cache
def _workloads():
    """bench/workloads.py, executed from its file under a private name (its
    dataclasses look their module up in `sys.modules`); its graph
    generators read no library code."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("index", range(4))
def test_subadditivity_on_blowup_graphs(index):
    # the cli workload's graphs: n point blow-ups of a smooth point
    fixture = _workloads().blowup_graph(index)
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
