"""Frozen expected values used across the test suite.

Everything here was derived independently of the library (by hand or from
the published data the fixtures model) and is kept as plain literals so the
tests cannot drift along with the implementation.
"""

from fractions import Fraction as F

# ---------------------------------------------------------------------------
# CHAIN10 — smooth point resolved by ten blow-ups, components forming a chain
# in the order 7, 10, 9, 8, 6, 1, 2, 5, 4, 3; two ideals.
# ---------------------------------------------------------------------------

CHAIN10_EDGES = (
    (7, 10), (9, 10), (8, 9), (6, 8), (1, 6),
    (1, 2), (2, 5), (4, 5), (3, 4),
)
CHAIN10_CANONICAL = (1, 2, 3, 6, 9, 2, 3, 6, 10, 14)
CHAIN10_DIAGONAL = (-3, -4, -2, -2, -1, -3, -4, -2, -2, -1)
CHAIN10_F1 = (4, 4, 4, 8, 12, 8, 11, 20, 32, 44)
CHAIN10_F2 = (3, 6, 7, 14, 21, 3, 3, 6, 9, 12)
# (ideal, component) -> excess, 1-based, everything else zero
CHAIN10_EXCESSES = {(1, 10): 1, (2, 5): 1}

# unloading worked example: start divisor -> its antinef closure
CHAIN10_UNLOADING_START = (0, 0, 0, 0, 1, 0, 0, 0, 0, -1)
CHAIN10_UNLOADING_CLOSURE = (1, 1, 1, 2, 3, 1, 1, 2, 3, 4)

# the log-canonical region of the origin is cut by exactly these components
CHAIN10_LC_BINDING = (5, 10)  # 12 z1 + 21 z2 < 10 and 44 z1 + 12 z2 < 15

# Two parallel rays with direction (1, 1) and the jumping points known to
# lie on them.  On each ray exactly the first listed point has m = 2 (it is
# the point whose ideal is the maximal ideal, sitting on two wall lines);
# every other listed point has m = 1.
RAY_DIR = (1, 1)
RAY_L_BASE = (F(0), F(101, 780))
RAY_L_POINTS = (
    (F(81, 260), F(86, 195)),
    (F(631, 2860), F(751, 2145)),
    (F(697, 1820), F(1399, 2730)),
    (F(827, 1820), F(797, 1365)),
    (F(957, 1820), F(1789, 2730)),
    (F(1151, 2860), F(1141, 2145)),
    (F(1411, 2860), F(1336, 2145)),
    (F(1849, 3640), F(6961, 10920)),
    (F(2109, 3640), F(7741, 10920)),
    (F(2369, 3640), F(8521, 10920)),
)
RAY_L2_BASE = (F(0), F(37, 390))
RAY_L2_POINTS = (
    (F(67, 130), F(119, 195)),
    (F(203, 520), F(757, 1560)),
    (F(267, 455), F(1861, 2730)),
    (F(347, 1430), F(724, 2145)),
    (F(477, 1430), F(919, 2145)),
    (F(607, 1430), F(1114, 2145)),
    (F(1161, 3640), F(4519, 10920)),
    (F(1681, 3640), F(6079, 10920)),
    (F(1941, 3640), F(6859, 10920)),
    (F(2201, 3640), F(7639, 10920)),
)
# pairs flagged with multiplicity 2 in the published chart the rays model;
# both compute to m = 1 here, while the true m = 2 points are the first row
# of each column above (asserted in the acceptance test)
RAY_L_FLAGGED = (F(631, 2860), F(751, 2145))
RAY_L2_FLAGGED = (F(1161, 3640), F(4519, 10920))
# the m = 2 point of ray L sits on exactly these wall lines (component, level)
RAY_L_DOUBLE_POINT = (F(81, 260), F(86, 195))
RAY_L_DOUBLE_WALLS = {(5, 4), (10, 5)}

# ---------------------------------------------------------------------------
# RAT6 — rational surface singularity with six components, two ideals.
# ---------------------------------------------------------------------------

RAT6_MATRIX = (
    (-2, 1, 1, 1, 0, 0),
    (1, -3, 0, 0, 1, 1),
    (1, 0, -1, 0, 0, 0),
    (1, 0, 0, -3, 0, 0),
    (0, 1, 0, 0, -3, 0),
    (0, 1, 0, 0, 0, -6),
)
RAT6_CANONICAL = (F(-1, 2), F(-1), F(1, 2), F(-1, 2), F(-2, 3), F(-5, 6))
RAT6_FUNDAMENTAL = (3, 2, 3, 1, 1, 1)
RAT6_F1 = (15, 6, 15, 9, 2, 1)
RAT6_F2 = (3, 2, 3, 1, 1, 1)
RAT6_EXCESSES = {(1, 4): 12, (2, 2): 1, (2, 5): 1, (2, 6): 4}
RAT6_LCT = (F(1, 6), F(1))
RAT6_NEST = (1, 2, 4)
RAT6_LC_FACETS = 2
# the corner of the log-canonical wall where the E2 and E4 facet lines meet;
# the E1 constraint line passes through the same point
RAT6_CORNER = (F(1, 12), F(3, 4))
RAT6_CORNER_MULT = 2
RAT6_LC_BINDING = (2, 4)  # 6 z1 + 2 z2 < 2 and 9 z1 + z2 < 3/2

# ---------------------------------------------------------------------------
# NEST14 — three ideals on a 14-component tree at a smooth point.
# ---------------------------------------------------------------------------

NEST14_EDGES = (
    (1, 2), (1, 6), (1, 13), (2, 4), (4, 5), (5, 3), (6, 8),
    (8, 7), (6, 10), (10, 9), (13, 14), (14, 12), (12, 11),
)
NEST14_CANONICAL = (1, 2, 3, 6, 10, 2, 3, 6, 3, 6, 2, 4, 6, 11)
# the same vector with component 14 lowered to 10 is mutually inconsistent
# with the adjacency: no integer self-intersections exist for it
NEST14_CANONICAL_INCONSISTENT = (1, 2, 3, 6, 10, 2, 3, 6, 3, 6, 2, 4, 6, 10)
NEST14_DIAGONAL = (-6, -3, -3, -2, -1, -5, -2, -1, -2, -1, -2, -3, -2, -1)
NEST14_F1 = (3, 6, 8, 15, 24, 3, 3, 6, 3, 6, 3, 6, 9, 15)
NEST14_F2 = (4, 4, 4, 8, 12, 8, 9, 18, 9, 18, 4, 8, 12, 20)
NEST14_F3 = (5, 5, 5, 10, 15, 5, 5, 10, 5, 10, 7, 14, 20, 35)
NEST14_EXCESSES = {(1, 5): 1, (2, 8): 1, (2, 10): 1, (3, 14): 1}
NEST14_LCT = (F(11, 24), F(3, 8), F(12, 35))
# value the third axis would take with the inconsistent canonical vector
NEST14_LCT3_VARIANT = F(11, 35)
NEST14_NEST = (1, 5, 6, 14)
NEST14_LC_FACETS = 4

# ---------------------------------------------------------------------------
# PROP16 — two ideals on a 16-component tree with a proportional nest pair.
# ---------------------------------------------------------------------------

PROP16_EDGES = (
    (13, 1), (1, 3), (3, 4), (4, 2), (4, 9), (9, 10), (10, 8),
    (4, 7), (7, 6), (6, 5), (13, 12), (12, 11), (13, 16), (16, 15), (15, 14),
)
PROP16_CANONICAL = (1, 2, 4, 7, 8, 16, 24, 8, 16, 25, 2, 4, 6, 7, 14, 21)
PROP16_DIAGONAL = (-6, -3, -2, -6, -2, -2, -1, -3, -2, -1, -2, -2, -4, -2, -2, -1)
PROP16_F1 = (18, 24, 45, 72, 73, 146, 218, 72, 144, 216, 21, 42, 63, 64, 128, 192)
PROP16_F2 = (18, 24, 45, 72, 72, 144, 216, 74, 147, 222, 21, 42, 63, 64, 128, 192)
# raising the last coordinate of either ideal to 194 breaks antinefness
PROP16_BAD_TAIL = 194
PROP16_EXCESSES = {(1, 4): 1, (1, 6): 1, (1, 16): 1, (2, 10): 1, (2, 16): 1}
PROP16_LCT = (F(1, 9), F(1, 9))
PROP16_NEST = (4, 13)
PROP16_RATIO = F(7, 8)
PROP16_LC_FACETS = 1
# the single facet lies on the coincident constraint lines
# 72 z1 + 72 z2 = 8 (component 4) and 63 z1 + 63 z2 = 7 (component 13)
PROP16_FACET_LINES = ((72, 72, 8), (63, 63, 7))

# ---------------------------------------------------------------------------
# SMOOTH1 — the blow-up of a smooth surface point, one ideal.
# ---------------------------------------------------------------------------

SMOOTH1_SERIES = "t^2/(1 - t)^2"
# jumping numbers of the maximal ideal are 2, 3, 4, ... with m = 1, 2, 3, ...
SMOOTH1_JUMPS = ((F(2), 1), (F(3), 2), (F(4), 3), (F(5), 4))
