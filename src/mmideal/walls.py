"""Wall atlases for pairs of ideals and log-canonical geometry for any tuple.

For a pair (r = 2) the jumping walls are lines F_1[j]*z1 + F_2[j]*z2 = l + k_j
with positive integer levels l, built as integer forms over K's denominator.
The atlas is the cell decomposition of a box by those lines: every open face
carries one mixed multiplier ideal, faces are merged into cells of constant
ideal, and the boundary pieces where the ideal actually changes are grouped
into C-facets — maximal collinear runs with one (lower ideal, upper ideal)
pair.  The arrangement's edges are (tail, head, line) triples running along
the line's direction and its faces counterclockwise vertex loops, read here
as plain tuples.  Every facet is sampled a third of the way along the first
edge of its run and two thirds along the last; an open edge holds no vertex
and meets no other line.  Both samples must be jumping points between the
low and high ideals, with one multiplicity and one minimal jumping divisor.
Every point evaluated here is an average of vertex triples, evaluated from
its integers; `Fraction` points are built only for what a caller reads, the
facet endpoints and `facet_intersection_vertices`.

Face divisors are propagated, not evaluated face by face.  The clamped floor
vector max(floor(v), 0) changes only across a wall line, and there only in
the components its sources name, by one.  One face is evaluated; a
breadth-first walk across the interior edges carries its floor vector to
every other face, checking the value it leaves at each crossing and the
vector it brings at each edge that closes a cycle.  Each interior edge is
crossed once; crossing back would only undo a crossing already checked.
At one point of every wall line an integer scan of v_j, separate code from
the point evaluation, checks that the line's sources are all of the walls
through it.  Each face's divisor is the checked closure of its floors, and
the lowest-numbered face of every cell is evaluated directly as the
independent route.

For any number of ideals the log-canonical wall is the boundary of the
constancy region of the origin: the orthant clipped by one integer row per
component, each facet of the clip a facet of the wall.  Its facet count is
compared against the Newton nest — the rupture-or-dicritical part of the
smallest subtree spanning every axis contact locus — and the comparison
verdict explains any failure: a proportional pair in the nest, a wall point
of multiplicity above one, or a bare count mismatch.  `require_valid_region`,
which raises where a region's validation pass found a binding component
that is neither rupture nor dicritical, serves the CLI and stays unexported.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction
from typing import NamedTuple, Sequence

from .arrangement import Arrangement, Line, build_arrangement
from .dualgraph import IdealTuple
from .errors import (
    BindingNonRuptureConstraint,
    BoxTooSmall,
    InternalConsistencyError,
    NoCleanSample,
    ValidationError,
)
from .evaluate import (
    PointEvaluation,
    RegionReport,
    _evaluate_at,
    mmi_divisor,
    region,
)
from .multiplicity import jump_record, multiplicity_checked
from .polytope import Vector
from .rationals import _index, _rational_vector, format_point, format_rational
from .rationals import over_common_denominator
from .unloading import antinef_closure_checked


Point2 = tuple[Fraction, Fraction]


def _point(vertex: tuple[int, int, int]) -> Point2:
    """The point (X/W, Y/W) of an arrangement vertex (X, Y, W)."""
    x, y, w = vertex
    return Fraction(x, w), Fraction(y, w)


def wall_lines(ideals: IdealTuple, box: tuple[Fraction, Fraction]) -> list[Line]:
    """Positive-level wall lines meeting the open box (0,bx) x (0,by):
    the forms (D*F_1[j], D*F_2[j], D*k_j + D*l) in lowest terms."""
    if ideals.r != 2:
        raise ValidationError(
            f"wall atlases need exactly two ideals, got {ideals.r}"
        )
    box = _rational_vector(box, 2, "box sides")
    if any(side <= 0 for side in box):
        raise ValidationError("box sides must be positive rationals")
    (px, qx), (py, qy) = ((side.numerator, side.denominator) for side in box)
    denominator, scaled_canonical = ideals.graph.scaled_canonical
    lines: list[Line] = []
    for j in range(ideals.size):
        a, b = ideals.ideals[0][j], ideals.ideals[1][j]
        k = scaled_canonical[j]
        # levels l >= 1 with 0 < k_j + l < a*bx + b*by
        lowest = max(1, -k // denominator + 1)
        far = denominator * (a * px * qy + b * py * qx) - k * qx * qy
        highest = -(-far // (denominator * qx * qy)) - 1
        for level in range(lowest, highest + 1):
            # the normal (D*a, D*b) is nonzero: ideals have full support
            A, B, C = denominator * a, denominator * b, k + denominator * level
            g = math.gcd(A, B, C)
            lines.append(Line((A // g, B // g, C // g), ((j, level),)))
    if not lines:
        raise BoxTooSmall(
            f"no jumping wall meets the box {format_rational(box[0])} x "
            f"{format_rational(box[1])}"
        )
    return lines


class CFacet(NamedTuple):
    """Maximal collinear wall piece with a single ideal transition."""

    line_index: int
    sources: tuple[tuple[int, int], ...]
    edge_indices: tuple[int, ...]
    endpoints: tuple[Point2, Point2]
    low_divisor: tuple[int, ...]
    high_divisor: tuple[int, ...]
    samples: tuple[Point2, Point2]
    mult: int
    minimal_support: tuple[bool, ...]


class WallAtlas(NamedTuple):
    box: tuple[Fraction, Fraction]
    arrangement: Arrangement
    face_divisors: tuple[tuple[int, ...], ...]
    cells: tuple[tuple[int, ...], ...]
    cell_divisors: tuple[tuple[int, ...], ...]
    facets: tuple[CFacet, ...]


def _face_floors(
    ideals: IdealTuple, arrangement: Arrangement
) -> list[tuple[int, ...]]:
    """Clamped floors max(floor(v_j), 0) of every face, by a breadth-first
    walk across interior edges from face 0, which alone is evaluated.

    The clamped floor of component j changes only where v_j crosses a
    positive integer l, which is the wall line with source (j, l); its
    normal (F_1[j], F_2[j]) is nonnegative and merged lines keep the first
    orientation, so the high side of every edge is where v_j > l.  Crossing
    low to high takes component j from l - 1 to l.  Each crossing checks
    the value it leaves, and each edge that reaches a face already assigned
    checks that it gives the same vector.  Every interior edge is crossed
    once, from whichever of its faces the walk leaves first: crossing it
    back from the other side would only check T^-1(T(f)) = f for the
    crossing map T, which the first crossing's checks already imply.  A
    source missing from a line that no crossing exposes is caught
    afterwards: the walls through the midpoint of each wall line's first
    edge, found by `_walls_through`, must be its sources."""
    faces, edges, lines = arrangement.faces, arrangement.edges, arrangement.lines
    crossings: list[list[int]] = [[] for _ in faces]
    for e, (low, high) in enumerate(arrangement.edge_faces):
        if low is not None and high is not None:
            crossings[low].append(e)
            crossings[high].append(e)
    start = _evaluate_at(ideals, *arrangement.mean(faces[0]))
    floors: list[tuple[int, ...] | None] = [None] * len(faces)
    floors[0] = tuple(max(f, 0) for f in start.floors)
    left = [False] * len(faces)  # every edge of a face left is crossed
    queue = deque([0])
    while queue:
        face = queue.popleft()
        left[face] = True
        for e in crossings[face]:
            low, high = arrangement.edge_faces[e]
            upward = face == low
            if left[high if upward else low]:
                continue
            vector = list(floors[face])
            for j, level in lines[edges[e][2]].sources:
                before, after = (level - 1, level) if upward else (level, level - 1)
                if vector[j] != before:
                    raise InternalConsistencyError(
                        f"crossing edge {e} from face {face}: component "
                        f"{j + 1} has floor {vector[j]}, expected {before}"
                    )
                vector[j] = after
            vector = tuple(vector)
            reached = high if upward else low
            if floors[reached] is None:
                floors[reached] = vector
                queue.append(reached)
            elif floors[reached] != vector:
                raise InternalConsistencyError(
                    f"face {reached} reached with floors {floors[reached]} "
                    f"and {vector}"
                )
    if None in floors:
        raise InternalConsistencyError(
            f"face {floors.index(None)} is not reached from face 0"
        )
    for line_index, line in enumerate(lines):
        if line.is_box:
            continue
        tail, head, _ = edges[arrangement.line_edges[line_index][0]]
        (x, y), w = arrangement.mean((tail, head))
        through = _walls_through(ideals, x, y, w)
        if set(through) != set(line.sources):
            raise InternalConsistencyError(
                f"wall line {line_index} has sources {sorted(line.sources)}, but its "
                f"point {format_point((Fraction(x, w), Fraction(y, w)))} lies on "
                f"{sorted(through)}"
            )
    return floors


def _walls_through(ideals: IdealTuple, x: int, y: int, w: int) -> list[tuple[int, int]]:
    """The wall lines (j, l) through the point (x/w, y/w), w > 0: v_j = l, a
    positive integer.  With D the denominator of K, D*w*v_j is the integer
    D*(F_1[j]*x + F_2[j]*y) - (D*k_j)*w.

    This scan shares no code with the point evaluation that gives face 0
    its floors, so a fault there cannot hide from the check that reads it."""
    denominator, scaled_canonical = ideals.graph.scaled_canonical
    scale = denominator * w
    through = []
    for j, (a, b, k) in enumerate(zip(*ideals.ideals, scaled_canonical)):
        value = denominator * (a * x + b * y) - k * w
        if value > 0 and value % scale == 0:
            through.append((j, value // scale))
    return through


def cell_decomposition(
    ideals: IdealTuple, box: tuple[Fraction, Fraction]
) -> WallAtlas:
    box = _rational_vector(box, 2, "box sides")
    lines = wall_lines(ideals, box)
    arrangement = build_arrangement(lines, box)
    face_divisors = tuple(
        antinef_closure_checked(ideals.graph, floors)
        for floors in _face_floors(ideals, arrangement)
    )

    parent = list(range(len(arrangement.faces)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for low, high in arrangement.edge_faces:
        if low is None or high is None:
            continue
        if face_divisors[low] == face_divisors[high]:
            parent[find(low)] = find(high)

    groups: dict[int, list[int]] = {}
    for face in range(len(arrangement.faces)):
        groups.setdefault(find(face), []).append(face)
    cells = tuple(tuple(sorted(members)) for _, members in sorted(groups.items()))
    cell_divisors = tuple(face_divisors[cell[0]] for cell in cells)
    # the independent route: one direct evaluation per cell
    for cell, divisor in zip(cells, cell_divisors):
        barycenter = arrangement.mean(arrangement.faces[cell[0]])
        direct = mmi_divisor(ideals, _evaluate_at(ideals, *barycenter))
        if direct != divisor:
            raise InternalConsistencyError(
                f"face {cell[0]}: propagated divisor {divisor} but the "
                f"barycenter evaluates to {direct}"
            )

    def sides(edge_index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        low, high = arrangement.edge_faces[edge_index]
        if low is None or high is None:
            raise InternalConsistencyError("wall edge with a missing incident face")
        return face_divisors[low], face_divisors[high]

    vertices = arrangement.vertices
    facets: list[CFacet] = []
    for line_index, line in enumerate(arrangement.lines):
        if line.is_box:
            continue
        for (low_divisor, high_divisor), group in itertools.groupby(
            arrangement.line_edges[line_index], key=sides
        ):
            if low_divisor == high_divisor:
                continue
            run = list(group)
            first_tail, first_head, _ = arrangement.edges[run[0]]
            last_tail, last_head, _ = arrangement.edges[run[-1]]
            # a third of the way along the first edge, two thirds along the last
            samples = (
                arrangement.mean((first_tail, first_tail, first_head)),
                arrangement.mean((last_tail, last_head, last_head)),
            )
            records = [jump_record(ideals, _evaluate_at(ideals, *s)) for s in samples]
            for record in records:
                if record.mult <= 0:
                    raise InternalConsistencyError(
                        f"facet sample {format_point(record.point)} is not "
                        f"a jumping point"
                    )
                if record.divisor != high_divisor or (
                    record.divisor_left != low_divisor
                ):
                    raise InternalConsistencyError(
                        f"facet sample {format_point(record.point)} does not "
                        f"separate the adjacent ideals"
                    )
            if (
                records[0].mult != records[1].mult
                or records[0].minimal != records[1].minimal
            ):
                raise InternalConsistencyError(
                    "facet samples disagree on multiplicity or minimal divisor"
                )
            facets.append(
                CFacet(
                    line_index=line_index,
                    sources=line.sources,
                    edge_indices=tuple(run),
                    endpoints=(_point(vertices[first_tail]), _point(vertices[last_head])),
                    low_divisor=low_divisor,
                    high_divisor=high_divisor,
                    samples=(records[0].point, records[1].point),
                    mult=records[0].mult,
                    minimal_support=records[0].minimal,
                )
            )

    return WallAtlas(
        box=box,
        arrangement=arrangement,
        face_divisors=face_divisors,
        cells=cells,
        cell_divisors=cell_divisors,
        facets=tuple(facets),
    )


def facet_intersection_vertices(atlas: WallAtlas) -> list[Point2]:
    """Arrangement vertices where facets on different carrier lines meet,
    in increasing order."""
    carriers: dict[int, set[int]] = {}
    for facet in atlas.facets:
        for edge_index in facet.edge_indices:
            for vertex in atlas.arrangement.edges[edge_index][:2]:
                carriers.setdefault(vertex, set()).add(facet.line_index)
    # vertex numbers are in lexicographic order of the points
    return [
        _point(atlas.arrangement.vertices[vertex])
        for vertex in sorted(carriers)
        if len(carriers[vertex]) >= 2
    ]


# ---------------------------------------------------------------------------
# Log-canonical wall, axis contacts, Newton nest, bijection verdict.
# ---------------------------------------------------------------------------


def lc_region(ideals: IdealTuple) -> RegionReport:
    """Constancy region of the origin; its boundary is the log-canonical wall."""
    return region(ideals, (Fraction(0),) * ideals.r)


def require_valid_region(report: RegionReport) -> RegionReport:
    if not report.valid:
        labels = ", ".join(str(j + 1) for j in report.binding_non_rupture)
        raise BindingNonRuptureConstraint(
            f"components {labels} bind the region despite being neither "
            f"rupture nor dicritical"
        )
    return report


def _axis_supports(
    ideals: IdealTuple, report: RegionReport
) -> tuple[tuple[int, ...], ...]:
    keep = ideals.rupture_or_dicritical
    denominator = ideals.graph.scaled_canonical[0]
    return tuple(
        tuple([
            j
            for j, (bound, entry) in enumerate(zip(report.scaled_bounds, vector))
            if keep[j] and t.numerator * entry * denominator == bound * t.denominator
        ])
        for vector, t in zip(ideals.ideals, report.thresholds)
    )


def lct_axis(ideals: IdealTuple, axis: int) -> Fraction:
    """Jumping threshold of the single ideal F_axis (0-based axis)."""
    axis = _index(axis, ideals.r, "ideal index")
    return lc_region(ideals).thresholds[axis]


def newton_nest(ideals: IdealTuple) -> tuple[int, ...]:
    """Rupture-or-dicritical members of the smallest subtree spanning every
    axis contact locus."""
    return _nest(ideals, _axis_supports(ideals, lc_region(ideals)))


def _nest(ideals: IdealTuple, supports: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Rupture-or-dicritical members of the smallest subtree containing every
    support: prune leaves outside the supports until none is left."""
    members = set().union(*supports)
    if not members:
        return ()
    adjacency = ideals.graph.adjacency
    degree = [len(neighbors) for neighbors in adjacency]
    pruned = [False] * len(adjacency)
    leaves = [j for j, d in enumerate(degree) if d <= 1 and j not in members]
    while leaves:
        leaf = leaves.pop()
        pruned[leaf] = True
        for neighbor in adjacency[leaf]:
            if not pruned[neighbor]:
                degree[neighbor] -= 1
                if degree[neighbor] == 1 and neighbor not in members:
                    leaves.append(neighbor)
    keep = ideals.rupture_or_dicritical
    return tuple(j for j, gone in enumerate(pruned) if keep[j] and not gone)


class LCFacet(NamedTuple):
    """One geometric facet of the log-canonical wall."""

    key: tuple[Fraction, ...]
    carriers: tuple[int, ...]  # components whose constraint carries the facet
    vertices: tuple[Vector, ...]
    sample: Vector
    sample_mult: int


class BijectionReport(NamedTuple):
    nest: tuple[int, ...]
    facets: tuple[LCFacet, ...]
    verdict: str
    lct: tuple[Fraction, ...]
    axis_supports: tuple[tuple[int, ...], ...]
    degenerate_pair: tuple[int, int] | None = None
    degenerate_ratio: Fraction | None = None
    witness: tuple[Vector, int] | None = None
    pairing: tuple[tuple[int, int], ...] | None = None  # (component, facet idx)

    @property
    def bijection(self) -> bool:
        return self.verdict == "Bijection"


def _interior_sample(
    ideals: IdealTuple, carriers: Sequence[int], vertices: Sequence[Vector]
) -> PointEvaluation:
    """Evaluated relative-interior point of the facet where no foreign gap
    value is an integer, so the sampled multiplicity belongs to this facet.
    Each try, a weighted average of the vertices, is built as integer
    numerators over one denominator and evaluated through the integer entry."""
    scale, flat = over_common_denominator(tuple(x for v in vertices for x in v))
    columns = [flat[i :: ideals.r] for i in range(ideals.r)]  # one per axis
    carrier_set = set(carriers)
    for attempt in range(50):
        weights = [1] * len(vertices)
        weights[attempt % len(vertices)] += attempt
        numerators = [sum(w * x for w, x in zip(weights, column)) for column in columns]
        evaluation = _evaluate_at(ideals, numerators, sum(weights) * scale)
        if all(j in carrier_set for j, _ in evaluation.wall_lines):
            return evaluation
    raise NoCleanSample(
        "no clean relative-interior sample found on a wall facet in 50 weightings"
    )


def bijection_report(ideals: IdealTuple) -> BijectionReport:
    region_report = lc_region(ideals)
    polytope = region_report.polytope
    supports = _axis_supports(ideals, region_report)
    nest = _nest(ideals, supports)

    facets: list[LCFacet] = []
    for key, indices in sorted(polytope.facet_keys().items()):
        carriers = tuple(indices)
        vertices = polytope.incident_vertices(carriers[0])
        sample = _interior_sample(ideals, carriers, vertices)
        mult = multiplicity_checked(ideals, sample)
        facets.append(LCFacet(key, carriers, vertices, sample.point, mult))
    report = BijectionReport(
        nest=nest,
        facets=tuple(facets),
        verdict="Mismatch",
        lct=region_report.thresholds,
        axis_supports=supports,
    )

    # 1) proportionality inside the nest degenerates the correspondence
    canon = ideals.graph.canonical
    for position, lower in enumerate(nest):
        for higher in nest[position + 1 :]:
            ratios = {Fraction(v[higher], v[lower]) for v in ideals.ideals}
            if len(ratios) != 1:
                continue
            ratio = ratios.pop()
            if ratio * (canon[lower] + 1) == canon[higher] + 1:
                return report._replace(
                    verdict="DegenerateProportional",
                    degenerate_pair=(lower, higher) if ratio < 1 else (higher, lower),
                    degenerate_ratio=min(ratio, 1 / ratio),
                )

    # 2) the correspondence requires multiplicity one along the whole wall:
    #    check facet interiors and the isolated touch points
    for facet in facets:
        if facet.sample_mult != 1:
            return report._replace(
                verdict="MultiplicityHypothesisFails",
                witness=(facet.sample, facet.sample_mult),
            )
    for j, kind in enumerate(region_report.classification):
        if kind != "touch":
            continue
        for vertex in polytope.incident_vertices(j):
            if any(vertex):
                scale, numerators = over_common_denominator(vertex)
                point = _evaluate_at(ideals, numerators, scale, vertex)
                mult = multiplicity_checked(ideals, point)
                if mult != 1:
                    return report._replace(
                        verdict="MultiplicityHypothesisFails",
                        witness=(vertex, mult),
                    )

    # 3) counts decide
    if len(facets) == len(nest):
        pairing = []
        for index, facet in enumerate(facets):
            matched = [j for j in facet.carriers if j in nest]
            if len(matched) == 1:
                pairing.append((matched[0], index))
        if len(pairing) == len(nest):
            return report._replace(verdict="Bijection", pairing=tuple(pairing))
    return report
