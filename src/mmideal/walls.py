"""Wall atlases for pairs of ideals and log-canonical geometry for any tuple.

For a pair (r = 2) the jumping walls are lines F_1[j]*z1 + F_2[j]*z2 = l + k_j
with positive integer levels l.  The atlas is the cell decomposition of a box
by those lines: every open face carries one mixed multiplier ideal, faces are
merged into cells of constant ideal, and the boundary pieces where the ideal
actually changes are grouped into C-facets — maximal collinear runs with one
(lower ideal, upper ideal) pair.  Every facet is sampled at two interior
points which must agree on multiplicity and minimal jumping divisor.

For any number of ideals the log-canonical wall is the boundary of the
constancy region of the origin.  Its facet count is compared against the
Newton nest — the rupture-or-dicritical part of the smallest subtree spanning
every axis contact locus — and the comparison verdict explains any failure:
a proportional pair in the nest, a wall point of multiplicity above one, or
a bare count mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arrangement import Arrangement, Line, build_arrangement, make_line
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
    evaluate_point,
    mmi_divisor,
    region,
)
from .multiplicity import jump_record, multiplicity_checked
from .polytope import Vector
from .rationals import format_point, format_rational

__all__ = [
    "wall_lines",
    "cell_decomposition",
    "facet_intersection_vertices",
    "WallAtlas",
    "CFacet",
    "lc_region",
    "require_valid_region",
    "lct_axis",
    "axis_Gprime",
    "newton_nest",
    "bijection_report",
    "LCFacet",
    "BijectionReport",
]

Point2 = tuple[Fraction, Fraction]


def wall_lines(ideals: IdealTuple, box: tuple[Fraction, Fraction]) -> list[Line]:
    """Positive-level wall lines meeting the open box (0,bx) x (0,by)."""
    if ideals.r != 2:
        raise ValidationError(
            f"wall atlases need exactly two ideals, got {ideals.r}"
        )
    bx, by = Fraction(box[0]), Fraction(box[1])
    if bx <= 0 or by <= 0:
        raise ValidationError("box sides must be positive rationals")
    lines: list[Line] = []
    for j in range(ideals.size):
        a, b = ideals.ideals[0][j], ideals.ideals[1][j]
        k = ideals.graph.canonical[j]
        far_corner = a * bx + b * by
        lowest = max(1, math.floor(-k) + 1)
        highest = math.ceil(far_corner - k) - 1
        for level in range(lowest, highest + 1):
            lines.append(make_line(a, b, k + level, sources=[(j, level)]))
    if not lines:
        raise BoxTooSmall(
            f"no jumping wall meets the box {format_rational(bx)} x "
            f"{format_rational(by)}"
        )
    return lines


@dataclass(frozen=True)
class CFacet:
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


@dataclass(frozen=True)
class WallAtlas:
    box: tuple[Fraction, Fraction]
    arrangement: Arrangement
    face_divisors: tuple[tuple[int, ...], ...]
    cells: tuple[tuple[int, ...], ...]
    cell_divisors: tuple[tuple[int, ...], ...]
    facets: tuple[CFacet, ...]


def _facet_sample(
    arrangement: Arrangement, edge_indices: Sequence[int], fraction: Fraction
) -> Point2:
    """Point at the given fraction of the facet chord, moved to the midpoint
    of the containing edge if it collides with an arrangement vertex."""
    vertices = arrangement.vertices
    first = arrangement.edges[edge_indices[0]]
    last = arrangement.edges[edge_indices[-1]]
    start, end = vertices[first.tail], vertices[last.head]
    sample = (
        start[0] + fraction * (end[0] - start[0]),
        start[1] + fraction * (end[1] - start[1]),
    )
    interior = {
        vertices[arrangement.edges[e].tail] for e in edge_indices[1:]
    }
    if sample in interior:
        for e in edge_indices:
            edge = arrangement.edges[e]
            if vertices[edge.tail] == sample or vertices[edge.head] == sample:
                return edge.midpoint(vertices)
    return sample


def cell_decomposition(
    ideals: IdealTuple, box: tuple[Fraction, Fraction]
) -> WallAtlas:
    lines = wall_lines(ideals, box)
    arrangement = build_arrangement(lines, box)
    face_divisors = tuple(
        mmi_divisor(ideals, face.barycenter) for face in arrangement.faces
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

    facets: list[CFacet] = []
    for line_index, line in enumerate(arrangement.lines):
        if line.is_box:
            continue
        run: list[int] = []
        run_key: tuple[tuple[int, ...], tuple[int, ...]] | None = None

        def close_run() -> None:
            if not run:
                return
            low_divisor, high_divisor = run_key
            samples = (
                _facet_sample(arrangement, run, Fraction(1, 3)),
                _facet_sample(arrangement, run, Fraction(2, 3)),
            )
            records = [jump_record(ideals, s) for s in samples]
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
            first = arrangement.edges[run[0]]
            last = arrangement.edges[run[-1]]
            facets.append(
                CFacet(
                    line_index=line_index,
                    sources=line.sources,
                    edge_indices=tuple(run),
                    endpoints=(
                        arrangement.vertices[first.tail],
                        arrangement.vertices[last.head],
                    ),
                    low_divisor=low_divisor,
                    high_divisor=high_divisor,
                    samples=samples,
                    mult=records[0].mult,
                    minimal_support=records[0].minimal,
                )
            )
            run.clear()

        for edge_index in arrangement.line_edges[line_index]:
            low, high = arrangement.edge_faces[edge_index]
            if low is None or high is None:
                raise InternalConsistencyError(
                    "wall edge with a missing incident face"
                )
            key = (face_divisors[low], face_divisors[high])
            if key[0] == key[1]:
                close_run()
                run_key = None
                continue
            if run_key is not None and key != run_key:
                close_run()
            run_key = key
            run.append(edge_index)
        close_run()

    return WallAtlas(
        box=(Fraction(box[0]), Fraction(box[1])),
        arrangement=arrangement,
        face_divisors=face_divisors,
        cells=cells,
        cell_divisors=cell_divisors,
        facets=tuple(facets),
    )


def facet_intersection_vertices(atlas: WallAtlas) -> list[Point2]:
    """Arrangement vertices where facets on different carrier lines meet."""
    carriers: dict[int, set[int]] = {}
    for facet in atlas.facets:
        for edge_index in facet.edge_indices:
            edge = atlas.arrangement.edges[edge_index]
            for vertex in (edge.tail, edge.head):
                carriers.setdefault(vertex, set()).add(facet.line_index)
    return sorted(
        atlas.arrangement.vertices[vertex]
        for vertex, lines in carriers.items()
        if len(lines) >= 2
    )


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


def _thresholds(ideals: IdealTuple, report: RegionReport) -> tuple[Fraction, ...]:
    """Jumping threshold of each single ideal, read off the lc region."""
    return tuple(
        min(bound / vector[j] for j, bound in enumerate(report.bounds))
        for vector in ideals.ideals
    )


def _checked_thresholds(
    ideals: IdealTuple, report: RegionReport
) -> tuple[Fraction, ...]:
    """The thresholds, each checked against the second route: the extreme
    vertex of the lc polytope on its axis."""
    thresholds = _thresholds(ideals, report)
    for axis, threshold in enumerate(thresholds):
        extreme = max(
            (
                vertex[axis]
                for vertex in report.polytope.vertices
                if not any(x for i, x in enumerate(vertex) if i != axis)
            ),
            default=None,
        )
        if extreme != threshold:
            shown = "none" if extreme is None else format_rational(extreme)
            raise InternalConsistencyError(
                f"lct axis {axis + 1}: min-ratio route gives "
                f"{format_rational(threshold)}, the lc polytope's axis vertex "
                f"gives {shown}"
            )
    return thresholds


def _axis_supports(
    ideals: IdealTuple, report: RegionReport
) -> tuple[tuple[int, ...], ...]:
    keep = ideals.rupture_or_dicritical
    return tuple(
        tuple(
            j
            for j, bound in enumerate(report.bounds)
            if keep[j] and threshold * vector[j] == bound
        )
        for vector, threshold in zip(ideals.ideals, _thresholds(ideals, report))
    )


def lct_axis(ideals: IdealTuple, axis: int) -> Fraction:
    """Jumping threshold of the single ideal F_axis (0-based axis)."""
    return _thresholds(ideals, lc_region(ideals))[axis]


def axis_Gprime(ideals: IdealTuple, axis: int) -> tuple[int, ...]:
    """Rupture-or-dicritical components whose wall passes through the axis
    threshold point of the given ideal."""
    return _axis_supports(ideals, lc_region(ideals))[axis]


def _tree_path(adjacency: Sequence[Sequence[int]], start: int, goal: int) -> list[int]:
    previous: dict[int, int] = {start: start}
    queue = [start]
    while queue:
        current = queue.pop(0)
        if current == goal:
            break
        for neighbor in adjacency[current]:
            if neighbor not in previous:
                previous[neighbor] = current
                queue.append(neighbor)
    path = [goal]
    while path[-1] != start:
        path.append(previous[path[-1]])
    return path


def newton_nest(ideals: IdealTuple) -> tuple[int, ...]:
    """Rupture-or-dicritical members of the smallest subtree spanning every
    axis contact locus."""
    return _nest(ideals, _axis_supports(ideals, lc_region(ideals)))


def _nest(ideals: IdealTuple, supports: Sequence[Sequence[int]]) -> tuple[int, ...]:
    members = set().union(*supports)
    if not members:
        return ()
    adjacency = ideals.graph.adjacency
    anchor = min(members)
    subtree: set[int] = set()
    for member in members:
        subtree.update(_tree_path(adjacency, anchor, member))
    keep = ideals.rupture_or_dicritical
    return tuple(sorted(j for j in subtree if keep[j]))


@dataclass(frozen=True)
class LCFacet:
    """One geometric facet of the log-canonical wall."""

    key: tuple[Fraction, ...]
    carriers: tuple[int, ...]  # components whose constraint carries the facet
    vertices: tuple[Vector, ...]
    sample: Vector
    sample_mult: int


@dataclass(frozen=True)
class BijectionReport:
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
    value is an integer, so the sampled multiplicity belongs to this facet."""
    count = len(vertices)
    carrier_set = set(carriers)
    for attempt in range(50):
        weights = [1] * count
        weights[attempt % count] += attempt
        total = sum(weights)
        sample = tuple(
            sum((w * v[i] for w, v in zip(weights, vertices)), Fraction(0))
            / total
            for i in range(ideals.r)
        )
        evaluation = evaluate_point(ideals, sample)
        clean = all(
            j in carrier_set
            for j, v in enumerate(evaluation.values)
            if v.denominator == 1 and v > 0
        )
        if clean:
            return evaluation
    raise NoCleanSample(
        "no clean relative-interior sample found on a wall facet in 50 weightings"
    )


def bijection_report(ideals: IdealTuple) -> BijectionReport:
    report = lc_region(ideals)
    polytope = report.polytope
    axes = ideals.r
    thresholds = _checked_thresholds(ideals, report)
    supports = _axis_supports(ideals, report)
    nest = _nest(ideals, supports)

    facets: list[LCFacet] = []
    for key, indices in sorted(polytope.facet_keys().items()):
        carriers = tuple(sorted(i - axes for i in indices if i >= axes))
        if not carriers:
            continue  # orthant plane
        vertices = polytope.incident_vertices(axes + carriers[0])
        sample = _interior_sample(ideals, carriers, vertices)
        facets.append(
            LCFacet(
                key=key,
                carriers=carriers,
                vertices=vertices,
                sample=sample.point,
                sample_mult=multiplicity_checked(ideals, sample),
            )
        )

    # 1) proportionality inside the nest degenerates the correspondence
    for position, lower in enumerate(nest):
        for higher in nest[position + 1 :]:
            ratios = {
                Fraction(ideals.ideals[i][higher], ideals.ideals[i][lower])
                for i in range(axes)
            }
            if len(ratios) != 1:
                continue
            ratio = ratios.pop()
            canon = ideals.graph.canonical
            if ratio * (canon[lower] + 1) == canon[higher] + 1:
                pair = (lower, higher) if ratio < 1 else (higher, lower)
                return BijectionReport(
                    nest=nest,
                    facets=tuple(facets),
                    verdict="DegenerateProportional",
                    lct=thresholds,
                    axis_supports=supports,
                    degenerate_pair=pair,
                    degenerate_ratio=min(ratio, 1 / ratio),
                )

    # 2) the correspondence requires multiplicity one along the whole wall:
    #    check facet interiors and the isolated touch points
    witness: tuple[Vector, int] | None = None
    for facet in facets:
        if facet.sample_mult != 1:
            witness = (facet.sample, facet.sample_mult)
            break
    if witness is None:
        for j, kind in enumerate(report.classification):
            if kind != "touch":
                continue
            for vertex in polytope.incident_vertices(axes + j):
                if all(x == 0 for x in vertex):
                    continue
                mult = multiplicity_checked(ideals, vertex)
                if mult != 1:
                    witness = (vertex, mult)
                    break
            if witness is not None:
                break
    if witness is not None:
        return BijectionReport(
            nest=nest,
            facets=tuple(facets),
            verdict="MultiplicityHypothesisFails",
            lct=thresholds,
            axis_supports=supports,
            witness=witness,
        )

    # 3) counts decide
    if len(facets) == len(nest):
        pairing = []
        for index, facet in enumerate(facets):
            matched = [j for j in facet.carriers if j in nest]
            if len(matched) == 1:
                pairing.append((matched[0], index))
        if len(pairing) == len(nest):
            return BijectionReport(
                nest=nest,
                facets=tuple(facets),
                verdict="Bijection",
                lct=thresholds,
                axis_supports=supports,
                pairing=tuple(pairing),
            )
    return BijectionReport(
        nest=nest,
        facets=tuple(facets),
        verdict="Mismatch",
        lct=thresholds,
        axis_supports=supports,
    )
