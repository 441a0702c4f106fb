"""Exact mixed multiplier ideals on rational surface singularities.

Everything is computed from the combinatorics of a resolution: the
intersection matrix of the exceptional components and one integer vector
per ideal.  All arithmetic is exact (integers and ``fractions.Fraction``);
no floating point is used anywhere.

Numbers are ``int`` (not ``bool``) or ``Fraction``; floats, bools and
strings are refused with ``ValidationError`` (see ``mmideal.rationals``).
Typical use::

    from fractions import Fraction

    from mmideal import load_fixture, build_tuple, jump_record

    ideals = build_tuple(load_fixture("RAT6"))
    record = jump_record(ideals, (Fraction(1, 12), Fraction(3, 4)))
    record.mult        # jumping multiplicity at that point
    record.divisor     # the mixed multiplier ideal as an antinef divisor
"""

from .dualgraph import (
    DualGraph,
    IdealTuple,
    SingularityClass,
    attach_ideals,
    build_graph,
    derive_diagonal,
    graph_from_adjacency,
    singularity_class,
)
from .errors import (
    InternalConsistencyError,
    MmidealError,
    ParseError,
    ValidationError,
)
from .evaluate import (
    PointEvaluation,
    RegionReport,
    combined_ideal,
    evaluate_point,
    gap_values,
    maximal_jumping_divisor,
    mmi_divisor,
    mmi_divisor_left,
    region,
    subtuple,
    support_components,
    weighted_F,
)
from .fixtures import (
    Fixture,
    build_tuple,
    bundled_names,
    emit_fixture,
    load_fixture,
    parse_fixture,
)
from .multiplicity import (
    HInequalityReport,
    JumpRecord,
    PerturbationReport,
    admissible_perturbation,
    check_H_inequalities,
    default_offset,
    is_jumping,
    jump_record,
    minimal_jumping_divisor,
    multiplicity,
    multiplicity_checked,
    multiplicity_fractional,
    multiplicity_oracle,
    multiplicity_via_G,
    perturbation_sum,
)
from .rationals import format_point, format_rational, parse_point, parse_rational
from .rays import (
    AnchorTerm,
    Ray,
    RayJump,
    SeriesClosedForm,
    is_degenerate,
    make_ray,
    poincare,
    ray_next,
    ray_point,
    ray_walk,
    rho,
    series_expand,
    stability_bound,
)
from .unloading import (
    antinef_closure,
    antinef_closure_checked,
    antinef_closure_unit,
    colength,
    divisor_leq,
    fundamental_cycle,
    is_antinef,
)
from .walls import (
    BijectionReport,
    CFacet,
    LCFacet,
    WallAtlas,
    axis_Gprime,
    bijection_report,
    cell_decomposition,
    facet_intersection_vertices,
    lc_region,
    lct_axis,
    newton_nest,
    require_valid_region,
    wall_lines,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorTerm",
    "BijectionReport",
    "CFacet",
    "DualGraph",
    "Fixture",
    "HInequalityReport",
    "IdealTuple",
    "InternalConsistencyError",
    "JumpRecord",
    "LCFacet",
    "MmidealError",
    "ParseError",
    "PerturbationReport",
    "PointEvaluation",
    "Ray",
    "RayJump",
    "RegionReport",
    "SeriesClosedForm",
    "SingularityClass",
    "ValidationError",
    "WallAtlas",
    "admissible_perturbation",
    "antinef_closure",
    "antinef_closure_checked",
    "antinef_closure_unit",
    "attach_ideals",
    "axis_Gprime",
    "bijection_report",
    "build_graph",
    "build_tuple",
    "bundled_names",
    "cell_decomposition",
    "check_H_inequalities",
    "colength",
    "combined_ideal",
    "default_offset",
    "derive_diagonal",
    "divisor_leq",
    "emit_fixture",
    "evaluate_point",
    "facet_intersection_vertices",
    "format_point",
    "format_rational",
    "fundamental_cycle",
    "gap_values",
    "graph_from_adjacency",
    "is_antinef",
    "is_degenerate",
    "is_jumping",
    "jump_record",
    "lc_region",
    "lct_axis",
    "load_fixture",
    "make_ray",
    "maximal_jumping_divisor",
    "minimal_jumping_divisor",
    "mmi_divisor",
    "mmi_divisor_left",
    "multiplicity",
    "multiplicity_checked",
    "multiplicity_fractional",
    "multiplicity_oracle",
    "multiplicity_via_G",
    "newton_nest",
    "parse_fixture",
    "parse_point",
    "parse_rational",
    "perturbation_sum",
    "poincare",
    "ray_next",
    "ray_point",
    "ray_walk",
    "region",
    "require_valid_region",
    "rho",
    "series_expand",
    "singularity_class",
    "stability_bound",
    "subtuple",
    "support_components",
    "wall_lines",
    "weighted_F",
]
