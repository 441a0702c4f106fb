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

There is one way in per quantity: Z is a graph's `fundamental`, a point's
divisors, gap values and H_c are attributes of `evaluate_point`'s record,
and its multiplicity, and G at a jumping point, come from `jump_record` or
`multiplicity_checked`, which run every route.  The
routes and readers behind them (``evaluate.mmi_divisor``,
``multiplicity.multiplicity_oracle``, ``unloading.antinef_closure`` and the
like) stay module-level functions that are not exported here, where the
benchmark's tracer wraps them by module attribute.
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
    region,
    subtuple,
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
    JumpRecord,
    PerturbationReport,
    admissible_perturbation,
    jump_record,
    multiplicity_checked,
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
    ray_walk,
    rho,
    series_expand,
    stability_bound,
)
from .unloading import antinef_closure_checked, colength, is_antinef
from .walls import (
    BijectionReport,
    CFacet,
    LCFacet,
    WallAtlas,
    bijection_report,
    cell_decomposition,
    facet_intersection_vertices,
    lc_region,
    lct_axis,
    newton_nest,
    wall_lines,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorTerm",
    "BijectionReport",
    "CFacet",
    "DualGraph",
    "Fixture",
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
    "antinef_closure_checked",
    "attach_ideals",
    "bijection_report",
    "build_graph",
    "build_tuple",
    "bundled_names",
    "cell_decomposition",
    "colength",
    "combined_ideal",
    "derive_diagonal",
    "emit_fixture",
    "evaluate_point",
    "facet_intersection_vertices",
    "format_point",
    "format_rational",
    "graph_from_adjacency",
    "is_antinef",
    "is_degenerate",
    "jump_record",
    "lc_region",
    "lct_axis",
    "load_fixture",
    "make_ray",
    "multiplicity_checked",
    "newton_nest",
    "parse_fixture",
    "parse_point",
    "parse_rational",
    "perturbation_sum",
    "poincare",
    "ray_walk",
    "region",
    "rho",
    "series_expand",
    "singularity_class",
    "stability_bound",
    "subtuple",
    "wall_lines",
]
