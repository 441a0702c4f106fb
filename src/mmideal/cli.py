"""Command-line interface.

Every subcommand takes a fixture (bundled name or path to a JSON file) and
prints exact rationals; the SVG export is the only output with decimal
approximations.  Exit codes: 0 success, 1 usage or parse failure or an
output file that cannot be written, 2 mathematical validation failure, 3
internal consistency failure (an oracle disagreement — must never happen).
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from typing import Sequence

from .dualgraph import IdealTuple, singularity_class
from .errors import (
    InternalConsistencyError,
    ParseError,
    RationalFormatError,
    ValidationError,
)
from .evaluate import mmi_divisor
from .fixtures import build_tuple, bundled_names, load_fixture
from .multiplicity import jump_record
from .rationals import (
    _as_integer, format_point, format_rational, parse_point, parse_rational
)
from .rays import make_ray, poincare, ray_walk
from .svg import render_atlas_svg
from .unloading import antinef_closure_checked, colength
from .walls import (
    bijection_report,
    cell_decomposition,
    lc_region,
    newton_nest,
    require_valid_region,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract says 1."""

    def error(self, message: str):  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _labels(ideals: IdealTuple, indices: Sequence[int]) -> str:
    return ", ".join(ideals.graph.label(j) for j in indices) or "(empty)"


def _support(divisor: Sequence[bool]) -> list[int]:
    return [j for j, inside in enumerate(divisor) if inside]


def _int_vector(text: str, length: int) -> tuple[int, ...]:
    integers = tuple(map(_as_integer, parse_point(text, length)))
    if None in integers:
        raise RationalFormatError(f"expected integers, got {text!r}")
    return integers


def _divisor_text(divisor: Sequence[int]) -> str:
    return ",".join(str(c) for c in divisor)


def _load(args) -> tuple:
    fixture = load_fixture(args.fixture)
    ideals = build_tuple(fixture)
    return fixture, ideals


def _cmd_validate(args) -> int:
    fixture, ideals = _load(args)
    graph = ideals.graph
    print(f"fixture {fixture.name}: {graph.size} components, {ideals.r} ideals")
    print(f"singularity: {singularity_class(graph).value}")
    print(f"rupture: {_labels(ideals, _support(graph.rupture))}")
    print(f"dicritical: {_labels(ideals, _support(ideals.dicritical))}")
    for i in range(ideals.r):
        arrows = [
            f"{graph.label(j)}:{ideals.excesses[i][j]}"
            for j in range(graph.size)
            if ideals.excesses[i][j]
        ]
        print(f"excesses of ideal {i + 1}: {'; '.join(arrows)}")
    return 0


def _cmd_kpi(args) -> int:
    _, ideals = _load(args)
    print(f"K = {format_point(ideals.graph.canonical)}")
    return 0


def _cmd_fcycle(args) -> int:
    _, ideals = _load(args)
    graph = ideals.graph
    cycle = graph.fundamental
    print(f"Z = {_divisor_text(cycle)}")
    print(f"colength = {colength(graph, cycle)}")
    return 0


def _cmd_closure(args) -> int:
    _, ideals = _load(args)
    graph = ideals.graph
    divisor = _int_vector(args.divisor, graph.size)
    closed = antinef_closure_checked(graph, divisor)
    print(f"closure = {_divisor_text(closed)}")
    print(f"colength = {colength(graph, closed)}")
    return 0


def _cmd_point(args) -> int:
    _, ideals = _load(args)
    # jump_record has already checked every route against the others
    record = jump_record(ideals, parse_point(args.c, ideals.r))
    mult = record.mult
    print(f"c = {format_point(record.point)}")
    print(f"D = {_divisor_text(record.divisor)}")
    print(f"D_left = {_divisor_text(record.divisor_left)}")
    print(f"H = {_labels(ideals, _support(record.maximal))}")
    print(
        f"m = {mult} (adjunction) = {mult} (fractional) = "
        f"{mult} (colength oracle)"
    )
    if mult > 0:
        print(f"G = {_labels(ideals, _support(record.minimal))}")
        print(f"m via G = {mult}")
    else:
        print("not a jumping point")
    walls = ", ".join(
        f"V_{{{j + 1},{level}}}" for j, level in record.wall_lines
    )
    print(f"walls: {walls if walls else '(none)'}")
    return 0


def _cmd_ray(args) -> int:
    _, ideals = _load(args)
    base = parse_point(args.base, ideals.r)
    direction = _int_vector(args.dir, ideals.r)
    until = parse_rational(args.until)
    ray = make_ray(ideals, base, direction)
    jumps = ray_walk(ideals, ray, until)
    print(
        f"ray base {format_point(ray.base)} direction "
        f"{_divisor_text(ray.direction)}: {len(jumps)} jumping points in "
        f"(0, {format_rational(until)}]"
    )
    for jump in jumps:
        print(
            f"mu = {format_rational(jump.parameter)}; "
            f"c = {format_point(jump.point)}; m = {jump.mult}; "
            f"D = {_divisor_text(jump.record.divisor)}"
        )
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            size = ideals.size
            writer.writerow(
                ["parameter"]
                + [f"c{i + 1}" for i in range(ideals.r)]
                + ["mult"]
                + [f"D{j + 1}" for j in range(size)]
            )
            for jump in jumps:
                writer.writerow(
                    [format_rational(jump.parameter)]
                    + [format_rational(x) for x in jump.point]
                    + [str(jump.mult)]
                    + [str(c) for c in jump.record.divisor]
                )
        print(f"csv written to {args.csv}")
    return 0


def _cmd_poincare(args) -> int:
    _, ideals = _load(args)
    base = parse_point(args.base, ideals.r)
    direction = _int_vector(args.dir, ideals.r)
    horizon = parse_rational(args.horizon)
    ray = make_ray(ideals, base, direction)
    form = poincare(ideals, ray, horizon)
    print(f"series = {form.render()}")
    print(f"exponent denominator = {form.exponent_denominator}")
    for parameter, point, mult in form.monomials:
        print(
            f"monomial at mu = {format_rational(parameter)}: point "
            f"{format_point(point)}, m = {mult}"
        )
    for term in form.anchors:
        print(
            f"anchor at mu = {format_rational(term.parameter)}: point "
            f"{format_point(term.point)}, m0 = {term.initial}, "
            f"step = {term.step}"
        )
    return 0


def _cmd_walls(args) -> int:
    _, ideals = _load(args)
    box = parse_point(args.box, 2)
    atlas = cell_decomposition(ideals, box)
    wall_count = sum(1 for line in atlas.arrangement.lines if not line.is_box)
    print(f"box = {format_point(box)}")
    print(f"wall lines = {wall_count}")
    print(f"vertices = {len(atlas.arrangement.vertices)}")
    print(f"faces = {len(atlas.arrangement.faces)}")
    print(f"cells = {len(atlas.cells)}")
    print(f"facets = {len(atlas.facets)}")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["sources", "x0", "y0", "x1", "y1", "mult", "low", "high"]
            )
            for facet in atlas.facets:
                (x0, y0), (x1, y1) = facet.endpoints
                writer.writerow(
                    [
                        ";".join(f"{j + 1}:{level}" for j, level in facet.sources),
                        format_rational(x0),
                        format_rational(y0),
                        format_rational(x1),
                        format_rational(y1),
                        str(facet.mult),
                        "|".join(str(c) for c in facet.low_divisor),
                        "|".join(str(c) for c in facet.high_divisor),
                    ]
                )
        print(f"csv written to {args.csv}")
    if args.svg:
        ticks = lc_region(ideals).thresholds
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render_atlas_svg(atlas, ticks))
        print(f"svg written to {args.svg}")
    return 0


def _cmd_lct(args) -> int:
    _, ideals = _load(args)
    report = require_valid_region(lc_region(ideals))
    print(f"origin divisor = {_divisor_text(mmi_divisor(ideals, report.center))}")
    for axis, threshold in enumerate(report.thresholds):
        print(f"lct axis {axis + 1} = {format_rational(threshold)}")
    return 0


def _cmd_nest(args) -> int:
    _, ideals = _load(args)
    nest = newton_nest(ideals)
    print(f"nest = {_labels(ideals, nest)}")
    return 0


def _cmd_bijection(args) -> int:
    _, ideals = _load(args)
    report = bijection_report(ideals)
    print(f"verdict = {report.verdict}")
    print(f"nest = {_labels(ideals, report.nest)} ({len(report.nest)})")
    print(f"facets = {len(report.facets)}")
    for index, facet in enumerate(report.facets):
        print(
            f"facet {index + 1}: carriers {_labels(ideals, facet.carriers)}; "
            f"sample {format_point(facet.sample)}; m = {facet.sample_mult}"
        )
    for axis, (threshold, support) in enumerate(
        zip(report.lct, report.axis_supports)
    ):
        print(
            f"axis {axis + 1}: lct = {format_rational(threshold)}; "
            f"contact = {_labels(ideals, support)}"
        )
    if report.degenerate_pair is not None:
        lower, higher = report.degenerate_pair
        print(
            f"proportional pair: {_labels(ideals, [lower])} ~ "
            f"{_labels(ideals, [higher])} with ratio "
            f"{format_rational(report.degenerate_ratio)}"
        )
    if report.witness is not None:
        point, mult = report.witness
        print(
            f"multiplicity witness: m({format_point(point)}) = {mult}"
        )
    if report.pairing is not None:
        matches = "; ".join(
            f"{_labels(ideals, [j])} -> facet {index + 1}"
            for j, index in report.pairing
        )
        print(f"pairing: {matches}")
    return 0


def _selftest_one(name: str) -> list[str]:
    fixture = load_fixture(name)
    ideals = build_tuple(fixture)
    graph = ideals.graph
    failures: list[str] = []
    lines: list[str] = []
    expected = fixture.expected or {}
    report = None

    def check(key: str, actual, shown=None) -> None:
        want = expected[key]
        ok = actual == want
        lines.append(
            f"{fixture.name} {key}: {'ok' if ok else 'FAIL'} "
            f"({shown if shown is not None else actual})"
        )
        if not ok:
            failures.append(
                f"{fixture.name} {key}: expected {want!r}, got {actual!r}"
            )

    for key in sorted(expected):
        if key == "canonical":
            check(key, graph.canonical, format_point(graph.canonical))
        elif key == "diagonal":
            diagonal = tuple(graph.matrix[j][j] for j in range(graph.size))
            check(key, diagonal, _divisor_text(diagonal))
        elif key == "fundamental_cycle":
            check(key, graph.fundamental, _divisor_text(graph.fundamental))
        elif key == "singularity":
            check(key, singularity_class(graph).value)
        elif key == "lct":
            thresholds = lc_region(ideals).thresholds
            check(key, thresholds, format_point(thresholds))
        else:
            if report is None:
                report = bijection_report(ideals)
            if key == "nest":
                check(
                    key,
                    tuple(j + 1 for j in report.nest),
                    _labels(ideals, report.nest),
                )
            elif key == "lc_facets":
                check(key, len(report.facets))
            elif key == "verdict":
                check(key, report.verdict)
            elif key == "degenerate_ratio":
                check(
                    key,
                    report.degenerate_ratio,
                    format_rational(report.degenerate_ratio),
                )
    for line in lines:
        print(line)
    return failures


def _cmd_selftest(args) -> int:
    names = [args.fixture] if args.fixture else bundled_names()
    failures: list[str] = []
    for name in names:
        failures.extend(_selftest_one(name))
    if failures:
        for failure in failures:
            print(failure, file=sys.stderr)
        raise ValidationError(f"{len(failures)} selftest check(s) failed")
    print(f"selftest passed for {', '.join(names)}")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call can share it."""
    parser = _Parser(
        prog="mmideal",
        description=(
            "Exact mixed multiplier ideals, jumping walls, and Poincare "
            "series from resolution data on rational surface singularities"
        ),
    )
    commands = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    def add(name: str, handler, help_text: str):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("fixture", help="bundled fixture name or JSON path")
        sub.set_defaults(handler=handler)
        return sub

    add("validate", _cmd_validate, "check the fixture and describe the graph")
    add("kpi", _cmd_kpi, "print the relative canonical divisor K")
    add("fcycle", _cmd_fcycle, "print the fundamental cycle and its colength")
    sub = add("closure", _cmd_closure, "antinef closure of an integer divisor")
    sub.add_argument("--divisor", required=True, help="comma-separated integers")
    sub = add("point", _cmd_point, "evaluate one weight point")
    sub.add_argument("--c", required=True, help="comma-separated rationals")
    sub = add("ray", _cmd_ray, "walk the jumping points along a ray")
    sub.add_argument("--base", required=True, help="ray base point")
    sub.add_argument("--dir", required=True, help="integer direction")
    sub.add_argument("--until", required=True, help="last parameter checked")
    sub.add_argument("--csv", help="write the jumps as CSV")
    sub = add("poincare", _cmd_poincare, "closed-form series along a ray")
    sub.add_argument("--base", required=True, help="ray base point")
    sub.add_argument("--dir", required=True, help="integer direction")
    sub.add_argument("--horizon", required=True, help="walk horizon")
    sub = add("walls", _cmd_walls, "cell decomposition of a box")
    sub.add_argument("--box", required=True, help="box corner, e.g. 1,1")
    sub.add_argument("--svg", help="write an SVG rendering")
    sub.add_argument("--csv", help="write the facets as CSV")
    add("lct", _cmd_lct, "log-canonical thresholds per axis")
    add("nest", _cmd_nest, "Newton nest of the tuple")
    add("bijection", _cmd_bijection, "nest versus wall-facet comparison")
    sub = commands.add_parser(
        "selftest", help="re-derive every expected block of the fixtures"
    )
    sub.add_argument(
        "fixture", nargs="?", help="bundled fixture name or JSON path"
    )
    sub.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 1
    except ValidationError as error:
        print(f"validation error: {error}", file=sys.stderr)
        return 2
    except InternalConsistencyError as error:
        print(f"internal consistency error: {error}", file=sys.stderr)
        return 3
    except OSError as error:
        print(f"io error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
