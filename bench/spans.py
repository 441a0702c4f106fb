"""Per-layer spans, recorded by wrapping library functions from outside.

A layer is a module of ``src/mmideal``.  Each function in ``TRACED`` is
replaced by a wrapper at every module attribute bound to it (``gap_values``,
for instance, is imported by ``multiplicity``, ``walls`` and ``rays``), so a
call records one span whichever module makes it.  A span is
(name, start_ns, end_ns, parent index); spans stay in memory during the pass
and are written out when it ends.  Nothing inside the library is read or
changed besides those bindings.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from math import comb
from pathlib import Path

# (module, function, span name)
TRACED = (
    ("evaluate", "weighted_F", "evaluate.weighted_F"),
    ("evaluate", "gap_values", "evaluate.gap_values"),
    ("evaluate", "mmi_divisor", "evaluate.mmi_divisor"),
    ("evaluate", "mmi_divisor_left", "evaluate.mmi_divisor_left"),
    ("evaluate", "maximal_jumping_divisor", "evaluate.maximal_jumping_divisor"),
    ("evaluate", "region", "evaluate.region"),
    ("multiplicity", "jump_record", "multiplicity.jump_record"),
    ("multiplicity", "multiplicity_checked", "multiplicity.checked"),
    ("multiplicity", "multiplicity", "multiplicity.adjunction"),
    ("multiplicity", "multiplicity_fractional", "multiplicity.fractional"),
    ("multiplicity", "multiplicity_oracle", "multiplicity.oracle"),
    ("multiplicity", "multiplicity_via_G", "multiplicity.via_G"),
    ("multiplicity", "admissible_perturbation", "multiplicity.perturbation"),
    ("multiplicity", "perturbation_sum", "multiplicity.perturbation_sum"),
    ("unloading", "antinef_closure_checked", "unloading.closure_checked"),
    ("unloading", "antinef_closure", "unloading.closure"),
    ("unloading", "antinef_closure_unit", "unloading.closure_unit"),
    ("unloading", "colength", "unloading.colength"),
    ("rays", "ray_walk", "rays.walk"),
    ("rays", "poincare", "rays.poincare"),
    ("arrangement", "build_arrangement", "arrangement.build"),
    ("walls", "cell_decomposition", "walls.cell_decomposition"),
    ("walls", "lc_region", "walls.lc_region"),
    ("walls", "bijection_report", "walls.bijection"),
    ("polytope", "intersect_halfspaces", "polytope.intersect"),
    ("polytope", "solve_square", "polytope.solve_square"),
    ("dualgraph", "build_graph", "dualgraph.build"),
    ("fixtures", "load_fixture", "fixtures.load"),
    ("svg", "render_atlas_svg", "svg.render"),
    ("cli", "main", "cli.main"),
)

# Sizes read from a call's arguments or result: span name -> counts.
SIZES = {
    "polytope.intersect": lambda args, result: {
        "polytope.subsets": comb(len(args[0]), len(args[0][0].normal))
    },
    "arrangement.build": lambda args, result: {
        "arrangement.lines": len(result.lines),
        "arrangement.vertices": len(result.vertices),
        "arrangement.faces": len(result.faces),
    },
    "rays.walk": lambda args, result: {"rays.jumps": len(result)},
    "svg.render": lambda args, result: {"svg.bytes": len(result.encode())},
}

# Every per-layer metric: (name, unit, better).
LAYER_METRICS = (
    ("evaluate.weighted_F.calls", "count", "lower"),
    ("evaluate.gap_values.calls", "count", "lower"),
    ("evaluate.mmi_divisor.calls", "count", "lower"),
    ("evaluate.mmi_divisor_left.calls", "count", "lower"),
    ("evaluate.maximal_jumping_divisor.calls", "count", "lower"),
    ("evaluate.region.calls", "count", "lower"),
    ("evaluate.self_ms", "ms", "lower"),
    ("evaluate.weighted_F_per_record", "1", "lower"),
    ("multiplicity.jump_record.calls", "count", "lower"),
    ("multiplicity.checked.calls", "count", "lower"),
    ("multiplicity.adjunction.self_ms", "ms", "lower"),
    ("multiplicity.fractional.self_ms", "ms", "lower"),
    ("multiplicity.oracle.self_ms", "ms", "lower"),
    ("multiplicity.via_G.self_ms", "ms", "lower"),
    ("multiplicity.perturbation.calls", "count", "lower"),
    ("multiplicity.halvings", "1", "lower"),
    ("multiplicity.self_ms", "ms", "lower"),
    ("unloading.closure_checked.calls", "count", "lower"),
    ("unloading.closure.calls", "count", "lower"),
    ("unloading.closure_hit_ratio", "1", "higher"),
    ("unloading.closure.self_ms", "ms", "lower"),
    ("unloading.closure_unit.self_ms", "ms", "lower"),
    ("unloading.colength.calls", "count", "lower"),
    ("unloading.colength.self_ms", "ms", "lower"),
    ("rays.candidates", "count", "lower"),
    ("rays.jumps", "count", "higher"),
    ("rays.jump_ratio", "1", "higher"),
    ("rays.walk.self_ms", "ms", "lower"),
    ("rays.poincare.self_ms", "ms", "lower"),
    ("arrangement.build.self_ms", "ms", "lower"),
    ("arrangement.lines", "count", "lower"),
    ("arrangement.vertices", "count", "lower"),
    ("arrangement.faces", "count", "lower"),
    ("walls.cell_decomposition.self_ms", "ms", "lower"),
    ("walls.face_evals", "count", "lower"),
    ("walls.facet_samples", "count", "lower"),
    ("walls.lc_region.calls", "count", "lower"),
    ("walls.lc_region_per_report", "1", "lower"),
    ("walls.bijection.self_ms", "ms", "lower"),
    ("polytope.intersect.calls", "count", "lower"),
    ("polytope.subsets", "count", "lower"),
    ("polytope.solve_square.calls", "count", "lower"),
    ("polytope.self_ms", "ms", "lower"),
    ("dualgraph.build.calls", "count", "lower"),
    ("dualgraph.build.self_ms", "ms", "lower"),
    ("fixtures.load.calls", "count", "lower"),
    ("fixtures.load.self_ms", "ms", "lower"),
    ("svg.render.self_ms", "ms", "lower"),
    ("svg.bytes", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.self_ms", "ms", "lower"),
    # traced wall_s, and traced minus untraced wall_s, from the run's passes
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.sizes: Counter = Counter()
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every TRACED function at each mmideal attribute bound to it."""
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "mmideal" or name.startswith("mmideal.")
        ]
        for module_name, function_name, span in TRACED:
            original = getattr(sys.modules[f"mmideal.{module_name}"], function_name)
            wrapper = self._wrap(span, original)
            for module in modules:
                bound = [a for a, value in vars(module).items() if value is original]
                for attribute in bound:
                    setattr(module, attribute, wrapper)

    def _wrap(self, name: str, function):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        measure = SIZES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if measure is not None:
                sizes.update(measure(args, result))
            return result

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of the recorded pass."""
        spans = self.spans
        child_ns = [0] * len(spans)
        ran_unit = set()  # spans that called the unit-step unloading oracle
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
                if name == "unloading.closure_unit":
                    ran_unit.add(parent)
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        under: Counter = Counter()  # (span name, parent span name) pairs
        lc_in_report = 0
        for index, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
            if parent >= 0:
                under[name, spans[parent][0]] += 1
            if name == "walls.lc_region":
                ancestor = parent
                while ancestor >= 0 and spans[ancestor][0] != "walls.bijection":
                    ancestor = spans[ancestor][3]
                lc_in_report += ancestor >= 0

        def ms(*names: str) -> float:
            return sum(self_ns[n] for n in names) / 1e6

        def layer_ms(layer: str) -> float:
            return ms(*(n for n in self_ns if n.startswith(layer + ".")))

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        misses = sum(spans[i][0] == "unloading.closure_checked" for i in ran_unit)
        candidates = under["multiplicity.jump_record", "rays.walk"]
        checked = calls["unloading.closure_checked"]
        out = {
            f"{name}.calls": calls[name]
            for name in (
                "evaluate.weighted_F", "evaluate.gap_values", "evaluate.mmi_divisor",
                "evaluate.mmi_divisor_left", "evaluate.maximal_jumping_divisor",
                "evaluate.region", "multiplicity.jump_record", "multiplicity.checked",
                "multiplicity.perturbation", "unloading.closure_checked",
                "unloading.closure", "unloading.colength", "walls.lc_region",
                "polytope.intersect", "polytope.solve_square", "dualgraph.build",
                "fixtures.load", "cli.main",
            )
        }
        out.update(
            {
                f"{name}.self_ms": ms(name)
                for name in (
                    "multiplicity.adjunction", "multiplicity.fractional",
                    "multiplicity.oracle", "multiplicity.via_G", "unloading.closure",
                    "unloading.closure_unit", "unloading.colength", "rays.walk",
                    "rays.poincare", "arrangement.build", "walls.cell_decomposition",
                    "dualgraph.build", "fixtures.load", "svg.render",
                )
            }
        )
        out.update(
            {
                "evaluate.self_ms": layer_ms("evaluate"),
                "evaluate.weighted_F_per_record": ratio(
                    calls["evaluate.weighted_F"], calls["multiplicity.jump_record"]
                ),
                "multiplicity.halvings": ratio(
                    calls["multiplicity.perturbation_sum"],
                    calls["multiplicity.perturbation"],
                ),
                "multiplicity.self_ms": layer_ms("multiplicity"),
                "unloading.closure_hit_ratio": 1 - ratio(misses, checked) if checked else 0.0,
                "rays.candidates": candidates,
                "rays.jumps": self.sizes["rays.jumps"],
                "rays.jump_ratio": ratio(self.sizes["rays.jumps"], candidates),
                "arrangement.lines": self.sizes["arrangement.lines"],
                "arrangement.vertices": self.sizes["arrangement.vertices"],
                "arrangement.faces": self.sizes["arrangement.faces"],
                "walls.face_evals": under["evaluate.mmi_divisor", "walls.cell_decomposition"],
                "walls.facet_samples": under[
                    "multiplicity.jump_record", "walls.cell_decomposition"
                ],
                "walls.lc_region_per_report": ratio(lc_in_report, calls["walls.bijection"]),
                "walls.bijection.self_ms": ms("walls.bijection"),
                "polytope.subsets": self.sizes["polytope.subsets"],
                "polytope.self_ms": layer_ms("polytope"),
                "svg.bytes": self.sizes["svg.bytes"],
                "cli.self_ms": ms("cli.main"),
            }
        )
        return out


def deterministic(name: str) -> bool:
    """Counts and ratios of counts, which must repeat exactly for one seed."""
    return not name.endswith(("_ms", "_s"))
