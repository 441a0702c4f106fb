"""Benchmark of mmideal: one workload, end to end or per layer.

    python3 bench/run.py --workload atlas --seed 1 --seconds 12 --trace 0

Each pass runs the seed's whole job list in a fresh Python process, so the
library's module-level caches start empty as in a user's CLI process.  Passes
repeat until --seconds have passed (at least four untraced passes, or in
traced mode at least two traced and one untraced).  Pass time, set-up time
and memory are medians over them.  Job times are scaled to a reference speed
(see REFERENCE_KERNEL_S).  Every job's output is checked; the last line
printed is one JSON object with the result.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics of the traced passes, checks that their counts repeat exactly, and
reports the tracing overhead.  --record rewrites the recorded outputs from
the current source (use it only at a commit whose outputs are known good).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
RUN_LIMIT_S = 150  # no pass starts, or runs on, past this


# Speed calibration.  On a shared host the same pass takes from 0.8x to 1.3x
# its usual time, in slow spells that last seconds; that is wider than any
# useful regression bound.  So a fixed stdlib kernel that does not touch
# mmideal is timed (best of two runs) around each job, and each job's time,
# and the set-up time, are reported at reference speed: raw time *
# REFERENCE_KERNEL_S / kernel time.  Raw pass times are printed beside them.
REFERENCE_KERNEL_S = 0.0015
_KERNEL_ROWS = [
    tuple(Fraction(random.Random(i).randint(1, 99), j + 1) for j in range(12))
    for i in range(80)
]


def _kernel_seconds() -> float:
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        totals: dict = {}
        for row in _KERNEL_ROWS:
            key = tuple(x.numerator // x.denominator for x in row)
            totals[key] = totals.get(key, 0) + sum(row[::3], Fraction(0))
        best = min(best, time.perf_counter() - start)
    return best


class _Clock:
    """Times calls at reference speed.  The kernel is timed before and after
    each call (the after-timing serves as the next call's before-timing), and
    the call is scaled by their geometric mean, which follows a speed change
    during a long call better than either end alone."""

    def __init__(self) -> None:
        self.kernel_s = _kernel_seconds()

    def time(self, function, *args):
        """(result, raw seconds, seconds at reference speed) of one call."""
        before = self.kernel_s
        start = time.perf_counter()
        result = function(*args)
        raw_s = time.perf_counter() - start
        self.kernel_s = _kernel_seconds()
        return result, raw_s, raw_s * REFERENCE_KERNEL_S / math.sqrt(before * self.kernel_s)


def _band_mean(values: list[float], low: float, high: float) -> float:
    """Mean of the values between the low and high quantiles.

    A job mix has gaps in its time distribution, and a plain order statistic
    next to a gap jumps when a seed moves a few jobs across it; the mean of a
    band around the quantile moves smoothly."""
    ordered = sorted(values)
    band = ordered[int(low * len(ordered)) : max(int(high * len(ordered)), 1)]
    return sum(band) / len(band)


def _import_library():
    sys.path.insert(0, str(SOURCE))
    import mmideal
    import mmideal.cli
    import mmideal.svg

    if Path(mmideal.__file__).resolve().parent != SOURCE / "mmideal":
        raise SystemExit(f"imported mmideal from {mmideal.__file__}, not {SOURCE}")
    return mmideal


def _write_generated(jobs) -> None:
    """Write the generated graphs the jobs use as fixture files."""
    import workloads as W

    for fixture in {job.fixture for job in jobs}:
        if fixture.name not in W.BUNDLED:
            W.write_fixture(fixture)


def _build_tuples(mm, jobs) -> dict:
    """Load, parse and build every fixture the jobs use, and attach each
    job's ideals; keyed by (fixture path, ideals)."""
    bases, tuples = {}, {}
    for job in jobs:
        path = job.fixture.path
        if path not in bases:
            bases[path] = mm.build_tuple(mm.load_fixture(path))
        if (path, job.ideals) not in tuples:
            base = bases[path]
            tuples[path, job.ideals] = (
                base if job.ideals is None else mm.attach_ideals(base.graph, job.ideals)
            )
    return tuples


def _run_job(mm, job, ideals) -> tuple[str, bool]:
    from workloads import CliFailure

    try:
        return job.call(mm, ideals), True
    except CliFailure as failure:
        return str(failure), False
    except Exception as error:  # a raising job is a failed job, not a crash
        return f"error {type(error).__name__}: {error}", False


def _check(job, text: str, golden: dict) -> str | None:
    """None if the text matches the recorded output and the known values."""
    recorded = golden.get(job.key)
    if recorded is None:
        return f"{job.key}: no recorded output"
    if hashlib.sha256(text.encode()).hexdigest() != recorded:
        return f"{job.key}: output differs from the recorded output:\n{text[:400]}"
    lines = text.splitlines()
    missing = [line for line in job.expect if line not in lines]
    if missing:
        return f"{job.key}: known value missing: {missing}"
    return None


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    """One pass in this process: setup, the job list, checks."""
    import workloads as W
    from spans import Tracer

    jobs = W.pass_jobs(workload, seed)
    _write_generated(jobs)
    golden = json.loads((W.GOLDEN_DIR / f"{workload}.json").read_text(encoding="utf-8"))

    # set-up: the import once, then the fixture builds three times (median)
    clock = _Clock()
    mm, _, import_s = clock.time(_import_library)
    tracer = Tracer()
    if traced:
        tracer.install()
    builds = [clock.time(_build_tuples, mm, jobs) for _ in range(3)]
    tuples = builds[-1][0]
    setup_s = import_s + statistics.median(scaled for _, _, scaled in builds)

    results = []
    for job in jobs:
        (text, ran), raw_s, scaled_s = clock.time(
            _run_job, mm, job, tuples[job.fixture.path, job.ideals]
        )
        results.append((job, text, ran, raw_s, scaled_s))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, failed, known = [], 0, []
    for job, text, ran, *_ in results:
        problem = _check(job, text, golden)
        if problem:
            problems.append(problem)
        if problem or not ran:
            failed += 1
        if not ran and job.key in W.KNOWN_FAILURES:
            known.append(job.key)
    out = {
        "setup_s": setup_s,
        "wall_s": sum(scaled for *_, scaled in results),
        "raw_wall_s": sum(raw for *_, raw, _ in results),
        "job_s": [scaled for *_, scaled in results],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(results),
        "failed": failed,
        "known_failures": known,
        "problems": problems,
    }
    if traced:
        tracer.write(W.OUT_DIR / f"spans-{workload}.jsonl")
        # span times are raw; bring them to reference speed like the jobs
        speed = out["wall_s"] / out["raw_wall_s"]
        out["layers"] = {
            name: value * speed if name.endswith("_ms") else value
            for name, value in tracer.metrics().items()
        }
    return out


def _spawn(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"pass exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _passes(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list, list]:
    """Untraced and traced passes, alternating in traced mode."""
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    plain, traced = [], []
    while True:
        enough = len(traced) >= 2 and len(plain) >= 1 if trace else len(plain) >= 4
        if enough and time.monotonic() - began >= seconds:
            return plain, traced
        tracing = trace and len(traced) <= len(plain)
        result = _spawn(workload, seed, tracing, deadline)
        (traced if tracing else plain).append(result)


def _end_to_end(passes: list[dict]) -> dict:
    jobs_ms = [s * 1000 for p in passes for s in p["job_s"]]
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "job_ms.p50": (_band_mean(jobs_ms, 0.4, 0.6), "ms"),
        "job_ms.p90": (_band_mean(jobs_ms, 0.85, 0.95), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def _per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    from spans import LAYER_METRICS, deterministic

    problems = []
    first = traced[0]["layers"]
    for other in traced[1:]:
        for name, value in first.items():
            if deterministic(name) and other["layers"][name] != value:
                problems.append(
                    f"{name} differs between traced passes: {value} vs {other['layers'][name]}"
                )
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values = {
        name: value if deterministic(name) else statistics.median(p["layers"][name] for p in traced)
        for name, value in first.items()
    }
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in plain)
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return {name: (values[name], units[name]) for name, _, _ in LAYER_METRICS}, problems


def record(workload: str) -> int:
    """Run every job any seed can pick and store the digests of its output."""
    import workloads as W

    jobs = W.all_jobs(workload)
    _write_generated(jobs)
    mm = _import_library()
    tuples = _build_tuples(mm, jobs)
    digests, unnamed = {}, []
    for job in jobs:
        text, ran = _run_job(mm, job, tuples[job.fixture.path, job.ideals])
        missing = [line for line in job.expect if line not in text.splitlines()]
        if missing or (not ran and job.key not in W.KNOWN_FAILURES):
            unnamed.append(f"{job.key}: {'missing ' + str(missing) if missing else text}")
        digests[job.key] = hashlib.sha256(text.encode()).hexdigest()
    if unnamed:
        print("not recorded; unknown failures:\n" + "\n".join(unnamed), file=sys.stderr)
        return 1
    W.GOLDEN_DIR.mkdir(exist_ok=True)
    path = W.GOLDEN_DIR / f"{workload}.json"
    path.write_text(json.dumps(dict(sorted(digests.items())), indent=0) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} outputs to {path.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("atlas", "rays", "lc", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true", help="rewrite the recorded outputs")
    args = parser.parse_args(argv)

    if not (SOURCE / "mmideal" / "__init__.py").is_file():
        print(f"no mmideal source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    if args.record:
        return record(args.workload)
    if args.child:
        print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))
        return 0

    plain, traced = _passes(args.workload, args.seed, args.seconds, bool(args.trace))
    passes = plain + traced
    problems = [p for result in passes for p in result["problems"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics, count_problems = _per_layer(plain, traced)
        problems += count_problems
    else:
        metrics = _end_to_end(plain)

    print(
        f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
        f"{len(traced)} traced passes of {passes[0]['attempted']} jobs"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    raw = statistics.median(p["raw_wall_s"] for p in plain)
    print(f"  {'unscaled wall_s, untraced':40s} {raw:14.6g} s")
    if not args.trace:
        print(f"  {'job_ms samples':40s} {len(plain) * plain[0]['attempted']:14d} jobs")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} 1 ({failed} failed / {attempted} attempted)")
    known = sorted({key for p in passes for key in p["known_failures"]})
    for key in known:
        print(f"  known failure: {key}")
    for problem in problems[:20]:
        print(f"  PROBLEM {problem}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
