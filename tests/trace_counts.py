"""Traced bench runs at seeds 1 and 2, held to `tests/trace_counts.json`.

    python tests/trace_counts.py            # run and compare
    python tests/trace_counts.py --write    # run and rewrite the file (3.11)

Runs `bench/run.py --workload W --seed S --seconds 1 --trace 1` once for
each of the four workloads at seeds 1 and 2: 8 runs.  Each run checks every
pass it makes, traced and untraced, against `bench/golden`, checks that
every name the tracer wraps exists and that the traced passes' counts
repeat, and exits nonzero on any problem; a nonzero exit fails this script.
On Python 3.11, where the file was recorded, every count and ratio of
counts (each metric `bench/spans.deterministic` accepts) must also equal
the file.  A change that moves a count rewrites the file with ``--write``,
which refuses to run on another version and writes nothing when a run
fails, and declares the move in CHANGES.md.

Stdlib only; importing the module runs nothing, and pytest does not
collect it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDED = ROOT / "tests" / "trace_counts.json"
SEEDS = ("1", "2")
WORKLOADS = ("atlas", "rays", "lc", "cli")
RECORDED_ON = (3, 11)


def traced_runs():
    """Run the 8 traced benches; return ({workload: {seed: counts}}, the
    failures), printing each run's report as it comes."""
    sys.path.insert(0, str(ROOT / "bench"))
    from spans import deterministic

    counts, failures = {}, []
    for seed in SEEDS:
        for workload in WORKLOADS:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", seed,
                 "--seconds", "1", "--trace", "1"],
                capture_output=True, text=True, cwd=ROOT,
            )
            print(done.stdout, end="", flush=True)
            if done.returncode:
                failures.append(
                    f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}"
                )
                continue
            metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
            counts.setdefault(workload, {})[seed] = {
                name: m["value"] for name, m in metrics.items() if deterministic(name)
            }
    return counts, failures


def differences(recorded, counts):
    """One line per count that differs between the file and a run that
    exited 0."""
    lines = []
    for workload, seeds in counts.items():
        for seed, ran in seeds.items():
            was = recorded.get(workload, {}).get(seed, {})
            for name in sorted(set(was) | set(ran)):
                if was.get(name) != ran.get(name):
                    lines.append(
                        f"{workload} seed {seed} {name}: recorded {was.get(name)}, "
                        f"ran {ran.get(name)}"
                    )
    return lines


def main(argv):
    write = argv == ["--write"]
    if argv and not write:
        print("usage: python tests/trace_counts.py [--write]", file=sys.stderr)
        return 2
    compare = sys.version_info[:2] == RECORDED_ON
    if write and not compare:
        print(f"--write records counts on Python {RECORDED_ON[0]}.{RECORDED_ON[1]} only",
              file=sys.stderr)
        return 2
    counts, differ = traced_runs()
    if write and not differ:
        RECORDED.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
        print(f"wrote {RECORDED.relative_to(ROOT)}")
        return 0
    if compare and not write:
        differ += differences(json.loads(RECORDED.read_text()), counts)
    passed = "every run passed" + (
        ", every traced count equals tests/trace_counts.json" if compare else ""
    )
    print("\n".join(differ) or passed)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
