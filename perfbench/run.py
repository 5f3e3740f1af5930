"""cartanlab benchmark: correct verdicts per second, end to end and per layer.

Run from the root of a cartanlab checkout:

    python3 perfbench/run.py --workload class-scan --seed 1 --seconds 10 --trace 0

Each workload runs in its own worker process (``worker.py``), one after
another.  ``--trace 0`` reports the end-to-end metrics of an untraced run;
set-up is repeated in extra set-up-only processes and its median reported.
``--trace 1`` runs the workload untraced and then traced on the same seed,
checks that every verdict and CLI report byte matches between the two,
and reports the per-layer metrics of the traced run.  Every metric is
printed as ``name value unit``; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import highest_percentile, percentile  # noqa: E402

WORKLOAD_NAMES = ("class-scan", "class-gaussian", "family-gate", "poly-contact")

SETUP_REPEATS = 7  # set-up samples per --trace 0 run, the main worker's included
OUT_DIR = os.path.join("perfbench", "out")


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, seconds, *flags, timeout):
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--out", OUT_DIR,
        *flags,
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd + ["--start", repr(start)], env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(flags) or 'run'} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ops_per_s(report) -> float:
    return report["correct"] / report["scaled_wall_s"]


def end_to_end(report, setups):
    lat = report["scaled_latencies"]
    return {
        "ops_per_s": (ops_per_s(report), "1/s"),
        "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(s["setup_scaled_s"] for s in setups), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "pass_ratio": (report["correct"] / len(lat), "ratio"),
    }


def check_report(report, label):
    """Problems that make the run incorrect: any failed timed op."""
    problems = []
    for kind, (count, first) in sorted(report["unexpected"].items()):
        problems.append(f"{label}: {count} unexpected failure(s) of {kind}: {first}")
    return problems


def _ms(latencies, q):
    if highest_percentile(len(latencies)) < q:
        return "n/a"
    return f"{percentile(latencies, q) * 1e3:.4f} ms"


def describe(report, label):
    lat = report["latencies"]
    lines = [
        f"# {label}: {report['attempted']} ops, {report['correct']} correct, {report['failed']} failed"
        f" in {report['wall_s']:.3f} s; latency samples {len(lat)},"
        f" highest percentile with >= 10 beyond: p{highest_percentile(len(lat))}",
        f"# {label}: median calibration kernel {report['kernel_median_s'] * 1e3:.4f} ms; unscaled"
        f" ops_per_s {report['correct'] / report['wall_s']:.4f} 1/s, p50 {_ms(lat, 50)}, p90 {_ms(lat, 90)},"
        f" setup_s {report['setup_s']:.4f} s",
    ]
    for defect, (probes, still) in sorted(report["defects"].items()):
        state = "open" if still else "fixed"
        lines.append(f"# {label}: known defect {state}, {still} of {probes} probe(s) fail: {defect}")
    for kind, (ops, failed, seconds, latencies) in sorted(report["kinds"].items()):
        lines.append(f"#   {kind}: {ops} ops, {failed} failed, {seconds:.3f} s,"
                     f" median {statistics.median(latencies) * 1e3:.3f} ms")
    return lines


def measure(args):
    os.makedirs(OUT_DIR, exist_ok=True)
    budget = args.seconds + 60
    problems = []
    if args.trace == 0:
        setups = [run_worker(args, 0, "--setup-only", timeout=20) for _ in range(SETUP_REPEATS - 1)]
        report = run_worker(args, args.seconds, timeout=budget)
        setups.append(report)
        metrics = end_to_end(report, setups)
        info = describe(report, "untraced")
        info.append("# setup_s samples, unscaled and scaled: "
                    + ", ".join(f"{s['setup_s']:.4f} {s['setup_scaled_s']:.4f}" for s in setups))
    else:
        # the two runs share the measured time, so a run lasts about --seconds
        plain = run_worker(args, args.seconds / 2, timeout=budget)
        report = run_worker(args, args.seconds / 2, "--traced", timeout=budget)
        metrics = dict(report["layers"])
        plain_rate, traced_rate = ops_per_s(plain), ops_per_s(report)
        metrics["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
        metrics["known_defects.open"] = (sum(1 for _, still in report["defects"].values() if still), "count")
        common = min(len(plain["digests"]), len(report["digests"]))
        mismatched = [i for i in range(common) if plain["digests"][i] != report["digests"][i]]
        if mismatched:
            problems.append(f"verdicts differ with tracing on and off at {len(mismatched)} op(s), first op {mismatched[0]}")
        wall, layers, harness = (metrics[k][0] for k in ("trace.wall_s", "trace.layers_self_s", "trace.harness_s"))
        if abs(layers + harness - wall) > 1e-6 * wall:
            problems.append(f"self times {layers:.6f} s + harness {harness:.6f} s != traced wall {wall:.6f} s")
        problems += check_report(plain, "untraced")
        info = describe(plain, "untraced") + describe(report, "traced")
        info.append(f"# verdicts compared with tracing on and off: {common} ops")
        info.append(f"# untraced ops_per_s {plain_rate:.4f} 1/s, traced {traced_rate:.4f} 1/s")
    problems += check_report(report, "traced" if args.trace else "untraced")
    return report, metrics, info, problems


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cartanlab", "__init__.py")):
        print("perfbench: run from the root of a cartanlab checkout (no src/cartanlab here)", file=sys.stderr)
        return 2
    try:
        report, metrics, info, problems = measure(args)
    except (BenchError, subprocess.TimeoutExpired, ValueError, ZeroDivisionError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"# python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}  commit {commit()}")
    for line in info:
        print(line)
    for problem in problems:
        print(f"# PROBLEM {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
