"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload family-gate --seeds 1-10

runs ``run.py --trace 0`` once per seed, one after another, and prints each
metric's median and its interquartile distance as a share of the median,
next to the bound fixed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import relative_spread

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: run reported correct=false", file=sys.stderr)
        row = [f"failed={result['failed']}/{result['attempted']}"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
            row.append(f"{name}={values[name][-1]:.4g}")
        print(f"seed {seed}: " + "  ".join(row), flush=True)
    for name, bound in bounds.items():
        spread = relative_spread(values[name])
        print(f"{args.workload} {name}: median {statistics.median(values[name]):.6g}"
              f" spread {spread:.4f} bound {bound} ({spread / bound:.2f} of bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
