"""One workload in one process: set up, run the timed closed loop, report.

One client, one thread: each op starts only after the previous one has
returned and been judged.  The last stdout line is a JSON report for
``run.py``.  ``--start`` is the parent's ``time.monotonic()`` taken just
before it spawned this process; on Linux that clock is system-wide, so
``setup_s`` runs from process start to the first timed op.

Timings are reported at a reference machine speed.  When other tenants
share the machine, its speed drifts by tens of percent within seconds.  A
fixed stdlib-only kernel (Fraction arithmetic, the work cartanlab spends
its time in; cartanlab does not run it) is timed at least every
CAL_EVERY_S between ops.  Each op's time is multiplied by REF_KERNEL_S
over the median kernel time around it (see Tally.factors).  Unscaled times
are reported too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

CAL_EVERY_S = 0.05
LONG_OP_S = 0.2
CAL_SETUP_SAMPLES = 40
# Kernel time at the reference speed: a typical reading on the 2-CPU
# x86-64 Linux machine the benchmark was built on, Python 3.11.  It only
# fixes the scale of the reported times.
REF_KERNEL_S = 0.0018


def calibration_kernel():
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def digest(verdict) -> str:
    return hashlib.sha256(repr(verdict).encode("utf-8")).hexdigest()[:16]


class Tally:
    """Per-op outcomes and timings of the timed loop."""

    def __init__(self):
        self.latencies = []  # op call time, unscaled
        self.costs = []  # op call plus judging time, unscaled
        self.kernel_ix = []  # index of the kernel sample taken before the op
        self.kernels = []  # kernel times
        self.digests = []
        self.correct = 0
        self.failed = 0
        self.unexpected = {}  # kind -> (count, first description)
        self.kinds = {}  # kind -> [ops, failed, seconds, latencies]

    def record(self, op, latency, cost, verdict, ok, error):
        self.latencies.append(latency)
        self.costs.append(cost)
        self.kernel_ix.append(len(self.kernels) - 1)
        self.digests.append(digest(verdict))
        stats = self.kinds.setdefault(op.kind, [0, 0, 0.0, []])
        stats[0] += 1
        stats[2] += latency
        stats[3].append(latency)
        if ok:
            self.correct += 1
            return
        self.failed += 1
        stats[1] += 1
        count, first = self.unexpected.get(op.kind, (0, None))
        if first is None:
            first = error or f"wrong verdict {verdict!r}"[:500]
        self.unexpected[op.kind] = (count + 1, first)

    def factors(self):
        """Per-op factor taking its times to the reference speed.

        A short op gets the median of the kernel samples just before, before
        that, and just after it.  An op longer than LONG_OP_S spans many
        changes of speed that no sample saw, so it gets the median of every
        sample in the run.
        """
        whole_run = statistics.median(self.kernels)
        out = []
        for latency, i in zip(self.latencies, self.kernel_ix):
            k = whole_run if latency > LONG_OP_S else statistics.median(self.kernels[max(i - 1, 0) : i + 2])
            out.append(REF_KERNEL_S / k)
        return out


def call_and_judge(op, traced_call=None):
    """(verdict, ok, error, call time): an op that raises fails; it never
    stops the caller."""
    t0 = time.perf_counter()
    try:
        result = op.run() if traced_call is None else traced_call(op.run)
    except Exception as exc:
        t1 = time.perf_counter()
        verdict = ("raised", type(exc).__name__, str(exc))
        return verdict, False, "".join(traceback.format_exception_only(exc)).strip(), t1 - t0
    t1 = time.perf_counter()
    verdict, ok = op.judge(result)
    return verdict, ok, None, t1 - t0


def run_op(op, tally, traced_call=None):
    t0 = time.perf_counter()
    verdict, ok, error, latency = call_and_judge(op, traced_call)
    tally.record(op, latency, time.perf_counter() - t0, verdict, ok, error)


def run_probes(workload):
    """Known defect -> [probes, probes still failing], outside any timing."""
    out = {}
    for defect, op in workload.probes():
        counts = out.setdefault(defect, [0, 0])
        counts[0] += 1
        counts[1] += not call_and_judge(op)[1]
    return out


def timed_loop(workload, first_pass, seconds, tracer):
    """Run passes until ``seconds`` of op and judging time have elapsed.

    Generating a later pass's inputs is set-up work, as it is for the first
    pass; it and the kernel are left out of the returned wall time and
    extend the deadline.
    """
    tally = Tally()
    traced_call = None if tracer is None else tracer.call_op
    t_begin = time.perf_counter()
    deadline = t_begin + seconds
    excluded = 0.0
    last_kernel = -CAL_EVERY_S

    def calibrate():
        nonlocal deadline, excluded, last_kernel
        now = time.perf_counter()
        tally.kernels.append(time_kernel())
        last_kernel = time.perf_counter()
        excluded += last_kernel - now
        deadline += last_kernel - now

    ops, k = first_pass, 0
    while True:
        for op in ops:
            now = time.perf_counter()
            if now >= deadline:
                wall = now - t_begin - excluded
                calibrate()  # the sample after the last op
                return tally, wall
            if now - last_kernel >= CAL_EVERY_S:
                calibrate()
            if tracer is not None:
                tracer.op_id = len(tally.latencies)
            run_op(op, tally, traced_call)
        k += 1
        if tracer is not None:
            tracer.new_pass()
        t0 = time.perf_counter()
        ops = workload.pass_ops(k)
        spent = time.perf_counter() - t0
        excluded += spent
        deadline += spent


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--start", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, help="directory for scratch files and the span dump")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    tracer = None
    if args.traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    # a fixed path, so that CLI reports (which echo argv) match across runs
    workdir = os.path.join(args.out, f"work-{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload]()
        workload.setup(args.seed, workdir)
        first_pass = workload.pass_ops(0)
        setup_s = time.monotonic() - args.start
        setup_kernel = statistics.median(time_kernel() for _ in range(CAL_SETUP_SAMPLES))
        setup = {"setup_s": setup_s, "setup_scaled_s": setup_s * REF_KERNEL_S / setup_kernel}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if tracer is not None:
            tracer.reset()
        tally, wall = timed_loop(workload, first_pass, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    factors = tally.factors()
    scaled_costs = sum(c * f for c, f in zip(tally.costs, factors))
    report = {
        **setup,
        "wall_s": wall,
        "scaled_wall_s": wall - sum(tally.costs) + scaled_costs,
        "kernel_median_s": statistics.median(tally.kernels),
        "attempted": len(tally.latencies),
        "correct": tally.correct,
        "failed": tally.failed,
        "unexpected": tally.unexpected,
        "kinds": tally.kinds,
        "latencies": tally.latencies,
        "scaled_latencies": [t * f for t, f in zip(tally.latencies, factors)],
        "digests": tally.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(wall)
        tracer.write(os.path.join(args.out, f"spans-{args.workload}-{args.seed}.tsv.gz"))
    report["defects"] = run_probes(workload)  # after the spans are taken, so no probe is in them
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
