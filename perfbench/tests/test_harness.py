"""Tests of the benchmark harness itself (not of cartanlab).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from cartanlab import catalog  # noqa: E402
from cartanlab.scalars import Scalar  # noqa: E402

# -- the percentile rule -------------------------------------------------------


def test_highest_percentile_keeps_ten_samples_beyond():
    assert stats.highest_percentile(100) == 90
    assert stats.highest_percentile(50) == 80
    assert stats.highest_percentile(1000) == 99
    assert stats.highest_percentile(10) == 0
    for n in (11, 57, 100, 333, 2000):
        q = stats.highest_percentile(n)
        assert stats.samples_beyond(n, q) >= stats.MIN_BEYOND
        assert q == 99 or stats.samples_beyond(n, q + 1) < stats.MIN_BEYOND


def test_percentile_is_nearest_rank_and_refuses_a_thin_tail():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 90) == 90
    with pytest.raises(ValueError):
        stats.percentile(xs[:99], 90)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    # 0: [0, 10] holds 1: [1, 4] and 2: [5, 9]; 2 holds 3: [6, 7]; 4 is a second root
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 5.0, 6.0, 12.0]
    end = [10.0, 4.0, 9.0, 7.0, 13.0]
    dur, own = tracing.self_times(parent, start, end)
    assert dur == [10.0, 3.0, 4.0, 1.0, 1.0]
    assert own == [3.0, 3.0, 3.0, 1.0, 1.0]
    assert sum(own) == sum(d for d, p in zip(dur, parent) if p < 0)


def test_traced_time_adds_up_to_the_wall():
    t = tracing.Tracer()
    for module, attrs in tracing.TIMED.items():  # layer_metrics expects every name
        for attr in attrs:
            t.timed(tracing.span_name(module, attr), lambda: None)
    inner = t.timed("inner", lambda: sum(range(20000)))
    outer = t.timed("outer", lambda: [inner() for _ in range(3)])
    t0 = worker.time.perf_counter()
    outer()
    inner()
    wall = worker.time.perf_counter() - t0
    m = t.layer_metrics(wall)
    assert m["inner.calls"][0] == 4 and m["outer.calls"][0] == 1
    assert m["inner.self_s"][0] == m["inner.s"][0]  # no children
    assert 0 <= m["outer.self_s"][0] < m["outer.s"][0] - 2 * m["inner.s"][0] / 4
    assert m["trace.layers_self_s"][0] + m["trace.harness_s"][0] == pytest.approx(wall, rel=1e-9)
    assert m["trace.harness_s"][0] >= 0


# -- failed ops are counted and the run goes on ------------------------------------


class _Flaky:
    """A pass of three ops: raises, wrong verdict, correct; one probe."""

    def pass_ops(self, k):
        def boom():
            raise ZeroDivisionError("boom")

        Op = workloads.Op
        return [
            Op("raises", boom, None),
            workloads.fixed_op("wrong", lambda: 1, 2),
            workloads.fixed_op("right", lambda: 3, 3),
        ]

    def probes(self):
        return [("a known defect", workloads.fixed_op("probe", lambda: 0, 1)),
                ("a fixed defect", workloads.fixed_op("probe", lambda: 1, 1))]


def test_failed_ops_are_counted_without_stopping_the_run():
    flaky = _Flaky()
    tally, wall = worker.timed_loop(flaky, flaky.pass_ops(0), 0.2, None)
    n = tally.kinds["right"][0]
    assert n > 1  # passes went on after the failures
    assert tally.correct == n
    assert tally.failed == tally.kinds["raises"][1] + tally.kinds["wrong"][1]
    assert set(tally.unexpected) == {"raises", "wrong"}
    assert "ZeroDivisionError: boom" in tally.unexpected["raises"][1]
    assert worker.run_probes(flaky) == {"a known defect": [1, 1], "a fixed defect": [1, 0]}
    assert len(tally.factors()) == len(tally.latencies) == len(tally.digests)
    assert run.check_report({"unexpected": tally.unexpected}, "x") and not run.check_report({"unexpected": {}}, "x")


# -- known answers ------------------------------------------------------------------


def test_known_defects_show_in_probes_not_in_timed_ops():
    gaussian = workloads.ClassGaussian()
    gaussian.setup(3, None)
    spectra = [op for op in gaussian.pass_ops(0) if op.kind.startswith("spectrum")]
    assert spectra and all(worker.call_and_judge(op)[1] for op in spectra)
    gate = workloads.FamilyGate()
    gate.setup(3, None)
    assert worker.run_probes(gaussian) == {workloads.DEFECT_SPECTRUM_NONREAL: [4, 4]}
    assert worker.run_probes(gate) == {workloads.DEFECT_CLI_ZERO_DIVISION: [2, 2]}


def test_rank_oracle_matches_catalog_classes():
    for entry in catalog.standard_entries():
        comps = [entry.distinguished_form.coeffs.get((i,), Scalar(0)) for i in range(1, entry.algebra.dim + 1)]
        assert workloads.oracle_class(entry.algebra, comps) == entry.expected_class, entry.id


def test_gaussian_rank():
    one, zero, i = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))
    minus_i = (Fraction(0), Fraction(-1))
    assert workloads._gaussian_rank([[one, i], [i, (Fraction(-1), Fraction(0))]]) == 1  # row 2 = i * row 1
    assert workloads._gaussian_rank([[one, i], [one, minus_i]]) == 2
    assert workloads._gaussian_rank([[zero, zero]]) == 0


def test_closure_formula_matches_the_jacobi_verdict():
    from cartanlab.structure import jacobi_check

    for a in ([1, 2, 3], [1, 1, 1], [Fraction(5, 4), 1, 2]):
        closes = workloads.mu_c9_closure(*map(Fraction, a)) == 0
        assert jacobi_check(catalog.mu_c9_table(*a)).ok == closes, a


def test_interleave_keeps_every_prefix_in_proportion():
    merged = workloads.interleave(["a"] * 2, ["b"] * 6)
    assert sorted(merged) == ["a"] * 2 + ["b"] * 6
    assert merged.index("a") <= 2 and merged[4:].count("a") == 1


def test_passes_draw_fresh_inputs():
    wl = workloads.ClassScan()
    wl.setup(7, None)
    first, second = wl.pass_ops(0), wl.pass_ops(1)
    assert [op.kind for op in first] == [op.kind for op in second]
    again = workloads.ClassScan()
    again.setup(7, None)
    same = again.pass_ops(0)
    assert [op.run().value for op in first[:6]] == [op.run().value for op in same[:6]]
    assert workloads.stream(7, "timed", 0).random() != workloads.stream(7, "timed", 1).random()


# -- BENCHMARK.json agrees with what the harness prints --------------------------------


def test_benchmark_json_names_match_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    report = {"correct": 99, "scaled_wall_s": 1.0, "scaled_latencies": [0.001] * 100, "peak_rss_mb": 1.0}
    e2e = run.end_to_end(report, [{"setup_scaled_s": 0.5}])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    code = (
        "import json, tracing; t = tracing.Tracer(); t.install();"
        "print(json.dumps({k: u for k, (_, u) in t.layer_metrics(1.0).items()}))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, os.path.join(ROOT, "src")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    layers = json.loads(out.stdout)
    layers["trace.overhead_ratio"] = "ratio"
    layers["known_defects.open"] = "count"
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers
