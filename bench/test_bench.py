"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import circfun as cf  # noqa: E402
import harness  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Each workload at a tiny size: same code paths (including the dense and the
# np.fft oracle branches), one cheap case per kind.
TINY = {
    "eval": lambda: workloads.Eval({2: 1, 32: 1, 1024: 1}),
    "solve-recombine": lambda: workloads.SolveRecombine(((3, 2, "int", 1), (2, 4, "random", 1))),
    "solve-channels": lambda: workloads.SolveChannels(((4, 3, 1),)),
    "characterize": lambda: workloads.Characterize({4: 1}),
}


def input_bytes(pools):
    return b"".join(
        np.ascontiguousarray(inst[name]).tobytes()
        for key in sorted(pools)
        for inst in pools[key]
        for name in sorted(inst)
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    wl = workloads.WORKLOADS[name]()
    first, again, other = wl.generate(5), wl.generate(5), wl.generate(6)
    assert input_bytes(first) == input_bytes(again)
    assert input_bytes(first) != input_bytes(other)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_verifies_at_tiny_size(name):
    wl = TINY[name]()
    pools, _ = harness.setup(wl, 1)
    window = harness.measure(wl, pools, 0)
    assert len(window.latencies) == len(wl.round)
    assert harness.verify(wl, pools, window) == []


def test_verify_rejects_a_wrong_output_and_a_changed_repeat():
    wl = TINY["eval"]()
    pools, _ = harness.setup(wl, 1)
    # Five visits of one case: instances 0, 1, 2, 3, 0.
    window = harness.measure(wl, pools, 0, round_=["d32/pinv"], rounds=workloads.POOL + 1)
    good = window.outputs["d32/pinv", 0]
    window.outputs["d32/pinv", 0] = cf.Circulant(good.row * (1 + 1e-6))
    failures = harness.verify(wl, pools, window)
    assert [(f["op"], f["error"]) for f in failures] == [(0, "OracleMismatch"), (4, "OracleMismatch")]
    window.outputs["d32/pinv", 0] = good
    window.changed.add(4)
    failures = harness.verify(wl, pools, window)
    assert [(f["op"], f["error"]) for f in failures] == [(4, "NondeterministicOutput")]


def test_end_to_end_is_a_median_over_blocks_of_rounds():
    window = harness.Window(round_=["a", "b"])
    window.latencies.extend([0.5] * 17 + [50.0])  # one slow op moves one block only
    window.rounds = 9
    window.scales = [(0, 1.0), (18, 1.0)]
    e2e = harness.end_to_end(window, failed_ops={17})
    assert e2e["blocks"] == 3
    assert e2e["ops_per_s"] == 2.0
    assert e2e["p50_ms"] == 500.0 and e2e["block_samples"] == 6


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span("op", 0.0, 10.0),
        Span("a", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("op", 20.0, 25.0),
        Span("d", 21.0, 22.0, 4),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 4.0, 1.0]
    roots = sum(s.end - s.start for s in spans if s.parent < 0)
    assert sum(tracing.self_times(spans)) == roots


def test_self_time_counts_overlapping_children_once():
    spans = [Span("op", 0.0, 10.0), Span("a", 1.0, 4.0, 0), Span("b", 3.0, 6.0, 0)]
    assert tracing.self_times(spans)[0] == 5.0


def test_layer_metrics_on_synthetic_solves():
    finite = {"status": "finite", "roots": 2}
    spans = [
        Span("op", 0.0, 10.0),
        Span("solver.recombine", 1.0, 9.0, 0, finite),
        Span("solver.scalar", 1.0, 2.0, 1, {"iterations": 4, "max_iter": 100}),
        Span("spectral.from_spectrum", 3.0, 4.0, 1),
        Span("spectral.from_spectrum", 4.0, 5.0, 1),
        Span("op", 10.0, 12.0),
        Span("solver.recombine", 10.0, 12.0, 5, {"status": "no-solution", "roots": 0}),
        Span("solver.scalar", 10.0, 11.0, 6, {"iterations": 100, "max_iter": 100}),
    ]
    m = {k: v for k, (v, _) in tracing.layer_metrics(spans, rounds=1).items()}
    assert m["solver.candidates"] == 2
    assert m["solver.keep_ratio"] == 1.0
    assert m["solver.recombine.self_s"] == 6.0
    assert m["solver.recombine_us_per_root"] == 3e6
    assert m["solver.scalar.calls"] == 2
    assert m["solver.scalar.iterations_mean"] == 52.0
    assert m["solver.scalar.fallback_ratio"] == 0.5
    assert m["solver.scalar.useful_ratio"] == 0.5
    halved = {k: v for k, (v, _) in tracing.layer_metrics(spans, rounds=2).items()}
    assert halved["solver.candidates"] == 1 and halved["solver.keep_ratio"] == 1.0


def test_tracer_wraps_every_lookup_site_and_restores_them():
    original = cf.solver.from_spectrum
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cf.solver.from_spectrum is not original
        assert cf.functions.from_spectrum is cf.spectral.from_spectrum
        cf.solve_circ_poly(cf.CircPoly.from_scalars([1, 0, -1], d=2))
    assert cf.solver.from_spectrum is original
    names = Counter(s.name for s in tracer.spans)
    assert names["solver.recombine"] == 1
    assert names["solver.scalar"] == 2
    assert names["spectral.from_spectrum"] == 4


def test_window_runs_seconds_over_round_s_rounds():
    wl = TINY["characterize"]()
    pools, _ = harness.setup(wl, 1)
    assert harness.measure(wl, pools, 3 * wl.ROUND_S).rounds == 3


def test_quantile_is_the_harrell_davis_estimate():
    # n = 3, p = 1/2: beta(2, 2) weights I_x = 3x^2 - 2x^3 give 7/27, 13/27, 7/27.
    assert harness.quantile([27.0, 0.0, 0.0], 0.5) == pytest.approx(7.0, rel=1e-6)
    assert harness.quantile([1.0, 5.0, 2.0], 1.0) == 5.0


@pytest.mark.parametrize(
    "samples, pct", [(5, 100.0), (20, 50.0), (48, 75.0), (150, 90.0), (52_000, 99.9)]
)
def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond(samples, pct):
    assert harness.latency_stats([0.001] * samples)["tail_pct"] == pct


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload, trace", [("eval", "0"), ("eval", "1"), ("characterize", "1")])
def test_runner_prints_the_declared_metrics(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "2", "--seconds", "0.01", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    # The probes run on eval only; other workloads report them as not measured.
    probed = [result["metrics"][name]["value"] for name in probes.UNITS] if trace == "1" else []
    assert all(v > 0 for v in probed) if workload == "eval" else not any(probed)


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "eval", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
