"""Set-up, the closed-loop timed window, oracle verification and latency statistics."""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import circfun as cf
from circfun.spectral import fourier_context
from workloads import POOL

#: Tail percentiles, in thousandths of a percent; the tail is the highest one
#: with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (50_000, 75_000, 90_000, 99_000, 99_900, 99_990, 99_999)
TAIL_BEYOND = 10

#: End-to-end metrics are medians over this many blocks of whole rounds, when
#: the window holds at least MIN_BLOCK_ROUNDS rounds per block.
BLOCKS = 3
MIN_BLOCK_ROUNDS = 3

#: Host speed. The CPU speed of a shared host can change by up to 2x from
#: one second to the next. Before an op, when CALIBRATE_EVERY_S has passed
#: since the last sample (so before every op that long), the window samples
#: REFERENCE_UNIT_S / (time of a calibration unit). Each op time is
#: multiplied by the mean of the samples just before and just after it,
#: which puts it in seconds of a reference host on which the unit takes
#: REFERENCE_UNIT_S.
REFERENCE_UNIT_S = 4e-3
CALIBRATE_EVERY_S = 0.25

#: On a host much slower than the reference, or for a commit much slower
#: than the one that set ROUND_S, the window ends early at the round boundary
#: nearest to this many times ``seconds`` of wall time, so that a run's
#: length stays bounded.
MAX_WALL_FACTOR = 1.25

HERE = Path(__file__).resolve().parent
_CAL_X = np.exp(0.74j * np.pi * np.arange(64) / 64)


def _calibration_unit() -> float:
    """Wall time of a fixed mix of small numpy calls and plain Python
    arithmetic, the two kinds of work the library's ops are made of."""
    t0 = time.perf_counter()
    x, acc = _CAL_X, 0.0
    for _ in range(100):
        y = np.fft.fft(x)
        x = x * 0.5 + y * 1e-3
        acc += float(abs(y[1]))
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def time_scale() -> float:
    """Factor from this host's seconds, now, to reference-host seconds; the
    fastest of three units, so that an interrupt does not count as slowness."""
    return REFERENCE_UNIT_S / min(_calibration_unit() for _ in range(3))


def setup(workload, seed: int):
    """Generate the instance pools and warm the process-wide caches the
    workload's orders use: fourier_context (cleared first) and numpy's FFT plans.
    Returns (pools, seconds)."""
    fourier_context.cache_clear()
    t0 = time.perf_counter()
    pools = workload.generate(seed)
    for d in workload.orders():
        x = cf.elementary(d)
        cf.from_spectrum(cf.spectrum(x))
        cf.mul(x, x)
    return pools, time.perf_counter() - t0


def op_stream(round_: list):
    """(case key, instance index) of every op, round after round: the k-th
    visit of a case uses instance k % POOL."""
    visits = Counter()
    while True:
        for key in round_:
            yield key, visits[key] % POOL
            visits[key] += 1


@dataclass
class Window:
    """What one timed window keeps. Its size does not grow with the op count
    beyond one float per op, so peak memory reflects the library."""

    round_: list
    seconds: float = 0.0  # wall time of the window
    latencies: array = field(default_factory=lambda: array("d"))  # host seconds per op
    scales: list = field(default_factory=list)  # (index of the next op, time_scale())
    rounds: int = 0
    errors: dict = field(default_factory=dict)  # op -> (exception class, message, library refusal?)
    outputs: dict = field(default_factory=dict)  # (key, index) -> first successful output
    prints: dict = field(default_factory=dict)  # (key, index) -> fingerprint of that output
    changed: set = field(default_factory=set)  # ops whose output differs from the first one

    def ops(self):
        return zip(range(len(self.latencies)), op_stream(self.round_))

    def scaled(self, lo: int, hi: int) -> array:
        """Latencies of ops lo..hi-1 in reference-host seconds."""
        marks = [op for op, _ in self.scales]  # a sample marked i is taken just before op i
        factors = [f for _, f in self.scales]
        k = bisect.bisect_right(marks, lo) - 1
        out = array("d")
        for i in range(lo, hi):
            while marks[k + 1] <= i:
                k += 1
            out.append(self.latencies[i] * (factors[k] + factors[k + 1]) / 2)
        return out


def measure(workload, pools, seconds: float, tracer=None, round_=None, rounds=None) -> Window:
    """One caller, closed loop: each op starts when the previous one returns.

    Runs exactly ``rounds`` rounds when that is given. Otherwise it runs
    ``seconds / workload.ROUND_S`` rounds (rounded, at least one), so that
    every run of a workload does the same ops, whatever the host's speed or
    the commit; it stops early at the round boundary nearest to
    MAX_WALL_FACTOR * ``seconds`` of wall time. Each output is kept only for
    the first successful visit of an instance; repeats keep a fingerprint test.
    """
    w = Window(round_=list(round_ or workload.round))
    stream = op_stream(w.round_)
    cases = workload.cases
    max_wall = float("inf") if rounds else MAX_WALL_FACTOR * seconds
    rounds = rounds or max(1, round(seconds / workload.ROUND_S))
    w.scales.append((0, time_scale()))
    start = calibrated = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in w.round_:
            key, idx = next(stream)
            case, x = cases[key], pools[key][idx]
            op = len(w.latencies)
            if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                w.scales.append((op, time_scale()))
                calibrated = time.perf_counter()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.run(case, x)
                else:
                    out = tracer.call("op", workload.run, (case, x))
            except Exception as exc:  # a failed op is recorded and the loop goes on
                w.latencies.append(time.perf_counter() - t0)
                w.errors[op] = (type(exc).__name__, str(exc)[:200], isinstance(exc, cf.CircfunError))
                continue
            w.latencies.append(time.perf_counter() - t0)
            if (key, idx) not in w.outputs:
                w.outputs[key, idx] = out
                w.prints[key, idx] = workload.fingerprint(case, out)
            elif workload.fingerprint(case, out) != w.prints[key, idx]:
                w.changed.add(op)
        w.rounds += 1
        now = time.perf_counter()
        if w.rounds == rounds or now - start + (now - round_start) / 2 >= max_wall:
            break
    w.seconds = time.perf_counter() - start
    w.scales.append((len(w.latencies), time_scale()))
    return w


def verify(workload, pools, w: Window) -> list:
    """Check every op of the window. The first successful output of each
    instance goes to the workload's oracle; a repeat must have reproduced its
    fingerprint. Returns one failure record per failed op."""
    verdicts = {}
    for (key, idx), out in w.outputs.items():
        try:
            verdicts[key, idx] = workload.check(workload.cases[key], pools[key][idx], out)
        except Exception as exc:  # an output the oracle cannot even read is wrong
            verdicts[key, idx] = f"check raised {type(exc).__name__}: {exc}"
    failures = []
    for op, (key, idx) in w.ops():
        if op in w.errors:
            error, detail, refusal = w.errors[op]
        elif verdicts[key, idx] is not None:
            error, detail, refusal = "OracleMismatch", verdicts[key, idx], False
        elif op in w.changed:
            error, detail, refusal = "NondeterministicOutput", "repeat differs from the checked output", False
        else:
            continue
        failures.append(
            {
                "op": op,
                "instance": f"{workload.name}/{key}#{idx}",
                "error": error,
                "detail": detail,
                "wrong_output": not refusal,
            }
        )
    return failures


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, weighted by the chance that each is the sample p-quantile.
    A workload mixes cases of very different cost, so a single order
    statistic jumps when host noise reorders the few samples near a gap in
    the costs; this estimate moves smoothly. p = 1 gives the maximum."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if p >= 1.0 or n == 1:
        return float(x[-1])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)  # beta(a, b), unnormalized
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def latency_stats(latencies: list) -> dict:
    """Median and tail latency in ms. The tail is the highest ladder
    percentile with at least TAIL_BEYOND samples beyond it (the maximum when
    there are too few samples for any)."""
    n = len(latencies)
    if n == 0:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0, "samples": 0}
    ms = np.asarray(latencies) * 1e3
    fitting = [q for q in TAIL_LADDER if n * (100_000 - q) >= TAIL_BEYOND * 100_000]
    pct = fitting[-1] / 1000 if fitting else 100.0
    return {
        "p50_ms": quantile(ms, 0.5),
        "tail_ms": quantile(ms, pct / 100),
        "tail_pct": pct,
        "samples": n,
    }


def end_to_end(w: Window, failed_ops: set) -> dict:
    """Throughput, median and tail latency in reference-host time, each the
    median over BLOCKS blocks of whole rounds, so that a short disturbance of
    the host moves one block only. A window of fewer than BLOCKS *
    MIN_BLOCK_ROUNDS rounds is one block. Throughput is verified ops over the
    summed op times; latency covers every attempted op, so the latency
    sample has the same case mix on every seed."""
    rounds = w.rounds
    per_round = len(w.round_)
    blocks = BLOCKS if rounds >= BLOCKS * MIN_BLOCK_ROUNDS else 1
    edges = [b * rounds // blocks for b in range(blocks + 1)]
    rates, p50s, tails = [], [], []
    for lo, hi in zip(edges, edges[1:]):
        ops = range(lo * per_round, hi * per_round)
        latencies = w.scaled(ops.start, ops.stop)
        rates.append(sum(op not in failed_ops for op in ops) / sum(latencies))
        stats = latency_stats(latencies)
        p50s.append(stats["p50_ms"])
        tails.append(stats["tail_ms"])
    return {
        "ops_per_s": statistics.median(rates),
        "p50_ms": statistics.median(p50s),
        "tail_ms": statistics.median(tails),
        "tail_pct": stats["tail_pct"],
        "block_samples": stats["samples"],
        "blocks": blocks,
    }


# Set-up in a fresh interpreter, so that every sample includes the import.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import circfun
t1 = time.perf_counter()
import harness, workloads
_, seconds = harness.setup(workloads.WORKLOADS[sys.argv[1]](), int(sys.argv[2]))
print(repr((t1 - t0 + seconds) * sum(harness.time_scale() for _ in range(5)) / 5))
"""


def setup_seconds(root: Path, workload: str, seed: int, repeats: int) -> float:
    """Median over ``repeats`` fresh processes of import + set-up time, in
    reference-host seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, workload, str(seed)],
            capture_output=True, text=True, cwd=root, env=env, timeout=120, check=True,
        )  # fmt: skip
        times.append(float(proc.stdout))
    return statistics.median(times)
