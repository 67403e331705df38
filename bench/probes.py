"""Layer measurements that the workload window does not give: the kernel
d-sweep, serializer cost and CLI subprocess times. All run untraced. They do
not depend on the workload, so only the traced run of ``eval`` measures them;
other workloads report them as not measured (0)."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import circfun as cf
from circfun import serialize
from circfun import testkit as tk

#: Orders of the kernel sweep; 31/32 straddle the FFT dispatch threshold.
SWEEP = (2, 8, 16, 31, 32, 64, 128, 256, 1024, 8192)
SWEPT = (
    "core.mul_us",
    "core.mul_naive_us",
    "core.mul_fft_us",
    "spectral.spectrum_us",
    "spectral.from_spectrum_us",
)
CLI_SUBCOMMANDS = ("spectrum", "pinv", "eval", "solve", "divisor", "degree")

#: Name -> unit of every probe metric.
UNITS = {
    **{f"{name}.d{d}": "us" for d in SWEEP for name in SWEPT},
    "core.mul_crossover_d": "d",
    "serialize.solution_to_obj_us_per_root": "us",
    "serialize.report_to_obj_us": "us",
    "cli.startup_ms": "ms",
    **{f"cli.{sub}.subprocess_ms": "ms" for sub in CLI_SUBCOMMANDS},
}


def per_call_us(fn, batch_s: float = 0.004, batches: int = 5) -> float:
    """Median over batches of the mean time of one call, in microseconds."""
    count = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(count):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= batch_s:
            break
        count *= 2
    samples = [elapsed / count]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        for _ in range(count):
            fn()
        samples.append((time.perf_counter() - t0) / count)
    return statistics.median(samples) * 1e6


def d_sweep(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    m = {}
    for d in SWEEP:
        x, y = tk.random_circulant(rng, d), tk.random_circulant(rng, d)
        u = cf.spectrum(x)
        calls = (
            lambda: cf.core.mul(x, y),
            lambda: cf.core.mul_naive(x, y),
            lambda: cf.core.mul_fft(x, y),
            lambda: cf.spectral.spectrum(x),
            lambda: cf.spectral.from_spectrum(u),
        )
        for name, call in zip(SWEPT, calls):
            m[f"{name}.d{d}"] = per_call_us(call)
    out = {k: (v, "us") for k, v in m.items()}
    crossover = next(
        (d for d in SWEEP if m[f"core.mul_fft_us.d{d}"] < m[f"core.mul_naive_us.d{d}"]), 0
    )
    out["core.mul_crossover_d"] = (crossover, "d")
    return out


def _rational(rng, d):
    s = 1.0 / np.sqrt(d)
    return cf.RationalFunction(
        tk.random_regular_poly(rng, d, 3, s), tk.random_regular_poly(rng, d, 1, s)
    )


def serialize_probes(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    poly, _ = tk.integer_rooted_poly(rng, 8, 2)
    solution = cf.solve_circ_poly(poly)
    report = cf.estimate_divisor(_rational(rng, 16))
    per_root = per_call_us(lambda: serialize.solution_set_to_obj(solution)) / len(solution.roots)
    return {
        "serialize.solution_to_obj_us_per_root": (per_root, "us"),
        "serialize.report_to_obj_us": (per_call_us(lambda: serialize.divisor_report_to_obj(report)), "us"),
    }


def cli_probes(root, seed: int) -> tuple[dict, list]:
    """Wall time of one subprocess per CLI subcommand, and of a bare import.
    Returns the metrics and a description of every subprocess that failed."""
    rng = np.random.default_rng([seed, 4])
    point = serialize.circulant_to_obj(tk.random_invertible_circulant(rng, 16))
    poly = cf.PolyFunction(tk.random_regular_poly(rng, 16, 3, 0.25))
    rooted, _ = tk.integer_rooted_poly(rng, 4, 2)
    docs = {  # one per CLI_SUBCOMMANDS entry
        "spectrum": point,
        "pinv": point,
        "eval": {"function": serialize.function_to_obj(poly), "point": point},
        "solve": serialize.function_to_obj(cf.PolyFunction(rooted)),
        "divisor": serialize.function_to_obj(_rational(rng, 16)),
        "degree": serialize.function_to_obj(poly),
    }
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    problems = []

    def timed(args, doc=None):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *args],
                input=json.dumps(doc).encode() if doc is not None else b"",
                capture_output=True,
                cwd=root,
                env=env,
                timeout=60,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            problems.append(f"{' '.join(args)} timed out")
        else:
            if proc.returncode != 0 or (doc is not None and not proc.stdout.startswith(b"{")):
                problems.append(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-300:]!r}")
        return (time.perf_counter() - t0) * 1e3

    m = {"cli.startup_ms": (timed(["-c", "import circfun.cli"]), "ms")}
    for sub, doc in docs.items():
        m[f"cli.{sub}.subprocess_ms"] = (timed(["-m", "circfun.cli", sub], doc), "ms")
    return m, problems


def measure(root, seed: int) -> tuple[dict, list]:
    """Every probe metric, name -> (value, unit), and the CLI problems."""
    metrics, problems = cli_probes(root, seed)
    metrics.update(d_sweep(seed))
    metrics.update(serialize_probes(seed))
    return metrics, problems


def not_measured() -> dict:
    return {name: (0.0, unit) for name, unit in UNITS.items()}
