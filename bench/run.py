"""circfun benchmark: one caller drives the public library API in a closed loop.

Run from the repository root:

    python3 bench/run.py --workload eval --seed 1 --seconds 24 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` runs it with spans around every layer and prints the per-layer
metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One caller on a small host: pin BLAS to one thread before numpy loads.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: Path):
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(np):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(ROOT),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "circfun" / "__init__.py").is_file():
        print(f"error: no circfun sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import circfun

    if Path(circfun.__file__).resolve().parent != (src / "circfun").resolve():
        print(f"error: imported circfun from {circfun.__file__}, not {src}", file=sys.stderr)
        return 2

    import numpy as np

    import harness
    import probes
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    pools, _ = harness.setup(workload, args.seed)

    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            window = harness.measure(workload, pools, args.seconds / 2, tracer)
        rounds = window.rounds
        untraced = harness.measure(workload, pools, 0, rounds=rounds)
        metrics = tracing.layer_metrics(tracer.spans, rounds)
        traced_s, untraced_s = (sum(w.scaled(0, len(w.latencies))) for w in (window, untraced))
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        if args.workload == "eval":
            probe_metrics, problems = probes.measure(ROOT, args.seed)
        else:
            probe_metrics, problems = probes.not_measured(), []
        metrics.update(probe_metrics)
        failures = harness.verify(workload, pools, window)
        ratio = tracing.self_time_ratio(tracer.spans)
        checks_ok = abs(ratio - 1.0) <= 1e-6 and not problems
    else:
        window = harness.measure(workload, pools, args.seconds)
        rss = peak_rss_mb()
        failures = harness.verify(workload, pools, window)
        e2e = harness.end_to_end(window, {f["op"] for f in failures})
        setup_s = harness.setup_seconds(ROOT, args.workload, args.seed, SETUP_REPEATS)
        metrics = {
            "ops_per_s": (e2e["ops_per_s"], "1/s"),
            "op_p50_ms": (e2e["p50_ms"], "ms"),
            "op_tail_ms": (e2e["tail_ms"], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        checks_ok = True

    attempted, failed = len(window.latencies), len(failures)
    correct = checks_ok and not any(f["wrong_output"] for f in failures)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    if args.trace:
        print(f"  {rounds} rounds; span self times / top-level span total = {ratio!r}")
        for problem in problems:
            print(f"  CLI FAILED {problem}")
    else:
        print(f"  {'error_ratio':40s} {failed / attempted:.6g} ratio ({failed} failed / {attempted} attempted)")
        print(
            f"  op_tail_ms is p{e2e['tail_pct']:g} of {e2e['block_samples']} samples;"
            f" {window.rounds} rounds in {e2e['blocks']} block(s), medians over blocks"
        )
        scales = [f for _, f in window.scales]
        raw_ops_per_s = (attempted - failed) / window.seconds
        print(
            f"  host time scale {statistics.median(scales):.3f} (min {min(scales):.3f},"
            f" max {max(scales):.3f}); unscaled ops_per_s {raw_ops_per_s:.6g}"
        )
    by_kind = {}
    for f in failures:
        by_kind.setdefault((f["instance"], f["error"]), []).append(f["detail"])
    for (instance, error), msgs in sorted(by_kind.items()):
        print(f"  FAILED {instance} {error} x{len(msgs)}: {msgs[0]}")
    print("machine " + json.dumps(machine(np)))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
