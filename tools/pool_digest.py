"""Print a SHA-256 digest of every pool output of the benchmark workloads.

    python tools/pool_digest.py [SRC]

Each workload of bench/workloads.py generates its pools for seeds 1, 2 and
3 and runs every instance once through its own ``run``; the outputs are
hashed with the library imported from SRC (default: src), so two checkouts
of the library can be compared on the same inputs:

    python tools/pool_digest.py /path/to/other/checkout/src

It hashes a circulant's row, a rational evaluation's (value, zeroed) pair,
a solution set's status, free channels, every array of its ``table``, its
root rows (read by iteration) and its residuals (as float64), a limit
report through ``serialize.limit_report_to_obj``, and the type and text of
an exception.  It prints one line per workload and one for all, each the
first 16 hex digits of the digest.  Run it from the root of the repository.
"""

import hashlib
import json
import os
import sys


def feed(h, out) -> None:
    """Add one output to the hash ``h``."""
    import numpy as np

    import circfun as cf
    from circfun import serialize

    if isinstance(out, BaseException):
        h.update(f"error {type(out).__name__}: {out}".encode())
    elif isinstance(out, cf.Circulant):
        h.update(b"circulant" + out.row.tobytes())
    elif isinstance(out, tuple):  # a rational evaluation: (value, zeroed channels)
        h.update(b"pair")
        feed(h, out[0])
        h.update(repr(out[1]).encode())
    elif isinstance(out, cf.SolutionSet):
        h.update(f"solution {out.status.value} {out.free_channels}".encode())
        for column in out.table:
            h.update(column.dtype.str.encode() + column.tobytes())
        for root in out.roots:
            h.update(root.row.tobytes())
        h.update(b"residuals" + np.fromiter(out.residuals, dtype=np.float64, count=len(out.residuals)).tobytes())
    else:
        h.update(json.dumps(serialize.limit_report_to_obj(out), sort_keys=True).encode())


def main() -> None:
    src = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else "src")
    sys.path[:0] = [src, os.path.abspath("bench")]
    import circfun
    from workloads import WORKLOADS

    if not os.path.realpath(circfun.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"error: imported circfun from {circfun.__file__}, not {src}")
    total = hashlib.sha256()
    for name, workload_class in WORKLOADS.items():
        h, workload = hashlib.sha256(), workload_class()
        for seed in (1, 2, 3):
            pools = workload.generate(seed)
            for key, case in workload.cases.items():
                for k, x in enumerate(pools[key]):
                    h.update(f"{seed} {key} {k}".encode())
                    try:
                        out = workload.run(case, x)
                    except Exception as error:  # an error is an output too
                        out = error
                    feed(h, out)
        total.update(h.digest())
        print(f"{name}: {h.hexdigest()[:16]}")
    print(f"all: {total.hexdigest()[:16]}")


if __name__ == "__main__":
    main()
