"""Command-line front end: spectrum, pinv, eval, solve, divisor, degree.

Each invocation reads one JSON document (file or stdin), runs the mapped
library operation, and writes one JSON document.  Exit codes: 0 for success
or a finite root set, 2 when no solution exists, 3 for an infinite solution
family, 4 when a limit criterion is not met (not rational / not polynomial),
and 1 for usage, input, or internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize
from .characterize import PathSpec, detect_poly_degree, estimate_divisor
from .errors import CircfunError
from .serialize import SchemaError
from .solver import SolutionStatus, solve_circ_poly
from .spectral import pseudoinverse, spectrum

_EXIT_BY_STATUS = {
    SolutionStatus.FINITE: 0,
    SolutionStatus.NO_SOLUTION: 2,
    SolutionStatus.INFINITE_FAMILY: 3,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage errors to 1
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="circfun", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("spectrum", "eigenvalues of a circulant"),
        ("pinv", "Moore-Penrose pseudoinverse of a circulant"),
        ("eval", "evaluate a function at a point"),
        ("solve", "solve a polynomial equation P(Z) = 0"),
        ("divisor", "estimate per-channel divisors of a rational function"),
        ("degree", "detect polynomial degree from the log-derivative limit"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", "-i", default="-", help="input JSON path, or - for stdin")
        cmd.add_argument("--output", "-o", default="-", help="output JSON path, or - for stdout")
        if name in ("pinv", "solve"):
            cmd.add_argument("--tol", type=float, default=None, help="numeric tolerance override")
        if name in ("divisor", "degree"):
            cmd.add_argument("--seed", type=int, default=0, help="seed for retry phases")
            cmd.add_argument("--t-min", type=float, default=1e3, help="smallest path scale")
            cmd.add_argument("--t-max", type=float, default=1e8, help="largest path scale")
            cmd.add_argument("--t-points", type=int, default=11, help="number of path scales")
    return parser


def _read_document(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError("document", f"malformed JSON: {exc}") from exc
    except OSError as exc:
        raise SchemaError("input", str(exc)) from exc


def _write_document(path: str, obj) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _path_from_args(args, d: int) -> PathSpec:
    return PathSpec.default(
        d, t_min=args.t_min, t_max=args.t_max, points=args.t_points, seed=args.seed
    )


def _run_spectrum(args) -> tuple[dict, int]:
    x = serialize.circulant_from_obj(_read_document(args.input), "circulant")
    with np.errstate(over="ignore", invalid="ignore"):  # an eigenvalue that overflows is refused next
        values = spectrum(x)
    if not np.all(np.isfinite(values)):
        raise SchemaError("circulant.row", "an eigenvalue overflows the float range")
    return serialize.spectrum_to_obj(values), 0


def _run_pinv(args) -> tuple[dict, int]:
    x = serialize.circulant_from_obj(_read_document(args.input), "circulant")
    if args.tol is not None and not 0 <= args.tol < float("inf"):  # checked here to name the flag
        raise ValueError(f"tol must be finite and >= 0, got {args.tol}")
    y = pseudoinverse(x, rel_tol=args.tol)
    return serialize.circulant_to_obj(y), 0


def _run_eval(args) -> tuple[dict, int]:
    doc = _read_document(args.input)
    if not isinstance(doc, dict):
        raise SchemaError("document", "expected an object with 'function' and 'point'")
    if "function" not in doc:
        raise SchemaError("function", "missing")
    if "point" not in doc:
        raise SchemaError("point", "missing")
    f = serialize.function_from_obj(doc["function"], "function")
    z = serialize.circulant_from_obj(doc["point"], "point")
    value, zeroed = f.evaluate_with_report(z)
    return {"value": serialize.circulant_to_obj(value), "zeroed_channels": list(zeroed)}, 0


def _run_solve(args) -> tuple[dict, int]:
    doc = _read_document(args.input)
    f = serialize.function_from_obj(doc, "polynomial")
    if f.Q is not None or f.G is not None:
        raise SchemaError("polynomial.kind", "solve expects kind 'poly'")
    result = solve_circ_poly(f.P) if args.tol is None else solve_circ_poly(f.P, tol=args.tol)
    return serialize.solution_set_to_obj(result), _EXIT_BY_STATUS[result.status]


def _run_divisor(args) -> tuple[dict, int]:
    f = serialize.function_from_obj(_read_document(args.input), "function")
    report = estimate_divisor(f, path=_path_from_args(args, f.d))
    return serialize.divisor_report_to_obj(report), 0 if report.converged else 4


def _run_degree(args) -> tuple[dict, int]:
    f = serialize.function_from_obj(_read_document(args.input), "function")
    report = detect_poly_degree(f, path=_path_from_args(args, f.d))
    return serialize.degree_report_to_obj(report), 0 if report.is_polynomial else 4


_HANDLERS = {
    "spectrum": _run_spectrum,
    "pinv": _run_pinv,
    "eval": _run_eval,
    "solve": _run_solve,
    "divisor": _run_divisor,
    "degree": _run_degree,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        document, code = _HANDLERS[args.command](args)
        _write_document(args.output, document)
    except (CircfunError, ValueError, TypeError) as exc:  # SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
