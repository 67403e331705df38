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
    for name, (help_text, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--input", "-i", default="-", help="input JSON path, or - for stdin")
        cmd.add_argument("--output", "-o", default="-", help="output JSON path, or - for stdout")
        if name in ("pinv", "solve"):
            cmd.add_argument("--tol", type=float, default=None, help="numeric tolerance override")
        if name in ("divisor", "degree"):  # with no default, a path flag left unset is absent: _path_from_args
            cmd.add_argument("--seed", type=int, help="seed for retry phases")
            cmd.add_argument("--t-min", type=float, help="smallest path scale")
            cmd.add_argument("--t-max", type=float, help="largest path scale")
            cmd.add_argument("--t-points", type=int, dest="points", metavar="T_POINTS", help="number of path scales")
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
    """``PathSpec.default(d)`` with the path flags given, and its defaults for the rest."""
    return PathSpec.default(d, **{k: getattr(args, k) for k in ("t_min", "t_max", "points", "seed") if k in args})


def _run_spectrum(args) -> tuple[dict, int]:
    x = serialize.circulant_from_obj(_read_document(args.input), "circulant")
    with np.errstate(over="ignore", invalid="ignore"):  # an eigenvalue that overflows is refused next
        values = spectrum(x)
    if not np.all(np.isfinite(values)):
        raise SchemaError("circulant.row", "an eigenvalue overflows the float range")
    return serialize.spectrum_to_obj(values), 0


def _run_pinv(args) -> tuple[dict, int]:
    x = serialize.circulant_from_obj(_read_document(args.input), "circulant")
    if args.tol is not None and not 0 <= args.tol < 1:  # checked here to name the flag
        raise ValueError(f"tol must be in [0, 1), got {args.tol}")
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
    if f.kind != "poly":
        raise SchemaError("polynomial.kind", "solve expects kind 'poly'")
    result = solve_circ_poly(f.P) if args.tol is None else solve_circ_poly(f.P, tol=args.tol)
    return serialize.solution_set_to_obj(result), _EXIT_BY_STATUS[result.status]


def _run_limit(args) -> tuple[dict, int]:
    """``divisor`` or ``degree``, exit 4 when the report's criterion fails."""
    f = serialize.function_from_obj(_read_document(args.input), "function")
    divisor = args.command == "divisor"
    report = (estimate_divisor if divisor else detect_poly_degree)(f, path=_path_from_args(args, f.d))
    met = report.converged if divisor else report.is_polynomial
    return serialize.limit_report_to_obj(report), 0 if met else 4


#: Subcommand name -> (help text, handler), in the order ``--help`` lists them.
_COMMANDS = {
    "spectrum": ("eigenvalues of a circulant", _run_spectrum),
    "pinv": ("Moore-Penrose pseudoinverse of a circulant", _run_pinv),
    "eval": ("evaluate a function at a point", _run_eval),
    "solve": ("solve a polynomial equation P(Z) = 0", _run_solve),
    "divisor": ("estimate per-channel divisors of a rational function", _run_limit),
    "degree": ("detect polynomial degree from the log-derivative limit", _run_limit),
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        document, code = _COMMANDS[args.command][1](args)
        _write_document(args.output, document)
    except (CircfunError, ValueError, TypeError) as exc:  # SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
