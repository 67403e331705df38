"""JSON forms for circulants, spectra, functions, and reports.

Complex numbers serialize as two-element [re, im] arrays everywhere.  A
circulant is {"d": int, "row": [[re, im], ...]}; a function is
{"kind": kind, "d": int, "P": [circulant, ...]}, of the kind "poly",
"rational", "exppoly" or "meromorphic", with "Q" (rational, meromorphic) and
"G" (exppoly, meromorphic) as required, coefficient lists leading-first.
The letters are the part names of the function: ``functions.FUNCTION_KINDS``
lists the parts each kind reads and writes, in order, and the parts present
give a function's kind.
The channel lists of solution sets and limit reports are written from the
arrays of their tables in numpy passes, with no per-channel record object;
one writer writes every limit report: its fields but ``table``, and that list.
"""

from __future__ import annotations

import cmath
import dataclasses
from typing import Any

import numpy as np

from .characterize import CONVERGED, FLAGS, INDETERMINATE, ChannelTable
from .core import Circulant
from .functions import FUNCTION_KINDS, CircFunction, CircPoly
from .solver import KINDS, SolutionSet


class SchemaError(ValueError):
    """Malformed input document; ``field`` names the offending location."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _pairs(values) -> list:
    """[re, im] pairs of a complex array or sequence, nested as its axes, in
    one pass: the same floats, -0.0 included, as [float(z.real), float(z.imag)]
    of each entry z."""
    return np.ascontiguousarray(values, dtype=np.complex128).view(np.float64).reshape(*np.shape(values), 2).tolist()


def pair_to_complex(value: Any, field: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise SchemaError(field, f"expected a [re, im] number pair, got {value!r}")
    try:
        z = complex(value[0], value[1])
    except OverflowError:  # an integer beyond the float range
        z = complex("inf")
    if not cmath.isfinite(z):
        raise SchemaError(field, f"expected finite numbers, got {value!r}")
    return z


def circulant_to_obj(x: Circulant) -> dict:
    return {"d": x.d, "row": _pairs(x.row)}


def circulant_from_obj(obj: Any, field: str = "circulant") -> Circulant:
    if not isinstance(obj, dict):
        raise SchemaError(field, "expected an object with 'd' and 'row'")
    if "d" not in obj:
        raise SchemaError(f"{field}.d", "missing")
    if "row" not in obj:
        raise SchemaError(f"{field}.row", "missing")
    d = obj["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise SchemaError(f"{field}.d", f"expected an integer >= 2, got {d!r}")
    row = obj["row"]
    if not isinstance(row, list) or len(row) != d:
        raise SchemaError(f"{field}.row", f"expected a list of {d} entries")
    entries = [pair_to_complex(v, f"{field}.row[{i}]") for i, v in enumerate(row)]
    return Circulant(entries)


def spectrum_to_obj(values: np.ndarray) -> dict:
    return {"d": int(values.size), "values": _pairs(values)}


def _poly_from_obj(obj: Any, d: int, field: str) -> CircPoly:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(field, "expected a nonempty list of circulant coefficients")
    coeffs = []
    for i, c in enumerate(obj):
        circ = circulant_from_obj(c, f"{field}[{i}]")
        if circ.d != d:
            raise SchemaError(f"{field}[{i}].d", f"expected order {d}, got {circ.d}")
        coeffs.append(circ)
    return CircPoly(coeffs)


def poly_to_obj(p: CircPoly) -> list:
    return [circulant_to_obj(c) for c in p.coeffs]


def function_to_obj(f: CircFunction) -> dict:
    obj = {"kind": f.kind, "d": f.d}
    for letter in FUNCTION_KINDS[f.kind]:
        obj[letter] = poly_to_obj(getattr(f, letter))
    return obj


def function_from_obj(obj: Any, field: str = "function") -> CircFunction:
    if not isinstance(obj, dict):
        raise SchemaError(field, "expected an object")
    kind = obj.get("kind")
    if kind not in tuple(FUNCTION_KINDS):  # a tuple: JSON lists and objects are unhashable
        *names, last = (repr(k) for k in FUNCTION_KINDS)
        raise SchemaError(f"{field}.kind", f"expected {', '.join(names)} or {last}, got {kind!r}")
    d = obj.get("d")
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise SchemaError(f"{field}.d", f"expected an integer >= 2, got {d!r}")
    parts = {}
    for letter in FUNCTION_KINDS[kind]:
        if letter not in obj:
            raise SchemaError(f"{field}.{letter}", "missing")
        parts[letter] = _poly_from_obj(obj[letter], d, f"{field}.{letter}")
    try:
        return CircFunction(**parts)
    except ValueError as exc:  # only Q is checked beyond its order: it needs an invertible coefficient
        raise SchemaError(f"{field}.Q", str(exc)) from exc


def solution_set_to_obj(s: SolutionSet) -> dict:
    t = s.table
    roots = _pairs(t.roots)
    mults = t.multiplicities.tolist()
    offsets = t.offsets.tolist()
    channels = [
        {
            "channel": i + 1,
            "kind": KINDS[min(degree, 1) + 1],
            "effective_degree": degree if degree >= 0 else None,
            "roots": roots[lo:hi],
            "multiplicities": mults[lo:hi],
        }
        for i, (degree, lo, hi) in enumerate(zip(t.degrees.tolist(), offsets, offsets[1:]))
    ]
    return {
        "status": s.status.value,
        "roots": [{"d": s.roots.rows.shape[1], "row": row} for row in _pairs(s.roots.rows)],
        "residuals": s.residuals.tolist(),
        "free_channels": list(s.free_channels),
        "channels": channels,
    }


def _channel_estimates_to_obj(t: ChannelTable) -> list:
    """The channel records of a limit report, read from its table in numpy
    passes.  A channel's final estimate is the last of its refined sequence,
    which is its raw one where the final error is NaN (None).  An estimate
    that is not finite is written as null: strict JSON has no infinity or
    NaN.  An indeterminate channel holds NaN in every column, so its final
    estimate is null, and its list of estimates is empty."""
    flags = t.flag.tolist()
    ks = t.k.tolist()
    errors = t.final_error.tolist()
    final_values = np.where(np.isnan(t.final_error), t.estimates[-1], t.refined[-1])
    finals = _pairs(final_values)
    estimates = _pairs(t.estimates.T)
    for i, j in np.argwhere(~np.isfinite(t.estimates.T)).tolist():
        estimates[i][j] = None
    for i in np.flatnonzero(~np.isfinite(final_values)).tolist():
        finals[i] = None
    return [
        {
            "channel": i + 1,
            "flag": FLAGS[flag],
            "k": int(ks[i]) if flag == CONVERGED else None,
            "final_estimate": finals[i],
            "final_error": None if errors[i] != errors[i] else errors[i],  # NaN stands for None
            "estimates": estimates[i] if flag != INDETERMINATE else [],
        }
        for i, flag in enumerate(flags)
    ]


def limit_report_to_obj(r) -> dict:
    """A limit report's fields but ``table``, whose records become ``channels``."""
    obj = {field.name: getattr(r, field.name) for field in dataclasses.fields(r) if field.name != "table"}
    obj["channels"] = _channel_estimates_to_obj(r.table)
    return obj


divisor_report_to_obj = limit_report_to_obj  # the benchmark probes' name
