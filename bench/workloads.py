"""The four benchmark workloads: seeded inputs, timed operations and oracle checks.

A workload is a fixed round of cases. A case is one kind of operation at one
size. Its inputs are a pool of ``POOL`` instances drawn from the run's seed
with the ``circfun.testkit`` generators and kept as plain arrays. A timed
operation builds every circulant, polynomial and function object fresh from
those arrays, so no per-instance cache (``CircPoly._channel_matrix``) carries
from one operation to the next. The library is always called through module
attributes (``cf.solve_circ_poly``), so the tracer's wrappers see every call.

Checks run after the timed window. Up to order ``DENSE_MAX_D`` they use the
testkit dense oracles; above it, a plain ``np.fft`` reference. A check returns
``None`` when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

import circfun as cf
from circfun import testkit as tk

#: Distinct input instances per case; operation k of a case uses instance k % POOL.
POOL = 4

#: Largest order checked with dense d x d oracles.
DENSE_MAX_D = 256

#: Relative tolerance of checks on direct computations.
TOL = 1e-9

#: Finite-difference step of the numeric-derivative operation, and the
#: tolerance of its comparison with the exact derivative (first-order error).
DELTA = 1e-6
TOL_FD = 1e-4


@dataclass(frozen=True)
class Case:
    key: str
    d: int
    n: int  # polynomial degree; 0 where the kind has none
    kind: str


def instance_rng(seed: int, key: str) -> np.random.Generator:
    """One independent stream per (seed, case family), stable across rounds."""
    return np.random.default_rng([seed, zlib.crc32(key.encode())])


def rows_of(poly: cf.CircPoly) -> np.ndarray:
    """Coefficient first rows, shape (degree + 1, d), leading first."""
    return np.array([c.row for c in poly.coeffs])


def poly_of(rows: np.ndarray) -> cf.CircPoly:
    return cf.CircPoly([cf.Circulant(r) for r in rows])


def plant_channel(rows: np.ndarray, channel: int, keep_constant: bool) -> np.ndarray:
    """Zero one eigenchannel in every coefficient (or in all but the constant)."""
    spec = np.fft.fft(rows, axis=1)
    spec[: -1 if keep_constant else None, channel] = 0.0
    return np.fft.ifft(spec, axis=1)


def interleave(reps: dict) -> list:
    """Each key ``reps[key]`` times, spread over the list."""
    return [key for r in range(max(reps.values())) for key, count in reps.items() if r < count]


class Workload:
    name: str
    cases: dict  # key -> Case
    round: list  # case keys of one round, in order
    #: Reference-host seconds of one round, measured when the benchmark was
    #: written. A window of S seconds runs round(S / ROUND_S) rounds, so that
    #: a later commit runs the same ops as its parent.
    ROUND_S: float

    def generate(self, seed: int) -> dict:
        """Case key -> list of POOL instances (dicts of plain arrays)."""
        raise NotImplementedError

    def orders(self) -> list:
        return sorted({c.d for c in self.cases.values()})

    def run(self, case: Case, x: dict):
        raise NotImplementedError

    def fingerprint(self, case: Case, out):
        """A few bytes of the output that repeats of one instance must reproduce."""
        raise NotImplementedError

    def check(self, case: Case, x: dict, out) -> str | None:
        raise NotImplementedError


# --------------------------------------------------------------------- oracles


def dense(row: np.ndarray) -> np.ndarray:
    return tk.to_dense(cf.Circulant(row))


def dense_horner(rows: np.ndarray, zd: np.ndarray) -> np.ndarray:
    acc = dense(rows[0])
    for r in rows[1:]:
        acc = tk.dense_mul(acc, zd) + dense(r)
    return acc


def ref_spectrum(row: np.ndarray) -> np.ndarray:
    """Eigenvalues by explicit Fourier conjugation up to DENSE_MAX_D, by np.fft above."""
    if row.size <= DENSE_MAX_D:
        return np.diag(tk.dense_conjugate(cf.Circulant(row))).copy()
    return np.fft.fft(row)


def channel_horner(spectra: np.ndarray, u: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(u)
    for s in spectra:
        acc = acc * u + s
    return acc


def derivative_rows(rows: np.ndarray) -> np.ndarray:
    n = rows.shape[0] - 1
    return rows[:-1] * np.arange(n, 0, -1)[:, None]


def mismatch(actual, expected, tol: float) -> str | None:
    err = float(np.max(np.abs(actual - expected)))
    scale = 1.0 + float(np.max(np.abs(expected)))
    if err <= tol * scale:
        return None
    return f"max error {err:.3e} exceeds {tol:.0e} x {scale:.3g}"


def dense_residuals(coeff_rows: np.ndarray, root_rows: np.ndarray) -> np.ndarray:
    """||P(Z)||_F by dense Horner for each root, divided by its backward-error
    scale sqrt(d) * sum_k ||C_k||_2 ||Z||_2^(n-k)."""
    zd = np.stack([dense(r) for r in root_rows])
    acc = np.broadcast_to(dense(coeff_rows[0]), zd.shape).copy()
    for r in coeff_rows[1:]:
        acc = acc @ zd + dense(r)
    res = np.sqrt(np.sum(np.abs(acc) ** 2, axis=(1, 2)))
    znorm = np.max(np.abs(np.fft.fft(root_rows, axis=1)), axis=1)
    scale = np.zeros_like(znorm)
    for r in coeff_rows:  # the 2-norm of a circulant is its largest eigenvalue modulus
        scale = scale * znorm + np.max(np.abs(np.fft.fft(r)))
    return res / (np.sqrt(coeff_rows.shape[1]) * scale)


def circ_fingerprint(x: cf.Circulant) -> bytes:
    return x.row[:: max(1, x.d // 8)].tobytes()


# ------------------------------------------------------------------------ eval


class Eval(Workload):
    """One op evaluates one function at one point, across every dispatch threshold."""

    name = "eval"
    ROUND_S = 0.087
    KINDS = (
        "horner",
        "poly_derivative",
        "exppoly_derivative",
        "rational",
        "pinv",
        "numeric_derivative",
    )
    # Visits per round; chosen so that no order takes much more than a quarter
    # of the round's time.
    REPS = {
        2: 4, 3: 4, 8: 4, 16: 4, 31: 4,
        32: 3, 33: 3, 64: 3, 128: 3, 255: 3, 256: 3,
        1024: 4, 8192: 1,
    }  # fmt: skip
    DEGREE = 3

    def __init__(self, reps: dict | None = None):
        reps = reps or self.REPS
        self.cases = {
            f"d{d}/{k}": Case(f"d{d}/{k}", d, self.DEGREE, k) for d in reps for k in self.KINDS
        }
        self.round = [f"d{d}/{k}" for d in interleave(reps) for k in self.KINDS]

    def generate(self, seed):
        pools = {}
        for d in self.orders():
            rng = instance_rng(seed, f"eval/d{d}")
            s = 1.0 / np.sqrt(d)
            insts = [
                {
                    "p": rows_of(tk.random_regular_poly(rng, d, self.DEGREE, s)),
                    "q": rows_of(tk.random_regular_poly(rng, d, 1, s)),
                    "g": rows_of(tk.random_regular_poly(rng, d, 1, s)),
                    "z": tk.random_invertible_circulant(rng, d).row,
                    "direction": tk.random_invertible_circulant(rng, d).row,
                }
                for _ in range(POOL)
            ]
            for k in self.KINDS:
                pools[f"d{d}/{k}"] = insts
        return pools

    def run(self, case, x):
        z = cf.Circulant(x["z"])
        kind = case.kind
        if kind == "horner":
            return poly_of(x["p"]).evaluate(z)
        if kind == "poly_derivative":
            return cf.PolyFunction(poly_of(x["p"])).derivative(z)
        if kind == "exppoly_derivative":
            return cf.ExpPolyFunction(poly_of(x["p"]), poly_of(x["g"])).derivative(z)
        if kind == "rational":
            return cf.RationalFunction(poly_of(x["p"]), poly_of(x["q"])).evaluate_with_report(z)
        if kind == "pinv":
            return cf.pseudoinverse(z)
        inc = cf.IncrementSpec(cf.Circulant(x["direction"]), DELTA)
        return cf.numeric_derivative(cf.PolyFunction(poly_of(x["p"])), z, inc)

    def fingerprint(self, case, out):
        if case.kind == "rational":
            value, zeroed = out
            return circ_fingerprint(value), zeroed
        return circ_fingerprint(out)

    def check(self, case, x, out):
        d, kind, z = case.d, case.kind, x["z"]
        if kind in ("horner", "poly_derivative", "numeric_derivative"):
            rows = x["p"] if kind == "horner" else derivative_rows(x["p"])
            if d <= DENSE_MAX_D:
                expected = dense_horner(rows, dense(z))[0]
            else:
                expected = np.fft.ifft(channel_horner(np.fft.fft(rows, axis=1), np.fft.fft(z)))
            return mismatch(out.row, expected, TOL_FD if kind == "numeric_derivative" else TOL)
        if kind == "exppoly_derivative":
            u = ref_spectrum(z)
            ps = np.array([ref_spectrum(r) for r in x["p"]])
            gs = np.array([ref_spectrum(r) for r in x["g"]])
            p, dp = channel_horner(ps, u), channel_horner(derivative_rows(ps), u)
            g, dg = channel_horner(gs, u), channel_horner(derivative_rows(gs), u)
            return mismatch(ref_spectrum(out.row), (dp + p * dg) * np.exp(g), TOL)
        if kind == "rational":
            value, zeroed = out
            if zeroed:
                return f"channels {zeroed} zeroed at an invertible denominator"
            if d <= DENSE_MAX_D:
                zd = dense(z)
                lhs = tk.dense_mul(dense(value.row), dense_horner(x["q"], zd))
                return mismatch(lhs, dense_horner(x["p"], zd), TOL)
            u = np.fft.fft(z)
            q = channel_horner(np.fft.fft(x["q"], axis=1), u)
            p = channel_horner(np.fft.fft(x["p"], axis=1), u)
            return mismatch(np.fft.fft(value.row) * q, p, TOL)
        # pinv of a point whose eigenvalues all have modulus in [0.5, 1.5]
        if d <= DENSE_MAX_D:
            a = cf.Circulant(z)
            dev = tk.penrose_check(a, out).max_deviation
            na, nx = cf.frobenius_norm(a), cf.frobenius_norm(out)
            bound = TOL * na * nx * max(na, nx)
            return None if dev <= bound else f"Penrose deviation {dev:.3e} exceeds {bound:.3e}"
        return mismatch(np.fft.fft(out.row) * np.fft.fft(z), np.ones(d), TOL)


# ------------------------------------------------------------- solve-recombine


class SolveRecombine(Workload):
    """Regular polynomials with 64 to 4096 roots: recombination does the work."""

    name = "solve-recombine"
    ROUND_S = 11.3
    # (d, n, generator, visits per round). Candidate counts n^d sit on both
    # sides of the solver's 2000-candidate dedup switch; the random d=2 cases
    # are deep channels whose roots are not known in advance. The visits put
    # the median and p75 of the 40 ops of a window inside the run of 13 ops
    # per round that cost 240 to 270 ms ((5,3), (8,2), (12,2)), away from
    # the gaps to the 20 to 60 ms and 175 ms cases below it.
    SPEC = (
        (6, 2, "int", 2),
        (5, 3, "int", 3),
        (8, 2, "int", 4),
        (10, 2, "int", 1),
        (7, 3, "int", 2),
        (12, 2, "int", 6),
        (2, 10, "random", 1),
        (2, 30, "random", 1),
    )

    def __init__(self, spec=None):
        spec = spec or self.SPEC
        self.cases = {f"d{d}n{n}/{g}": Case(f"d{d}n{n}/{g}", d, n, g) for d, n, g, _ in spec}
        reps = {f"d{d}n{n}/{g}": r for d, n, g, r in spec}
        self.round = interleave(reps)

    def generate(self, seed):
        pools = {}
        for key, case in self.cases.items():
            rng = instance_rng(seed, f"solve-recombine/{key}")
            insts = []
            for _ in range(POOL):
                if case.kind == "int":
                    poly, roots = tk.integer_rooted_poly(rng, case.d, case.n)
                    insts.append({"rows": rows_of(poly), "roots": np.array(roots)})
                else:
                    insts.append({"rows": rows_of(tk.random_regular_poly(rng, case.d, case.n))})
            pools[key] = insts
        return pools

    def run(self, case, x):
        return cf.solve_circ_poly(poly_of(x["rows"]))

    def fingerprint(self, case, out):
        return out.status, len(out.roots), circ_fingerprint(out.roots[0]) if out.roots else b""

    def check(self, case, x, out):
        d, n = case.d, case.n
        if out.status is not cf.SolutionStatus.FINITE:
            return f"status {out.status.value}, expected finite"
        if len(out.roots) != n**d:
            return f"{len(out.roots)} roots, expected {n**d}"
        rows = np.array([r.row for r in out.roots])
        spectra = np.fft.fft(rows, axis=1)
        if case.kind == "int":
            # Each channel value must be one of that channel's known roots,
            # and every combination must appear once.
            known = x["roots"]  # (d, n)
            dist = np.abs(spectra[:, :, None] - known[None, :, :])
            picks = np.argmin(dist, axis=2)
            worst = float(np.max(np.min(dist, axis=2)))
            if worst > 1e-6:
                return f"root spectrum {worst:.3e} away from the known channel roots"
            combos = np.unique(picks, axis=0).shape[0]
        else:
            coeff_spec = np.fft.fft(x["rows"], axis=1)
            value = channel_horner(coeff_spec[:, None, :], spectra)
            scale = channel_horner(np.abs(coeff_spec[:, None, :]), np.abs(spectra))
            worst = float(np.max(np.abs(value) / scale))
            if worst > 1e-6:
                return f"root spectrum off its channel polynomial by {worst:.3e}"
            keys = np.round(spectra / (1e-6 * (1 + np.abs(spectra))))
            combos = np.unique(keys, axis=0).shape[0]
        if combos != n**d:
            return f"{combos} distinct root spectra, expected {n**d}"
        worst = float(np.max(dense_residuals(x["rows"], rows)))
        if worst > TOL:
            return f"dense residual {worst:.3e} exceeds {TOL:.0e}"
        return None


# -------------------------------------------------------------- solve-channels


class SolveChannels(Workload):
    """Singular polynomials: scalar root finding does the work, no recombination."""

    name = "solve-channels"
    ROUND_S = 8.8
    # (d, n, visits per round); every case runs once as an infinite family
    # (one channel zero in every coefficient) and once with no solution (one
    # channel a nonzero constant). The op latencies spread from 25 to 700 ms;
    # (16,36), (32,24) and (32,28) fill the gaps in the costs where the median
    # (about 210 ms) and the p90 neighbourhood would otherwise sit.
    SPEC = (
        (16, 8, 1), (32, 8, 1), (16, 16, 1), (64, 8, 1), (16, 20, 1),
        (32, 20, 1), (16, 30, 1), (128, 8, 1), (16, 36, 1), (32, 24, 1),
        (64, 16, 1), (16, 40, 1), (32, 28, 1), (128, 12, 1), (64, 20, 1),
        (32, 40, 1), (16, 60, 1), (64, 30, 1),
    )  # fmt: skip
    STATUSES = ("infinite", "none")

    def __init__(self, spec=None):
        spec = spec or self.SPEC
        self.cases = {
            f"d{d}n{n}/{s}": Case(f"d{d}n{n}/{s}", d, n, s)
            for d, n, _ in spec
            for s in self.STATUSES
        }
        reps = {f"d{d}n{n}": r for d, n, r in spec}
        self.round = [f"{key}/{s}" for key in interleave(reps) for s in self.STATUSES]

    def generate(self, seed):
        pools = {}
        for key, case in self.cases.items():
            rng = instance_rng(seed, f"solve-channels/{key}")
            insts = []
            for _ in range(POOL):
                rows = rows_of(tk.random_regular_poly(rng, case.d, case.n, 1.0 / np.sqrt(case.d)))
                channel = int(rng.integers(case.d))
                rows = plant_channel(rows, channel, keep_constant=case.kind == "none")
                insts.append({"rows": rows, "channel": np.array(channel)})
            pools[key] = insts
        return pools

    def run(self, case, x):
        return cf.solve_circ_poly(poly_of(x["rows"]))

    def fingerprint(self, case, out):
        roots = out.channel_reports[0].roots
        return out.status, out.free_channels, np.array(roots[:1]).tobytes()

    def check(self, case, x, out):
        j = int(x["channel"])
        reports = out.channel_reports
        if case.kind == "none":
            if out.status is not cf.SolutionStatus.NO_SOLUTION or out.roots:
                return f"status {out.status.value}, expected no-solution"
            if reports[j].kind != "nonzero-constant":
                return f"channel {j + 1} reported {reports[j].kind}, expected nonzero-constant"
            return None
        if out.status is not cf.SolutionStatus.INFINITE_FAMILY or out.free_channels != (j + 1,):
            return f"status {out.status.value} free {out.free_channels}, expected channel {j + 1} free"
        coeff_spec = np.fft.fft(x["rows"], axis=1)
        for i, r in enumerate(reports):
            if i == j:
                continue
            if r.kind != "roots" or sum(r.multiplicities) != case.n:
                return f"channel {i + 1}: {r.kind} with {sum(r.multiplicities)} roots, expected {case.n}"
            u = np.array(r.roots)
            value = channel_horner(coeff_spec[:, i : i + 1], u)
            scale = channel_horner(np.abs(coeff_spec[:, i : i + 1]), np.abs(u))
            worst = float(np.max(np.abs(value) / scale))
            if worst > 1e-6:
                return f"channel {i + 1} root off its polynomial by {worst:.3e}"
        # Two members: the first and the last root of each fixed channel, and a
        # small value in the free one. (SolutionSet.sample_members is not used:
        # it materializes every combination of the fixed channels' roots.)
        spectra = np.full((2, case.d), 1e-3, dtype=np.complex128)
        for i, r in enumerate(reports):
            if i != j:
                spectra[:, i] = r.roots[0], r.roots[-1]
        worst = float(np.max(dense_residuals(x["rows"], np.fft.ifft(spectra, axis=1))))
        if worst > TOL:
            return f"dense residual of a family member {worst:.3e} exceeds {TOL:.0e}"
        return None


# ---------------------------------------------------------------- characterize


class Characterize(Workload):
    """Limit estimators: the scan along a path to infinity does the work."""

    name = "characterize"
    ROUND_S = 0.51
    KINDS = (
        "divisor",
        "divisor_degenerate",
        "degree_poly",
        "degree_exppoly",
        "zero_bound_match",
        "zero_bound_mismatch",
    )
    # Visits per round; each order takes about a quarter of the round's time.
    REPS = {4: 10, 16: 7, 64: 3, 256: 1}
    DEGREE = 3  # numerator / polynomial factor; the denominator and exponent have degree 1

    def __init__(self, reps: dict | None = None):
        reps = reps or self.REPS
        self.cases = {
            f"d{d}/{k}": Case(f"d{d}/{k}", d, self.DEGREE, k) for d in reps for k in self.KINDS
        }
        self.round = [f"d{d}/{k}" for d in interleave(reps) for k in self.KINDS]

    def generate(self, seed):
        pools = {}
        for d in self.orders():
            rng = instance_rng(seed, f"characterize/d{d}")
            s = 1.0 / np.sqrt(d)
            insts = []
            for _ in range(POOL):
                p = rows_of(tk.random_regular_poly(rng, d, self.DEGREE, s))
                channel = int(rng.integers(d))
                insts.append(
                    {
                        "p": p,
                        "p_degenerate": plant_channel(p, channel, keep_constant=False),
                        "channel": np.array(channel),
                        "q": rows_of(tk.random_regular_poly(rng, d, 1, s)),
                        "g": rows_of(tk.random_regular_poly(rng, d, 1, s)),
                        "e": tk.random_invertible_circulant(rng, d).row,
                    }
                )
            for k in self.KINDS:
                pools[f"d{d}/{k}"] = insts
        return pools

    def run(self, case, x):
        kind = case.kind
        if kind == "divisor":
            return cf.estimate_divisor(cf.RationalFunction(poly_of(x["p"]), poly_of(x["q"])))
        if kind == "divisor_degenerate":
            f = cf.RationalFunction(poly_of(x["p_degenerate"]), poly_of(x["q"]))
            return cf.estimate_divisor(f)
        if kind == "degree_poly":
            return cf.detect_poly_degree(cf.PolyFunction(poly_of(x["p"])))
        f = cf.ExpPolyFunction(poly_of(x["p"]), poly_of(x["g"]))
        if kind == "degree_exppoly":
            return cf.detect_poly_degree(f)
        # G = A Z + B, so G' = A: the witness A matches, A + E does not.
        witness = x["g"][:1] if kind == "zero_bound_match" else x["g"][:1] + x["e"]
        return cf.entire_zero_bound(f, cf.PolyFunction(poly_of(witness)))

    def fingerprint(self, case, out):
        first = out.channels[0].refined
        head = {k: v for k, v in vars(out).items() if not isinstance(v, tuple)}
        return tuple(sorted(head.items())), np.array(first[-1:]).tobytes()

    def check(self, case, x, out):
        n, kind = case.n, case.kind
        if kind in ("divisor", "divisor_degenerate"):
            if out.status != "rational" or out.k != n - 1:
                return f"divisor {out.status} k={out.k}, expected rational k={n - 1}"
            flagged = [c.channel for c in out.channels if c.flag == "indeterminate"]
            expected = [int(x["channel"]) + 1] if kind == "divisor_degenerate" else []
            if flagged != expected:
                return f"indeterminate channels {flagged}, expected {expected}"
            return None
        if kind == "degree_poly":
            ok = out.is_polynomial and out.degree == n
            return None if ok else f"degree {out.degree}, expected {n}"
        if kind == "degree_exppoly":
            return "exppoly reported as polynomial" if out.is_polynomial else None
        if kind == "zero_bound_match":
            ok = out.matched and out.n == n and out.bound == n**case.d and out.degree_check
            return None if ok else f"zero bound matched={out.matched} n={out.n}, expected n={n}"
        return "mismatching witness reported as matched" if out.matched else None


WORKLOADS = {w.name: w for w in (Eval, SolveRecombine, SolveChannels, Characterize)}
