"""Functions F(Z) = P(Z) Q(Z)^+ exp(G(Z)) of a circulant variable, with
their evaluation and differentiation.

Every function class of the paper has this form: polynomial (Q = I, G = 0),
rational (G = 0), exponential-polynomial (Q = I) and meromorphic (all three
parts).  :class:`CircFunction` holds the parts, Q and G optional, and every rule
reads the parts present, not the class; so does its JSON kind, in the one table
:data:`FUNCTION_KINDS`.  Its three subclasses only fix a positional signature.
Every circulant of order d diagonalizes in the common Fourier basis, so F splits
into d scalar "channel" functions F_i; F' applies F_i' to the i-th eigenvalue,
and :func:`numeric_derivative` checks it by differencing the F_i (3 transforms
for F = P at FFT orders).  A value or derivative at a matrix point, whose
entries must be finite, has one rule (:meth:`CircFunction._value_at`): F = P
takes ring Horner (:meth:`CircPoly.evaluate`) where finite; then the channel
pass on the raw spectra where every eigenvalue and value is finite; then
F = P Q^+ takes P(Z) pinv(Q(Z)) where finite; else an error names the channels
that are not, as it does for F', which has no ring form, and for an exp(G_i), or
a product with it, that overflows (:func:`_times_exp`).  Only the
log-derivative, :meth:`CircFunction.channel_values` (the limit scan's witness)
and the solver read the snapped channel matrix, where exact degree drops must
stay exact.  Every channel-wise pass runs the one scalar Horner loop
:func:`circfun.core._horner`, which ring Horner runs at FFT orders too; P' rides
along in the same pass (:func:`_with_derivative`), and the scale is the loop
over |c_k| at |u|.  Every pass runs on all d channels; the limit scan masks the
degenerate ones.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import core
from .core import FFT_THRESHOLD, Circulant, _horner, _mul_rows
from .errors import ChannelSingularityError, DimensionError, InvalidIncrementError
from .spectral import (
    _pinv_row, _rank_quotient, _rank_threshold, forward_rows, from_spectrum, inverse_rows, is_invertible, spectrum,
)
from .tolerances import COEFFICIENT_REL_TOL, SINGULARITY_REL_TOL, SPECTRAL_SNAP_REL_TOL


class CircPoly:
    """A polynomial with circulant coefficients, leading coefficient first.

    ``CircPoly([a0, a1, a2])`` represents a0*Z^2 + a1*Z + a2.

    The coefficient rows are transformed once, in one stacked call, when a
    pass first needs them, and cached read-only for the polynomial's
    lifetime: the raw spectra, (degree + 1) * d complex entries, and the
    record of :meth:`channel_matrix`'s one modulus pass: the channel matrix,
    that same array unless an entry snaps, and only then a copy; its moduli
    ``_moduli``, snapped entries zero; their largest S; the channel degrees.
    """

    def __init__(self, coeffs: Sequence[Circulant]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        d = coeffs[0].d
        for c in coeffs:
            if c.d != d:
                raise DimensionError(f"coefficient order mismatch: {c.d} vs {d}")
        self.coeffs = coeffs
        self.d = d
        self._spectra: np.ndarray | None = None
        self._channel_matrix: np.ndarray | None = None

    @classmethod
    def from_scalars(cls, scalars: Sequence[complex], d: int) -> "CircPoly":
        """Polynomial whose coefficients are scalar multiples of the identity."""
        return cls([core.scale(s, core.identity(d)) for s in scalars])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, z: Circulant) -> Circulant:
        """P(Z) by Horner in the ring on the raw coefficient rows: below
        ``FFT_THRESHOLD`` the direct product with Z plus the next row, at FFT
        orders the transform of Z, :func:`circfun.core._horner` over the
        cached raw spectra and one inverse transform, which
        :func:`circfun.spectral.inverse_rows` takes again scaled where its
        sums overflow; where that is not finite, as where a spectrum overflows,
        cached or not, the direct loop with the FFT products of
        :func:`circfun.core._mul_rows`, which scale too."""
        if z.d != self.d:
            raise DimensionError(f"order mismatch: point has {z.d}, coefficients have {self.d}")
        if self.d >= FFT_THRESHOLD and self.degree:
            with np.errstate(over="ignore", invalid="ignore"):  # a value that is not finite runs the loop below
                row = inverse_rows(_horner(self._raw_spectra(), forward_rows(z.row))[None])[0]
            if np.isfinite(row[0]):  # row 0 is the mean of the channel values, which any that is not finite spoils
                return Circulant(row)
        acc = self.coeffs[0].row
        for c in self.coeffs[1:]:
            acc = _mul_rows(acc, z.row, fft=self.d >= FFT_THRESHOLD) + c.row
        return Circulant(acc)

    def _raw_spectra(self) -> np.ndarray:
        """The coefficient rows' transforms, shape (degree + 1, d), unsnapped: one stacked :func:`forward_rows`
        call, each row bit for bit its one-row transform, at FFT orders written over the stacked copy
        of the rows, so the transform makes no second array.  Computed once and cached, read-only."""
        if self._spectra is None:
            rows = np.array([c.row for c in self.coeffs])
            spectra = forward_rows(rows, out=rows)
            spectra.flags.writeable = False
            self._spectra = spectra
        return self._spectra

    def channel_matrix(self) -> np.ndarray:
        """Spectral coefficients, shape (degree + 1, d); column i is channel i.

        Transform round-off is zeroed by the table's ``SPECTRAL_SNAP_REL_TOL``
        (:mod:`circfun.tolerances`) times its row's largest modulus, which
        Z -> 2^k W scales with it: kept, it would turn exact channel degree
        drops into huge spurious terms at large arguments.  The degrees, the
        log-derivative, ``channel_values`` and the solver read it; a value or
        derivative at a matrix point reads the raw spectra.  Cached with the
        moduli ``_moduli``, their largest S and the channel degrees, from one
        modulus pass: the raw spectra array where no entry snaps, else a
        read-only snapped copy.  The one check of coefficient eigenvalues:
        while S is not finite, every call raises ValueError, with no numpy warning.
        """
        if self._channel_matrix is None:
            with np.errstate(over="ignore", invalid="ignore"):  # a spectrum that overflows is refused next
                cm = self._raw_spectra()
                moduli = np.abs(cm)
            tops = moduli.max(axis=1, keepdims=True)
            top = tops.max()
            if not np.isfinite(top):  # S, the largest modulus, is finite iff every entry is
                raise ValueError("polynomial: coefficient eigenvalues must be finite")
            if top > 0.0:
                snap = moduli <= SPECTRAL_SNAP_REL_TOL * tops
                if snap.any():
                    cm = cm.copy()
                    cm[snap] = moduli[snap] = 0.0
                    cm.flags.writeable = False
            nonzero = moduli > COEFFICIENT_REL_TOL * tops
            degrees = nonzero.shape[0] - 1 - nonzero.argmax(axis=0)
            degrees[~nonzero.any(axis=0)] = -1
            moduli.flags.writeable = degrees.flags.writeable = False
            self._channel_matrix, self._moduli, self._channel_degrees, self._scale = cm, moduli, degrees, float(top)
        return self._channel_matrix

    def channel_degrees(self) -> np.ndarray:
        """Effective degree of each channel, -1 where it is identically zero.

        Leading coefficients that vanish by the table's ``COEFFICIENT_REL_TOL``
        (:mod:`circfun.tolerances`) times their own row's largest modulus drop
        out.  Made in the modulus pass of :meth:`channel_matrix`, whose
        ValueError it raises; read-only.
        """
        self.channel_matrix()
        return self._channel_degrees

    def __mul__(self, other: "CircPoly") -> "CircPoly":
        if not isinstance(other, CircPoly):
            return NotImplemented
        out = [core.zero(self.d) for _ in range(self.degree + other.degree + 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = core.add(out[i + j], core.mul(a, b))
        return CircPoly(out)

    def __repr__(self) -> str:
        return f"CircPoly(d={self.d}, degree={self.degree})"


@dataclass(frozen=True)
class Classification:
    """Regular/singular verdict for a circulant polynomial."""

    regular: bool
    vanishing_channels: tuple[int, ...]  # 1-based


def classify(p: CircPoly) -> Classification:
    """Regular iff the leading coefficient is invertible: no channel's effective degree
    (:meth:`CircPoly.channel_degrees`, which refuses eigenvalues that are not finite) falls below the degree."""
    vanishing = tuple((np.flatnonzero(p.channel_degrees() < p.degree) + 1).tolist())
    return Classification(not vanishing, vanishing)


def _with_derivative(coeffs: np.ndarray) -> np.ndarray:
    """The rows of P beside those of P', shape (n + 1, 2, ...) for ``coeffs``
    of shape (n + 1, ...): one :func:`_horner` pass over them gives P(u) and
    P'(u) at indices 0 and 1 of the second axis.  P' leads with a zero row,
    which keeps its value at exact zero until its own first row."""
    n = coeffs.shape[0] - 1
    rows = np.zeros((n + 1, 2) + coeffs.shape[1:], dtype=coeffs.dtype)
    rows[:, 0] = coeffs
    rows[1:, 1] = coeffs[:-1] * np.arange(n, 0, -1).reshape((n,) + (1,) * (coeffs.ndim - 1))
    return rows


def polyval_with_scale(coeffs, u) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_horner` value of scalar polynomials at complex points, with
    the scale sum |c_k| |u|^(n-k), the same pass over |coeffs| at |u|: a
    condition-aware yardstick for deciding whether a value is "zero".  The
    residual gates evaluate channel matrices with it, one column per channel."""
    coeffs, u = np.asarray(coeffs), np.asarray(u, dtype=np.complex128)
    return _horner(coeffs, u), _horner(np.abs(coeffs), np.abs(u))


#: The JSON kind of a function -> the letters of the parts it holds, in JSON order.
FUNCTION_KINDS = {"poly": ("P",), "rational": ("P", "Q"), "exppoly": ("P", "G"), "meromorphic": ("P", "Q", "G")}


@dataclass(frozen=True)
class CircFunction:
    """F(Z) = P(Z) Q(Z)^+ exp(G(Z)), the paper's class of functions of a
    circulant variable, with the pseudoinverse and the exponential applied
    channel-wise.

    The parts are named by their JSON letters.  Q and G are optional: an
    absent part stands for Q = I or G = 0 and is skipped, not evaluated.
    Every part has the same order d, and Q needs at least one invertible
    coefficient, which bounds its root set and keeps the quotient
    well-defined at infinity.  The parts present give the JSON ``kind``;
    the subclasses hold no rule and fix only their positional signatures.
    """

    P: CircPoly
    Q: CircPoly | None = None
    G: CircPoly | None = None

    def __post_init__(self):
        for letter in ("Q", "G"):
            part = getattr(self, letter)
            if part is not None and part.d != self.P.d:
                raise DimensionError(f"order mismatch: P has {self.P.d}, {letter} has {part.d}")
        if self.Q is not None and not any(is_invertible(b) for b in self.Q.coeffs):
            raise ValueError("Q needs at least one invertible coefficient")

    @property
    def d(self) -> int:
        return self.P.d

    @property
    def kind(self) -> str:
        """The JSON kind whose letters in :data:`FUNCTION_KINDS` are the parts present."""
        letters = tuple(letter for letter in "PQG" if getattr(self, letter) is not None)
        return next(kind for kind, kind_letters in FUNCTION_KINDS.items() if kind_letters == letters)

    def degenerate_channels(self) -> np.ndarray:
        """Mask of the channels where F is identically 0 or 0/0: P or Q is
        identically zero there.  exp(G) never vanishes, so G is not checked."""
        mask = self.P.channel_degrees() < 0
        return mask if self.Q is None else mask | (self.Q.channel_degrees() < 0)

    def channel_values(self, u: np.ndarray) -> np.ndarray:
        """F_i(u_i) on every channel of ``u``, shape (d,) or (S, d): 0 where
        Q_i(u_i) falls to the rank threshold of its point, as the pseudoinverse zeroes it;
        NaN where Q_i(u_i) is not finite, which takes no part in that threshold."""
        return self._values_and_zeroed(u)[0]

    def _values_and_zeroed(self, u: np.ndarray, raw: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """:meth:`channel_values` and the mask of the channels it zeroes (None
        without Q), in one pass of Q and the rank rule of the pseudoinverse,
        :func:`circfun.spectral._rank_quotient`.  With ``raw`` the raw spectra,
        which ring Horner reads, stand in for the parts' snapped channel matrices."""
        coefficients = CircPoly._raw_spectra if raw else CircPoly.channel_matrix
        value, zeroed = _horner(coefficients(self.P), u), None
        if self.Q is not None:
            q = _horner(coefficients(self.Q), u)
            magnitudes = np.abs(q)
            value, zeroed = _rank_quotient(value, q, magnitudes, _rank_threshold(magnitudes))
        if self.G is not None:
            g = _horner(coefficients(self.G), u)
            value = _times_exp(value, g, "P exp(G)" if self.Q is None else "P Q^+ exp(G)")
        return value, zeroed

    def channel_derivatives(self, u: np.ndarray) -> np.ndarray:
        """F_i'(u_i) on every channel, on the raw spectra: the quotient rule
        where Q is present, then the product rule with exp(G_i).  A pole, or
        an overflow of exp(G_i) or the product, raises ChannelSingularityError."""
        p, dp = _value_and_derivative(self.P._raw_spectra(), u)
        if self.Q is not None:
            q, dq = _value_and_derivative(self.Q._raw_spectra(), u)
            _raise_on_zero([(q, _horner(np.abs(self.Q._raw_spectra()), np.abs(u)), "Q")])
            dp = (dp * q - dq * p) / (q * q)
        if self.G is not None:
            g, dg = _value_and_derivative(self.G._raw_spectra(), u)
            ratio = p if self.Q is None else p / q
            dp = _times_exp(dp + ratio * dg, g, "F'")
        return dp

    def channel_logderiv(self, u: np.ndarray) -> np.ndarray:
        """F'_i(u_i) / F_i(u_i), computed in ratio form so that it stays
        finite even where F itself would overflow.  A ChannelSingularityError
        names the offending channels by their 1-based numbers; a part whose
        coefficient eigenvalues are not finite is refused by its letter."""
        self._admit_coefficients()
        return self._logderiv(u)

    def _admit_coefficients(self, prefix: str = "") -> None:
        """Read each part's channel matrix, the one check of coefficient eigenvalues, so that the
        first part it refuses is named by ``prefix`` and its letter instead of as "polynomial"."""
        for part, letter in ((self.P, "P"), (self.Q, "Q"), (self.G, "G")):
            try:
                if part is not None:
                    part.channel_matrix()
            except ValueError as error:  # the one refusal, with the part's name
                raise ValueError(prefix + letter + str(error).removeprefix("polynomial")) from None

    def _logderiv(self, u: np.ndarray, skip=False, witness=None) -> np.ndarray:
        """P'/P - Q'/Q + (G' - q) on every channel of ``u``, shape (d,) or
        (S, d), with q the values of the ``witness`` function at ``u``.  The
        witness approximates G', so it comes off G' before P'/P is added: a
        large G' would swamp P'/P in their sum.  An absent part contributes
        no term, and without G or a witness nothing is added, so a -0.0
        survives.  G' is index 1 of the one pass over G and G', whose G is
        dropped, overflowed or not; a G', witness or sum that overflows is
        not finite, with no warning.  The channels that the boolean mask
        ``skip`` sets (False sets none) are not checked for singularities,
        and their values are meaningless."""
        dp, p, p_scale = _quotient_terms(self.P, u)
        checks = [(p, p_scale, "P")]
        if self.Q is not None:
            dq, q, q_scale = _quotient_terms(self.Q, u)
            checks.append((q, q_scale, "Q"))
        _raise_on_zero(checks, skip)
        with np.errstate(divide="ignore", invalid="ignore"):  # a skipped channel may divide 0 by 0
            dlog = dp / p if self.Q is None else dp / p - dq / q
        if self.G is None and witness is None:
            return dlog
        with np.errstate(over="ignore", invalid="ignore"):  # a term that overflows diverges
            dg = 0.0 if self.G is None else _value_and_derivative(self.G.channel_matrix(), u)[1]
            return dlog + (dg if witness is None else dg - witness(u))

    def evaluate(self, z: Circulant) -> Circulant:
        return self.evaluate_with_report(z)[0]

    def evaluate_with_report(self, z: Circulant) -> tuple[Circulant, tuple[int, ...]]:
        """F(z) and the 1-based channels Q's rank threshold zeroes, by :meth:`_value_at`."""
        return self._value_at(z)

    def derivative(self, z: Circulant) -> Circulant:
        """F'(z) by the channel rule and :meth:`_value_at`.  F' has no ring form:
        it is named at a point whose eigenvalue overflows even where it is a float (F = Z)."""
        return self._value_at(z, derivative=True)[0]

    def _admit(self, z: Circulant) -> Circulant:
        """``z``, once its order is F's and its entries are finite."""
        if z.d != self.d:
            raise DimensionError(f"order mismatch: point has {z.d}, function has {self.d}")
        if not np.isfinite(z.row).all():
            raise ValueError("point entries must be finite")
        return z

    def _value_at(self, z: Circulant, derivative=False) -> tuple[Circulant, tuple[int, ...]]:
        """The one rule for F(z), or F'(z) with ``derivative``, and the channels Q's rank
        threshold zeroes, read from the parts present: for F = P, ring Horner where finite; then
        the channel pass on the raw spectra where every eigenvalue and value is finite; then, for
        F = P Q^+, the ring form P(z) pinv(Q(z)) where finite; else ChannelSingularityError
        naming the rest.  F' has no ring form."""
        z, value, ring = self._admit(z), None, not derivative and self.G is None
        if ring and self.Q is None and np.isfinite((value := self.P.evaluate(z)).row).all():
            return value, ()
        with np.errstate(over="ignore", invalid="ignore"):  # what is not finite is taken in the ring or named
            u = spectrum(z)
            values, zeroed = (self.channel_derivatives(u), None) if derivative else self._values_and_zeroed(u, raw=True)
            if np.isfinite(u).all() and np.isfinite(values).all():
                value = from_spectrum(values)
            else:
                if ring and self.Q is not None:
                    inverse, zeroed = _pinv_row(self.Q.evaluate(z))
                    value = core.mul(self.P.evaluate(z), Circulant(inverse))
                if value is None or not np.isfinite(value.row).all():
                    bad = ~(np.isfinite(u) & np.isfinite(values))
                    _raise_where(bad[None], ["F' overflows" if derivative else "F overflows"])
        return value, () if zeroed is None else tuple((np.flatnonzero(zeroed) + 1).tolist())


class PolyFunction(CircFunction):
    """P(Z)."""

    def __init__(self, P: CircPoly):
        super().__init__(P)

    evaluate_with_report = CircFunction.evaluate_with_report  # an own entry, which bench/tracing.py wraps


class RationalFunction(CircFunction):
    """P(Z) Q(Z)^+."""

    def __init__(self, P: CircPoly, Q: CircPoly):
        super().__init__(P, Q)

    evaluate_with_report = CircFunction.evaluate_with_report  # an own entry, which bench/tracing.py wraps


class ExpPolyFunction(CircFunction):
    """P(Z) exp(G(Z))."""

    def __init__(self, P: CircPoly, G: CircPoly):
        super().__init__(P, G=G)


def _times_exp(factor: np.ndarray, g: np.ndarray, product: str) -> np.ndarray:
    """``factor`` * exp(g) for the values ``g`` of G, shape (d,) or (S, d).
    Where g is finite and exp(g) is not, or both factors are finite and the
    ``product`` is not, :func:`_raise_where` names the channels."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named next
        exp_g = np.exp(g)
        value = factor * exp_g
    finite = np.isfinite(value)
    if not finite.all():  # one pass when nothing overflows
        exp_finite = np.isfinite(exp_g)
        bad = np.array([np.isfinite(g) & ~exp_finite, np.isfinite(factor) & exp_finite & ~finite])
        if bad.any():
            _raise_where(bad, ["exp(G) overflows", f"{product} overflows"])
    return value


def _quotient_terms(poly: CircPoly, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """(P'(u), P(u), scale of P(u)) on every channel of ``u``, shape (d,) or
    (S, d), on the snapped channel matrix, as the log-derivative reads it;
    the scale is what :func:`_raise_on_zero` measures P(u) against.  Each is
    bit for bit what :func:`polyval_with_scale` gives on its own rows; the
    scale pass reads the cached moduli of ``poly``."""
    p, dp = _value_and_derivative(poly.channel_matrix(), u)
    return dp, p, _horner(poly._moduli, np.abs(u))


def _value_and_derivative(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(P(u), P'(u)) on every channel of ``u``, shape (d,) or (S, d), for the
    channel coefficients ``coeffs`` of P (raw spectra or channel matrix), in
    one Horner pass over the rows of :func:`_with_derivative`."""
    return _horner(_with_derivative(coeffs.reshape(coeffs.shape[0], *(1,) * (u.ndim - 1), -1)), u)


def _raise_on_zero(checks, skip=False) -> None:
    """Raise ChannelSingularityError where a checked value vanishes on a
    channel that the mask ``skip`` leaves.  ``checks`` lists (values,
    scales, what) in order; :func:`_raise_where` names the channels and the
    part."""
    bad = np.array([np.abs(v) <= SINGULARITY_REL_TOL * s for v, s, _ in checks]) & np.logical_not(skip)
    if bad.any():
        _raise_where(bad, [f"{what} vanishes" for _, _, what in checks])


def _raise_where(bad: np.ndarray, problems: list[str]) -> None:
    """Raise ChannelSingularityError for the masks ``bad`` of ``problems``,
    each (d,) or (S, d), naming the channels of the first point where any
    holds by the first problem there, as a loop over the points would."""
    bad = bad.reshape(len(problems), -1, bad.shape[-1])
    point = np.argmax(np.any(bad, axis=(0, 2)))
    which = np.argmax(np.any(bad[:, point], axis=1))
    numbers = (np.flatnonzero(bad[which, point]) + 1).tolist()
    raise ChannelSingularityError(numbers, f"{problems[which]} at channel(s) {numbers}")


class ChannelView(abc.Sequence):
    """Read-only sequence of the records of a result stored as arrays, such
    as the d channel records of a report: ``build(i)`` makes record i
    (0-based) on access.  A slice gives a tuple; a view equals a view or
    tuple of equal records."""

    __slots__ = ("_build", "_size")
    __hash__ = None

    def __init__(self, build: Callable[[int], object], size: int):
        self._build, self._size = build, size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        channels = range(self._size)[index]  # IndexError out of range; a slice gives a range
        return tuple(map(self._build, channels)) if isinstance(channels, range) else self._build(channels)

    def __iter__(self):
        return map(self._build, range(self._size))

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, (ChannelView, tuple)) else NotImplemented


def _same_columns(a: tuple, b) -> bool:
    """Equality of two tables of arrays (NamedTuples of one type), NaN equal
    to NaN: tuple equality would ask numpy for the truth of an array."""
    return type(a) is type(b) and all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b))


def _column_table(cls):
    """Class decorator for a NamedTuple of arrays: :func:`_same_columns` equality, no hash,
    and a ``_make`` (which ``_replace`` and unpickling use) that marks every array read-only."""
    def _make(cls, columns):
        table = tuple.__new__(cls, columns)
        for column in table:
            column.flags.writeable = False
        return table

    cls._make, cls.__reduce__ = classmethod(_make), lambda self: (type(self)._make, (tuple(self),))
    cls.__eq__, cls.__ne__, cls.__hash__ = _same_columns, lambda self, other: not _same_columns(self, other), None
    return cls


@dataclass(frozen=True)
class IncrementSpec:
    """Finite-difference increment: step ``delta`` along an invertible direction, the one
    invertibility check on :func:`numeric_derivative`'s path."""

    direction: Circulant
    delta: float

    def __post_init__(self):
        if not 0 < self.delta < np.inf:
            raise InvalidIncrementError(f"delta must be positive and finite, got {self.delta}")
        if not is_invertible(self.direction):
            raise InvalidIncrementError("increment direction must be invertible")


def numeric_derivative(f: CircFunction, z: Circulant, inc: IncrementSpec) -> Circulant:
    """First-order difference quotient (F(Z + dZ) - F(Z)) dZ^-1, by channel: one stacked transform of
    Z + dZ and Z, one pass of F at both points, a division by the step the two points' eigenvalues took
    on every channel, one inverse transform.  It never forms P' or G' rows or the quotient and product
    rules, so it cross-checks :meth:`CircFunction.derivative`, to which it converges linearly in
    ``inc.delta`` at smooth points.  dZ is invertible: :class:`IncrementSpec` decides it.
    ChannelSingularityError names the channels where a point's eigenvalue or F is not finite, then the
    step or the quotient ("F' overflows"); InvalidIncrementError those where Z + dZ and Z have equal
    eigenvalues, the step lost in rounding."""
    if inc.direction.d != z.d:
        raise DimensionError(f"order mismatch: direction has {inc.direction.d}, point has {z.d}")
    with np.errstate(over="ignore", invalid="ignore"):  # what is not finite is refused or named next
        u = forward_rows(np.array([f._admit(Circulant(z.row + inc.delta * inc.direction.row)).row, z.row]))
        values = f._values_and_zeroed(u, raw=True)[0]
        lost = (step := u[0] - u[1]) == 0
        quotient = np.divide(values[0] - values[1], step, out=np.zeros_like(step), where=~lost)
    if (bad := ~(np.isfinite(u) & np.isfinite(values))).any():
        _raise_where(bad, ["F overflows"])
    if (bad := ~(np.isfinite(step) & np.isfinite(quotient))).any():
        _raise_where(bad, ["F' overflows"])
    if lost.any():
        numbers = (np.flatnonzero(lost) + 1).tolist()
        raise InvalidIncrementError(f"increment is lost in rounding at channel(s) {numbers}")
    return from_spectrum(quotient)
