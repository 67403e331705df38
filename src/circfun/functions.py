"""Functions F(Z) = P(Z) Q(Z)^+ exp(G(Z)) of a circulant variable, with
their evaluation and differentiation.

Every function class of the paper has this form: polynomial (Q = I, G = 0),
rational (G = 0) and exponential-polynomial (Q = I).  :class:`CircFunction`
holds the parts P, Q and G, the last two optional, and writes the channel
calculus once; its three subclasses are the JSON kinds.  Because every
circulant of order d diagonalizes in the common Fourier basis, a function
with circulant coefficients splits into d independent scalar "channel"
functions of one complex variable each.  Evaluation works either in the ring
directly (:meth:`CircPoly.evaluate`, the one ring Horner) or channel-wise on
the spectrum; differentiation uses the channel rule: the derivative's i-th
eigenvalue is the ordinary scalar derivative of the i-th channel function at
the i-th eigenvalue of the argument.  A finite-difference variant is provided
for cross-validation.  An exp(G_i), or a product with it, that overflows
raises (:func:`_times_exp`), as does a value that overflows.  A value or
derivative at a matrix point reads the raw coefficient spectra at every order,
as ring Horner does; only the log-derivative,
:meth:`CircFunction.channel_values` (the limit scan's witness) and the solver
read the snapped channel matrix, where exact degree drops must stay exact.
Every channel-wise pass, here, in the solver and in the limit scans, runs the
one scalar Horner loop :func:`circfun.core._horner`, which ring Horner runs at
FFT orders too; P' rides along in the same pass (:func:`_with_derivative`),
and the scale is the loop over |c_k| at |u|.  Every pass runs on all d
channels; the limit scan masks the degenerate ones.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from . import core
from .core import FFT_THRESHOLD, Circulant, _horner, _mul_rows
from .errors import ChannelSingularityError, DimensionError, InvalidIncrementError
from .spectral import (
    _pinv_row, _rank_threshold, forward_rows, from_spectrum, inverse_rows, is_invertible, pseudoinverse, spectrum,
)
from .tolerances import COEFFICIENT_REL_TOL, SINGULARITY_REL_TOL, SPECTRAL_SNAP_REL_TOL


class CircPoly:
    """A polynomial with circulant coefficients, leading coefficient first.

    ``CircPoly([a0, a1, a2])`` represents a0*Z^2 + a1*Z + a2.

    The coefficient rows are transformed once, in one stacked call, when a
    pass first needs them, and cached read-only for the polynomial's
    lifetime: the raw spectra, (degree + 1) * d complex entries; the channel
    matrix, that same array unless an entry snaps, and only then a copy; and
    its moduli (``_moduli``), (degree + 1) * d floats, made with it in the
    one modulus pass of the snap test, with the snapped entries zeroed.
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
        self._channel_degrees: np.ndarray | None = None

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
        sums overflow."""
        if z.d != self.d:
            raise DimensionError(f"order mismatch: point has {z.d}, coefficients have {self.d}")
        if self.d >= FFT_THRESHOLD and self.degree:
            return Circulant(inverse_rows(_horner(self._raw_spectra(), forward_rows(z.row))[None])[0])
        acc = self.coeffs[0].row
        for c in self.coeffs[1:]:
            acc = _mul_rows(acc, z.row, fft=False) + c.row
        return Circulant(acc)

    def _raw_spectra(self) -> np.ndarray:
        """The coefficient rows' transforms, shape (degree + 1, d), unsnapped:
        one stacked :func:`forward_rows` call, each row bit for bit its
        one-row transform.  Computed once and cached, read-only."""
        if self._spectra is None:
            spectra = forward_rows(np.array([c.row for c in self.coeffs]))
            spectra.flags.writeable = False
            self._spectra = spectra
        return self._spectra

    def channel_matrix(self) -> np.ndarray:
        """Spectral coefficients, shape (degree + 1, d); column i is channel i.

        Transform round-off is zeroed by the table's ``SPECTRAL_SNAP_REL_TOL``
        (:mod:`circfun.tolerances`): kept, it would turn exact channel degree
        drops into huge spurious terms at large arguments.  So the degrees,
        the log-derivative, ``channel_values`` and the solver read it; a value
        or derivative at a matrix point reads the raw spectra.  Cached with
        the largest magnitude S, which snapping leaves in place, and the
        moduli ``_moduli``, all from one modulus pass; it is the raw spectra
        array itself when no entry snaps, else a read-only snapped copy.
        """
        if self._channel_matrix is None:
            cm = self._raw_spectra()
            moduli = np.abs(cm)
            top = moduli.max()
            if 0.0 < top < np.inf:  # an overflowed entry would snap every finite one
                snap = moduli <= SPECTRAL_SNAP_REL_TOL * top
                if snap.any():
                    cm = cm.copy()
                    cm[snap] = moduli[snap] = 0.0
                    cm.flags.writeable = False
            moduli.flags.writeable = False
            self._channel_matrix, self._moduli, self._scale = cm, moduli, float(top)
        return self._channel_matrix

    def channel_degrees(self) -> np.ndarray:
        """Effective degree of each channel, -1 where it is identically zero.

        Leading coefficients that vanish by the table's
        ``COEFFICIENT_REL_TOL`` (:mod:`circfun.tolerances`) drop out.
        Computed once from the cached moduli; the returned array is read-only.
        """
        if self._channel_degrees is None:
            self.channel_matrix()  # makes the moduli and S
            nonzero = self._moduli > COEFFICIENT_REL_TOL * self._scale
            degrees = nonzero.shape[0] - 1 - nonzero.argmax(axis=0)
            degrees[~nonzero.any(axis=0)] = -1
            degrees.flags.writeable = False
            self._channel_degrees = degrees
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
    """Regular iff the leading coefficient is invertible: no channel's
    effective degree (:meth:`CircPoly.channel_degrees`) falls below the degree."""
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


@dataclass(frozen=True)
class CircFunction:
    """F(Z) = P(Z) Q(Z)^+ exp(G(Z)), the paper's class of functions of a
    circulant variable, with the pseudoinverse and the exponential applied
    channel-wise.

    The parts are named by their JSON letters.  Q and G are optional: an
    absent part stands for Q = I or G = 0 and is skipped, not evaluated.
    Every part has the same order d, and Q needs at least one invertible
    coefficient, which bounds its root set and keeps the quotient
    well-defined at infinity.  The subclasses are the three JSON kinds; each
    fixes its positional signature, its ``kind`` and the ``LETTERS`` of its
    parts, in JSON order.
    """

    P: CircPoly
    Q: CircPoly | None = None
    G: CircPoly | None = None
    kind: ClassVar[str | None] = None
    LETTERS: ClassVar[tuple[str, ...]] = ("P", "Q", "G")

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

    def degenerate_channels(self) -> np.ndarray:
        """Mask of the channels where F is identically 0 or 0/0: P or Q is
        identically zero there.  exp(G) never vanishes, so G is not checked."""
        mask = self.P.channel_degrees() < 0
        return mask if self.Q is None else mask | (self.Q.channel_degrees() < 0)

    def channel_values(self, u: np.ndarray) -> np.ndarray:
        """F_i(u_i) on every channel of ``u``, shape (d,) or (S, d).  A
        channel where Q_i(u_i) falls to the rank threshold of its point is
        zeroed, as the pseudoinverse zeroes it."""
        return self._values_and_zeroed(u)[0]

    def _values_and_zeroed(self, u: np.ndarray, raw: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """:meth:`channel_values` and the mask of the channels it zeroes (None
        without Q), in one pass of Q; at a NaN threshold neither holds.  With
        ``raw`` the parts' raw spectra, which ring Horner reads, stand in for
        their snapped channel matrices."""
        coefficients = CircPoly._raw_spectra if raw else CircPoly.channel_matrix
        value, zeroed = _horner(coefficients(self.P), u), None
        if self.Q is not None:
            q = _horner(coefficients(self.Q), u)
            magnitude = np.abs(q)
            threshold = _rank_threshold(magnitude)
            keep, zeroed = magnitude > threshold, magnitude <= threshold
            p, value = value, np.zeros_like(value)
            value[keep] = p[keep] / q[keep]
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
        names the offending channels by their 1-based numbers."""
        return self._logderiv(u)

    def _logderiv(self, u: np.ndarray, skip=False, witness=None) -> np.ndarray:
        """P'/P - Q'/Q + (G' - q) on every channel of ``u``, shape (d,) or
        (S, d), with q the values of the ``witness`` function at ``u``.  The
        witness approximates G', so it comes off G' before P'/P is added: a
        large G' would swamp P'/P in their sum.  An absent part contributes
        no term, and without G or a witness nothing is added, so a -0.0
        survives.  G' is evaluated alone, so G itself cannot overflow; a G',
        witness or sum that overflows is not finite, with no warning.  The
        channels that the boolean mask ``skip`` sets (False sets none) are
        not checked for singularities, and their values are meaningless."""
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
            dg = 0.0 if self.G is None else _value_and_derivative(self.G.channel_matrix(), u, part=1)
            return dlog + (dg if witness is None else dg - witness(u))

    def evaluate(self, z: Circulant) -> Circulant:
        return self.evaluate_with_report(z)[0]

    def evaluate_with_report(self, z: Circulant) -> tuple[Circulant, tuple[int, ...]]:
        """Evaluate channel-wise on the raw spectra and report the 1-based
        channels that the rank threshold of Q zeroes (none without Q).  A
        value that overflows at a finite eigenvalue raises, naming them."""
        self._check_order(z)
        u = spectrum(z)
        with np.errstate(over="ignore", invalid="ignore"):  # a value that overflows is named next
            values, zeroed = self._values_and_zeroed(u, raw=True)
        overflow = np.isfinite(u) & ~np.isfinite(values)
        if overflow.any():
            _raise_where(overflow[None], ["F overflows"])
        return from_spectrum(values), () if zeroed is None else tuple((np.flatnonzero(zeroed) + 1).tolist())

    def derivative(self, z: Circulant) -> Circulant:
        """Derivative via the channel rule: eigenvalue i of the result is
        dF_i/du at u = eigenvalue i of z."""
        self._check_order(z)
        return from_spectrum(self.channel_derivatives(spectrum(z)))

    def _check_order(self, z: Circulant) -> None:
        if z.d != self.d:
            raise DimensionError(f"order mismatch: point has {z.d}, function has {self.d}")


class PolyFunction(CircFunction):
    """P(Z) by ring Horner, which takes no transform below ``FFT_THRESHOLD``."""

    kind, LETTERS = "poly", ("P",)

    def __init__(self, P: CircPoly):
        super().__init__(P)

    def evaluate_with_report(self, z: Circulant) -> tuple[Circulant, tuple[int, ...]]:
        self._check_order(z)
        return self.P.evaluate(z), ()


class RationalFunction(CircFunction):
    """P(Z) Q(Z)^+, channel-wise on the raw spectra at every order (the ring
    product adds a pseudoinverse and a product), and in the ring only at a
    point whose spectrum is not finite, or where a channel value overflows."""

    kind, LETTERS = "rational", ("P", "Q")

    def __init__(self, P: CircPoly, Q: CircPoly):
        super().__init__(P, Q)

    def evaluate_with_report(self, z: Circulant) -> tuple[Circulant, tuple[int, ...]]:
        self._check_order(z)
        try:
            with np.errstate(over="raise", invalid="raise"):  # an overflow is taken again in the ring
                u = spectrum(z)
                if np.isfinite(u).all():  # a NaN raises no flag, and would zero every channel
                    values, zeroed = self._values_and_zeroed(u, raw=True)
                    return from_spectrum(values), tuple((np.flatnonzero(zeroed) + 1).tolist())
        except FloatingPointError:
            pass
        inverse, zeroed = _pinv_row(self.Q.evaluate(z))
        return core.mul(self.P.evaluate(z), Circulant(inverse)), tuple((np.flatnonzero(zeroed) + 1).tolist())


class ExpPolyFunction(CircFunction):
    """P(Z) exp(G(Z))."""

    kind, LETTERS = "exppoly", ("P", "G")

    def __init__(self, P: CircPoly, G: CircPoly):
        super().__init__(P, G=G)


#: Function kind name (the JSON "kind") -> class.
FUNCTION_KINDS: dict[str, type[CircFunction]] = {
    cls.kind: cls for cls in (PolyFunction, RationalFunction, ExpPolyFunction)
}


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


def _value_and_derivative(coeffs: np.ndarray, u: np.ndarray, part=slice(None)) -> np.ndarray:
    """(P(u), P'(u)) on every channel of ``u``, shape (d,) or (S, d), for the
    channel coefficients ``coeffs`` of P (raw spectra or channel matrix), in
    one Horner pass over the rows of :func:`_with_derivative`; ``part=1``
    takes P'(u) alone, bit for bit, over the P' rows only."""
    return _horner(_with_derivative(coeffs.reshape(coeffs.shape[0], *(1,) * (u.ndim - 1), -1))[:, part], u)


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
    """Finite-difference increment: step ``delta`` along an invertible direction."""

    direction: Circulant
    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise InvalidIncrementError(f"delta must be positive, got {self.delta}")
        if not is_invertible(self.direction):
            raise InvalidIncrementError("increment direction must be invertible")


def numeric_derivative(f: CircFunction, z: Circulant, inc: IncrementSpec) -> Circulant:
    """First-order difference quotient (F(Z + dZ) - F(Z)) * dZ^-1.

    Converges linearly in ``inc.delta`` to :func:`derivative` at smooth
    points; kept as an independent cross-check of the channel rule.
    """
    if inc.direction.d != z.d:
        raise DimensionError(f"order mismatch: direction has {inc.direction.d}, point has {z.d}")
    dz = core.scale(inc.delta, inc.direction)
    diff = core.add(f.evaluate(core.add(z, dz)), core.neg(f.evaluate(z)))
    return core.mul(diff, pseudoinverse(dz))
