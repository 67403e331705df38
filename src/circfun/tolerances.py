"""The numerical policy of circfun: every threshold, defined once.

Each verdict the paper states is decided here: a channel is regular when its
leading eigenvalue clears a threshold, a root set is counted after roots
closer than their inclusion discs merge, and a divisor is the integer that
u F'/F settles within a tolerance of.  Other modules import these names and
define no tolerance of their own.

Columns: the value; what the threshold is multiplied by or compared against
(S = max over all spectral coefficients |c_ki|; s(u) = sum_k |c_k| |u|^(n-k),
the Horner scale; "absolute" when nothing); how it grows with the order d;
and whether a verdict keeps under P -> cP for any c != 0.

=====================  ======  =============================  =======  =========
name                   value   against                        in d     P -> cP
=====================  ======  =============================  =======  =========
RANK_REL_TOL           1e-12   d * max_j |u_j| per point      linear   yes
COEFFICIENT_REL_TOL    1e-10   S                              const    yes
SPECTRAL_SNAP_REL_TOL  1e-14   S                              const    yes
SINGULARITY_REL_TOL    1e-12   s(u) per channel               const    yes
ROUND_TOL              1e-3    absolute, on u F'/F - k        const    yes
NOISE_FLOOR            1e-6    absolute, on u F'/F - k        const    yes
CONTRACTION_FACTOR     1.5     the previous error             const    yes
UNIT_MODULUS_TOL       1e-9    absolute, on |direction_j|-1   const    n/a
WITNESS_MATCH_REL_TOL  1e-9    max(witness and G' coeffs, 1)  const    yes
SCALAR_RESIDUAL_TOL    1e-10   max(s(r), 1), monic row        const    yes
CIRC_RESIDUAL_TOL      1e-8    max(s_i(u_i), max(1, S))       const    no
ABERTH_STOP_REL_TOL    1e-14   1 + |z|, monic row             const    yes
POLYGON_FLOOR          1e-3    the row's least positive       const    yes
                               Newton-polygon radius
DIVISION_GUARD         1e-300  absolute, replaces a zero      const    yes
                               Aberth divisor
ISCLOSE_TOL            1e-9    absolute, per row entry        const    no
LATTICE_TOL            1e-6    absolute, dense residual       const    no
NORM_SAFE_MIN          ~1e-146 a plain 2-norm, absolute       const    n/a
=====================  ======  =============================  =======  =========

Where each acts:

* RANK_REL_TOL: an eigenvalue at or below the threshold counts as zero in
  ``pseudoinverse``, ``is_invertible`` and the rational channel values; the
  default ``rel_tol`` of ``pseudoinverse`` is RANK_REL_TOL * d.
* COEFFICIENT_REL_TOL: a spectral coefficient at or below it vanishes, which
  sets each channel's effective degree (``CircPoly.channel_degrees``), and
  through it ``classify`` and the channel kinds of ``solve_circ_poly``.
* SPECTRAL_SNAP_REL_TOL: transform round-off at or below it is snapped to
  zero in ``CircPoly.channel_matrix``, so that exact degree drops stay exact
  where the degrees, the log-derivative, ``channel_values`` and the solver
  read it; a value or derivative at a matrix point reads the raw spectra.
* SINGULARITY_REL_TOL: a channel value of P or Q at or below it times s(u)
  is a zero or pole of the log-derivative and derivative passes.
* ROUND_TOL, NOISE_FLOOR, CONTRACTION_FACTOR: a limit scan converges when
  its last three extrapolated estimates sit within ROUND_TOL of one integer
  and each error is at most CONTRACTION_FACTOR times the one before, or
  below NOISE_FLOOR, where estimates jitter at machine level.
* UNIT_MODULUS_TOL: the entries of a ``PathSpec`` direction.
* WITNESS_MATCH_REL_TOL: a zero-count witness equals G' channel-wise, and
  the report cross-checks n against deg P.
* SCALAR_RESIDUAL_TOL, CIRC_RESIDUAL_TOL: the default ``tol`` of
  ``solve_scalar_poly`` and ``solve_circ_poly``.  The row gate accepts a
  root when |p(r)| <= tol * max(s(r), 1); the recombination gate accepts a
  channel value when it is at most tol * max(s_i, max(1, S)), and the ring
  check bounds ||P(Z)||_F by the 2-norm of those bounds, which grows like
  sqrt(d); an overflowed bound fails.
* ABERTH_STOP_REL_TOL: a row leaves Ehrlich-Aberth when every correction is
  at most it times 1 + |z|.
* POLYGON_FLOOR: a zero starting radius is raised to it times the row's
  smallest positive one, so that starting points stay distinct.
* ISCLOSE_TOL: the default of ``Circulant.isclose``.
* LATTICE_TOL: the residual a lattice point of ``testkit.brute_force_roots``
  must reach.

Rules with no constant of their own:

* Inclusion discs have the slack 4 n eps s(z) on |p(z)| (a Horner rounding
  bound for degree n), so their radii are relative to s and keep under
  P -> cP.
* The floor 1 in max(s(r), 1) of the row gate is absolute: rows are monic,
  so it keeps under P -> cP, but not under u -> lambda u.  For roots of
  small modulus it bounds |p| by an absolute tol, which any nearby point
  passes.
* The floor 1 in max(1, S) of the recombination gate is absolute: below
  S = 1 the bound stops shrinking with c, so it does not keep under
  P -> cP.
* NORM_SAFE_MIN, sqrt(tiny / eps): below it, underflowed squares start to
  cost a 2-norm accuracy, so ``core._norm2`` rescales such a row, and one
  that overflowed, by the power of two at its largest entry.  That changes
  no bit of any value, and no verdict.
"""

import sys

RANK_REL_TOL = 1e-12
COEFFICIENT_REL_TOL = 1e-10
SPECTRAL_SNAP_REL_TOL = 1e-14
SINGULARITY_REL_TOL = 1e-12
ROUND_TOL = 1e-3
NOISE_FLOOR = 1e-6
CONTRACTION_FACTOR = 1.5
UNIT_MODULUS_TOL = 1e-9
WITNESS_MATCH_REL_TOL = 1e-9
SCALAR_RESIDUAL_TOL = 1e-10
CIRC_RESIDUAL_TOL = 1e-8
ABERTH_STOP_REL_TOL = 1e-14
POLYGON_FLOOR = 1e-3
DIVISION_GUARD = 1e-300
ISCLOSE_TOL = 1e-9
LATTICE_TOL = 1e-6
NORM_SAFE_MIN = (sys.float_info.min / sys.float_info.epsilon) ** 0.5
