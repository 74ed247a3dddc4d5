"""Closed-form evaluation of the measure trig functions by piece propagation.

On an interval of constant density d the series pairs (cp, sp) and
(cq, sq) satisfy linear ODE systems with constant coefficients,

    cp' = -z sp          sq' =  z cq
    sp' =  z d cp        cq' = -z d sq      (classical derivatives in x)

so (cp, -sp) and (sq, cq) are the two columns of one transfer matrix,
starting from (1, 0) and (0, 1).  Both columns (u, v) cross a piece of
length h by the same map: with k = z sqrt(d), c = cos(kh), s = sin(kh),

    u, v  <-  u c + v s / sqrt(d),  v c - u sqrt(d) s      (d > 0)
    u     <-  u + z v h                                     (d = 0)

:func:`boundary_values` applies this map to both columns and their exact
z-derivatives in one pass, computing each piece's cos and sin once; it
raises :class:`PrecisionError` if a column overflows.  All three routes
raise it too where a piece's phase z sqrt(d) h is not a finite float, and
the two that carry magnitudes refuse a non-finite z up front.  :func:`_sweep`
carries one column's values alone and records them at every breakpoint:
:func:`eval_on_grid` applies a partial-length step to the entry state of
each point's piece.  :func:`zero_count` needs no magnitudes: it carries
the column's Prüfer angle, which passes a multiple of pi at each zero of u.

This route evaluates the same functions as the truncated series but
with per-piece closed forms: no truncation, no alternating-sum
cancellation, stable at large z where the series loses digits in
float64.  Root finding and eigenfunction evaluation build on it; the
series module cross-checks it at moderate z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionError
from .measures import Measure

_EPS = 2.220446049250313e-16
_HALF_PI = 0.5 * math.pi

# family -> (column, component): column 0 is (cp, -sp), column 1 is (sq, cq)
_FAMILIES = {"cp": (0, 0), "sp": (0, 1), "sq": (1, 0), "cq": (1, 1)}
_START = ((1.0, 0.0), (0.0, 1.0))


@dataclass(frozen=True)
class PropagationResult:
    """All four function values and z-derivatives at x = 1."""

    z: float
    sp: float
    cp: float
    sq: float
    cq: float
    sp_prime: float
    cp_prime: float
    sq_prime: float
    cq_prime: float
    err_est: float


def _sweep(mu: Measure, z: float, column: int):
    """Carry one column (u, v) across every piece; its values at the K + 1 breakpoints."""
    u, v = _START[column]
    us, vs = [u], [v]
    try:
        for h, d, rd in mu._piece_table:
            if d > 0.0:
                kh = z * rd * h
                c, s = math.cos(kh), math.sin(kh)
                u, v = u * c + v * s / rd, v * c - u * rd * s
            else:
                u = u + z * v * h
            us.append(u)
            vs.append(v)
    except ValueError:  # cos(inf)
        raise _phase_out_of_range(z) from None
    return us, vs


def _phase_out_of_range(z: float) -> PrecisionError:
    """The error for a z at which a piece's phase z sqrt(d) h is not finite."""
    return PrecisionError(f"a piece's phase z*sqrt(d)*h leaves float64 at z={z!r}")


def _check_finite(z: float) -> None:
    if not math.isfinite(z):  # else the overflow check would blame the column
        raise PrecisionError(f"the frequency is not finite: z={z!r}")


def _overflow(z: float, us, vs) -> PrecisionError:
    """The error for a column that overflowed, naming its largest finite entry."""
    reached = max(abs(t) for t in us + vs if math.isfinite(t))
    return PrecisionError(
        f"the solution column overflows float64 at z={z!r} after reaching "
        f"magnitude {reached:.3g}"
    )


def boundary_values(mu: Measure, z: float) -> PropagationResult:
    """Propagate values and z-derivatives of all four functions to x = 1.

    One pass carries both columns, (cp, -sp) as (u0, v0) and (sq, cq) as
    (u1, v1), with their z-derivatives; each massive piece's cos and sin
    serve both.  The running amplitude of column j is max(hi_j, -lo_j).  No
    step maps an inf or nan back to a finite number, so the final state
    shows any overflow on the way.
    """
    _check_finite(z)
    cos, sin = math.cos, math.sin
    u0, v0, u1, v1 = 1.0, 0.0, 0.0, 1.0
    du0 = dv0 = du1 = dv1 = 0.0
    hi0 = hi1 = 1.0
    lo0 = lo1 = -1.0
    try:
        for h, d, rd in mu._piece_table:
            if d > 0.0:
                kh = z * rd * h
                c, s = cos(kh), sin(kh)
                n0 = v0 * c - u0 * rd * s
                n1 = v1 * c - u1 * rd * s
                u0, v0, du0, dv0 = (
                    u0 * c + v0 * s / rd,
                    n0,
                    du0 * c + dv0 * s / rd + h * n0,
                    dv0 * c - du0 * rd * s - h * (u0 * d * c + v0 * rd * s),
                )
                u1, v1, du1, dv1 = (
                    u1 * c + v1 * s / rd,
                    n1,
                    du1 * c + dv1 * s / rd + h * n1,
                    dv1 * c - du1 * rd * s - h * (u1 * d * c + v1 * rd * s),
                )
                if v0 > hi0:
                    hi0 = v0
                elif v0 < lo0:
                    lo0 = v0
                if v1 > hi1:
                    hi1 = v1
                elif v1 < lo1:
                    lo1 = v1
            else:
                u0, du0 = u0 + z * v0 * h, du0 + h * (v0 + z * dv0)
                u1, du1 = u1 + z * v1 * h, du1 + h * (v1 + z * dv1)
            if u0 > hi0:
                hi0 = u0
            elif u0 < lo0:
                lo0 = u0
            if u1 > hi1:
                hi1 = u1
            elif u1 < lo1:
                lo1 = u1
    except ValueError:  # cos(inf)
        raise _phase_out_of_range(z) from None
    amp0, amp1 = max(hi0, -lo0), max(hi1, -lo1)
    if not math.isfinite(amp0 + du0 + dv0):
        raise _overflow(z, *_sweep(mu, z, 0))
    if not math.isfinite(amp1 + du1 + dv1):
        raise _overflow(z, *_sweep(mu, z, 1))
    err = 8.0 * _EPS * max(amp0, amp1) * (len(mu.densities) + abs(z) + 4.0)
    # 0.0 - x rather than -x: an exact zero stays +0.0
    return PropagationResult(z, 0.0 - v0, u0, u1, v1, 0.0 - dv0, du0, du1, dv1, err)


def eval_on_grid(mu: Measure, z: float, xs, family: str) -> np.ndarray:
    """Evaluate one of cp, sp, sq, cq at arbitrary points in [0,1].

    One sweep records the column's entry state on every piece; each point
    then takes a partial-length step of the piece map from the entry state of
    the piece it lies in (a breakpoint belongs to the piece on its left).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
        raise DomainError("evaluation points outside [0,1]")
    if family not in _FAMILIES:
        raise DomainError(f"unknown function family {family!r}")
    column, component = _FAMILIES[family]
    _check_finite(z)
    us, vs = _sweep(mu, z, column)
    if not (math.isfinite(us[-1]) and math.isfinite(vs[-1])):
        raise _overflow(z, us, vs)
    us, vs = np.array(us), np.array(vs)
    i = np.minimum(np.searchsorted(mu._bp[1:], xs), mu.piece_count - 1)
    u, v, hs, d = us[i], vs[i], xs - mu._bp[i], mu._dens[i]
    m = d > 0.0
    rd = np.sqrt(d[m])
    kh = z * rd * hs[m]
    c, s = np.cos(kh), np.sin(kh)
    if component == 0:
        out = u + z * v * hs
        out[m] = u[m] * c + v[m] * s / rd
    else:
        out = v.copy()
        out[m] = v[m] * c - u[m] * rd * s
    return 0.0 - out if family == "sp" else out


def zero_count(mu: Measure, z: float, family: str) -> int:
    """Number of zeros in (0, 1] of ``cp`` or ``sq`` at z > 0, from the Prüfer angle.

    The loop carries the branch integer n and the angle phi in [-pi/2, pi/2]
    of the column (u, v), with u = 0 exactly when Theta = n pi + phi is in
    pi Z.  Theta starts at pi/2 (``cp``) or 0 (``sq``).  A piece of density
    d > 0 turns (sqrt(d) u, v) by z sqrt(d) h; a massless piece keeps v and
    so keeps phi in its branch.  Theta crosses pi Z upwards only, so the
    count is floor(Theta(1) / pi) = n - [phi < 0].  Whether x = 1 counts is
    decided by the rounded final angle, so callers count where the function
    is clearly nonzero at x = 1: for ``sq`` the count is #{m : z_m < z} over
    the Dirichlet roots z_m.
    """
    if family not in ("cp", "sq"):
        raise DomainError(f"zero counts are for cp or sq, got {family!r}")
    n, phi = 0, (_HALF_PI if family == "cp" else 0.0)
    try:
        for h, d, rd in mu._piece_table:
            if d > 0.0:
                psi = math.atan2(rd * math.sin(phi), math.cos(phi)) + z * rd * h
                k = math.floor((psi + _HALF_PI) / math.pi)
                n, psi = n + k, psi - k * math.pi
                phi = math.atan2(math.sin(psi) / rd, math.cos(psi))
            else:
                c = math.cos(phi)
                phi = math.atan2(math.sin(phi) + z * h * c, c)
    except (OverflowError, ValueError):  # floor(inf), floor(nan)
        raise _phase_out_of_range(z) from None
    return n - (phi < 0.0)
