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

:func:`_sweep` is the one loop that applies this map, piece by piece, to
one column and its exact z-derivative, recording the column at every
breakpoint; it raises :class:`PrecisionError` if the column overflows.
:func:`boundary_values` takes the last entry of each column, and
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
    """Carry one column (u, v) and its z-derivative across every piece.

    Returns the lists of u and v at the K + 1 breakpoints, the z-derivatives
    (du, dv) at x = 1 and the largest |u|, |v| met (at least 1).
    """
    u, v = _START[column]
    du = dv = 0.0
    amp = 1.0
    us, vs = [u], [v]
    for h, d, rd in mu._piece_table:
        if d > 0.0:
            kh = z * rd * h
            c, s = math.cos(kh), math.sin(kh)
            u, v, du, dv = (
                u * c + v * s / rd,
                v * c - u * rd * s,
                du * c + dv * s / rd + h * (v * c - u * rd * s),
                dv * c - du * rd * s - h * (u * d * c + v * rd * s),
            )
        else:
            u, du = u + z * v * h, du + h * (v + z * dv)
        amp = max(amp, abs(u), abs(v))
        us.append(u)
        vs.append(v)
    if not math.isfinite(amp + du + dv):
        reached = max(abs(t) for t in us + vs if math.isfinite(t))
        raise PrecisionError(
            f"the solution column overflows float64 at z={z!r} after reaching "
            f"magnitude {reached:.3g}"
        )
    return us, vs, du, dv, amp


def boundary_values(mu: Measure, z: float) -> PropagationResult:
    """Propagate values and z-derivatives of all four functions to x = 1."""
    cps, msps, dcp, dmsp, amp_p = _sweep(mu, z, 0)
    sqs, cqs, dsq, dcq, amp_q = _sweep(mu, z, 1)
    err = 8.0 * _EPS * max(amp_p, amp_q) * (len(mu.densities) + abs(z) + 4.0)
    # 0.0 - x rather than -x: an exact zero stays +0.0
    return PropagationResult(
        z, 0.0 - msps[-1], cps[-1], sqs[-1], cqs[-1], 0.0 - dmsp, dcp, dsq, dcq, err
    )


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
    us, vs = map(np.array, _sweep(mu, z, column)[:2])
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
    for h, d, rd in mu._piece_table:
        if d > 0.0:
            psi = math.atan2(rd * math.sin(phi), math.cos(phi)) + z * rd * h
            k = math.floor((psi + _HALF_PI) / math.pi)
            n, psi = n + k, psi - k * math.pi
            phi = math.atan2(math.sin(psi) / rd, math.cos(psi))
        else:
            c = math.cos(phi)
            phi = math.atan2(math.sin(phi) + z * h * c, c)
    return n - (phi < 0.0)
