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
breakpoint.  Everything else reads that record: :func:`boundary_values`
takes the last entry of each column, :func:`eval_on_grid` applies a
partial-length step to the entry state of each point's piece, and
:func:`zero_count` counts the zeros of u piece by piece from the phase of
the same map.

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

from .errors import DomainError
from .measures import Measure

_EPS = 2.220446049250313e-16

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


def _column(mu: Measure, z: float, family: str) -> tuple[np.ndarray, np.ndarray]:
    """The column holding ``family`` at every breakpoint, as arrays (u, v)."""
    if family not in _FAMILIES:
        raise DomainError(f"unknown function family {family!r}")
    us, vs = _sweep(mu, z, _FAMILIES[family][0])[:2]
    return np.array(us), np.array(vs)


def eval_on_grid(mu: Measure, z: float, xs, family: str) -> np.ndarray:
    """Evaluate one of cp, sp, sq, cq at arbitrary points in [0,1].

    One sweep records the column's entry state on every piece; each point
    then takes a partial-length step of the piece map from the entry state of
    the piece it lies in (a breakpoint belongs to the piece on its left).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
        raise DomainError("evaluation points outside [0,1]")
    us, vs = _column(mu, z, family)
    i = np.minimum(np.searchsorted(mu._bp[1:], xs), mu.piece_count - 1)
    u, v, hs, d = us[i], vs[i], xs - mu._bp[i], mu._dens[i]
    m = d > 0.0
    rd = np.sqrt(d[m])
    kh = z * rd * hs[m]
    c, s = np.cos(kh), np.sin(kh)
    if _FAMILIES[family][1] == 0:
        out = u + z * v * hs
        out[m] = u[m] * c + v[m] * s / rd
    else:
        out = v.copy()
        out[m] = v[m] * c - u[m] * rd * s
    return 0.0 - out if family == "sp" else out


def zero_count(mu: Measure, z: float, family: str) -> int:
    """Number of zeros in (0, 1] of ``cp`` or ``sq`` at z > 0, in closed form.

    On a piece with density d > 0 the column's u is
    R sin(phi + z sqrt(d) s) / sqrt(d), with phi = atan2(sqrt(d) u, v) at the
    piece's entry, so its zeros in (0, h] are the multiples of pi in
    (phi, phi + z sqrt(d) h].  The integer index of each end (the floor of the
    angle over pi) is held to the sign of the propagated value there, so
    rounding at a breakpoint never counts a zero twice or drops it.  On a
    massless piece u is linear and has a zero iff it changes sign.
    For ``sq`` the count is #{m : z_m < z} over the Dirichlet roots z_m, so
    a Dirichlet eigenfunction's zeros are counted at its certified bracket's
    upper end, where u(1) is away from zero, not at the root itself.
    """
    if family not in ("cp", "sq"):
        raise DomainError(f"zero counts are for cp or sq, got {family!r}")
    us, vs = _column(mu, z, family)
    u, v, u_exit = us[:-1], vs[:-1], us[1:]
    m = mu._dens > 0.0
    # massless pieces: a zero in (0, h] is a sign change or a zero at the exit
    gap, gap_exit = u[~m], u_exit[~m]
    zeros = int(np.sum((gap_exit == 0.0) | (np.sign(gap) * np.sign(gap_exit) < 0.0)))
    u, v, u_exit = u[m], v[m], u_exit[m]
    rd = np.sqrt(mu._dens[m])
    phi = np.arctan2(rd * u, v)
    theta = (phi + z * rd * np.diff(mu._bp)[m]) / math.pi
    entry = np.where(u > 0.0, 0.0, np.where(u < 0.0, -1.0, np.floor(phi / math.pi)))
    exit_ = np.floor(theta)
    # the exit index is even exactly where the value there is positive
    off = (u_exit != 0.0) & ((exit_ % 2 == 1) == (u_exit > 0.0))
    exit_ = np.where(off, exit_ + np.where(theta - exit_ > 0.5, 1.0, -1.0), exit_)
    exit_ = np.where(u_exit == 0.0, np.round(theta), exit_)
    return zeros + int(np.sum(exit_ - entry))
