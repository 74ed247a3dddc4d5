"""Closed-form evaluation of the measure trig functions by piece propagation.

On an interval of constant density d the series pairs (cp, sp) and
(cq, sq) satisfy linear ODE systems with constant coefficients,

    cp' = -z sp          sq' =  z cq
    sp' =  z d cp        cq' = -z d sq      (classical derivatives in x)

so across one piece of length h they advance by an explicit rotation
with wavenumber k = z sqrt(d) (shear maps when d = 0).  Sweeping the
pieces left to right evaluates all four functions, and differentiating
the piece maps in z propagates exact z-derivatives alongside.

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


def _pieces(mu: Measure):
    bp = mu._bp
    return [(bp[i + 1] - bp[i], float(d)) for i, d in enumerate(mu._dens)]


def boundary_values(mu: Measure, z: float) -> PropagationResult:
    """Propagate values and z-derivatives of all four functions to x = 1."""
    cp, sp, dcp, dsp = 1.0, 0.0, 0.0, 0.0
    cq, sq, dcq, dsq = 1.0, 0.0, 0.0, 0.0
    amp = 1.0
    for h, d in _pieces(mu):
        if d > 0.0:
            rd = math.sqrt(d)
            kh = z * rd * h
            c, s = math.cos(kh), math.sin(kh)
            cp, sp, dcp, dsp = (
                cp * c - sp * s / rd,
                sp * c + cp * rd * s,
                dcp * c - dsp * s / rd - h * (cp * rd * s + sp * c),
                dsp * c + dcp * rd * s + h * (cp * d * c - sp * rd * s),
            )
            sq, cq, dsq, dcq = (
                sq * c + cq * s / rd,
                cq * c - sq * rd * s,
                dsq * c + dcq * s / rd + h * (cq * c - sq * rd * s),
                dcq * c - dsq * rd * s - h * (cq * rd * s + sq * d * c),
            )
        else:
            cp, dcp = cp - z * sp * h, dcp - h * (sp + z * dsp)
            sq, dsq = sq + z * cq * h, dsq + h * (cq + z * dcq)
        amp = max(amp, abs(cp), abs(sp), abs(cq), abs(sq))
    err = 8.0 * _EPS * amp * (len(mu.densities) + abs(z) + 4.0)
    return PropagationResult(z, sp, cp, sq, cq, dsp, dcp, dsq, dcq, err)


def eval_on_grid(mu: Measure, z: float, xs, family: str) -> np.ndarray:
    """Evaluate one of cp, sp, sq, cq at arbitrary points in [0,1].

    Single left-to-right sweep: points inside the current piece are
    evaluated from the piece's entry state with a partial-length map,
    then the state advances across the full piece.
    """
    if family not in ("cp", "sp", "sq", "cq"):
        raise DomainError(f"unknown function family {family!r}")
    xs = np.asarray(xs, dtype=float)
    if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
        raise DomainError("evaluation points outside [0,1]")
    order = np.argsort(xs, kind="stable")
    sorted_xs = xs[order]
    out = np.empty_like(sorted_xs)

    p_system = family in ("cp", "sp")
    u, v = 1.0, 0.0  # (cp, sp) or (cq, sq)
    bp = mu._bp
    dens = mu._dens
    pos = 0
    n = sorted_xs.size
    for i in range(len(dens)):
        left, right = bp[i], bp[i + 1]
        d = float(dens[i])
        # points falling in this piece (right-closed on the last piece)
        end = pos
        while end < n and (sorted_xs[end] <= right or i == len(dens) - 1):
            end += 1
        if end > pos:
            hs = sorted_xs[pos:end] - left
            out[pos:end] = _partial(u, v, z, d, hs, p_system, family)
            pos = end
        u, v = _advance(u, v, z, d, right - left, p_system)
        if pos >= n:
            break
    inv = np.empty_like(order)
    inv[order] = np.arange(n)
    return out[inv]


def _advance(u: float, v: float, z: float, d: float, h: float, p_system: bool):
    """One full piece step for (cp, sp) or (cq, sq)."""
    if d > 0.0:
        rd = math.sqrt(d)
        kh = z * rd * h
        c, s = math.cos(kh), math.sin(kh)
        if p_system:
            return u * c - v * s / rd, v * c + u * rd * s
        return u * c - v * rd * s, v * c + u * s / rd
    if p_system:
        return u - z * v * h, v
    return u, v + z * u * h


def _partial(u, v, z, d, hs, p_system, family):
    if d > 0.0:
        rd = math.sqrt(d)
        c = np.cos(z * rd * hs)
        s = np.sin(z * rd * hs)
        if p_system:
            cp = u * c - v * s / rd
            sp = v * c + u * rd * s
            return cp if family == "cp" else sp
        cq = u * c - v * rd * s
        sq = v * c + u * s / rd
        return cq if family == "cq" else sq
    if p_system:
        return (u - z * v * hs) if family == "cp" else np.full_like(hs, v)
    return np.full_like(hs, u) if family == "cq" else v + z * u * hs
