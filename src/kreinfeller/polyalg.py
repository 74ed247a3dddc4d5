"""Piecewise-polynomial arithmetic for the iterated-integral recursions.

A polynomial holds the Measure it lives on and per-piece coefficient
vectors in the local variable s = x - t_{i-1}, which keeps short
deep-level pieces well conditioned.  Breakpoint, piece-length and density
floats are the measure's own (_bp, _lengths, _dens).  Coefficients are
plain floats; every coefficient produced by the recursions here is
nonnegative, so the integral operators below involve no cancellation and
rounding stays at the ulp level.

The two operators of interest map f to x -> integral_0^x f dt and
x -> integral_0^x f dmu; alternating them builds the coefficient
functions of the measure trigonometric series.  Both are one operator,
_integrate, with per-piece density weights (all 1.0 for dt).  Degrees
are not capped: build_table stops at index 2*order + 1, so the order
alone bounds them.  eval_many runs one Horner pass over all points on
the coefficient rows zero-padded to a common length; the padding keeps
every value bit-identical to a per-piece Horner loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .measures import Measure


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Continuous piecewise polynomial on the pieces of a measure.

    pieces[i] holds ascending coefficients (c0, c1, ...) of the local
    polynomial sum_j c_j * (x - t_i)**j valid on [t_i, t_{i+1}], where the
    t_i are the measure's breakpoints.
    """

    measure: Measure
    pieces: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.pieces) != self.measure.piece_count:
            raise DomainError("piece count must equal the measure's piece count")

    def continuity_defect(self) -> float:
        """Largest relative jump across interior breakpoints.

        Integral outputs are continuous by construction (chained
        accumulation constants), so their defect stays at rounding level;
        raw inputs such as densities may be genuinely discontinuous.
        """
        worst = 0.0
        for i, ell in enumerate(self.measure._lengths[:-1]):
            left = _horner(self.pieces[i], ell)
            right = self.pieces[i + 1][0] if self.pieces[i + 1] else 0.0
            worst = max(worst, abs(left - right) / max(1.0, abs(left), abs(right)))
        return worst

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value: float, measure: Measure):
        return cls(measure, ((float(value),),) * measure.piece_count)

    # -- queries ----------------------------------------------------------

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if not np.all((xs >= 0.0) & (xs <= 1.0)):
            raise DomainError("evaluation points outside [0,1]")
        bp = self.measure._bp
        idx = np.clip(np.searchsorted(bp, xs, side="right") - 1, 0, len(self.pieces) - 1)
        s = xs - bp[idx]
        # cols[j] holds coefficient j of every piece, 0.0 past a piece's
        # degree; those steps keep acc at 0.0, so each value equals a
        # per-piece Horner loop bit for bit.
        width = max(map(len, self.pieces))
        cols = np.array([c + (0.0,) * (width - len(c)) for c in self.pieces]).T
        acc = np.zeros_like(s)
        for col in cols[::-1]:
            acc = acc * s + col[idx]
        return acc

    def value_at_one(self) -> float:
        return _horner(self.pieces[-1], self.measure._lengths[-1])


def _horner(coeffs: Sequence[float], s: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _piece_integral(coeffs: Sequence[float], ell: float) -> float:
    # integral over the full piece of sum c_j s^j = sum c_j ell^{j+1}/(j+1)
    return math.fsum(c * ell ** (j + 1) / (j + 1) for j, c in enumerate(coeffs))


def _integrate(f: PiecewisePolynomial, dens: Sequence[float]) -> PiecewisePolynomial:
    """x -> integral_0^x f(t) rho(t) dt, where rho is dens[i] on piece i.

    Degree rises by one on each piece with mass; a massless piece holds
    the running total.  Accumulation constants are chained left to right
    so the result is continuous by construction.
    """
    pieces = []
    acc = 0.0
    for coeffs, d, ell in zip(f.pieces, dens, f.measure._lengths):
        if d == 0.0:
            pieces.append((acc,))
        else:
            pieces.append((acc,) + tuple(d * c / (j + 1) for j, c in enumerate(coeffs)))
            acc += d * _piece_integral(coeffs, ell)
    return PiecewisePolynomial(f.measure, tuple(pieces))


def integrate_dt(f: PiecewisePolynomial) -> PiecewisePolynomial:
    """Antiderivative x -> integral_0^x f(t) dt, zero at x = 0."""
    return _integrate(f, [1.0] * len(f.pieces))


def integrate_dmu(f: PiecewisePolynomial, mu: Measure) -> PiecewisePolynomial:
    """Measure antiderivative x -> integral_0^x f dmu for piecewise-constant dmu.

    f must live on mu; the result is constant across zero-density pieces.
    """
    if f.measure != mu:
        raise DomainError("integrate_dmu needs a polynomial on the measure it integrates against")
    return _integrate(f, mu._dens.tolist())
