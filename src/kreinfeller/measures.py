"""Probability measures on [0,1] with piecewise-constant density.

The measures of interest are the Cantor-construction approximants: at
refinement level n the unit mass sits on the 2^n surviving ternary
intervals of length 3^-n, weighted by a product of two branch weights.
Level 0 is Lebesgue measure.  Densities are constant per piece, so
cumulative distribution functions are piecewise linear and everything
here can be kept exact in rational arithmetic.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, ResourceError

Rat = Union[int, float, str, Fraction]

MASS_TOL = 1e-12
PIECE_CAP = 200_000


def _frac(x: Rat) -> Fraction:
    # Fraction(float) is exact (binary expansion), which is what we want:
    # no hidden decimal re-rounding.
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class WeightVector:
    """Two branch weights with w1 + w2 = 1 exactly and w1 <= w2.

    Construction canonicalizes the order: the construction is symmetric
    under reflecting [0,1], so the spectrum does not depend on it.
    """

    w1: Fraction
    w2: Fraction

    def __post_init__(self):
        if not (0 < self.w1 < 1 and 0 < self.w2 < 1):
            raise DomainError(f"weights must lie in (0,1), got ({self.w1}, {self.w2})")
        if self.w1 + self.w2 != 1:
            raise DomainError("weights must sum to 1 exactly")
        if self.w1 > self.w2:
            raise DomainError("weights must be canonicalized w1 <= w2; use WeightVector.of")

    @classmethod
    def of(cls, first: Rat, second: Rat | None = None) -> "WeightVector":
        a = _frac(first)
        b = _frac(second) if second is not None else 1 - a
        if a + b != 1:
            raise DomainError(f"weights {a} + {b} != 1 exactly")
        return cls(min(a, b), max(a, b))

    def __str__(self) -> str:
        return f"({self.w1}, {self.w2})"


@dataclass(frozen=True)
class Measure:
    """Borel probability measure on [0,1] given by a piecewise-constant density.

    breakpoints: 0 = t_0 < t_1 < ... < t_K = 1, exact rationals.
    densities:   d_1 ... d_K >= 0, one per interval, exact rationals.

    Instances are immutable; the exact CDF at every breakpoint, float
    views of the grid, densities and piece lengths, and the (h, d, sqrt(d))
    piece table that the propagation sweep reads, are cached at
    construction.
    """

    breakpoints: tuple[Fraction, ...]
    densities: tuple[Fraction, ...]
    # cached views, set by __post_init__ only, excluded from init/equality/repr
    _bp: np.ndarray = field(init=False, compare=False, repr=False)
    _dens: np.ndarray = field(init=False, compare=False, repr=False)
    # float(bp[i+1] - bp[i]), not _piece_table's h = np.diff(_bp): the two differ in the last bit
    _lengths: tuple[float, ...] = field(init=False, compare=False, repr=False)
    _cdf_at_bp: tuple[Fraction, ...] = field(init=False, compare=False, repr=False)
    _piece_table: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        bp, dens = self.breakpoints, self.densities
        if len(bp) < 2 or len(dens) != len(bp) - 1:
            raise DomainError("need K+1 breakpoints for K densities, K >= 1")
        if bp[0] != 0 or bp[-1] != 1:
            raise DomainError("measure must live on [0,1]: breakpoints must start at 0, end at 1")
        lengths = [bp[i + 1] - bp[i] for i in range(len(dens))]
        if any(ell <= 0 for ell in lengths):
            raise DomainError("breakpoints must be strictly increasing")
        if any(d < 0 for d in dens):
            raise DomainError("densities must be nonnegative")
        cum = [Fraction(0)]
        for d, ell in zip(dens, lengths):
            cum.append(cum[-1] + d * ell)
        if abs(float(cum[-1]) - 1.0) > MASS_TOL:
            raise DomainError(f"total mass {float(cum[-1])} differs from 1 beyond {MASS_TOL}")
        object.__setattr__(self, "_bp", np.array([float(t) for t in bp]))
        object.__setattr__(self, "_dens", np.array([float(d) for d in dens]))
        object.__setattr__(self, "_lengths", tuple(map(float, lengths)))
        object.__setattr__(self, "_cdf_at_bp", tuple(cum))
        pieces = zip(np.diff(self._bp).tolist(), self._dens.tolist())
        object.__setattr__(self, "_piece_table", tuple((h, d, math.sqrt(d)) for h, d in pieces))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pieces(cls, breakpoints: Sequence[Rat], densities: Sequence[Rat]) -> "Measure":
        return cls(tuple(_frac(t) for t in breakpoints), tuple(_frac(d) for d in densities))

    @classmethod
    def lebesgue(cls) -> "Measure":
        return cls((Fraction(0), Fraction(1)), (Fraction(1),))

    # -- queries -------------------------------------------------------

    @property
    def piece_count(self) -> int:
        return len(self.densities)

    def cdf_exact(self, t: Rat) -> Fraction:
        tt = _frac(t)
        if tt < 0 or tt > 1:
            raise DomainError(f"cdf argument {t} outside [0,1]")
        i = bisect.bisect_right(self.breakpoints, tt) - 1
        i = min(i, len(self.densities) - 1)
        return self._cdf_at_bp[i] + self.densities[i] * (tt - self.breakpoints[i])

    def sample_grid(self, per_piece: int) -> np.ndarray:
        """Every breakpoint plus ``per_piece - 1`` uniform interior points per piece.

        Piece ``[lo, hi]`` contributes ``lo + (hi - lo) * k / per_piece`` for
        ``k = 0 .. per_piece - 1``; the grid closes with 1, so it has
        ``piece_count * per_piece + 1`` increasing points.
        """
        if per_piece < 1:
            raise DomainError(f"every piece needs at least one sample, got {per_piece}")
        lo, hi = self._bp[:-1, None], self._bp[1:, None]
        grid = lo + (hi - lo) * np.arange(per_piece) / per_piece
        return np.append(grid.ravel(), self._bp[-1])


@dataclass(frozen=True)
class CantorLevel:
    """Construction request: branch weights plus refinement level n >= 0."""

    weights: WeightVector
    level: int

    def __post_init__(self):
        if self.level < 0 or int(self.level) != self.level:
            raise DomainError(f"level must be a nonnegative integer, got {self.level}")


def cantor_approximant(spec: CantorLevel) -> Measure:
    """Level-n approximant of the weighted-Cantor measure.

    Mass sits on the 2^n surviving ternary intervals of length 3^-n;
    the interval reached by branch choices x_1..x_n carries density
    3^n * prod(w_{x_i}).  Removed middle thirds keep explicit zero
    density so the breakpoint grid is exactly the level-n construction.
    """
    n = spec.level
    if n > 60 or (3 * 2**n) > PIECE_CAP:
        raise ResourceError(f"level {n} needs ~{3 * 2**n if n <= 60 else '2^n'} pieces, cap is {PIECE_CAP}")
    w1, w2 = spec.weights.w1, spec.weights.w2
    length = Fraction(1, 3**n)
    # (left endpoint, weight product), kept in ascending order
    intervals: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(1))]
    for step in range(1, n + 1):
        child_len = Fraction(1, 3**step)
        nxt: list[tuple[Fraction, Fraction]] = []
        for left, wprod in intervals:
            nxt.append((left, wprod * w1))
            nxt.append((left + 2 * child_len, wprod * w2))
        intervals = nxt
    scale = 3**n
    breakpoints: list[Fraction] = [Fraction(0)]
    densities: list[Fraction] = []
    cursor = Fraction(0)
    for left, wprod in intervals:
        if left > cursor:
            breakpoints.append(left)
            densities.append(Fraction(0))
        breakpoints.append(left + length)
        densities.append(wprod * scale)
        cursor = left + length
    return Measure(tuple(breakpoints), tuple(densities))


def cdf_sup_distance_exact(a: Measure, b: Measure) -> Fraction:
    """Exact sup-norm distance between two piecewise-linear CDFs.

    |F_a - F_b| is piecewise linear, so its maximum over [0,1] is
    attained at a breakpoint of the merged grid; it suffices to scan
    those points in exact arithmetic.
    """
    merged = sorted(set(a.breakpoints) | set(b.breakpoints))
    return max(abs(a.cdf_exact(t) - b.cdf_exact(t)) for t in merged)


def verify_refinement_identity(mu: Measure, mu_prev: Measure, weights: WeightVector) -> Fraction:
    """Exact maximum defect over [0,1] of the one-step self-similarity

        F(y) = w1 * F_prev(3y) + w2 * F_prev(3y - 2),

    where F_prev is held constant outside [0,1].  Both sides are continuous
    and piecewise linear, with kinks only at the breakpoints of ``mu`` and
    at the images s/3 and (s + 2)/3 of those of ``mu_prev`` (which include
    the clamps at 1/3 and 2/3), so the maximum over those points, taken in
    exact arithmetic, is the supremum.  For a level-n approximant and its
    level-(n-1) parent they are the level-n breakpoints, and zero proves
    the identity on all of [0,1].
    """
    w1, w2 = weights.w1, weights.w2
    mass = mu_prev.cdf_exact(1)

    def prev(s: Fraction) -> Fraction:
        return 0 if s <= 0 else mass if s >= 1 else mu_prev.cdf_exact(s)

    ys = set(mu.breakpoints).union(*((s / 3, (s + 2) / 3) for s in mu_prev.breakpoints))
    return max(abs(mu.cdf_exact(y) - w1 * prev(3 * y) - w2 * prev(3 * y - 2)) for y in ys)
