"""Eigenvalues and eigenfunctions of the second-order operator attached to a measure.

Neumann eigenvalues are squares of the zeros of ``sp`` at x = 1, the odd
companion of the cosine-family solution ``cp``; Dirichlet eigenvalues are squares
of the positive zeros of ``sq`` at x = 1.  Both boundary values are evaluated through
the exact piecewise closed form in :mod:`kreinfeller.propagation`, so the only
evaluation error is accumulated rounding, reported per point.  A solve needs
only the measure: the scan step's ``q2(1)`` is summed from its pieces, and the
power-series tables of :mod:`kreinfeller.series` stay an independent cross-check.

The scan-and-refine strategy:

* march upward in ``z`` with step ``(pi/4) / max(1, q2(1) * z)``,
* halve the step whenever the boundary value dips under ten times its rounding
  estimate without a sign change.  A close pair inside one step gives no sign
  change, so indices are inferred, not proven: ROADMAP.md's sweep A found 208
  of 1,695 records wrong, in every weight swept, from m = 41-54 at levels 5
  and 7 for w != 1/2, and from m = 7 for w = 1/2 Dirichlet.  Direction 13
  there plans a guard that proves each index by a Prüfer-angle count,
* refine each certified sign change with Brent's method to ``XTOL``, then
  polish with Newton steps,
* re-certify a tight bracket around the refined root whose endpoint values
  exceed their rounding estimates with opposite signs, or raise
  :class:`PrecisionError`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, ConfigError, DomainError, InconsistencyError, PrecisionError
from .measures import Measure
from .propagation import boundary_values, eval_on_grid, zero_count

NEUMANN = "neumann"
DIRICHLET = "dirichlet"
# boundary -> (function whose zeros at x = 1 are the eigenvalues, its companion,
# the eigenfunction's family), named as in kreinfeller.propagation
_SIDES = {NEUMANN: ("sp", "cp", "cp"), DIRICHLET: ("sq", "cq", "sq")}
_BOUNDARIES = tuple(_SIDES)

_DEFAULT_CEILING = 500.0
# Brent's stopping width; it decides no result, as each root is then
# Newton-polished and re-certified by a bracket
XTOL = 1e-12


def _check_boundary(boundary: str) -> str:
    if boundary not in _BOUNDARIES:
        raise DomainError(f"boundary must be one of {_BOUNDARIES}, got {boundary!r}")
    return boundary


@dataclass(frozen=True)
class EigenvalueRecord:
    """One certified eigenvalue.

    ``error_bound`` is not an interval radius for ``z``.  It is the certified
    bracket width ``bracket_hi - bracket_lo`` (in ``z``) plus ``err_est``, the
    rounding estimate of the boundary value ``sp(1)`` or ``sq(1)`` at the root
    (in units of that value, not of ``z``).  The second term usually dominates:
    for w = 3/7, level 4, Dirichlet, m = 16 it reads 1.1e-3 on a bracket
    3e-11 wide.  ROADMAP.md, direction 5(a), plans a sound bound.
    """

    index: int
    boundary: str
    z: float
    lam: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    error_bound: float

    def csv_row(self) -> tuple[str, ...]:
        """The record's ``eigvals`` CSV cells, by the CLI's rules; kept for
        ``perfbench/workloads.py``, its sole caller (ROADMAP direction 1 drops it)."""
        from . import cli

        return tuple(map(cli._cell, cli._eigvals_rows([self])[1]))


@dataclass(frozen=True)
class Eigenfunction:
    """Eigenfunction attached to a certified eigenvalue record.

    Neumann eigenfunctions take the value 1 at x=0 (derivative 0 there);
    Dirichlet eigenfunctions vanish at x=0 and x=1.  Values come from the same
    closed-form propagation used for the root search, so evaluating the
    eigenfunction and locating its eigenvalue cannot silently disagree.
    """

    measure: Measure
    record: EigenvalueRecord


def _boundary_value_fn(mu: Measure, boundary: str) -> Callable[[float], tuple[float, float, float]]:
    """Return z -> (boundary value, rounding estimate, z-derivative of the value)."""
    value = _SIDES[boundary][0]
    pick = operator.attrgetter(value, "err_est", value + "_prime")
    return lambda z: pick(boundary_values(mu, z))


def _q2_at_one(mu: Measure) -> float:
    """q2(1) = integral of t dmu, summed in the float order of
    ``build_table(mu, 2).q_one[2]`` so that the scan grid matches it bit for bit.

    The exact rational sum differs from the table's value in the last bits, which
    moves the scan grid and with it the last digits of some roots.
    """
    lengths, dens = mu._lengths, mu._dens.tolist()
    q1 = acc2 = 0.0
    for ell, d in zip(lengths[:-1], dens):
        acc2 += d * math.fsum([q1 * ell, ell**2 / 2])
        q1 += ell
    ell, d = lengths[-1], dens[-1]
    return ((d / 2) * ell + d * q1) * ell + acc2


def _scan_step(z: float, q2_one: float) -> float:
    return (math.pi / 4.0) / max(1.0, q2_one * z)


def _certify_bracket(
    fn: Callable[[float], tuple[float, float, float]],
    z_root: float,
    lo0: float,
    hi0: float,
) -> tuple[float, float]:
    """Shrink (lo0, hi0) around z_root keeping a certified sign change.

    Certified means each endpoint value exceeds its own rounding estimate, so
    the sign is unambiguous even after widening the value by that estimate.
    Raises :class:`PrecisionError` if no bracket inside (lo0, hi0) is certified.
    """
    delta = max(1e-14 * max(1.0, z_root), 4.0 * math.ulp(z_root))
    while delta < (hi0 - lo0) / 2.0:
        lo = max(lo0, z_root - delta)
        hi = min(hi0, z_root + delta)
        v_lo, e_lo, _ = fn(lo)
        v_hi, e_hi, _ = fn(hi)
        if v_lo * v_hi < 0.0 and abs(v_lo) > e_lo and abs(v_hi) > e_hi:
            return lo, hi
        delta *= 4.0
    raise PrecisionError(
        f"no bracket around the root z={z_root!r} has endpoint values beyond "
        "their rounding estimates"
    )


def record_count(boundary: str, m: int) -> int:
    """How many records :func:`find_eigenvalues` must return to reach index ``m``:
    ``m + 1`` for Neumann, whose m = 0 mode comes first, ``m`` for Dirichlet."""
    return m + 1 if boundary == NEUMANN else m


def find_eigenvalues(
    mu: Measure,
    boundary: str,
    count: int,
    *,
    scan_ceiling: float = _DEFAULT_CEILING,
) -> list[EigenvalueRecord]:
    """First ``count`` eigenvalue records, sorted increasingly.

    For Neumann the list starts with the exact record (index 0, lambda 0);
    positive roots then fill indices 1..count-1.  For Dirichlet indices run
    1..count.  Raises :class:`BracketError` carrying the number of roots found
    if the scan hits ``scan_ceiling`` first.  A series table is accepted in place
    of ``mu`` and stands for its measure.
    """
    _check_boundary(boundary)
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    if not (0.0 < scan_ceiling < math.inf):
        raise ConfigError(f"scan_ceiling must be positive and finite, got {scan_ceiling}")

    mu = mu if isinstance(mu, Measure) else mu.measure
    q2_one = _q2_at_one(mu)
    fn = _boundary_value_fn(mu, boundary)

    records: list[EigenvalueRecord] = []
    if boundary == NEUMANN:
        records.append(EigenvalueRecord(0, NEUMANN, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    needed = count - len(records)
    if needed <= 0:
        return records[:count]

    roots = _scan_positive_roots(fn, q2_one, needed, scan_ceiling)
    start_index = 1
    for k, (z_root, lo, hi, residual, err_est) in enumerate(roots):
        records.append(
            EigenvalueRecord(
                index=start_index + k,
                boundary=boundary,
                z=z_root,
                lam=z_root * z_root,
                bracket_lo=lo,
                bracket_hi=hi,
                residual=residual,
                error_bound=(hi - lo) + err_est,
            )
        )
    zs = [r.z for r in records]
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise InconsistencyError("root sequence is not strictly increasing")
    return records


def _scan_positive_roots(
    fn: Callable[[float], tuple[float, float, float]],
    q2_one: float,
    needed: int,
    scan_ceiling: float,
) -> list[tuple[float, float, float, float, float]]:
    from scipy.optimize import brentq

    roots: list[tuple[float, float, float, float, float]] = []

    # Establish a strictly positive anchor just right of the trivial zero at 0.
    z_lo = min(0.25 * _scan_step(0.0, q2_one), 0.1)
    v_lo, e_lo, _ = fn(z_lo)
    shrink = 0
    while v_lo <= 10.0 * e_lo and shrink < 60:
        z_lo *= 0.5
        v_lo, e_lo, _ = fn(z_lo)
        shrink += 1
    if v_lo <= 0.0:
        raise PrecisionError("could not certify a positive boundary value near z=0")

    step = _scan_step(z_lo, q2_one)
    halvings = 0
    while len(roots) < needed:
        if z_lo >= scan_ceiling:
            raise BracketError(
                f"scan ceiling {scan_ceiling:g} reached with {len(roots)} of "
                f"{needed} positive roots bracketed",
                found=len(roots),
            )
        z_hi = min(z_lo + step, scan_ceiling)
        v_hi, e_hi, _ = fn(z_hi)

        if v_lo * v_hi < 0.0:
            if abs(v_hi) <= e_hi:
                # sign uncertain at the far end: tighten before accepting
                step *= 0.5
                halvings += 1
                if step < 1e-13 * max(1.0, z_lo):
                    raise PrecisionError(
                        f"cannot certify endpoint sign near z={z_hi:.6g}"
                    )
                continue
            roots.append(_refine_root(fn, brentq, z_lo, z_hi))
            z_lo, v_lo, e_lo = z_hi, v_hi, e_hi
            step = _scan_step(z_lo, q2_one)
            halvings = 0
            continue

        if abs(v_hi) < 10.0 * e_hi:
            # grazing pass near a root without an observed crossing
            step *= 0.5
            halvings += 1
            if halvings > 80:
                raise PrecisionError(
                    f"boundary value stays below 10x its rounding estimate near "
                    f"z={z_hi:.6g} without a sign change; root multiplicity "
                    "cannot be resolved at this precision"
                )
            continue

        z_lo, v_lo, e_lo = z_hi, v_hi, e_hi
        step = _scan_step(z_lo, q2_one)
        halvings = 0

    return roots


def _refine_root(fn, brentq, lo, hi):
    z_root = brentq(
        lambda z: fn(z)[0],
        lo,
        hi,
        xtol=XTOL,
        rtol=8.9e-16,
        maxiter=200,
    )
    v_root, e_root, deriv = fn(z_root)
    # Newton polish: brentq stops at xtol, the derivative is available for free
    for _ in range(3):
        if deriv == 0.0 or not (abs(v_root) > e_root):
            break
        z_try = z_root - v_root / deriv
        if not (lo < z_try < hi):
            break
        v_try, e_try, d_try = fn(z_try)
        if abs(v_try) >= abs(v_root):
            break
        z_root, v_root, e_root, deriv = z_try, v_try, e_try, d_try
    residual = abs(v_root)
    c_lo, c_hi = _certify_bracket(fn, z_root, lo, hi)
    # simple-zero check: the z-derivative must clear the rounding noise floor
    if abs(deriv) <= 10.0 * e_root:
        raise PrecisionError(
            f"z-derivative {deriv:.3e} at root z={z_root:.6g} is not separated "
            "from rounding noise; simple-zero certification failed"
        )
    return z_root, c_lo, c_hi, residual, e_root


def eigenfunction(measure: Measure, record: EigenvalueRecord) -> Eigenfunction:
    if record.boundary not in _BOUNDARIES:
        raise DomainError(f"record has unknown boundary {record.boundary!r}")
    return Eigenfunction(measure=measure, record=record)


def eigenfunction_eval(
    ef: Eigenfunction,
    xs: Sequence[float] | np.ndarray,
    normalized: bool = False,
) -> np.ndarray:
    """Eigenfunction values on ``xs`` (each in [0,1]).

    ``normalized=True`` rescales so the L2 norm against the measure equals 1;
    the sign convention keeps the value (Neumann) or slope (Dirichlet) at x=0
    positive.
    """
    vals = eval_on_grid(ef.measure, ef.record.z, xs, _SIDES[ef.record.boundary][2])
    if normalized:
        vals = vals / eigenfunction_l2_norm(ef)
    return vals


def eigenfunction_l2_norm(ef: Eigenfunction) -> float:
    """L2(measure) norm via the closed-form boundary identity.

    The squared norm equals half the product of the companion boundary value
    and the z-derivative of the vanishing boundary value:

    * Neumann, index >= 1:  0.5 * cp(z, 1) * d/dz sp(z, 1)
    * Dirichlet:            0.5 * cq(z, 1) * d/dz sq(z, 1)

    Neumann index 0 is the constant function 1, whose norm is 1 for a
    probability measure.  A nonpositive product beyond rounding tolerance means
    z is not actually a root and is reported as an inconsistency.
    """
    rec = ef.record
    if rec.boundary == NEUMANN and rec.index == 0:
        return 1.0
    value, companion, _ = _SIDES[rec.boundary]
    r = boundary_values(ef.measure, rec.z)
    product = getattr(r, companion) * getattr(r, value + "_prime")
    noise = 10.0 * r.err_est * (1.0 + abs(rec.z))
    if product <= 0.0:
        if abs(product) > noise:
            raise InconsistencyError(
                f"norm identity product {product:.3e} is negative beyond the "
                f"rounding allowance {noise:.3e}; z={rec.z!r} is not a certified root"
            )
        raise PrecisionError(
            f"norm identity product {product:.3e} is indistinguishable from zero"
        )
    return math.sqrt(0.5 * product)


def count_zeros(ef: Eigenfunction) -> int:
    """Number of zeros: Neumann counts the zeros strictly inside (0,1);
    Dirichlet counts the interior zeros plus the two boundary zeros.

    Counted from the Prüfer angle by
    :func:`kreinfeller.propagation.zero_count`: no sampling and no
    magnitudes, so it holds at any z.  That count decides x = 1 by the
    rounded final angle, so each side counts where its function is nonzero
    at x = 1: Neumann at the root, where cp(1) is nonzero, and Dirichlet at
    the certified bracket's upper end, where sq(1) is certified nonzero and
    the zero at x = 1 has just moved inside.
    """
    rec = ef.record
    if rec.boundary == NEUMANN:
        return 0 if rec.index == 0 else zero_count(ef.measure, rec.z, "cp")
    # zero_count covers (0, 1]; a Dirichlet eigenfunction also vanishes at 0
    return zero_count(ef.measure, rec.bracket_hi, "sq") + 1


def fem_oracle(
    mu: Measure,
    mesh_size: float,
    count: int,
    boundary: str,
) -> list[float]:
    """Independent finite-element eigenvalues (piecewise-linear elements).

    The uniform mesh of width ``mesh_size`` must place a node on every
    breakpoint of the measure so element densities are constant and element
    mass integrals are exact.  The pencil lives on the nodes that carry mass:
    a run of massless nodes between mass nodes ``a < b`` is springs in series,
    whose exact static condensation is one spring of stiffness ``1/((b - a) h)``.
    A Dirichlet end grounds the outermost mass node the same way; a massless
    tail at a Neumann end is free and adds nothing.  Each eigenvalue is
    polished by a Rayleigh quotient in energy form, a sum of squares over
    springs, so it suffers no cancellation.

    K and M are tridiagonal, held as sparse bands, and the lowest ``count``
    pairs come from ARPACK in shift-invert mode about sigma: 0 for Dirichlet,
    where K is positive definite, and -1 for Neumann, where K is singular on
    constants.  The start vector is fixed (all ones), so repeated calls give
    the same floats.  Time and memory are O(dofs); ``count`` must stay below
    dofs, and a solve that does not converge raises :class:`PrecisionError`.
    """
    _check_boundary(boundary)
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    n = int(round(1.0 / mesh_size))
    if n < 2 or abs(n * mesh_size - 1.0) > 1e-9:
        raise ConfigError(f"mesh_size {mesh_size!r} does not tile [0,1] evenly")
    for b in mu._bp.tolist():
        node = b * n
        if abs(node - round(node)) > 1e-9:
            raise ConfigError(
                f"breakpoint {b:.6g} is not a mesh node at mesh_size={mesh_size!r}; "
                "align the mesh with the measure's pieces"
            )

    from scipy.sparse import diags
    from scipy.sparse.linalg import ArpackError, eigsh

    h = 1.0 / n
    dens = mu._dens[np.searchsorted(mu._bp, (np.arange(n) + 0.5) / n) - 1]
    # node j touches elements j - 1 and j; keep the nodes that carry mass
    node_mass = (np.append(0.0, dens) + np.append(dens, 0.0)) * h / 3.0
    keep = np.flatnonzero(node_mass > 0.0)
    if boundary == DIRICHLET:
        keep = keep[(keep > 0) & (keep < n)]
    if count >= keep.size:
        raise ConfigError(
            f"requested {count} eigenvalues but the condensed system has only "
            f"{keep.size} degrees of freedom (at most {keep.size - 1} can be "
            "requested); refine the mesh"
        )

    spring = 1.0 / (np.diff(keep) * h)
    ground = (0.0, 0.0)
    if boundary == DIRICHLET:
        ground = (1.0 / (keep[0] * h), 1.0 / ((n - keep[-1]) * h))
    m_diag = node_mass[keep]
    # element a joins mass nodes a and a + 1; past a massless node it is empty
    m_off = dens[keep[:-1]] * h / 6.0
    stiff = diags(
        [-spring, np.append(ground[0], spring) + np.append(spring, ground[1]), -spring],
        [-1, 0, 1],
        format="csc",
    )
    mass = diags([m_off, m_diag, m_off], [-1, 0, 1], format="csc")
    sigma = 0.0 if boundary == DIRICHLET else -1.0
    try:
        _, vecs = eigsh(stiff, count, mass, sigma=sigma, which="LM", v0=np.ones(keep.size))
    except ArpackError as exc:
        raise PrecisionError(
            f"the shift-invert eigensolve for the lowest {count} of {keep.size} "
            f"finite-element pairs failed: {exc}"
        ) from exc

    energy = spring @ np.diff(vecs, axis=0) ** 2
    energy += ground[0] * vecs[0] ** 2 + ground[1] * vecs[-1] ** 2
    weight = m_diag @ vecs**2 + 2.0 * (m_off @ (vecs[:-1] * vecs[1:]))
    return sorted((energy / weight).tolist())


def relative_gap(lam: float, lam_fem: float) -> float:
    """Gap between a spectral and a :func:`fem_oracle` eigenvalue, relative to
    the spectral one, or absolute below 1."""
    return abs(lam - lam_fem) / max(abs(lam), 1.0)
