"""Convergence-rate experiments and audits of proven inequalities.

The weighted refinement construction converges geometrically in CDF
sup-distance (one step costs at most ``w2**n``, the whole tail at most
``w2**n / w1``).  Eigenvalues and eigenfunctions inherit that rate as an
upper bound: successive gaps are at most ``c * w2**n``.  The bound is not
tight.  A moment expansion of one refinement step predicts faster per-level
contraction: ``(w1**2 + w2**2) / 3`` for Neumann eigenvalues, and ``1/3`` for
Dirichlet eigenvalues and for eigenfunctions, except that symmetric weights
give ``(w1**2 + w2**2) / 3 = 1/6`` throughout.  The experiments here measure
successive gaps between consecutive refinement levels and fit log-linear decay
slopes.  The limit objects are never treated as known: every reported quantity
is a Cauchy difference between computable levels.

``bound_audit`` re-checks, numerically and where possible in exact rational
arithmetic, every inequality the rest of the package relies on.  A violation
is a bug by construction, so the audit raises on one.

The reports are plain data; ``cli`` turns them into CSV and JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConfigError, InconsistencyError
from .measures import (
    CantorLevel,
    Measure,
    WeightVector,
    cantor_approximant,
    cdf_sup_distance_exact,
    verify_refinement_identity,
)
from .propagation import boundary_values, eval_on_grid
from .series import TrigTable, build_table
from .spectrum import NEUMANN, XTOL, eigenfunction, eigenfunction_eval, find_eigenvalues, record_count

STATUS_OK = "ok"
STATUS_CONVERGED = "converged below tolerance"

DEFAULT_AUDIT_Z_GRID = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0)

def _check_levels(levels: Sequence[int], minimum: int) -> tuple[int, ...]:
    out = tuple(int(n) for n in levels)
    if len(out) < minimum:
        raise ConfigError(f"need at least {minimum} levels, got {len(out)}")
    if any(n < 0 for n in out):
        raise ConfigError("levels must be nonnegative")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(f"levels must be strictly ascending, got {out}")
    return out


def _fit_log_gaps(
    gap_levels: Sequence[int], gaps: Sequence[float], floor: float
) -> tuple[float | None, float | None, str]:
    """Least-squares slope of log(gap) against level.

    Gaps at or below ``floor`` are treated as converged-to-roundoff and
    excluded; with fewer than two informative gaps there is nothing to fit.
    Returns (slope, slope change when the deepest gap is dropped, status).
    """
    pts = [(n, g) for n, g in zip(gap_levels, gaps) if g > floor]
    if len(pts) < 2:
        return None, None, STATUS_CONVERGED
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.log(np.array([p[1] for p in pts]))
    slope = float(np.polyfit(xs, ys, 1)[0])
    drop_delta = None
    if len(pts) >= 3:
        slope_wo = float(np.polyfit(xs[:-1], ys[:-1], 1)[0])
        drop_delta = slope - slope_wo
    return slope, drop_delta, STATUS_OK


def _envelope_constant(
    gap_levels: Sequence[int], gaps: Sequence[float], ratio: float
) -> float | None:
    """Smallest C with gap_n <= C * ratio**n across the measured gaps."""
    vals = [g / ratio**n for n, g in zip(gap_levels, gaps) if g > 0.0]
    return max(vals) if vals else None


@dataclass(frozen=True)
class RateReport:
    """Eigenvalue gaps between consecutive refinement levels, with fits.

    ``lambdas[i][j]`` is the eigenvalue for index ``indices[i]`` at level
    ``levels[j]``; ``successive_gaps[i][j]`` the absolute difference between
    levels ``levels[j]`` and ``levels[j+1]``.  ``fitted_rate_per_m`` holds the
    log-linear decay slope.  log w2 is the proven upper envelope of that slope,
    not its value: the moment expansion of one refinement step predicts
    log((w1**2 + w2**2) / 3) for Neumann and for symmetric weights, log(1/3)
    for Dirichlet with w1 != w2.  ``envelope_constant_per_m`` is the smallest C
    with gap <= C * w2**n over the measured range — reported, never assumed.
    """

    weights: WeightVector
    boundary: str
    indices: tuple[int, ...]
    levels: tuple[int, ...]
    lambdas: tuple[tuple[float, ...], ...]
    cdf_dist_bounds: tuple[float, ...]
    successive_gaps: tuple[tuple[float, ...], ...]
    fitted_rate_per_m: tuple[float | None, ...]
    envelope_constant_per_m: tuple[float | None, ...]
    fit_drop_deepest_delta: tuple[float | None, ...]
    status_per_m: tuple[str, ...]


def eigenvalue_rate_experiment(
    w: WeightVector,
    levels: Sequence[int],
    boundary: str,
    m_max: int,
) -> RateReport:
    """Track eigenvalues 1..m_max across refinement levels and fit decay slopes.

    The gap between levels n and n' is assigned to the smaller level, matching
    the geometric bound's exponent.  A gap below the solver's Brent tolerance
    ``XTOL`` times the eigenvalue scale counts as converged; an index whose
    every gap is converged reports the flat-sequence status instead of a slope.
    """
    levels = _check_levels(levels, minimum=3)
    if m_max < 1:
        raise ConfigError(f"m_max must be >= 1, got {m_max}")

    count = record_count(boundary, m_max)
    per_level: list[list[float]] = []
    for n in levels:
        mu = cantor_approximant(CantorLevel(w, n))
        recs = find_eigenvalues(mu, boundary, count)
        lams = [r.lam for r in recs if r.index >= 1]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise InconsistencyError(
                f"eigenvalues not strictly increasing at level {n}: {lams}"
            )
        per_level.append(lams)

    indices = tuple(range(1, m_max + 1))
    lambdas = tuple(
        tuple(per_level[j][i] for j in range(len(levels))) for i in range(m_max)
    )
    gaps = tuple(
        tuple(abs(row[j + 1] - row[j]) for j in range(len(levels) - 1))
        for row in lambdas
    )
    w2 = float(w.w2)
    bounds = tuple(float(Fraction(w.w2) ** n / w.w1) for n in levels)

    slopes, envs, deltas, statuses = [], [], [], []
    gap_levels = levels[:-1]
    for i in range(m_max):
        scale = max(1.0, max(abs(v) for v in lambdas[i]))
        floor = XTOL * scale
        slope, delta, status = _fit_log_gaps(gap_levels, gaps[i], floor)
        slopes.append(slope)
        deltas.append(delta)
        statuses.append(status)
        envs.append(_envelope_constant(gap_levels, gaps[i], w2))

    return RateReport(
        weights=w,
        boundary=boundary,
        indices=indices,
        levels=levels,
        lambdas=lambdas,
        cdf_dist_bounds=bounds,
        successive_gaps=gaps,
        fitted_rate_per_m=tuple(slopes),
        envelope_constant_per_m=tuple(envs),
        fit_drop_deepest_delta=tuple(deltas),
        status_per_m=tuple(statuses),
    )


@dataclass(frozen=True)
class FunctionRateReport:
    """Sup-norm gaps of one eigenfunction across refinement levels."""

    weights: WeightVector
    boundary: str
    index: int
    levels: tuple[int, ...]
    sup_gaps: tuple[float, ...]
    fitted_rate: float | None
    envelope_constant: float | None
    fit_drop_deepest_delta: float | None
    status: str
    grid_size: int


def refined_grid(w: WeightVector, level: int) -> np.ndarray:
    """Breakpoints of the level-``level`` approximant plus 16 uniform points
    per interval.  Eigenfunction kinks sit exactly on measure breakpoints, so
    uniform-only grids systematically underestimate sup-norm gaps.
    """
    return cantor_approximant(CantorLevel(w, level)).sample_grid(17)


def eigenfunction_rate_experiment(
    w: WeightVector,
    levels: Sequence[int],
    boundary: str,
    m: int,
) -> FunctionRateReport:
    """Sup-norm successive gaps of the index-``m`` eigenfunction across levels.

    All levels are evaluated on one shared grid: the breakpoints of the
    approximant one level deeper than the deepest requested, refined with 16
    uniform points per interval.
    """
    levels = _check_levels(levels, minimum=3)
    min_index = 0 if boundary == NEUMANN else 1
    if m < min_index:
        raise ConfigError(f"index must be >= {min_index} for {boundary}, got {m}")

    grid = refined_grid(w, max(levels) + 1)

    count = record_count(boundary, m)
    values: list[np.ndarray] = []
    for n in levels:
        mu = cantor_approximant(CantorLevel(w, n))
        rec = find_eigenvalues(mu, boundary, count)[-1]
        values.append(eigenfunction_eval(eigenfunction(mu, rec), grid))

    gaps = tuple(
        float(np.max(np.abs(values[j + 1] - values[j])))
        for j in range(len(levels) - 1)
    )
    gap_levels = levels[:-1]
    slope, delta, status = _fit_log_gaps(gap_levels, gaps, floor=1e-13)
    env = _envelope_constant(gap_levels, gaps, float(w.w2))
    return FunctionRateReport(
        weights=w,
        boundary=boundary,
        index=m,
        levels=levels,
        sup_gaps=gaps,
        fitted_rate=slope,
        envelope_constant=env,
        fit_drop_deepest_delta=delta,
        status=status,
        grid_size=int(grid.size),
    )


# --- proven-inequality audit -------------------------------------------------

@dataclass(frozen=True)
class AuditRow:
    bound: str
    instance: str
    measured: float
    limit: float
    ok: bool

    @property
    def slack(self) -> float:
        return self.limit - self.measured


def _row(bound: str, instance: str, measured, limit, allow=0) -> AuditRow:
    """The one pass rule: ``measured <= limit + allow``, decided on the values
    as given, so Fraction rows with ``allow=0`` stay exact; the row then holds
    builtins, since numpy scalars serialize badly."""
    return AuditRow(bound, instance, float(measured), float(limit), bool(measured <= limit + allow))


@dataclass(frozen=True)
class AuditReport:
    weights: WeightVector
    levels: tuple[int, ...]
    rows: tuple[AuditRow, ...]

    def violations(self) -> list[AuditRow]:
        return [r for r in self.rows if not r.ok]

    def worst_slack_per_bound(self) -> dict[str, AuditRow]:
        worst: dict[str, AuditRow] = {}
        for row in self.rows:
            cur = worst.get(row.bound)
            if cur is None or row.slack < cur.slack:
                worst[row.bound] = row
        return worst


# Sup-gap constants per solution family, from summing the coefficient-gap
# inequality.  The even families sum to 2 z^2 e^{z^2}; the odd ones carry an
# extra factor z, and the one normalized by the CDF keeps its order-one term
# |F_n - F_m| <= dist, hence the added z * dist.
def even_family_gap_constant(z: float) -> float:
    return 2.0 * z * z * math.exp(z * z)


def sq_gap_constant(z: float) -> float:
    return 2.0 * abs(z) ** 3 * math.exp(z * z)


def sp_gap_constant(z: float) -> float:
    return abs(z) + 2.0 * abs(z) ** 3 * math.exp(z * z)


def deriv_gap_sum(z: float) -> float:
    # sum_{n>=1} (2n+1) z^{2n} / (n-1)!  ==  z^2 e^{z^2} (2 z^2 + 3)
    return z * z * math.exp(z * z) * (2.0 * z * z + 3.0)


_FAMILY_CONSTANTS = {
    "cp": even_family_gap_constant,
    "cq": even_family_gap_constant,
    "sq": sq_gap_constant,
    "sp": sp_gap_constant,
}

# rounding allowance for float-route rows; exact rows use none
def _allow(limit: float) -> float:
    return 1e-10 + 1e-12 * abs(limit)


# The four alternation families of the coefficient functions, in the order of
# the factorial rows: name -> (coefficient functions, parity of the index,
# the functions whose second coefficient drives the factorial envelope).
_ALTERNATIONS = {
    "p-odd": ("p_fun", 1, "q_fun"),
    "p-even": ("p_fun", 0, "p_fun"),
    "q-odd": ("q_fun", 1, "p_fun"),
    "q-even": ("q_fun", 0, "q_fun"),
}
# the coefficient-gap rows list the same families in this order
_GAP_ORDER = ("q-even", "p-even", "q-odd", "p-odd")


def bound_audit(
    w: WeightVector,
    levels: Sequence[int],
    coeff_order: int = 12,
    raise_on_violation: bool = True,
) -> AuditReport:
    """Re-verify every inequality the package relies on, for all level pairs.

    Exact rational arithmetic decides the CDF rows, the self-similarity step
    included; everything else is float evaluation with a tiny rounding
    allowance.  Any violated row means an implementation bug (the
    inequalities are proven), so the default is to raise; pass
    ``raise_on_violation=False`` to inspect the report instead.
    """
    levels = _check_levels(levels, minimum=1)
    if coeff_order < 2:
        raise ConfigError(f"coeff_order must be >= 2, got {coeff_order}")

    # each level once, with the parent n - 1 the self-similarity rows read
    built = sorted(set(levels) | {n - 1 for n in levels if n >= 1})
    measures = {n: cantor_approximant(CantorLevel(w, n)) for n in built}
    tables = {n: build_table(measures[n], coeff_order) for n in levels}
    pairs = [
        (n, m, cdf_sup_distance_exact(measures[n], measures[m]))
        for i, n in enumerate(levels)
        for m in levels[i + 1:]
    ]

    rows = _cdf_rows(w, pairs)
    rows += [
        _row("cdf-self-similarity", f"n={n}",
             verify_refinement_identity(measures[n], measures[n - 1], w), 0)
        for n in levels
        if n >= 1
    ]
    for n in levels:
        rows += _factorial_rows(n, tables[n])
    for n, m, dist in pairs:
        pair, dist_f = f"pair=({n},{m})", float(dist)
        rows += _coefficient_gap_rows(pair, tables[n], tables[m], dist_f)
        rows += _trig_gap_rows(pair, measures[n], measures[m], dist_f)
        rows += _deriv_gap_rows(pair, measures[n], measures[m], dist_f)

    report = AuditReport(weights=w, levels=levels, rows=tuple(rows))
    bad = report.violations()
    if bad and raise_on_violation:
        head = "; ".join(
            f"{r.bound}[{r.instance}] measured {r.measured:.6g} > limit {r.limit:.6g}"
            for r in bad[:5]
        )
        raise InconsistencyError(
            f"{len(bad)} proven-inequality violations (implementation bug): {head}"
        )
    return report


def _cdf_rows(w: WeightVector, pairs) -> list[AuditRow]:
    rows = []
    for n, m, dist in pairs:
        telescoped = sum(w.w2**j for j in range(n, m))
        rows.append(_row("cdf-telescoping", f"n={n} m={m}", dist, telescoped))
        rows.append(_row("cdf-geometric-cap", f"n={n} m={m}", dist, w.w2**n / w.w1))
    return rows


def _factorial_rows(level, table: TrigTable) -> list[AuditRow]:
    """Coefficient growth: each iterated integral obeys a factorial envelope
    in the second coefficient that ``_ALTERNATIONS`` names for its family."""
    grid = table.measure.sample_grid(17)
    second = {funs: getattr(table, funs)[2].eval_many(grid) for funs in ("p_fun", "q_fun")}
    rows = []
    for name, (funs, parity, base) in _ALTERNATIONS.items():
        for n in range(1, table.order // 2 + 1):
            coeff = getattr(table, funs)[2 * n + parity].eval_many(grid)
            envelope = second[base] ** n / math.factorial(n)
            excess = float(np.max(coeff - envelope))
            rows.append(_row(f"coeff-factorial-{name}", f"level={level} n={n}",
                             excess, 0.0, _allow(1.0)))
    return rows


def _coefficient_gap_rows(pair, table_n: TrigTable, table_m: TrigTable, dist_f) -> list[AuditRow]:
    """Two levels' coefficient functions differ by at most
    2 * dist * x^n / (n-1)! — all four alternation families, n >= 1."""
    grid = table_m.measure.sample_grid(17)
    rows = []
    for name in _GAP_ORDER:
        funs, parity, _ = _ALTERNATIONS[name]
        for n in range(1, table_n.order // 2 + 1):
            k = 2 * n + parity
            gap = np.abs(
                getattr(table_n, funs)[k].eval_many(grid)
                - getattr(table_m, funs)[k].eval_many(grid)
            )
            envelope = 2.0 * dist_f * grid**n / math.factorial(n - 1)
            excess = float(np.max(gap - envelope))
            rows.append(_row(f"coeff-gap-{name}", f"{pair} n={n}",
                             excess, 0.0, _allow(2.0 * dist_f)))
    return rows


def _trig_gap_rows(pair, mu_n: Measure, mu_m: Measure, dist_f) -> list[AuditRow]:
    grid = mu_m.sample_grid(17)
    rows = []
    for z in DEFAULT_AUDIT_Z_GRID:
        for family, const in _FAMILY_CONSTANTS.items():
            gap = np.max(
                np.abs(eval_on_grid(mu_n, z, grid, family) - eval_on_grid(mu_m, z, grid, family))
            )
            limit = const(z) * dist_f
            rows.append(_row(f"trig-gap-{family}", f"{pair} z={z:g}", gap, limit, _allow(limit)))
    return rows


def _deriv_gap_rows(pair, mu_n: Measure, mu_m: Measure, dist_f) -> list[AuditRow]:
    rows = []
    for z in DEFAULT_AUDIT_Z_GRID:
        rn, rm = boundary_values(mu_n, z), boundary_values(mu_m, z)
        limit = 2.0 * dist_f * deriv_gap_sum(z)
        for name, gap in (
            ("sinp-prime", abs(rn.sp_prime - rm.sp_prime)),
            ("sinq-prime", abs(rn.sq_prime - rm.sq_prime)),
        ):
            rows.append(_row(f"deriv-gap-{name}", f"{pair} z={z:g}", gap, limit, _allow(limit)))
    return rows
