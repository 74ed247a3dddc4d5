"""Measure trigonometric series: coefficient tables and certified evaluation.

For a measure mu the coefficient functions are iterated integrals

    p_0 = 1,  p_n = integral of p_{n-1} against dmu (n odd) or dt (n even)
    q_0 = 1,  q_n = integral of q_{n-1} against dt  (n odd) or dmu (n even)

and the four trig-like functions are the alternating power series

    sp_z(x) = sum (-1)^n z^(2n+1) p_{2n+1}(x)     cp_z(x) = sum (-1)^n z^(2n) p_{2n}(x)
    sq_z(x) = sum (-1)^n z^(2n+1) q_{2n+1}(x)     cq_z(x) = sum (-1)^n z^(2n) q_{2n}(x)

For Lebesgue measure p_n(1) = q_n(1) = 1/n! and the series collapse to
sin and cos.  Coefficients obey the factorial bounds

    p_{2n+1}(x) <= q_2(x)^n/n!,   p_{2n}(x) <= p_2(x)^n/n!,
    q_{2n+1}(x) <= p_2(x)^n/n!,   q_{2n}(x) <= q_2(x)^n/n!,

which give every truncated evaluation a certified tail bound.  All
coefficients are nonnegative, so table builds involve no cancellation.

The functions are named sp, cp, sq, cq, as in kreinfeller.propagation,
and one table (_FAMILIES) gives each its parity, its coefficients and
the coefficients whose second one bounds its tail.

Users: the bound audit (convergence.bound_audit) needs build_table and
TrigTable; acceptance criterion 3 needs null_sum_plain and
null_sum_weighted.  value, derivative and value_at evaluate any family
at x = 1, its z-derivative there, and its value at any x; they are the
independent reference that the tests compare propagation.boundary_values
and eval_on_grid against.

Every series value is one call of _alternating_sum: the terms
(-1)^n * w * z**k * c are formed left to right and added with math.fsum,
so the only float error is per-term representation noise.  Overflow rule:
a term whose power z**k would exceed e^700 is taken as zero.  Every
evaluator returns (value, tail bound); the bound covers truncation only,
not such dropped terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionError
from .measures import Measure
from .polyalg import PiecewisePolynomial, integrate_dmu, integrate_dt

TAIL_TARGET = 1e-15
_LOG_HUGE = 700.0


@dataclass(frozen=True)
class TrigTable:
    """Coefficient functions p_0..p_{2N+1}, q_0..q_{2N+1} for one measure."""

    measure: Measure
    order: int
    p_fun: tuple[PiecewisePolynomial, ...]
    q_fun: tuple[PiecewisePolynomial, ...]
    p_one: tuple[float, ...]
    q_one: tuple[float, ...]


def build_table(mu: Measure, order: int) -> TrigTable:
    """Build coefficient tables up to index 2*order + 1."""
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    one = PiecewisePolynomial.constant(1.0, mu)
    p = [one]
    q = [one]
    for n in range(1, 2 * order + 2):
        if n % 2 == 1:
            p.append(integrate_dmu(p[-1], mu))
            q.append(integrate_dt(q[-1]))
        else:
            p.append(integrate_dt(p[-1]))
            q.append(integrate_dmu(q[-1], mu))
    return TrigTable(
        measure=mu,
        order=order,
        p_fun=tuple(p),
        q_fun=tuple(q),
        p_one=tuple(f.value_at_one() for f in p),
        q_one=tuple(f.value_at_one() for f in q),
    )


def default_order(z_max: float) -> int:
    """Smallest N with z_max^(2N+3)/(N+1)! below 1e-15 (worst case q_2 <= 1)."""
    za = abs(z_max)
    if za <= 1.0:
        return 1
    lz = math.log(za)
    n = 1
    while (2 * n + 3) * lz - math.lgamma(n + 2) >= math.log(TAIL_TARGET):
        n += 1
        if n > 1_000_000:
            raise PrecisionError("no feasible truncation order for this z range")
    return n


# ---------------------------------------------------------------------------
# tail bounds and the summation kernel


def _factorial_tail(r: float, start: int, deriv_weight: int = 0) -> float:
    """Upper bound on sum_{n >= start} w(n) * r^n / n!.

    w(n) = 1, or (2n+1) for odd-family derivatives (deriv_weight=1), or
    2n for even-family derivatives (deriv_weight=2).  Walks terms in log
    space and closes with a geometric majorant once the term ratio, which
    decreases in n, drops below 1/2.
    """
    if r <= 0.0:
        return 0.0
    log_r = math.log(r)
    total = 0.0
    n = max(start, 1) if deriv_weight == 2 else start
    while True:
        log_t = n * log_r - math.lgamma(n + 1)
        if deriv_weight == 1:
            log_t += math.log(2 * n + 1)
        elif deriv_weight == 2:
            log_t += math.log(2 * n)
        if log_t > _LOG_HUGE:
            return math.inf
        term = math.exp(log_t)
        # ratio of consecutive terms, including the polynomial weight
        if deriv_weight == 2:
            ratio = r / n
        else:
            ratio = r / (n + 1)
            if deriv_weight:
                ratio *= (2 * n + 3) / (2 * n + 1)
        if ratio < 0.5:
            return total + term * (1.0 + ratio / (1.0 - ratio))
        total += term
        n += 1
        if n > start + 100_000:
            return math.inf


def _alternating_sum(z: float, terms) -> float:
    """math.fsum of (-1)^n * w * z**k * c over (n, w, k, c) in ascending n.

    Each term is computed left to right as w * z**k * c.  A term whose
    power would overflow (k ln|z| >= 700) is taken as zero.
    """
    log_z = math.log(abs(z)) if z else -math.inf
    out = []
    for n, w, k, c in terms:
        if k and k * log_z >= _LOG_HUGE:
            continue
        t = w * z**k * c
        out.append(-t if n % 2 else t)
    return math.fsum(out)


# ---------------------------------------------------------------------------
# the four functions, their z-derivatives and their values at x

# family -> (odd, its coefficients, the coefficients whose second one bounds the tail)
_FAMILIES = {
    "sp": (True, "p", "q"), "cp": (False, "p", "p"),
    "sq": (True, "q", "p"), "cq": (False, "q", "q"),
}


def _family(table: TrigTable, family: str, part: str):
    """(odd, coefficients, tail-bound coefficients) of ``family``, read from
    the table's ``p_<part>`` and ``q_<part>`` fields."""
    if family not in _FAMILIES:
        raise DomainError(f"unknown function family {family!r}")
    odd, coeffs, bound = _FAMILIES[family]
    return odd, getattr(table, f"{coeffs}_{part}"), getattr(table, f"{bound}_{part}")


def value(table: TrigTable, family: str, z: float) -> tuple[float, float]:
    """One of sp, cp, sq, cq at x = 1."""
    odd, one_vals, bound = _family(table, family, "one")
    N = table.order
    tail = (abs(z) if odd else 1.0) * _factorial_tail(z * z * bound[2], N + 1)
    terms = ((k // 2, 1, k, one_vals[k]) for k in range(odd, 2 * N + 2, 2))
    return _alternating_sum(z, terms), tail


def derivative(table: TrigTable, family: str, z: float) -> tuple[float, float]:
    """Termwise z-derivative of the truncated series at x = 1.

    Odd family: sum (-1)^n (2n+1) z^(2n) coeff_{2n+1}; valid everywhere,
    not only at zeros (the k=0 term does not drop).
    Even family: sum (-1)^n (2n) z^(2n-1) coeff_{2n}.
    """
    odd, one_vals, bound = _family(table, family, "one")
    N = table.order
    r = z * z * bound[2]
    if odd:
        tail = _factorial_tail(r, N + 1, 1)
        terms = ((n, 2 * n + 1, 2 * n, one_vals[2 * n + 1]) for n in range(N + 1))
    else:
        tail = (1.0 / abs(z) if z else 1.0) * _factorial_tail(r, N + 1, 2)
        terms = ((n, 2 * n, 2 * n - 1, one_vals[2 * n]) for n in range(1, N + 1))
    return _alternating_sum(z, terms), tail


def value_at(table: TrigTable, family: str, z: float, x: float) -> tuple[float, float]:
    """One of sp, cp, sq, cq at x in [0, 1]; cp and sq are the Neumann and
    Dirichlet eigenfunction series when z^2 is an eigenvalue."""
    odd, funs, bound = _family(table, family, "fun")
    N = table.order
    xs = np.array([x])
    terms = ((k // 2, 1, k, float(funs[k].eval_many(xs)[0])) for k in range(odd, 2 * N + 2, 2))
    val = _alternating_sum(z, terms)
    r = z * z * float(bound[2].eval_many(xs)[0])
    return val, (abs(z) if odd else 1.0) * _factorial_tail(r, N + 1)


# ---------------------------------------------------------------------------
# Cauchy-product null sums
#
# If lam = z^2 is a zero of sp_z(1) then  cp_z(1) * sp_z(1) = 0, and expanding
# the product of the two series gives alternating null sums over the
# convolution coefficients sum_k p_{2k} p_{2(n-k)+1}; the same holds with
# the extra 2k weight (from differentiating the product).  Truncations of
# both must vanish up to a certified tail.


def null_sum_plain(table: TrigTable, lam: float) -> tuple[float, float]:
    return _null_sum(table, lam, weighted=False)


def null_sum_weighted(table: TrigTable, lam: float) -> tuple[float, float]:
    return _null_sum(table, lam, weighted=True)


def _null_sum(table: TrigTable, lam: float, weighted: bool) -> tuple[float, float]:
    """Returns (truncated sum, certified tail bound).

    The inner Cauchy coefficient sum_k w(k) p_{2k}(1) p_{2(n-k)+1}(1) is
    bounded by w_max(n) (p_2 + q_2)^n / n! via the binomial theorem, so
    the dropped terms carry a factorial tail in lam * (p_2 + q_2).
    """
    N = table.order
    p1 = table.p_one
    inner = [
        math.fsum((2 * k if weighted else 1.0) * p1[2 * k] * p1[2 * (n - k) + 1]
                  for k in range(n + 1))
        for n in range(N + 1)
    ]
    val = _alternating_sum(lam, ((n, 1, n, c) for n, c in enumerate(inner)))
    r = lam * (table.p_one[2] + table.q_one[2])
    return val, _factorial_tail(r, N + 1, deriv_weight=2 if weighted else 0)
