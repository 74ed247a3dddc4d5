"""End-to-end acceptance gate: one test per shipping criterion.

Each test asserts the criterion at its stated tolerance, so `pytest -v`
prints one pass/fail line per criterion.

Criteria 4 and 5 (decay rates across refinement levels) assert the rate the
weighted-Cantor refinement actually has, two-sided, and the proven envelope
one-sided.  The envelope: one refinement step moves at most w2**n of CDF
mass, so successive eigenvalue and eigenfunction gaps are at most c * w2**n.
That bound is not tight.  The rate comes from a moment expansion of one
refinement step.  On a level-n interval I (length h = 3**-n, mass p_I) the
difference mu_{n+1} - mu_n has zero mass and first moment
p_I * h * (1 - 2 w1) / 3.  Integrated against u**2 this gives a term of
order 3**-n that vanishes for symmetric weights.  For eigenvalues it is
proportional to the integral of (u**2)' dmu = -[u'**2]_0^1 / lambda, which is
0 under Neumann conditions, so it drops out there too.  The next term carries
u'' ~ p_I / h on I and sums to sum_I p_I**2 * h = ((w1**2 + w2**2) / 3)**n.
Successive gaps therefore contract per level by

    (w1**2 + w2**2) / 3   for Neumann eigenvalues, and for every quantity
                          when w1 == w2;
    1/3                   for Dirichlet eigenvalues and for eigenfunctions
                          under both boundaries when w1 != w2.

For (1/2,1/2) every ratio is 1/6; for (1/3,2/3) the Neumann eigenvalue
ratio is 5/27 and every other ratio 1/3.

The expansion is heuristic; the fitted slopes converge to these values as
the levels deepen, and each fit must first pass the library's own stability
diagnostic (drop-deepest slope change at most 0.05) so that a pre-asymptotic
fit fails instead of landing in the window by chance.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from kreinfeller.convergence import (
    bound_audit,
    eigenfunction_rate_experiment,
    eigenvalue_rate_experiment,
)
from kreinfeller.measures import CantorLevel, Measure, WeightVector, cantor_approximant
from kreinfeller.propagation import eval_on_grid
from kreinfeller.series import build_table, default_order, null_sum_plain, null_sum_weighted
from kreinfeller.spectrum import (
    count_zeros,
    eigenfunction,
    eigenfunction_eval,
    eigenfunction_l2_norm,
    fem_oracle,
    find_eigenvalues,
)

WEIGHT_TRIO = (F(1, 2), F(1, 3), F(1, 4))  # (1/2,1/2), (1/3,2/3), (1/4,3/4)
RATE_PAIR = (F(1, 2), F(1, 3))
LEBESGUE = Measure(breakpoints=(F(0), F(1)), densities=(F(1),))

GL_X, GL_W = np.polynomial.legendre.leggauss(24)


def cantor(first_weight, level):
    return cantor_approximant(CantorLevel(WeightVector.of(first_weight), level))


def l2_norm_by_quadrature(ef):
    """Independent norm oracle: 24-point Gauss-Legendre per density piece."""
    mu, rec = ef.measure, ef.record
    family = "cp" if rec.boundary == "neumann" else "sq"
    total = 0.0
    bps = [float(t) for t in mu.breakpoints]
    for (lo, hi), d in zip(zip(bps, bps[1:]), mu.densities):
        if d == 0:
            continue
        xs = 0.5 * (hi - lo) * GL_X + 0.5 * (hi + lo)
        vals = np.asarray(eval_on_grid(mu, rec.z, xs, family))
        total += float(d) * 0.5 * (hi - lo) * float(np.dot(GL_W, vals**2))
    return math.sqrt(total)


def test_criterion_1_lebesgue_closed_form():
    """Flat measure: eigenvalues (m*pi)^2 to 1e-9 relative for m <= 10 and
    eigenfunctions cos(m*pi*x) / sin(m*pi*x) to 1e-8 sup-norm on 1000 points."""
    grid = np.linspace(0.0, 1.0, 1000)
    neumann = find_eigenvalues(LEBESGUE, "neumann", 11)
    dirichlet = find_eigenvalues(LEBESGUE, "dirichlet", 10)
    for rec in neumann:
        m = rec.index
        if m > 0:
            exact = (m * math.pi) ** 2
            assert abs(rec.lam - exact) / exact <= 1e-9
        vals = np.asarray(eigenfunction_eval(eigenfunction(LEBESGUE, rec), grid))
        assert float(np.max(np.abs(vals - np.cos(m * math.pi * grid)))) <= 1e-8
    for rec in dirichlet:
        m = rec.index
        exact = (m * math.pi) ** 2
        assert abs(rec.lam - exact) / exact <= 1e-9
        vals = np.asarray(eigenfunction_eval(eigenfunction(LEBESGUE, rec), grid))
        assert float(np.max(np.abs(vals - np.sin(m * math.pi * grid)))) <= 1e-8


def test_criterion_2_proven_bound_audit():
    """Zero violations of the coefficient factorial bounds, coefficient and
    trig-function gap bounds (explicit even-family constant 2 z^2 e^{z^2}),
    and CDF sup-distance bounds, for all three weight pairs, levels 1..6,
    frequencies up to 12."""
    for first in WEIGHT_TRIO:
        report = bound_audit(WeightVector.of(first), (1, 2, 3, 4, 5, 6), coeff_order=12)
        bad = report.violations()
        assert not bad, f"w1={first}: {len(bad)} violated bounds, first: {bad[:3]}"
        # the audit must actually cover every bound family it promises
        names = {row.bound for row in report.rows}
        for prefix in ("coeff-factorial", "coeff-gap", "trig-gap-cq", "cdf-telescoping", "cdf-geometric-cap"):
            assert any(n.startswith(prefix) for n in names), f"missing {prefix} rows"


def test_criterion_3_identities_at_eigenvalues():
    """At computed eigenvalues: the alternating coefficient null sums vanish
    within 1e-8 plus certified tails (checked where float evaluation is
    certifiable, frequency <= 5.5), and the closed-form L2 norm matches
    direct quadrature to 1e-6 relative for indices <= 6, levels <= 4."""
    z_cap = 5.5
    ns_order = default_order(z_cap)
    checked_null_sums = 0
    for first in WEIGHT_TRIO:
        for level in (0, 1, 2, 3, 4):
            mu = cantor(first, level)
            ns_table = None
            for boundary, count in (("neumann", 7), ("dirichlet", 6)):
                records = find_eigenvalues(mu, boundary, count)
                for rec in records:
                    if rec.index >= 1:
                        ef = eigenfunction(mu, rec)
                        closed = eigenfunction_l2_norm(ef)
                        quad = l2_norm_by_quadrature(ef)
                        assert abs(closed - quad) / quad <= 1e-6, (
                            f"norm identity off at w1={first} n={level} {boundary} m={rec.index}"
                        )
                    if boundary == "neumann" and 0 < rec.z <= z_cap:
                        if ns_table is None:
                            ns_table = build_table(mu, ns_order)
                        for null_sum in (null_sum_plain, null_sum_weighted):
                            value, tail = null_sum(ns_table, rec.lam)
                            assert abs(value) <= 1e-8 + tail, (
                                f"null sum {abs(value):.3e} > 1e-8 + {tail:.3e} "
                                f"at w1={first} n={level} m={rec.index}"
                            )
                            checked_null_sums += 1
    assert checked_null_sums >= 20  # the window must not silently go empty


def predicted_gap_ratio(w, boundary, kind):
    """Per-level contraction of successive gaps from the moment expansion
    (module docstring), exact in the weights.  ``kind`` is "eigenvalue" or
    "eigenfunction"."""
    second_order = (w.w1**2 + w.w2**2) / 3
    if w.w1 == w.w2 or (kind == "eigenvalue" and boundary == "neumann"):
        return second_order
    return F(1, 3)


def assert_rates(fits):
    """Check fitted slopes in three stages, each over every fit before the next.

    ``fits`` holds (label, slope, drop_deepest_delta, w, target).  A fit must be
    settled (|delta| <= 0.05, as in the convergence tests), steeper than the
    proven envelope log(w2), and within 0.15 of the derived target slope.
    """
    unsettled, outside_envelope, misses = [], [], []
    for label, slope, delta, w, target in fits:
        if slope is None or delta is None or abs(delta) > 0.05:
            shown = "none (gaps at noise floor)" if slope is None else f"{slope:+.3f}"
            delta_shown = "none" if delta is None else f"{delta:+.3f}"
            unsettled.append(f"{label}: slope {shown}, drop-deepest delta {delta_shown}")
            continue
        envelope = math.log(float(w.w2))
        if not slope < envelope:
            outside_envelope.append(f"{label}: slope {slope:+.3f}, envelope {envelope:+.3f}")
        if abs(slope - target) > 0.15:
            misses.append(f"{label}: slope {slope:+.3f}, target {target:+.3f} +/- 0.15")
    assert not unsettled, "fits not settled (pre-asymptotic):\n" + "\n".join(unsettled)
    assert not outside_envelope, "slopes not below log(w2):\n" + "\n".join(outside_envelope)
    assert not misses, "fitted slopes outside the target window:\n" + "\n".join(misses)


def test_criterion_4_eigenvalue_gap_rate():
    """Successive eigenvalue gaps across levels 5..9: fitted log-slope within
    0.15 of log(predicted_gap_ratio) for m in {1,2,3}, both boundary types,
    for the symmetric and the (1/3,2/3) weights.  Every fit is settled and
    steeper than the envelope log(w2).  Levels 2..6 are pre-asymptotic here:
    (1/2,1/2) Dirichlet m=3 grows 5.6x from level 2 to 3, and half the fits
    fail the stability diagnostic."""
    levels = (5, 6, 7, 8, 9)
    fits = []
    for first in RATE_PAIR:
        w = WeightVector.of(first)
        for boundary in ("neumann", "dirichlet"):
            target = math.log(float(predicted_gap_ratio(w, boundary, "eigenvalue")))
            report = eigenvalue_rate_experiment(w, levels, boundary, 3)
            for i, m in enumerate(report.indices):
                fits.append((
                    f"w=({w.w1},{w.w2}) {boundary} m={m}",
                    report.fitted_rate_per_m[i],
                    report.fit_drop_deepest_delta[i],
                    w,
                    target,
                ))
    assert_rates(fits)


def test_criterion_5_eigenfunction_gap_rate():
    """Sup-norm successive gaps of the first eigenfunction across levels 2..6:
    fitted log-slope within 0.15 of log(predicted_gap_ratio), both boundary
    types, both weight pairs.  Every fit is settled and steeper than the
    envelope log(w2)."""
    levels = (2, 3, 4, 5, 6)
    fits = []
    for first in RATE_PAIR:
        w = WeightVector.of(first)
        for boundary in ("neumann", "dirichlet"):
            target = math.log(float(predicted_gap_ratio(w, boundary, "eigenfunction")))
            report = eigenfunction_rate_experiment(w, levels, boundary, 1)
            fits.append((
                f"w=({w.w1},{w.w2}) {boundary} m=1",
                report.fitted_rate,
                report.fit_drop_deepest_delta,
                w,
                target,
            ))
    assert_rates(fits)


def test_criterion_6_fem_oracle_equivalence():
    """Spectral eigenvalues agree with the finite-element oracle to 5e-3
    relative at the finest mesh (up from coarse mesh 3^-4 to 3^-6) for
    m <= 6, levels <= 4, with the per-mode gap shrinking monotonically
    under each 3x mesh refinement."""
    for first in WEIGHT_TRIO:
        for level in (1, 2, 3, 4):
            mu = cantor(first, level)
            for boundary, count in (("neumann", 7), ("dirichlet", 6)):
                records = find_eigenvalues(mu, boundary, count)
                gaps_per_mesh = []
                for k in (4, 5, 6):
                    fem = fem_oracle(mu, 3.0**-k, count, boundary)
                    gaps_per_mesh.append(
                        [abs(r.lam - lf) / max(abs(r.lam), 1.0) for r, lf in zip(records, fem)]
                    )
                start = 1 if boundary == "neumann" else 0
                if boundary == "neumann":
                    assert gaps_per_mesh[-1][0] <= 1e-9  # flat mode: both say zero
                for i in range(start, count):
                    coarse, mid, fine = (g[i] for g in gaps_per_mesh)
                    assert fine <= 5e-3, (
                        f"w1={first} n={level} {boundary} m={i}: fine-mesh gap {fine:.2e}"
                    )
                    assert coarse >= mid >= fine, (
                        f"w1={first} n={level} {boundary} m={i}: gaps not monotone "
                        f"{coarse:.2e} -> {mid:.2e} -> {fine:.2e}"
                    )


def test_criterion_7_zero_count_law():
    """For m = 1..6 at levels <= 3: the m-th Neumann eigenfunction has exactly
    m sign changes in [0,1]; the m-th Dirichlet eigenfunction has exactly
    m+1 zeros counting both endpoints."""
    for first in WEIGHT_TRIO:
        for level in (0, 1, 2, 3):
            mu = cantor(first, level)
            for rec in find_eigenvalues(mu, "neumann", 7)[1:]:
                assert count_zeros(eigenfunction(mu, rec)) == rec.index, (
                    f"w1={first} n={level} neumann m={rec.index}"
                )
            for rec in find_eigenvalues(mu, "dirichlet", 6):
                assert count_zeros(eigenfunction(mu, rec)) == rec.index + 1, (
                    f"w1={first} n={level} dirichlet m={rec.index}"
                )


def test_criterion_8_cli_determinism(tmp_path):
    """Repeated CLI runs with identical configurations produce byte-identical
    output files, across subcommands and both output formats."""
    configs = [
        ["eigvals", "--w", "1/3", "--level", "3", "--m-max", "4", "--boundary", "dirichlet"],
        ["eigfun", "--w", "0.5", "--level", "2", "--m", "1,2", "--format", "json"],
        ["rates", "--w", "0.5", "--levels", "1:4", "--m-max", "2", "--format", "json"],
        ["audit", "--w", "0.25", "--levels", "1:3"],
    ]
    for i, args in enumerate(configs):
        payloads = []
        for attempt in ("a", "b"):
            out = tmp_path / f"run{i}{attempt}.dat"
            proc = subprocess.run(
                [sys.executable, "-m", "kreinfeller", *args, "--out", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], f"config {args} not byte-deterministic"
        assert len(payloads[0]) > 0
    # JSON outputs must parse back as single UTF-8 documents
    doc = json.loads((tmp_path / "run1a.dat").read_text(encoding="utf-8"))
    assert doc["command"] == "eigfun"
