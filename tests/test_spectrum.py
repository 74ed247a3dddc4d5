"""Eigenvalue search, eigenfunctions, zero counts, and the finite-element oracle.

Oracle routes kept deliberately separate:

* Lebesgue closed forms (roots at multiples of pi, norms sqrt(1/2));
* frozen spectral values for the level-1 symmetric measure, confirmed by
  doubly Richardson-extrapolated finite elements to ~1e-12 relative;
* Gauss-Legendre quadrature for norms, against the boundary-product identity;
* the series route's vanishing sums at found eigenvalues.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import STANDARD_WEIGHTS, piecewise_measures, weight_vectors
from kreinfeller.errors import BracketError, ConfigError, DomainError, PrecisionError
from kreinfeller.measures import CantorLevel, Measure, WeightVector, cantor_approximant
from kreinfeller.propagation import boundary_values
from kreinfeller.series import build_table, null_sum_plain, null_sum_weighted
from kreinfeller.spectrum import (
    _q2_at_one,
    count_zeros,
    eigenfunction,
    eigenfunction_eval,
    eigenfunction_l2_norm,
    fem_oracle,
    find_eigenvalues,
)

LEBESGUE = Measure(breakpoints=(F(0), F(1)), densities=(F(1),))

# Level-1 symmetric measure, both routes agreeing to ~1e-12:
# doubly Richardson-extrapolated FEM gave 14.804406601631 / 6.957945494369.
HALF_LEVEL1_DIRICHLET_1 = 14.804406601634041
HALF_LEVEL1_NEUMANN_1 = 6.9579454943704491


def cantor(w1, w2, level):
    return cantor_approximant(CantorLevel(WeightVector.of(F(w1), F(w2)), level))


class TestLebesgueRoots:
    def test_neumann_roots_are_multiples_of_pi(self):
        recs = find_eigenvalues(LEBESGUE, "neumann", 11, tol=1e-14)
        assert [r.index for r in recs] == list(range(11))
        for r in recs:
            expect = r.index * math.pi
            assert abs(r.z - expect) <= 5e-14 * max(1.0, expect)
            assert abs(r.lam - expect**2) <= 1e-12 * max(1.0, expect**2)

    def test_dirichlet_roots_are_positive_multiples_of_pi(self):
        recs = find_eigenvalues(LEBESGUE, "dirichlet", 10, tol=1e-14)
        assert [r.index for r in recs] == list(range(1, 11))
        for r in recs:
            expect = r.index * math.pi
            assert abs(r.z - expect) <= 5e-14 * expect

    def test_records_are_certified(self):
        for boundary in ("neumann", "dirichlet"):
            recs = find_eigenvalues(LEBESGUE, boundary, 6)
            zs = [r.z for r in recs]
            assert zs == sorted(zs)
            assert all(b > a for a, b in zip(zs, zs[1:]))
            for r in recs:
                if r.index == 0 and boundary == "neumann":
                    assert r.lam == 0.0 and r.error_bound == 0.0
                    continue
                assert r.bracket_lo < r.z < r.bracket_hi
                assert r.residual <= 1e-12
                assert 0.0 < r.error_bound < 1e-9

    def test_neumann_prefix_only_when_requested(self):
        assert len(find_eigenvalues(LEBESGUE, "neumann", 1)) == 1
        only = find_eigenvalues(LEBESGUE, "neumann", 1)[0]
        assert only.lam == 0.0


class TestFrozenLevelOne:
    @pytest.fixture
    def mu(self):
        return cantor(F(1, 2), F(1, 2), 1)

    def test_first_dirichlet(self, mu):
        rec = find_eigenvalues(mu, "dirichlet", 1, tol=1e-14)[0]
        assert rec.lam == pytest.approx(HALF_LEVEL1_DIRICHLET_1, rel=1e-12)

    def test_first_positive_neumann(self, mu):
        rec = find_eigenvalues(mu, "neumann", 2, tol=1e-14)[1]
        assert rec.lam == pytest.approx(HALF_LEVEL1_NEUMANN_1, rel=1e-12)

    def test_symmetric_measure_halving(self, mu):
        # With a measure symmetric about 1/2, the second positive Neumann root
        # is an even reflection of the first Dirichlet one: z_{N,2} = 2 z_{D,1}.
        rn = find_eigenvalues(mu, "neumann", 3, tol=1e-14)
        rd = find_eigenvalues(mu, "dirichlet", 1, tol=1e-14)
        assert rn[2].z == pytest.approx(2.0 * rd[0].z, rel=1e-13)


class TestMeasureOnlySolve:
    @pytest.mark.parametrize("level", range(9))
    def test_q2_at_one_matches_table_bit_for_bit(self, level):
        # the scan grid depends on q2(1); any last-bit change moves root digits
        for w in STANDARD_WEIGHTS:
            mu = cantor_approximant(CantorLevel(w, level))
            assert _q2_at_one(mu) == build_table(mu, 2).q2_at_one

    @settings(max_examples=40, deadline=None)
    @given(piecewise_measures())
    def test_q2_at_one_matches_table_on_random_measures(self, mu):
        assert _q2_at_one(mu) == build_table(mu, 2).q2_at_one

    def test_table_argument_stands_for_its_measure(self):
        mu = cantor(F(2, 5), F(3, 5), 3)
        for boundary in ("neumann", "dirichlet"):
            assert find_eigenvalues(build_table(mu, 3), boundary, 5) == find_eigenvalues(
                mu, boundary, 5
            )


class TestCertifiedBrackets:
    @pytest.mark.parametrize("level", range(6))
    def test_bracket_ends_carry_a_certified_sign_change(self, level):
        """Each end's boundary value exceeds its own err_est and the two signs
        differ.  This certifies relative to err_est, the propagation's rounding
        estimate, which is not yet a proven bound (ROADMAP.md, direction 3)."""
        for w in STANDARD_WEIGHTS:
            mu = cantor_approximant(CantorLevel(w, level))
            for boundary, count in (("neumann", 9), ("dirichlet", 8)):
                roots = [r for r in find_eigenvalues(mu, boundary, count) if r.index > 0]
                assert len(roots) == 8
                for r in roots:
                    ends = [boundary_values(mu, z) for z in (r.bracket_lo, r.bracket_hi)]
                    lo, hi = (e.sp if boundary == "neumann" else e.sq for e in ends)
                    assert lo * hi < 0.0, (str(w), level, boundary, r.index)
                    for e, v in zip(ends, (lo, hi)):
                        assert abs(v) > e.err_est, (str(w), level, boundary, r.index)


class TestSeriesCrossChecks:
    def test_found_roots_annihilate_vanishing_sums(self):
        mu = cantor(F(1, 3), F(2, 3), 2)
        table = build_table(mu, 40)
        recs = find_eigenvalues(mu, "neumann", 3, tol=1e-14)
        for rec in recs[1:]:
            if rec.z > 5.0:
                continue  # combinatorial growth defeats float certification
            for fn in (null_sum_plain, null_sum_weighted):
                val, tail = fn(table, rec.lam)
                assert abs(val) <= 1e-10 + tail

    def test_interlacing_for_samples(self):
        # min-max sandwich: the m-th Dirichlet root sits between the (m-1)-th
        # and (m+1)-th Neumann roots (coincidence allowed; Lebesgue hits it)
        for mu in (LEBESGUE, cantor(F(1, 3), F(2, 3), 2), cantor(F(1, 4), F(3, 4), 1)):
            rn = find_eigenvalues(mu, "neumann", 6)
            rd = find_eigenvalues(mu, "dirichlet", 4)
            for m in range(1, 5):
                assert rn[m - 1].z <= rd[m - 1].z + 1e-10
                assert rd[m - 1].z <= rn[m + 1].z + 1e-10


class TestEigenfunctions:
    @pytest.fixture
    def mu(self):
        return cantor(F(1, 3), F(2, 3), 2)

    def test_boundary_conditions(self, mu):
        for rec in find_eigenvalues(mu, "neumann", 4):
            ef = eigenfunction(mu, rec)
            v0, v1 = eigenfunction_eval(ef, [0.0, 1.0])
            assert v0 == 1.0
            # Neumann: derivative vanishes at both ends, value does not
            assert abs(v1) > 1e-3 or rec.index == 0
        for rec in find_eigenvalues(mu, "dirichlet", 4):
            ef = eigenfunction(mu, rec)
            v0, v1 = eigenfunction_eval(ef, [0.0, 1.0])
            assert v0 == 0.0
            assert abs(v1) <= 1e-11

    def test_index_zero_is_constant_one(self, mu):
        rec = find_eigenvalues(mu, "neumann", 1)[0]
        ef = eigenfunction(mu, rec)
        xs = np.linspace(0.0, 1.0, 37)
        assert np.all(eigenfunction_eval(ef, xs) == 1.0)
        assert eigenfunction_l2_norm(ef) == 1.0
        assert count_zeros(ef) == 0

    def test_lebesgue_norms(self):
        for boundary in ("neumann", "dirichlet"):
            for rec in find_eigenvalues(LEBESGUE, boundary, 4):
                ef = eigenfunction(LEBESGUE, rec)
                expect = 1.0 if rec.index == 0 and boundary == "neumann" else math.sqrt(0.5)
                assert eigenfunction_l2_norm(ef) == pytest.approx(expect, rel=1e-12)

    def test_norm_identity_matches_quadrature(self, mu):
        for boundary in ("neumann", "dirichlet"):
            for rec in find_eigenvalues(mu, boundary, 5, tol=1e-14):
                if boundary == "neumann" and rec.index == 0:
                    continue
                ef = eigenfunction(mu, rec)
                identity = eigenfunction_l2_norm(ef)
                quad = _l2_norm_quadrature(ef, mu)
                assert identity == pytest.approx(quad, rel=1e-9)

    def test_normalized_eval(self, mu):
        rec = find_eigenvalues(mu, "dirichlet", 1)[0]
        ef = eigenfunction(mu, rec)
        xs = np.linspace(0.0, 1.0, 101)
        raw = eigenfunction_eval(ef, xs)
        unit = eigenfunction_eval(ef, xs, normalized=True)
        scale = eigenfunction_l2_norm(ef)
        assert np.allclose(raw, unit * scale, rtol=1e-13, atol=0.0)

    def test_zero_counts(self, mu):
        for rec in find_eigenvalues(mu, "neumann", 6):
            assert count_zeros(eigenfunction(mu, rec)) == rec.index
        for rec in find_eigenvalues(mu, "dirichlet", 5):
            assert count_zeros(eigenfunction(mu, rec)) == rec.index + 1

    def test_zero_counts_lebesgue(self):
        for rec in find_eigenvalues(LEBESGUE, "neumann", 7):
            assert count_zeros(eigenfunction(LEBESGUE, rec)) == rec.index
        for rec in find_eigenvalues(LEBESGUE, "dirichlet", 6):
            assert count_zeros(eigenfunction(LEBESGUE, rec)) == rec.index + 1


def _sampled_zero_count(ef):
    """Zero count from samples alone: at least 8 points per quarter-period on
    every piece, sign changes of ``eigenfunction_eval`` between them (exact
    zeros skipped), plus the two boundary zeros for Dirichlet."""
    z = ef.record.z
    bp = [float(t) for t in ef.measure.breakpoints]
    xs = []
    for i, d in enumerate(ef.measure.densities):
        h = bp[i + 1] - bp[i]
        n = max(8, math.ceil(8 * h * z * math.sqrt(d) / (math.pi / 2)))
        xs.extend(np.linspace(bp[i], bp[i + 1], n + 1)[:-1])
    vals = eigenfunction_eval(ef, xs + [1.0])
    if ef.boundary == "dirichlet":
        vals = vals[1:-1]
    signs = np.sign(vals[vals != 0.0])
    flips = int(np.sum(signs[1:] != signs[:-1]))
    return flips + (2 if ef.boundary == "dirichlet" else 0)


def _assert_zero_counts_match_sampler(mu):
    for boundary, count in (("neumann", 13), ("dirichlet", 12)):
        for rec in find_eigenvalues(mu, boundary, count):
            if rec.z == 0.0:
                continue
            ef = eigenfunction(mu, rec)
            assert count_zeros(ef) == _sampled_zero_count(ef), (boundary, rec.index)


class TestZeroCountAgainstSampler:
    """The closed-form count against an independent dense sampler, m <= 12.

    w = 1/2 Dirichlet is included: the solver skips a close root pair there,
    but both counts look at the same eigenfunctions, so they must agree."""

    @pytest.mark.parametrize("level", range(7))
    @pytest.mark.parametrize("w", STANDARD_WEIGHTS, ids=str)
    def test_cantor_levels(self, w, level):
        _assert_zero_counts_match_sampler(cantor_approximant(CantorLevel(w, level)))

    @settings(max_examples=25, deadline=None)
    @given(piecewise_measures())
    def test_random_measures(self, mu):
        _assert_zero_counts_match_sampler(mu)

    @pytest.mark.parametrize("pieces", [2, 8, 12])
    def test_zeros_on_breakpoints_count_once(self, pieces):
        # Lebesgue measure cut into equal pieces: cos(m pi x) and sin(m pi x)
        # vanish on breakpoints for many m, where rounding decides on which
        # side of the breakpoint the computed zero falls
        mu = Measure.from_pieces([F(k, pieces) for k in range(pieces + 1)], [1] * pieces)
        for rec in find_eigenvalues(mu, "neumann", 13):
            assert count_zeros(eigenfunction(mu, rec)) == rec.index
        for rec in find_eigenvalues(mu, "dirichlet", 12):
            assert count_zeros(eigenfunction(mu, rec)) == rec.index + 1
        _assert_zero_counts_match_sampler(mu)


def test_w3_7_level4_dirichlet_m16_follows_the_index_law():
    mu = cantor(F(3, 7), F(4, 7), 4)
    rec = find_eigenvalues(mu, "dirichlet", 16)[-1]
    assert (rec.index, round(rec.z, 4)) == (16, 95.7381)
    assert count_zeros(eigenfunction(mu, rec)) == rec.index + 1


def _l2_norm_quadrature(ef, mu, npts=40):
    nodes, wts = np.polynomial.legendre.leggauss(npts)
    total = 0.0
    bps = [float(b) for b in mu.breakpoints]
    dens = [float(d) for d in mu.densities]
    for a, b, d in zip(bps, bps[1:], dens):
        if d == 0.0:
            continue
        xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        vals = eigenfunction_eval(ef, xs)
        total += d * 0.5 * (b - a) * float(np.dot(wts, vals * vals))
    return math.sqrt(total)


def _dense_fem_reference(mu, n, count, boundary):
    """P1 eigenvalues the long way: dense K and M on every node, then a Schur
    complement over the massless nodes."""
    import scipy.linalg

    h = 1.0 / n
    k_loc = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    m_loc = np.array([[2.0, 1.0], [1.0, 2.0]]) * h / 6.0
    stiff = np.zeros((n + 1, n + 1))
    mass = np.zeros((n + 1, n + 1))
    for e in range(n):
        piece = sum(1 for b in mu.breakpoints[1:] if b <= F(e, n))
        stiff[e : e + 2, e : e + 2] += k_loc
        mass[e : e + 2, e : e + 2] += float(mu.densities[piece]) * m_loc
    nodes = np.arange(1, n) if boundary == "dirichlet" else np.arange(n + 1)
    stiff, mass = stiff[np.ix_(nodes, nodes)], mass[np.ix_(nodes, nodes)]
    g = np.diag(mass) == 0.0
    s = ~g
    k_red = stiff[np.ix_(s, s)]
    if g.any():
        k_red = k_red - stiff[np.ix_(s, g)] @ np.linalg.solve(stiff[np.ix_(g, g)], stiff[np.ix_(g, s)])
    k_red = 0.5 * (k_red + k_red.T)
    top = min(count, int(s.sum())) - 1
    return scipy.linalg.eigh(k_red, mass[np.ix_(s, s)], eigvals_only=True, subset_by_index=[0, top])


# Cantor levels 1-4 plus hand-built measures with massless end and middle pieces
DENSE_REFERENCE_MEASURES = [cantor(F(1, 3), F(2, 3), lvl) for lvl in (1, 2, 3, 4)] + [
    cantor(F(2, 5), F(3, 5), 3),
    Measure.from_pieces([0, F(1, 9), F(2, 3), 1], [0, F(9, 5), 0]),
    Measure.from_pieces([0, F(1, 3), 1], [0, F(3, 2)]),
    Measure.from_pieces([0, F(1, 9), F(5, 9), 1], [1, 0, 2]),
    Measure.from_pieces([0, F(1, 3), F(10, 27), 1], [1, 0, F(18, 17)]),
]
DENSE_REFERENCE_IDS = [
    "w1_3-l1", "w1_3-l2", "w1_3-l3", "w1_3-l4", "w2_5-l3",
    "massless-both-ends", "massless-left-end", "massless-middle", "one-element-gap",
]


class TestFemOracle:
    def test_lebesgue_agreement(self):
        fem = fem_oracle(LEBESGUE, 1.0 / 729, 4, "neumann")
        assert abs(fem[0]) <= 1e-10
        for m in range(1, 4):
            assert fem[m] == pytest.approx((m * math.pi) ** 2, rel=3e-5)
        fem = fem_oracle(LEBESGUE, 1.0 / 729, 3, "dirichlet")
        for m in range(1, 4):
            assert fem[m - 1] == pytest.approx((m * math.pi) ** 2, rel=3e-5)

    def test_neumann_zero_mode_any_measure(self):
        for mu in (cantor(F(1, 3), F(2, 3), 2), cantor(F(1, 4), F(3, 4), 3)):
            fem = fem_oracle(mu, 3.0 ** -5, 1, "neumann")
            assert abs(fem[0]) <= 1e-10

    def test_cantor_agreement_and_h_refinement(self):
        mu = cantor(F(1, 3), F(2, 3), 2)
        recs = find_eigenvalues(mu, "dirichlet", 4)
        errs = []
        for k in (4, 5, 6):
            fem = fem_oracle(mu, 3.0 ** -k, 4, "dirichlet")
            errs.append(max(abs(f - r.lam) / r.lam for f, r in zip(fem, recs)))
        assert errs[0] < 5e-3
        assert errs[0] > errs[1] > errs[2]
        # O(h^2) convergence: each refinement divides the error by ~9
        assert errs[1] < errs[0] / 5 and errs[2] < errs[1] / 5

    def test_condensation_handles_gap_nodes(self):
        # level-3 measure at mesh 3^-5: 8 support pieces, gap interiors massless
        mu = cantor(F(1, 2), F(1, 2), 3)
        fem = fem_oracle(mu, 3.0 ** -5, 3, "neumann")
        recs = find_eigenvalues(mu, "neumann", 3)
        for f, r in zip(fem[1:], recs[1:]):
            assert f == pytest.approx(r.lam, rel=2e-3)

    def test_misaligned_mesh_rejected(self):
        mu = cantor(F(1, 2), F(1, 2), 1)
        with pytest.raises(ConfigError):
            fem_oracle(mu, 1.0 / 100, 2, "neumann")
        with pytest.raises(ConfigError):
            fem_oracle(mu, 0.31, 2, "neumann")

    def test_count_exceeding_dofs_rejected(self):
        with pytest.raises(ConfigError):
            fem_oracle(LEBESGUE, 1.0 / 3, 10, "dirichlet")

    @pytest.mark.parametrize("boundary", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_lebesgue_matches_discrete_closed_form(self, k, boundary):
        # P1 on a uniform mesh: lambda_h(m) = (6/h^2)(1 - cos m pi h)/(2 + cos m pi h),
        # written with 1 - cos x = 2 sin^2(x/2) to keep the reference exact
        h = 3.0**-k
        first = 0 if boundary == "neumann" else 1
        fem = fem_oracle(LEBESGUE, h, 6, boundary)
        for m, value in enumerate(fem, start=first):
            if m == 0:
                assert abs(value) <= 1e-15
                continue
            x = m * math.pi * h
            exact = (12.0 / h**2) * math.sin(x / 2) ** 2 / (2.0 + math.cos(x))
            assert abs(value - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("boundary", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("mu", DENSE_REFERENCE_MEASURES, ids=DENSE_REFERENCE_IDS)
    def test_matches_dense_condensation(self, mu, boundary):
        for k in (3, 4, 5):
            n = 3**k
            if any((b * n).denominator != 1 for b in mu.breakpoints):
                continue
            ref = _dense_fem_reference(mu, n, 6, boundary)
            fem = fem_oracle(mu, 3.0**-k, len(ref), boundary)
            assert fem == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_memory_stays_on_mass_nodes(self):
        import tracemalloc

        mu = cantor(F(2, 5), F(3, 5), 5)
        fem_oracle(mu, 3.0**-5, 2, "neumann")  # imports done outside the trace
        tracemalloc.start()
        try:
            fem_oracle(mu, 3.0**-8, 7, "neumann")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestErrorPaths:
    def test_scan_ceiling_reports_found(self):
        with pytest.raises(BracketError) as exc:
            find_eigenvalues(LEBESGUE, "dirichlet", 5, scan_ceiling=7.0)
        assert exc.value.found == 2  # pi and 2*pi lie below 7

    def test_bad_boundary(self):
        with pytest.raises(DomainError):
            find_eigenvalues(LEBESGUE, "periodic", 2)

    def test_bad_count_and_tol(self):
        with pytest.raises(ConfigError):
            find_eigenvalues(LEBESGUE, "neumann", 0)
        with pytest.raises(ConfigError):
            find_eigenvalues(LEBESGUE, "neumann", 2, tol=1.0)
        with pytest.raises(ConfigError):
            find_eigenvalues(LEBESGUE, "neumann", 2, tol=0.0)

    def test_norm_identity_rejects_non_roots(self):
        rec = find_eigenvalues(LEBESGUE, "neumann", 2)[1]
        # on the gapped measure the boundary product dips clearly negative
        mu = cantor(F(1, 2), F(1, 2), 1)
        fake = type(rec)(
            index=1,
            boundary="neumann",
            z=5.0,
            lam=25.0,
            bracket_lo=4.9,
            bracket_hi=5.1,
            residual=0.0,
            error_bound=0.1,
        )
        ef = eigenfunction(mu, fake)
        with pytest.raises(PrecisionError):
            eigenfunction_l2_norm(ef)


@settings(max_examples=12, deadline=None)
@given(weight_vectors())
def test_random_weights_certified_roots(w):
    mu = cantor_approximant(CantorLevel(w, 1))
    for boundary in ("neumann", "dirichlet"):
        recs = find_eigenvalues(mu, boundary, 3)
        zs = [r.z for r in recs]
        assert all(b > a for a, b in zip(zs, zs[1:]))
        for rec in recs:
            if rec.index == 0 and boundary == "neumann":
                continue
            assert rec.residual <= rec.error_bound + 1e-12
            ef = eigenfunction(mu, rec)
            assert eigenfunction_l2_norm(ef) > 0.0
