"""Piecewise-polynomial operators: exactness, linearity, quadrature oracle."""

import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kreinfeller.errors import DomainError
from kreinfeller.measures import Measure, WeightVector
from kreinfeller.polyalg import PiecewisePolynomial, integrate_dmu, integrate_dt
from kreinfeller.series import build_table

from conftest import STANDARD_WEIGHTS, cantor, piecewise_measures

HALF = WeightVector.of(Fraction(1, 2))
LEBESGUE = Measure.lebesgue()
# Lebesgue measure split at 1/2
HALVES = Measure.from_pieces((0, Fraction(1, 2), 1), (1, 1))


def leb_identity():
    # f(x) = x on Lebesgue measure's single piece
    return PiecewisePolynomial(LEBESGUE, ((0.0, 1.0),))


def ones_on(mu):
    return PiecewisePolynomial.constant(1.0, mu)


def identity_on(mu):
    return integrate_dt(ones_on(mu))


def horner_at(f, x):
    """f(x) by a Horner loop over the one piece that holds x."""
    bp = f.measure._bp
    i = min(max(int(np.searchsorted(bp, x, side="right")) - 1, 0), len(f.pieces) - 1)
    acc = 0.0
    for c in reversed(f.pieces[i]):
        acc = acc * (x - bp[i]) + c
    return acc


def global_poly_on(coeffs, mu):
    """sum_j coeffs[j] x^j re-expanded about each of mu's breakpoints."""
    P = np.polynomial.Polynomial(coeffs)
    return PiecewisePolynomial(mu, tuple(
        tuple(P(np.polynomial.Polynomial([t, 1.0])).coef.tolist())
        for t in mu._bp[:-1].tolist()))


class TestIntegrateDt:
    def test_constant_gives_identity(self):
        f = PiecewisePolynomial.constant(1.0, LEBESGUE)
        F = integrate_dt(f)
        assert F.eval_many(0.0) == 0.0
        assert F.eval_many(0.7) == pytest.approx(0.7, abs=1e-15)
        assert F.value_at_one() == pytest.approx(1.0, abs=1e-15)

    def test_identity_gives_half_square(self):
        F = integrate_dt(leb_identity())
        for x in (0.0, 0.3, 1.0):
            assert F.eval_many(x) == pytest.approx(x * x / 2, abs=1e-15)

    def test_step_function_hand_integral(self):
        # {1 on [0,1/2], 0 on (1/2,1]} integrates to {x, then constant 1/2}
        f = PiecewisePolynomial(HALVES, ((1.0,), (0.0,)))
        F = integrate_dt(f)
        assert F.eval_many(0.25) == pytest.approx(0.25, abs=1e-15)
        assert F.eval_many(0.75) == pytest.approx(0.5, abs=1e-15)
        assert F.eval_many(1.0) == pytest.approx(0.5, abs=1e-15)


class TestIntegrateDmu:
    def test_constant_against_lebesgue_is_identity(self, lebesgue):
        G = integrate_dmu(PiecewisePolynomial.constant(1.0, lebesgue), lebesgue)
        assert G.eval_many(0.6) == pytest.approx(0.6, abs=1e-15)

    def test_constant_against_cantor_level1_is_cdf(self):
        mu = cantor(HALF, 1)
        G = integrate_dmu(ones_on(mu), mu)
        # slope 3/2, flat, slope 3/2
        assert G.eval_many(1.0 / 3.0) == pytest.approx(0.5, abs=1e-14)
        assert G.eval_many(0.5) == pytest.approx(0.5, abs=1e-14)
        assert G.eval_many(1.0) == pytest.approx(1.0, abs=1e-14)
        xs = np.linspace(0, 1, 101)
        np.testing.assert_allclose(G.eval_many(xs), [float(mu.cdf_exact(x)) for x in xs], atol=1e-14)

    def test_identity_against_cantor_level1_at_one(self):
        # 3/2 * int_0^{1/3} t dt + 3/2 * int_{2/3}^1 t dt = 1/12 + 5/12 = 1/2
        mu = cantor(HALF, 1)
        G = integrate_dmu(identity_on(mu), mu)
        assert G.value_at_one() == pytest.approx(0.5, abs=1e-14)

    def test_constant_on_zero_density_pieces(self):
        mu = cantor(HALF, 1)
        G = integrate_dmu(identity_on(mu), mu)
        assert G.eval_many(0.4) == G.eval_many(0.6) == G.eval_many(1.0 / 3.0)

    def test_requires_the_measures_breakpoints(self):
        with pytest.raises(DomainError):
            integrate_dmu(PiecewisePolynomial.constant(1.0, LEBESGUE), cantor(HALF, 1))


class TestEval:
    def test_half_square_at_one(self):
        F = integrate_dt(leb_identity())
        assert F.eval_many(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_vanishing_at_zero(self):
        mu = cantor(HALF, 2)
        p1 = integrate_dmu(ones_on(mu), mu)
        p2 = integrate_dt(p1)
        assert p1.eval_many(0.0) == 0.0
        assert p2.eval_many(0.0) == 0.0

    def test_q2_of_level1_in_unit_interval(self):
        # q2 = int dmu of int dt of 1; brute-force value 1/2 * mass-weighted
        mu = cantor(HALF, 1)
        q1 = identity_on(mu)
        q2 = integrate_dmu(q1, mu)
        v = q2.value_at_one()
        assert 0.0 < v <= 1.0
        # oracle: int_0^1 t dmu(t) = 1/2 by symmetry of the level-1 measure
        assert v == pytest.approx(0.5, abs=1e-14)

    def test_domain_error(self):
        F = integrate_dt(leb_identity())
        with pytest.raises(DomainError):
            F.eval_many(1.2)

    def test_eval_many_matches_scalar(self):
        # exact agreement, also for tables whose massless pieces give rows
        # shorter than the rest (zero padding must not move a value)
        mu = cantor(HALF, 2)
        polys = [integrate_dt(integrate_dmu(ones_on(mu), mu))]
        mu3 = cantor(WeightVector.of(Fraction(1, 3)), 3)
        table = build_table(mu3, 4)
        polys += [f for funs in (table.p_fun, table.q_fun) for f in funs[:10]]
        assert len({len(c) for c in table.p_fun[9].pieces}) > 1
        xs = np.linspace(0, 1, 173)
        for f in polys:
            assert np.array_equal(f.eval_many(xs), [horner_at(f, x) for x in xs])


class TestInvariants:
    @given(mu=piecewise_measures())
    @settings(max_examples=25, deadline=None)
    def test_iterated_integral_nondecreasing(self, mu):
        G = integrate_dt(integrate_dmu(ones_on(mu), mu))
        xs = np.linspace(0, 1, 97)
        assert np.all(np.diff(G.eval_many(xs)) >= -1e-15)

    @given(mu=piecewise_measures(),
           a=st.floats(-3, 3, allow_nan=False),
           b=st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_linearity_of_both_operators(self, mu, a, b):
        f = global_poly_on((0.5, 1.0, -0.25), mu)
        g = global_poly_on((1.0, -2.0, 0.0, 3.0), mu)
        comb = PiecewisePolynomial(mu, tuple(
            tuple(a * cf + b * cg for cf, cg in zip_longest(pf, pg, fillvalue=0.0))
            for pf, pg in zip(f.pieces, g.pieces)))
        xs = np.linspace(0, 1, 41)
        for op in (integrate_dt, lambda h: integrate_dmu(h, mu)):
            lhs = op(comb).eval_many(xs)
            rhs = a * op(f).eval_many(xs) + b * op(g).eval_many(xs)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12 * (1 + abs(a) + abs(b)))

    def test_factorial_bound_chain_pointwise(self, weights):
        # iterated integrals obey p_{2n+1} <= q2^n/n!, p_{2n} <= p2^n/n!,
        # q_{2n+1} <= p2^n/n!, q_{2n} <= q2^n/n! pointwise
        mu = cantor(weights, 3)
        one = PiecewisePolynomial.constant(1.0, mu)
        p = [one]
        q = [one]
        for n in range(1, 16):
            p.append(integrate_dmu(p[-1], mu) if n % 2 == 1 else integrate_dt(p[-1]))
            q.append(integrate_dt(q[-1]) if n % 2 == 1 else integrate_dmu(q[-1], mu))
        xs = np.linspace(0, 1, 61)
        p2 = p[2].eval_many(xs)
        q2 = q[2].eval_many(xs)
        slack = 1e-12
        for n in range(1, 7):
            fact = math.factorial(n)
            assert np.all(p[2 * n + 1].eval_many(xs) <= q2**n / fact + slack)
            assert np.all(p[2 * n].eval_many(xs) <= p2**n / fact + slack)
            assert np.all(q[2 * n + 1].eval_many(xs) <= p2**n / fact + slack)
            assert np.all(q[2 * n].eval_many(xs) <= q2**n / fact + slack)

    @given(mu=piecewise_measures())
    @settings(max_examples=15, deadline=None)
    def test_quadrature_oracle(self, mu):
        f = global_poly_on((0.3, -1.2, 2.0, 0.7), mu)
        F = integrate_dt(f)
        G = integrate_dmu(f, mu)
        for x in (0.31, 0.77, 1.0):
            ref_t, _ = quad(f.eval_many, 0, x, limit=200)
            assert F.eval_many(x) == pytest.approx(ref_t, abs=1e-10)
            pts = sorted({float(t) for t in mu.breakpoints if 0 < float(t) < x})
            ref_mu, _ = quad(lambda t: f.eval_many(t) * mu._dens[min(np.searchsorted(mu._bp, t, side='right') - 1, len(mu.densities) - 1)],
                             0, x, points=pts, limit=200)
            assert G.eval_many(x) == pytest.approx(ref_mu, abs=1e-10)


class TestRefinement:
    def test_continuity_defect_reported(self):
        jump = PiecewisePolynomial(HALVES, ((1.0,), (2.0,)))
        assert jump.continuity_defect() > 1e-13
        assert jump.continuity_defect() == pytest.approx(0.5)
        # integral outputs are continuous regardless of the input's jumps
        assert integrate_dt(jump).continuity_defect() <= 1e-13


class TestMeasureGrid:
    def test_piece_count_must_match_the_measure(self):
        with pytest.raises(DomainError):
            PiecewisePolynomial(HALVES, ((1.0,),))
        with pytest.raises(DomainError):
            PiecewisePolynomial(LEBESGUE, ((1.0,), (2.0,)))

    def test_polynomials_hold_their_measure(self):
        mu = cantor(HALF, 2)
        assert integrate_dt(integrate_dmu(ones_on(mu), mu)).measure is mu

    @pytest.mark.parametrize("w", STANDARD_WEIGHTS, ids=str)
    def test_lengths_are_floats_of_exact_lengths_cantor(self, w):
        for level in (0, 3, 6):
            mu = cantor(w, level)
            bp = mu.breakpoints
            assert mu._lengths == tuple(float(bp[i + 1] - bp[i]) for i in range(mu.piece_count))

    @given(mu=piecewise_measures())
    @settings(max_examples=25, deadline=None)
    def test_lengths_are_floats_of_exact_lengths(self, mu):
        bp = mu.breakpoints
        assert mu._lengths == tuple(float(bp[i + 1] - bp[i]) for i in range(mu.piece_count))
