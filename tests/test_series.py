"""Coefficient tables and certified series evaluation.

Frozen oracle values come from an independent Picard fixed-point
iteration of the integral system with cumulative-Simpson quadrature on a
3*4096-point grid (error ~1e-13), run once and pinned here.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kreinfeller.errors import DomainError
from kreinfeller.measures import Measure, WeightVector
from kreinfeller.series import (
    TrigTable,
    build_table,
    default_order,
    derivative,
    null_sum_plain,
    null_sum_weighted,
    value,
    value_at,
    _factorial_tail,
)

from conftest import cantor, piecewise_measures

FAMILIES = ("sp", "cp", "sq", "cq")
HALF = WeightVector.of(Fraction(1, 2))
THIRD = WeightVector.of(Fraction(1, 3))

# independent Picard/Simpson oracle values on the level-1 symmetric measure
SP_AT_2_LEVEL1_HALF = 0.69129833410657748
CQ_AT_1_LEVEL1_HALF = 0.53602280140653469


@pytest.fixture(scope="module")
def leb_table():
    # order large enough that the certified tail at z=12 is tiny
    from kreinfeller.measures import Measure
    return build_table(Measure.lebesgue(), 240)


@pytest.fixture(scope="module")
def mu1_table():
    return build_table(cantor(HALF, 1), 60)


@pytest.fixture(scope="module")
def mu2_table():
    return build_table(cantor(HALF, 2), 40)


class TestBuildTable:
    def test_lebesgue_factorials(self, leb_table):
        for n in range(0, 120):
            assert leb_table.p_one[n] == pytest.approx(1.0 / math.factorial(n), rel=1e-11)
            assert leb_table.q_one[n] == pytest.approx(1.0 / math.factorial(n), rel=1e-11)

    def test_p1_is_total_mass(self, mu1_table, mu2_table):
        assert mu1_table.p_one[1] == pytest.approx(1.0, abs=1e-13)
        assert mu2_table.p_one[1] == pytest.approx(1.0, abs=1e-13)

    def test_q2_against_double_quadrature(self, mu1_table):
        # q2(1) = int_0^1 t dmu(t); brute-force with piecewise density
        ref = quad(lambda t: t * 1.5, 0, 1.0 / 3.0)[0] + quad(lambda t: t * 1.5, 2.0 / 3.0, 1)[0]
        assert mu1_table.q_one[2] == pytest.approx(ref, abs=1e-10)

    def test_vanish_at_zero_and_one_at_origin(self, mu2_table):
        for n in range(1, 10):
            assert mu2_table.p_fun[n].eval_many(0.0) == 0.0
            assert mu2_table.q_fun[n].eval_many(0.0) == 0.0
        assert mu2_table.p_fun[0].eval_many(0.37) == 1.0
        assert mu2_table.q_fun[0].eval_many(0.37) == 1.0

    def test_factorial_bounds_at_one(self, mu2_table):
        p2, q2 = mu2_table.p_one[2], mu2_table.q_one[2]
        for n in range(1, mu2_table.order + 1):
            fact = math.factorial(n)
            slack = 1e-14
            assert mu2_table.p_one[2 * n + 1] <= q2**n / fact + slack
            assert mu2_table.p_one[2 * n] <= p2**n / fact + slack
            assert mu2_table.q_one[2 * n + 1] <= p2**n / fact + slack
            assert mu2_table.q_one[2 * n] <= q2**n / fact + slack

    def test_all_coefficients_nonnegative(self, mu2_table):
        assert all(v >= 0.0 for v in mu2_table.p_one)
        assert all(v >= 0.0 for v in mu2_table.q_one)

    @given(mu=piecewise_measures())
    @settings(max_examples=15, deadline=None)
    def test_p1_is_cdf_and_q1_is_identity(self, mu):
        table = build_table(mu, 2)
        xs = np.linspace(0, 1, 41)
        np.testing.assert_allclose(table.p_fun[1].eval_many(xs), [float(mu.cdf_exact(x)) for x in xs], atol=1e-13)
        np.testing.assert_allclose(table.q_fun[1].eval_many(xs), xs, atol=1e-14)

    def test_order_must_be_positive(self, lebesgue):
        with pytest.raises(DomainError):
            build_table(lebesgue, 0)


class TestLebesgueSpecialization:
    def test_sinp_at_pi_vanishes(self, leb_table):
        val, tail = value(leb_table, "sp", math.pi)
        assert abs(val) <= 1e-12 + tail

    def test_all_four_match_sin_cos_up_to_twelve(self, leb_table):
        for z in np.linspace(0.0, 12.0, 97):
            for family, ref in (("sp", math.sin), ("sq", math.sin), ("cp", math.cos), ("cq", math.cos)):
                val, tail = value(leb_table, family, float(z))
                assert abs(val - ref(z)) <= 1e-10 + tail

    def test_primes_match_cos_sin(self, leb_table):
        for z in np.linspace(0.0, 12.0, 49):
            val, tail = derivative(leb_table, "sp", float(z))
            assert abs(val - math.cos(z)) <= 1e-10 + tail
            val, tail = derivative(leb_table, "cp", float(z))
            assert abs(val - (-math.sin(z))) <= 1e-10 + tail

    def test_cp_eval_matches_cosine(self, leb_table):
        z = 3 * math.pi
        for x in np.linspace(0, 1, 25):
            val, tail = value_at(leb_table, "cp", z, float(x))
            assert abs(val - math.cos(z * x)) <= 1e-10 + tail


class TestEvaluationAtZero:
    def test_sines_vanish(self, mu1_table):
        assert value(mu1_table, "sp", 0.0)[0] == 0.0
        assert value(mu1_table, "sq", 0.0)[0] == 0.0

    def test_cosines_are_one(self, mu1_table):
        assert value(mu1_table, "cp", 0.0)[0] == 1.0
        assert value(mu1_table, "cq", 0.0)[0] == 1.0

    def test_sinp_prime_at_zero_is_mass(self, mu1_table):
        val, _ = derivative(mu1_table, "sp", 0.0)
        assert val == pytest.approx(mu1_table.p_one[1], abs=1e-15)


class TestOracleValues:
    def test_sinp_level1_at_two(self, mu1_table):
        val, tail = value(mu1_table, "sp", 2.0)
        assert tail < 1e-12
        assert val == pytest.approx(SP_AT_2_LEVEL1_HALF, abs=1e-9)

    def test_cosq_level1_at_one(self, mu1_table):
        val, tail = value(mu1_table, "cq", 1.0)
        assert tail < 1e-12
        assert val == pytest.approx(CQ_AT_1_LEVEL1_HALF, abs=1e-9)


class TestCertificates:
    def test_tail_dominates_explicit_partial_tail(self, mu2_table):
        z = 4.0
        q2 = mu2_table.q_one[2]
        _, tail = value(mu2_table, "sp", z)
        explicit = sum(z ** (2 * n + 1) * q2**n / math.factorial(n)
                       for n in range(mu2_table.order + 1, mu2_table.order + 60))
        assert tail >= explicit

    @given(z=st.floats(min_value=0.1, max_value=9.0))
    @example(z=0.1)
    @settings(max_examples=30, deadline=None)
    def test_factorial_tail_upper_bounds_brute_force(self, z):
        r = z * z * 0.7
        start = 8
        # term weights of the plain, odd-derivative and even-derivative tails
        for deriv_weight, weight in ((0, lambda n: 1), (1, lambda n: 2 * n + 1), (2, lambda n: 2 * n)):
            brute = sum(weight(n) * math.exp(n * math.log(r) - math.lgamma(n + 1))
                        for n in range(start, start + 400))
            assert _factorial_tail(r, start, deriv_weight) >= brute

    def test_default_order_defining_property(self):
        for z in (2.0, 5.0, 12.0):
            n = default_order(z)
            log_tail = (2 * n + 3) * math.log(z) - math.lgamma(n + 2)
            assert log_tail < math.log(1e-15)
            if n > 1:
                prev = (2 * n + 1) * math.log(z) - math.lgamma(n + 1)
                assert prev >= math.log(1e-15)
        assert default_order(2.0) <= default_order(5.0) <= default_order(12.0)


# family -> (odd, coefficient sequence), from the series definitions above
_TERMS = {"sp": (True, "p"), "cp": (False, "p"), "sq": (True, "q"), "cq": (False, "q")}
_EXTRA = 40


def _skewed(left: bool) -> Measure:
    """Mass 99/100 on an end piece of width 1/100: at the left end p2(1) = 0.99
    and q2(1) = 0.01, at the right end the reverse."""
    a, m = (Fraction(1, 100), Fraction(99, 100)) if left else (Fraction(99, 100), Fraction(1, 100))
    return Measure((Fraction(0), a, Fraction(1)), (m / a, (1 - m) / (1 - a)))


def _dropped(coeffs, family: str, z: float, order: int, derivative: bool) -> float:
    """Sum of |terms| a truncation at ``order`` drops, from coefficients
    ``coeffs`` of a table ``_EXTRA`` orders deeper."""
    odd, _ = _TERMS[family]
    total = 0.0
    for n in range(order + 1, order + _EXTRA + 1):
        k = 2 * n + odd
        total += (k * z ** (k - 1) if derivative else z**k) * coeffs[k]
    return total


class TestTailsCoverDroppedTerms:
    """Every family's tail bound, from value, derivative and value_at, covers
    the terms the truncation drops, summed explicitly.  The measures make
    p2(1) and q2(1) differ by a factor of 99, so a cp or cq tail built on the
    wrong one of them falls short."""

    @pytest.fixture(scope="class", params=[True, False], ids=["mass-left", "mass-right"])
    def tables(self, request):
        mu = _skewed(request.param)
        return {n: build_table(mu, n) for n in (1, 2, 3)}, build_table(mu, 3 + _EXTRA)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_at_one(self, tables, family):
        short, deep = tables
        coeffs = getattr(deep, _TERMS[family][1] + "_one")
        for order, table in short.items():
            for z in (0.5, 1.0, 2.0, 4.0):
                assert _dropped(coeffs, family, z, order, False) <= value(table, family, z)[1]
                assert _dropped(coeffs, family, z, order, True) <= derivative(table, family, z)[1]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_at_x(self, tables, family):
        short, deep = tables
        funs = getattr(deep, _TERMS[family][1] + "_fun")
        for x in (0.005, 0.5, 1.0):
            coeffs = [float(f.eval_many(np.array([x]))[0]) for f in funs]
            for order, table in short.items():
                for z in (0.5, 1.0, 2.0, 4.0):
                    assert _dropped(coeffs, family, z, order, False) <= value_at(table, family, z, x)[1]


class TestDerivatives:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_central_difference(self, mu1_table, family):
        h = 1e-5
        for z in (0.5, 1.0, 2.0, 3.0, 5.0):
            fd = (value(mu1_table, family, z + h)[0] - value(mu1_table, family, z - h)[0]) / (2 * h)
            val, _ = derivative(mu1_table, family, z)
            assert val == pytest.approx(fd, abs=1e-6)

    def test_mu1_sinp_prime_at_three_tight(self, mu1_table):
        h = 1e-5
        fd = (value(mu1_table, "sp", 3.0 + h)[0] - value(mu1_table, "sp", 3.0 - h)[0]) / (2 * h)
        assert derivative(mu1_table, "sp", 3.0)[0] == pytest.approx(fd, abs=1e-7)


class TestPointEvaluation:
    def test_boundary_values(self, mu2_table):
        assert value_at(mu2_table, "cp", 3.3, 0.0)[0] == 1.0
        assert value_at(mu2_table, "sq", 3.3, 0.0)[0] == 0.0

    def test_matches_one_endpoint_series(self, mu1_table):
        z = 2.0
        for family in FAMILIES:
            assert value_at(mu1_table, family, z, 1.0)[0] == pytest.approx(
                value(mu1_table, family, z)[0], abs=1e-13
            )

    def test_domain_error(self, mu1_table):
        for x in (1.5, float("nan")):
            with pytest.raises(DomainError):
                value_at(mu1_table, "cp", 1.0, x)

    @pytest.mark.parametrize("evaluate", [
        lambda t, family: value(t, family, 1.0),
        lambda t, family: derivative(t, family, 1.0),
        lambda t, family: value_at(t, family, 1.0, 0.5),
    ], ids=["value", "derivative", "value_at"])
    def test_unknown_family_rejected(self, mu1_table, evaluate):
        for family in ("sinp", "cos", ""):
            with pytest.raises(DomainError):
                evaluate(mu1_table, family)


class TestNullSums:
    def test_vanish_at_lebesgue_eigenvalues(self, leb_table):
        # zeros of sp_z(1) are z = m*pi for Lebesgue; z kept small enough that
        # the alternating Cauchy sums stay in float range (growth ~ e^{2z})
        for m in (1, 2):
            lam = (m * math.pi) ** 2
            for fun in (null_sum_plain, null_sum_weighted):
                val, tail = fun(leb_table, lam)
                assert abs(val) <= 1e-8 + tail

    def test_nonzero_away_from_eigenvalues(self, leb_table):
        val, tail = null_sum_plain(leb_table, 4.0)  # z=2, not an eigenvalue
        assert abs(val) > 1e-3
