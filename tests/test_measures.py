"""Measure construction, CDFs, sup-distance, refinement identity."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinfeller.errors import DomainError, ResourceError
from kreinfeller.measures import (
    CantorLevel,
    Measure,
    WeightVector,
    cantor_approximant,
    cdf_sup_distance_exact,
    verify_refinement_identity,
)

from conftest import cantor, piecewise_measures, weight_vectors

HALF = WeightVector.of(Fraction(1, 2))
THIRD = WeightVector.of(Fraction(1, 3))


class TestWeightVector:
    def test_exact_complement(self):
        w = WeightVector.of(0.3)
        assert w.w1 + w.w2 == 1

    def test_canonical_swap_recorded(self):
        w = WeightVector.of(0.75)
        assert (w.w1, w.w2) == (Fraction(1, 4), Fraction(3, 4))

    @pytest.mark.parametrize("bad", [0, 1, -0.2, 1.5])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            WeightVector.of(bad)

    def test_rejects_inexact_pair(self):
        with pytest.raises(DomainError):
            WeightVector.of(Fraction(1, 3), Fraction(1, 2))


class TestCantorApproximant:
    def test_level0_is_lebesgue(self):
        mu = cantor(HALF, 0)
        assert mu.breakpoints == (0, 1)
        assert mu.densities == (1,)

    def test_level1_symmetric_densities(self):
        mu = cantor(HALF, 1)
        assert mu.breakpoints == (0, Fraction(1, 3), Fraction(2, 3), 1)
        assert mu.densities == (Fraction(3, 2), 0, Fraction(3, 2))

    def test_level1_asymmetric_interval_masses(self):
        mu = cantor(THIRD, 1)
        assert mu.cdf_exact(Fraction(1, 3)) == Fraction(1, 3)
        assert mu.cdf_exact(1) - mu.cdf_exact(Fraction(2, 3)) == Fraction(2, 3)

    def test_breakpoints_are_ternary_rationals(self):
        mu = cantor(THIRD, 4)
        assert all(t.denominator in (1, 3, 9, 27, 81) for t in mu.breakpoints)
        assert sum(d > 0 for d in mu.densities) == 2**4

    def test_resource_cap(self):
        with pytest.raises(ResourceError):
            cantor_approximant(CantorLevel(HALF, 17))

    def test_negative_level_rejected(self):
        with pytest.raises(DomainError):
            CantorLevel(HALF, -1)

    @given(w=weight_vectors(), n=st.integers(min_value=0, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_mass_exact_and_piece_count(self, w, n):
        mu = cantor_approximant(CantorLevel(w, n))
        mass = sum(d * (mu.breakpoints[i + 1] - mu.breakpoints[i]) for i, d in enumerate(mu.densities))
        assert mass == 1
        assert sum(d > 0 for d in mu.densities) == 2**n


class TestCdf:
    def test_lebesgue_identity(self, lebesgue):
        assert lebesgue.cdf(0.25) == 0.25

    def test_level1_full_first_interval(self):
        assert cantor(HALF, 1).cdf_exact(Fraction(1, 3)) == Fraction(1, 2)

    def test_level2_asymmetric_hand_value(self):
        # density on [0,1/9] is 3^2 * (1/3)^2 = 1, so F(1/9) = 1/9
        assert cantor(THIRD, 2).cdf_exact(Fraction(1, 9)) == Fraction(1, 9)

    def test_domain_error(self, lebesgue):
        with pytest.raises(DomainError):
            lebesgue.cdf(1.5)
        with pytest.raises(DomainError):
            lebesgue.cdf(-0.1)

    @given(mu=piecewise_measures(), t=st.floats(min_value=0, max_value=1))
    @settings(max_examples=60, deadline=None)
    def test_endpoints_and_monotone(self, mu, t):
        assert mu.cdf(0.0) == 0.0
        assert abs(mu.cdf(1.0) - 1.0) < 1e-12
        ts = np.linspace(0, 1, 37)
        vals = mu.cdf(ts)
        assert np.all(np.diff(vals) >= -1e-15)
        assert 0.0 <= mu.cdf(t) <= 1.0 + 1e-12

    def test_one_float_evaluator(self):
        for weights in (HALF, THIRD, WeightVector.of(Fraction(2, 5))):
            mu = cantor(weights, 3)
            # at every breakpoint, 0 and 1 included, it is the float of the exact value
            bp = [float(t) for t in mu.breakpoints]
            assert mu.cdf(bp).tolist() == [float(mu.cdf_exact(t)) for t in mu.breakpoints]
            # monotone on a grid that mixes interior points and breakpoints
            assert np.all(np.diff(mu.cdf(np.linspace(0, 1, 1001))) >= 0.0)
            for outside in ([-0.1], [0.5, 1.5], -1e-300, [0.5, float("nan")]):
                with pytest.raises(DomainError):
                    mu.cdf(outside)


class TestSupDistance:
    def test_identical_measures(self):
        mu = cantor(HALF, 2)
        assert cdf_sup_distance_exact(mu, mu) == 0

    def test_level0_vs_level1_symmetric(self):
        # max gap sits at t = 1/3: F0 = 1/3 vs F1 = 1/2
        d = cdf_sup_distance_exact(cantor(HALF, 0), cantor(HALF, 1))
        assert d == Fraction(1, 6)

    @given(w=weight_vectors(), n=st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_single_step_bounded_by_w2_pow(self, w, n):
        d = cdf_sup_distance_exact(cantor_approximant(CantorLevel(w, n)),
                                   cantor_approximant(CantorLevel(w, n + 1)))
        assert d <= w.w2**n

    @given(w=weight_vectors(), n=st.integers(min_value=0, max_value=4),
           k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_multi_step_bounded_by_w2_pow_over_w1(self, w, n, k):
        d = cdf_sup_distance_exact(cantor_approximant(CantorLevel(w, n)),
                                   cantor_approximant(CantorLevel(w, n + k)))
        assert d <= w.w2**n / w.w1

    @given(a=piecewise_measures(), b=piecewise_measures(), c=piecewise_measures())
    @settings(max_examples=40, deadline=None)
    def test_metric_properties(self, a, b, c):
        dab = cdf_sup_distance_exact(a, b)
        assert dab == cdf_sup_distance_exact(b, a)
        assert dab >= 0
        assert dab <= cdf_sup_distance_exact(a, c) + cdf_sup_distance_exact(c, b)

    @given(mu=piecewise_measures())
    @settings(max_examples=25, deadline=None)
    def test_zero_iff_same_cdf(self, mu):
        assert cdf_sup_distance_exact(mu, mu) == 0


class TestRefinementIdentity:
    def test_level1_at_one_third(self):
        d = verify_refinement_identity(CantorLevel(HALF, 1), [1.0 / 3.0])
        assert d == 0.0

    def test_level2_dense_grid(self):
        grid = np.linspace(0, 1, 2001)
        d = verify_refinement_identity(CantorLevel(THIRD, 2), grid)
        assert d <= 1e-12

    def test_right_endpoint(self, weights):
        assert verify_refinement_identity(CantorLevel(weights, 1), [1.0]) == 0.0

    @given(w=weight_vectors(), n=st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_all_levels_small_defect(self, w, n):
        grid = np.linspace(0, 1, 301)
        assert verify_refinement_identity(CantorLevel(w, n), grid) <= 1e-12

    def test_level0_rejected(self):
        with pytest.raises(DomainError):
            verify_refinement_identity(CantorLevel(HALF, 0), [0.5])


class TestMeasureValidation:
    def test_mass_must_be_one(self):
        with pytest.raises(DomainError):
            Measure.from_pieces([0, 1], [2])

    def test_breakpoints_must_increase(self):
        with pytest.raises(DomainError):
            Measure.from_pieces([0, Fraction(1, 2), Fraction(1, 2), 1], [1, 1, 1])

    def test_negative_density_rejected(self):
        with pytest.raises(DomainError):
            Measure.from_pieces([0, Fraction(1, 2), 1], [-1, 3])

    def test_must_cover_unit_interval(self):
        with pytest.raises(DomainError):
            Measure.from_pieces([0, Fraction(1, 2)], [2])

    def test_immutable(self):
        mu = Measure.lebesgue()
        with pytest.raises(Exception):
            mu.densities = (Fraction(2),)


class TestSampleGrid:
    def _check(self, mu, counts):
        grid = mu.sample_grid(counts)
        assert grid.size == int(np.sum(np.broadcast_to(counts, (mu.piece_count,)))) + 1
        assert np.all(np.diff(grid) > 0.0)
        assert set(float(t) for t in mu.breakpoints) <= set(grid.tolist())

    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_one_count_for_all_pieces(self, n):
        self._check(cantor(THIRD, 3), n)

    @settings(max_examples=30, deadline=None)
    @given(piecewise_measures(), st.data())
    def test_one_count_per_piece(self, mu, data):
        counts = data.draw(
            st.lists(st.integers(1, 9), min_size=mu.piece_count, max_size=mu.piece_count)
        )
        self._check(mu, counts)

    def test_interior_points_split_each_piece_evenly(self):
        mu = Measure.from_pieces([0, Fraction(1, 4), 1], [2, Fraction(2, 3)])
        assert mu.sample_grid([2, 3]).tolist() == [0.0, 0.125, 0.25, 0.5, 0.75, 1.0]

    def test_empty_piece_rejected(self):
        with pytest.raises(DomainError):
            cantor(HALF, 1).sample_grid([1, 0, 1])
