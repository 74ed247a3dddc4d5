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
        assert lebesgue.cdf_exact(0.25) == Fraction(1, 4)

    def test_level1_full_first_interval(self):
        assert cantor(HALF, 1).cdf_exact(Fraction(1, 3)) == Fraction(1, 2)

    def test_level2_asymmetric_hand_value(self):
        # density on [0,1/9] is 3^2 * (1/3)^2 = 1, so F(1/9) = 1/9
        assert cantor(THIRD, 2).cdf_exact(Fraction(1, 9)) == Fraction(1, 9)

    def test_domain_error(self, lebesgue):
        with pytest.raises(DomainError):
            lebesgue.cdf_exact(1.5)
        with pytest.raises(DomainError):
            lebesgue.cdf_exact(-0.1)

    @given(mu=piecewise_measures(), t=st.floats(min_value=0, max_value=1))
    @settings(max_examples=60, deadline=None)
    def test_endpoints_and_monotone(self, mu, t):
        assert mu.cdf_exact(0) == 0
        assert mu.cdf_exact(1) == 1
        vals = [mu.cdf_exact(Fraction(k, 36)) for k in range(37)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert 0 <= mu.cdf_exact(t) <= 1


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
        mu, parent = cantor(HALF, 1), cantor(HALF, 0)
        # F_1(1/3) = w1 * F_0(1) + w2 * F_0(-1): the clamp's kink
        assert mu.cdf_exact(Fraction(1, 3)) == HALF.w1
        assert verify_refinement_identity(mu, parent, HALF) == 0

    def test_level2_dense_grid(self):
        # zero at the breakpoints is zero everywhere: check 2001 exact points
        mu, parent = cantor(THIRD, 2), cantor(THIRD, 1)
        assert verify_refinement_identity(mu, parent, THIRD) == 0

        def prev(s):
            return parent.cdf_exact(min(max(s, 0), 1))

        for k in range(2001):
            y = Fraction(k, 2000)
            assert mu.cdf_exact(y) == THIRD.w1 * prev(3 * y) + THIRD.w2 * prev(3 * y - 2)

    def test_right_endpoint(self, weights):
        mu, parent = cantor(weights, 1), cantor(weights, 0)
        assert mu.cdf_exact(1) == weights.w1 + weights.w2
        assert verify_refinement_identity(mu, parent, weights) == 0

    @given(w=weight_vectors(), n=st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_all_levels_zero_defect(self, w, n):
        defect = verify_refinement_identity(cantor(w, n), cantor(w, n - 1), w)
        assert defect == 0 and isinstance(defect, Fraction)

    def test_mismatched_inputs_give_the_exact_defect(self):
        # the measures' weights (1/3, 2/3) against the step's (2/5, 3/5): the
        # defect peaks at y = 1/3, F_2 = 1/3 against 2/5
        two_fifths = WeightVector.of(Fraction(2, 5))
        assert verify_refinement_identity(cantor(THIRD, 2), cantor(THIRD, 1), two_fifths) == Fraction(1, 15)
        # a level skipped: the step from level 1 gives level 2, so this is |F_3 - F_2|
        assert verify_refinement_identity(cantor(THIRD, 3), cantor(THIRD, 1), THIRD) == Fraction(4, 27)
        assert cdf_sup_distance_exact(cantor(THIRD, 3), cantor(THIRD, 2)) == Fraction(4, 27)


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

    def test_takes_only_breakpoints_and_densities(self):
        # the cached views are computed, never passed
        bp, dens = (Fraction(0), Fraction(1)), (Fraction(1),)
        with pytest.raises(TypeError):
            Measure(bp, dens, np.array([0.0, 1.0]))
        with pytest.raises(TypeError):
            Measure(bp, dens, _piece_table=())
        assert Measure(bp, dens)._piece_table == ((1.0, 1.0, 1.0),)


class TestSampleGrid:
    def _check(self, mu, n):
        grid = mu.sample_grid(n)
        assert grid.size == mu.piece_count * n + 1
        assert np.all(np.diff(grid) > 0.0)
        assert set(float(t) for t in mu.breakpoints) <= set(grid.tolist())

    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_one_count_for_all_pieces(self, n):
        self._check(cantor(THIRD, 3), n)

    @settings(max_examples=30, deadline=None)
    @given(piecewise_measures(), st.integers(1, 9))
    def test_one_count_per_piece(self, mu, n):
        self._check(mu, n)

    def test_interior_points_split_each_piece_evenly(self):
        mu = Measure.from_pieces([0, Fraction(1, 4), 1], [2, Fraction(2, 3)])
        assert mu.sample_grid(2).tolist() == [0.0, 0.125, 0.25, 0.625, 1.0]
        assert mu.sample_grid(4).tolist() == [
            0.0, 0.0625, 0.125, 0.1875, 0.25, 0.4375, 0.625, 0.8125, 1.0,
        ]

    def test_empty_piece_rejected(self):
        with pytest.raises(DomainError):
            cantor(HALF, 1).sample_grid(0)
