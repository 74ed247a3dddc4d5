"""Closed-form piece propagation vs series, closed forms, finite differences."""

import dataclasses
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinfeller.errors import DomainError, PrecisionError
from kreinfeller.measures import Measure, WeightVector
from kreinfeller.propagation import boundary_values, eval_on_grid, zero_count
from kreinfeller import series as se

from conftest import STANDARD_WEIGHTS, cantor, piecewise_measures

FAMILIES = ("sp", "cp", "sq", "cq")
HALF = WeightVector.of(Fraction(1, 2))
THIRD = WeightVector.of(Fraction(1, 3))


class TestLebesgueClosedForm:
    @pytest.mark.parametrize("z", [0.0, 0.3, 2.0, 10.0, 31.4])
    def test_reduces_to_sin_cos(self, z):
        r = boundary_values(Measure.lebesgue(), z)
        assert r.sp == pytest.approx(math.sin(z), abs=1e-13)
        assert r.cp == pytest.approx(math.cos(z), abs=1e-13)
        assert r.sq == pytest.approx(math.sin(z), abs=1e-13)
        assert r.cq == pytest.approx(math.cos(z), abs=1e-13)
        assert r.sp_prime == pytest.approx(math.cos(z), abs=1e-12)
        assert r.sq_prime == pytest.approx(math.cos(z), abs=1e-12)
        assert r.cp_prime == pytest.approx(-math.sin(z), abs=1e-12)
        assert r.cq_prime == pytest.approx(-math.sin(z), abs=1e-12)

    def test_grid_eval_is_cos_sin(self):
        xs = np.linspace(0, 1, 257)
        z = 7.7
        leb = Measure.lebesgue()
        np.testing.assert_allclose(eval_on_grid(leb, z, xs, "cp"), np.cos(z * xs), atol=1e-13)
        np.testing.assert_allclose(eval_on_grid(leb, z, xs, "sq"), np.sin(z * xs), atol=1e-13)


@pytest.fixture(scope="module")
def table():
    return se.build_table(cantor(THIRD, 2), 50)


class TestAgainstSeries:
    """Dual-route check: the truncated series and the piece propagation
    must agree wherever the series is numerically trustworthy."""

    @pytest.mark.parametrize("z", [0.25, 1.0, 2.5, 5.0])
    def test_boundary_values_agree(self, table, z):
        r = boundary_values(table.measure, z)
        for f in FAMILIES:
            val, tail = se.value(table, f, z)
            assert abs(getattr(r, f) - val) <= 1e-12 + tail

    @pytest.mark.parametrize("z", [0.25, 1.0, 2.5, 5.0])
    def test_derivatives_agree(self, table, z):
        r = boundary_values(table.measure, z)
        for f in FAMILIES:
            val, tail = se.derivative(table, f, z)
            assert abs(getattr(r, f + "_prime") - val) <= 1e-12 + tail

    def test_grid_eval_agrees(self, table):
        z = 3.0
        xs = np.linspace(0, 1, 23)
        for f in FAMILIES:
            got = eval_on_grid(table.measure, z, xs, f)
            for i, x in enumerate(xs):
                assert got[i] == pytest.approx(se.value_at(table, f, z, float(x))[0], abs=1e-12)

    @given(mu=piecewise_measures(), z=st.floats(min_value=0.0, max_value=6.0))
    @settings(max_examples=25, deadline=None)
    def test_random_measures_agree(self, mu, z):
        table = se.build_table(mu, 30)
        r = boundary_values(mu, z)
        val, tail = se.value(table, "sp", z)
        assert abs(r.sp - val) <= 1e-10 + tail
        val, tail = se.value(table, "cq", z)
        assert abs(r.cq - val) <= 1e-10 + tail


class TestDerivativeFiniteDifference:
    def test_large_z_deep_level(self):
        mu = cantor(HALF, 5)
        z, h = 25.0, 1e-5
        r = boundary_values(mu, z)
        for field, pick in (("sp_prime", lambda t: t.sp), ("cp_prime", lambda t: t.cp),
                            ("sq_prime", lambda t: t.sq), ("cq_prime", lambda t: t.cq)):
            fd = (pick(boundary_values(mu, z + h)) - pick(boundary_values(mu, z - h))) / (2 * h)
            assert getattr(r, field) == pytest.approx(fd, abs=5e-5)


class TestGridEvaluation:
    def test_unsorted_input_preserved(self):
        mu = cantor(HALF, 2)
        xs = np.array([0.9, 0.1, 0.5, 0.0, 1.0, 0.33])
        got = eval_on_grid(mu, 4.0, xs, "cp")
        ref = eval_on_grid(mu, 4.0, np.sort(xs), "cp")
        assert sorted(got) == sorted(ref)
        one_by_one = [eval_on_grid(mu, 4.0, np.array([x]), "cp")[0] for x in xs]
        np.testing.assert_allclose(got, one_by_one, atol=1e-14)

    def test_initial_conditions(self):
        mu = cantor(THIRD, 3)
        z = 9.0
        assert eval_on_grid(mu, z, np.array([0.0]), "cp")[0] == 1.0
        assert eval_on_grid(mu, z, np.array([0.0]), "sq")[0] == 0.0
        assert eval_on_grid(mu, z, np.array([0.0]), "sp")[0] == 0.0
        assert eval_on_grid(mu, z, np.array([0.0]), "cq")[0] == 1.0

    @pytest.mark.parametrize("mu", [Measure.lebesgue(), cantor(THIRD, 3)], ids=["lebesgue", "third-3"])
    def test_sp_zero_is_positive_zero(self, mu):
        # sp is carried negated in the (cp, -sp) column; plain negation back
        # would turn +0.0 into -0.0, which prints as "-0"
        assert math.copysign(1.0, boundary_values(mu, 0.0).sp) == 1.0
        for z in (0.0, 9.0):
            (sp,) = eval_on_grid(mu, z, [0.0], "sp")
            assert sp == 0.0 and math.copysign(1.0, sp) == 1.0

    def test_constant_on_gaps(self):
        # sp and cq are measure antiderivatives: flat across zero-density gaps
        mu = cantor(HALF, 1)
        z = 5.0
        xs = np.linspace(1.0 / 3.0, 2.0 / 3.0, 9)
        sp = eval_on_grid(mu, z, xs, "sp")
        cq = eval_on_grid(mu, z, xs, "cq")
        assert np.ptp(sp) <= 1e-14
        assert np.ptp(cq) <= 1e-14

    def test_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            eval_on_grid(Measure.lebesgue(), 1.0, np.array([1.2]), "cp")
        with pytest.raises(DomainError):
            eval_on_grid(Measure.lebesgue(), 1.0, np.array([0.5]), "nope")


class TestConservationLaw:
    """cp*cq + sp*sq = 1 identically: its x-derivative cancels piecewise
    ((-z sp)cq + cp(-z d sq) + (z d cp)sq + sp(z cq) = 0) and the value at
    x = 0 is 1.  The measure analogue of cos^2 + sin^2 = 1, and a sharp
    cross-check of all four propagation maps at once."""

    @given(z=st.floats(min_value=0.0, max_value=40.0),
           level=st.integers(min_value=0, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_boundary_invariant(self, z, level):
        mu = cantor(THIRD, level)
        r = boundary_values(mu, z)
        amp = max(1.0, abs(r.cp), abs(r.sp), abs(r.cq), abs(r.sq))
        assert abs(r.cp * r.cq + r.sp * r.sq - 1.0) <= 4.0 * amp * r.err_est + 1e-13

    @given(z=st.floats(min_value=0.0, max_value=40.0))
    @settings(max_examples=40, deadline=None)
    def test_z_derivative_of_invariant_vanishes(self, z):
        mu = cantor(HALF, 3)
        r = boundary_values(mu, z)
        amp = max(1.0, abs(r.cp), abs(r.sp), abs(r.cq), abs(r.sq),
                  abs(r.cp_prime), abs(r.sp_prime), abs(r.cq_prime), abs(r.sq_prime))
        d_inv = (r.cp_prime * r.cq + r.cp * r.cq_prime
                 + r.sp_prime * r.sq + r.sp * r.sq_prime)
        assert abs(d_inv) <= 8.0 * amp * r.err_est + 1e-13

    def test_invariant_on_grid(self):
        mu = cantor(HALF, 4)
        z = 40.0
        xs = np.linspace(0, 1, 301)
        total = (eval_on_grid(mu, z, xs, "cp") * eval_on_grid(mu, z, xs, "cq")
                 + eval_on_grid(mu, z, xs, "sp") * eval_on_grid(mu, z, xs, "sq"))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    @given(z=st.floats(min_value=0.0, max_value=40.0))
    @settings(max_examples=40, deadline=None)
    def test_values_finite_and_error_estimate_small(self, z):
        mu = cantor(HALF, 4)
        r = boundary_values(mu, z)
        amp = max(1.0, abs(r.cp), abs(r.sp), abs(r.cq), abs(r.sq))
        # rounding estimate tracks the running amplitude, which can peak
        # above the final boundary value; allow that headroom
        assert r.err_est <= 1e-11 * amp
        assert all(map(math.isfinite, (r.sp, r.cp, r.sq, r.cq,
                                       r.sp_prime, r.cp_prime, r.sq_prime, r.cq_prime)))

    def test_overflow_is_a_precision_error(self):
        mu = cantor(THIRD, 10)
        with pytest.raises(PrecisionError, match="z=20000.0"):
            boundary_values(mu, 2e4)
        with pytest.raises(PrecisionError):
            eval_on_grid(mu, 2e4, [0.5], "sq")


def _reference_column(mu, z, column):
    """One column (u, v) and its z-derivative swept alone, piece by piece.

    Returns u and v at every breakpoint, (du, dv) at x = 1 and the largest
    |u|, |v| met (at least 1).  The operands and their order are those of
    the fused pass, which must reproduce every bit.
    """
    u, v = ((1.0, 0.0), (0.0, 1.0))[column]
    du = dv = 0.0
    amp = 1.0
    us, vs = [u], [v]
    for h, d, rd in mu._piece_table:
        if d > 0.0:
            kh = z * rd * h
            c, s = math.cos(kh), math.sin(kh)
            u, v, du, dv = (
                u * c + v * s / rd,
                v * c - u * rd * s,
                du * c + dv * s / rd + h * (v * c - u * rd * s),
                dv * c - du * rd * s - h * (u * d * c + v * rd * s),
            )
        else:
            u, du = u + z * v * h, du + h * (v + z * dv)
        amp = max(amp, abs(u), abs(v))
        us.append(u)
        vs.append(v)
    return us, vs, du, dv, amp


def _reference_boundary_values(mu, z):
    """The ten PropagationResult fields, or None where a column overflows."""
    cols = [_reference_column(mu, z, j) for j in (0, 1)]
    if any(not math.isfinite(amp + du + dv) for _, _, du, dv, amp in cols):
        return None
    (cps, msps, dcp, dmsp, amp_p), (sqs, cqs, dsq, dcq, amp_q) = cols
    err = 8.0 * sys.float_info.epsilon * max(amp_p, amp_q) * (len(mu.densities) + abs(z) + 4.0)
    return (z, 0.0 - msps[-1], cps[-1], sqs[-1], cqs[-1], 0.0 - dmsp, dcp, dsq, dcq, err)


def _reference_grid(mu, z, xs, family):
    """eval_on_grid from the per-column sweep, or None where its values overflow."""
    column, component = {"cp": (0, 0), "sp": (0, 1), "sq": (1, 0), "cq": (1, 1)}[family]
    us, vs = _reference_column(mu, z, column)[:2]
    if not all(map(math.isfinite, us + vs)):
        return None
    us, vs = np.array(us), np.array(vs)
    i = np.minimum(np.searchsorted(mu._bp[1:], xs), mu.piece_count - 1)
    u, v, hs, d = us[i], vs[i], xs - mu._bp[i], mu._dens[i]
    m = d > 0.0
    rd = np.sqrt(d[m])
    kh = z * rd * hs[m]
    c, s = np.cos(kh), np.sin(kh)
    if component == 0:
        out = u + z * v * hs
        out[m] = u[m] * c + v[m] * s / rd
    else:
        out = v.copy()
        out[m] = v[m] * c - u[m] * rd * s
    return 0.0 - out if family == "sp" else out


def _seeded_measure(seed, pieces):
    """Non-self-similar measure: random cuts on a j/N grid, integer densities 0..4."""
    rng = random.Random(seed)
    n_grid = 3 * pieces
    ticks = [0, *sorted(rng.sample(range(1, n_grid), pieces - 1)), n_grid]
    raw = [rng.choice((0, 1, 2, 3, 4)) for _ in range(pieces)]
    raw[0] = raw[-1] = 1
    mass = Fraction(sum(k * (b - a) for k, a, b in zip(raw, ticks, ticks[1:])), n_grid)
    return Measure(tuple(Fraction(t, n_grid) for t in ticks), tuple(k / mass for k in raw))


_PINNED = [pytest.param(w, level, id=f"w={w.w1}-L{level}")
           for w in STANDARD_WEIGHTS for level in range(9)]
_PINNED += [pytest.param(seed, None, id=f"seeded-{seed}") for seed in (1, 2)]


class TestFusedPassIsBitIdentical:
    """boundary_values sweeps both columns in one pass that shares each
    piece's cos and sin, and eval_on_grid sweeps values only.  Both must
    give the per-column sweep's floats bit for bit: the solver's scan,
    Brent steps and certificates read these values, so one changed bit can
    change its sequence of calls."""

    XS = np.linspace(0.0, 1.0, 41)

    @pytest.mark.parametrize("w, level", _PINNED)
    def test_every_field_and_grid_value(self, w, level):
        mu = cantor(w, level) if level is not None else _seeded_measure(w, 300 + 200 * w)
        rng = random.Random(level if level is not None else -w)
        for z in [0.0, *(rng.uniform(0.0, 3000.0) for _ in range(6))]:
            ref = _reference_boundary_values(mu, z)
            assert ref is not None
            got = dataclasses.astuple(boundary_values(mu, z))
            assert [t.hex() for t in got] == [t.hex() for t in ref]
            for family in FAMILIES:
                assert np.array_equal(eval_on_grid(mu, z, self.XS, family),
                                      _reference_grid(mu, z, self.XS, family))

    def test_overflow_raises_on_both_routes(self):
        mu = cantor(THIRD, 10)
        assert _reference_boundary_values(mu, 2e4) is None
        with pytest.raises(PrecisionError, match="z=20000.0 after reaching magnitude"):
            boundary_values(mu, 2e4)
        for family in FAMILIES:
            assert _reference_grid(mu, 2e4, self.XS, family) is None
            with pytest.raises(PrecisionError, match="z=20000.0 after reaching magnitude"):
                eval_on_grid(mu, 2e4, self.XS, family)


    def test_second_column_alone_overflows(self):
        # across the gap (cp, -sp) stays (1, 0) while sq = z x reaches 6e307;
        # on the massive piece only the (sq, cq) derivative overflows
        mu = Measure((Fraction(0), Fraction(3, 4), Fraction(1)), (Fraction(0), Fraction(4)))
        z = 8e307
        us, vs, du, dv, amp = _reference_column(mu, z, 0)
        assert all(map(math.isfinite, [*us, *vs, du, dv, amp]))
        assert _reference_boundary_values(mu, z) is None
        with pytest.raises(PrecisionError, match=r"z=8e\+307 after reaching magnitude 1.2e\+308"):
            boundary_values(mu, z)
        # the values stay finite, so grid evaluation needs no derivative
        for family in FAMILIES:
            assert np.array_equal(eval_on_grid(mu, z, self.XS, family),
                                  _reference_grid(mu, z, self.XS, family))

_PROPERTY_MEASURES = {level: cantor(THIRD, level) for level in (2, 6, 10)}


@given(level=st.sampled_from(sorted(_PROPERTY_MEASURES)),
       z=st.floats(min_value=0.0, max_value=1e6),
       family=st.sampled_from(FAMILIES))
@settings(max_examples=60, deadline=None)
def test_finite_or_precision_error(level, z, family):
    # overflow is checked once, on the final state, so an inf or nan met on
    # the way must never come back as a finite number or leak out
    mu = _PROPERTY_MEASURES[level]
    try:
        r = boundary_values(mu, z)
    except PrecisionError:
        pass
    else:
        assert all(map(math.isfinite, dataclasses.astuple(r)))
    try:
        out = eval_on_grid(mu, z, TestFusedPassIsBitIdentical.XS, family)
    except PrecisionError:
        pass
    else:
        assert np.isfinite(out).all()


class TestZeroCount:
    """Zeros in (0, 1] counted from the carried Prüfer angle."""

    def test_holds_where_magnitudes_overflow(self):
        # the column overflows float64 from z ~ 8e3 on at this level (see
        # test_overflow_is_a_precision_error); the angle does not
        mu = cantor(THIRD, 10)
        counts = [zero_count(mu, float(z), "sq") for z in np.geomspace(1.0, 1e5, 61)]
        assert all(type(c) is int for c in counts)
        assert counts == sorted(counts)

    @pytest.mark.parametrize("pieces", [2, 8, 12])
    def test_lebesgue_in_pieces(self, pieces):
        # sin(zx) has floor(z/pi) zeros in (0, 1], cos(zx) has floor(z/pi + 1/2)
        mu = Measure(tuple(Fraction(j, pieces) for j in range(pieces + 1)), (Fraction(1),) * pieces)
        checked = 0
        for z in np.geomspace(0.1, 1e6, 400).tolist():
            t = z / math.pi
            if abs(2 * t - round(2 * t)) < 1e-3:
                continue  # a root of sin or cos at x = 1
            assert zero_count(mu, z, "sq") == math.floor(t)
            assert zero_count(mu, z, "cp") == math.floor(t + 0.5)
            checked += 1
        assert checked > 390

    def test_other_families_rejected(self):
        for family in ("sp", "cq", "sinp"):
            with pytest.raises(DomainError):
                zero_count(cantor(HALF, 2), 3.0, family)


class TestPhaseBeyondFloat64:
    """At z = 1e308 the phase z sqrt(d) h of the massive piece is inf, where
    cos and floor fail: every route raises a PrecisionError naming z."""

    MU = Measure((Fraction(0), Fraction(3, 4), Fraction(1)), (Fraction(0), Fraction(4)))

    def test_boundary_values(self):
        with pytest.raises(PrecisionError, match=r"z=1e\+308"):
            boundary_values(self.MU, 1e308)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_eval_on_grid(self, family):
        with pytest.raises(PrecisionError, match=r"z=1e\+308"):
            eval_on_grid(self.MU, 1e308, [0.5, 1.0], family)

    @pytest.mark.parametrize("family", ["cp", "sq"])
    @pytest.mark.parametrize("z, shown", [(1e308, r"1e\+308"), (math.inf, "inf"), (math.nan, "nan")])
    def test_zero_count(self, z, shown, family):
        with pytest.raises(PrecisionError, match=f"z={shown}$"):
            zero_count(self.MU, z, family)

    # an infinite or nan z is named as such, not as an overflowing column
    @pytest.mark.parametrize("z, shown", [(math.inf, "inf"), (math.nan, "nan")])
    def test_boundary_values_at_non_finite_z(self, z, shown):
        with pytest.raises(PrecisionError, match=f"not finite: z={shown}$"):
            boundary_values(self.MU, z)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("z, shown", [(math.inf, "inf"), (math.nan, "nan")])
    def test_eval_on_grid_at_non_finite_z(self, z, shown, family):
        with pytest.raises(PrecisionError, match=f"not finite: z={shown}$"):
            eval_on_grid(self.MU, z, [0.5, 1.0], family)
