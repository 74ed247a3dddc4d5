"""Rate experiments and the proven-inequality audit.

The decay-rate facts asserted here are the measured ones.  Successive gaps
shrink geometrically, strictly faster than the proven w2**n envelope, with the
per-level ratio a moment expansion of one refinement step predicts (derived in
test_acceptance): (w1**2 + w2**2) / 3 for Neumann eigenvalues, 1/3 for
Dirichlet eigenvalues and for eigenfunctions, and 1/6 throughout for the
symmetric weights.  Tests therefore check the envelope from above and the
measured behaviour from below, never conflating the two.
"""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from kreinfeller import convergence as conv
from kreinfeller.cli import (
    AUDIT_CSV_HEADER,
    FUNCTION_RATE_CSV_HEADER,
    RATE_CSV_HEADER,
    _json_bytes,
    _report_output,
    _report_rows,
)
from kreinfeller.convergence import (
    STATUS_CONVERGED,
    STATUS_OK,
    bound_audit,
    eigenfunction_rate_experiment,
    eigenvalue_rate_experiment,
    even_family_gap_constant,
    refined_grid,
)
from kreinfeller.errors import ConfigError, InconsistencyError
from kreinfeller.measures import (
    CantorLevel,
    WeightVector,
    cantor_approximant,
    cdf_sup_distance_exact,
)
from kreinfeller.propagation import eval_on_grid

HALF = WeightVector.of(F(1, 2))
THIRD = WeightVector.of(F(1, 3), F(2, 3))


def to_json(report) -> bytes:
    """The JSON bytes ``rates`` and ``audit`` print for a report."""
    return _json_bytes(_report_output(report)[1])


@pytest.fixture(scope="module")
def half_neumann_report():
    return eigenvalue_rate_experiment(HALF, range(2, 7), "neumann", 3)


class TestEigenvalueRates:
    def test_report_shape(self, half_neumann_report):
        rep = half_neumann_report
        assert rep.indices == (1, 2, 3)
        assert rep.levels == (2, 3, 4, 5, 6)
        assert len(rep.lambdas) == 3
        assert all(len(row) == 5 for row in rep.lambdas)
        assert all(len(row) == 4 for row in rep.successive_gaps)
        assert len(rep.cdf_dist_bounds) == 5

    def test_cdf_bounds_are_geometric(self, half_neumann_report):
        rep = half_neumann_report
        w1, w2 = HALF.as_floats()
        for n, b in zip(rep.levels, rep.cdf_dist_bounds):
            assert b == pytest.approx(w2**n / w1, rel=1e-15)

    def test_lambdas_increase_along_m(self, half_neumann_report):
        rep = half_neumann_report
        for j in range(len(rep.levels)):
            col = [rep.lambdas[i][j] for i in range(3)]
            assert col == sorted(col)
            assert all(b > a for a, b in zip(col, col[1:]))

    def test_gap_partial_sums_bound_level_jumps(self, half_neumann_report):
        # triangle inequality: |lambda(n_i) - lambda(n_j)| <= sum of gaps between
        rep = half_neumann_report
        for i in range(3):
            lams = rep.lambdas[i]
            gaps = rep.successive_gaps[i]
            for a in range(len(lams)):
                for b in range(a + 1, len(lams)):
                    assert abs(lams[b] - lams[a]) <= sum(gaps[a:b]) + 1e-12

    def test_gaps_decay_and_fit_is_steeper_than_envelope(self, half_neumann_report):
        rep = half_neumann_report
        log_w2 = math.log(float(HALF.w2))
        for i in range(3):
            slope = rep.fitted_rate_per_m[i]
            assert rep.status_per_m[i] == STATUS_OK
            assert slope is not None and slope < 0.0
            # measured decay is strictly faster than the proven envelope rate
            assert slope < log_w2

    def test_envelope_constant_dominates(self, half_neumann_report):
        rep = half_neumann_report
        w2 = float(HALF.w2)
        for i in range(3):
            c = rep.envelope_constant_per_m[i]
            assert c is not None and c > 0.0
            for n, g in zip(rep.levels[:-1], rep.successive_gaps[i]):
                assert g <= c * w2**n * (1 + 1e-12)

    def test_flat_gap_guard(self):
        # a huge tolerance reclassifies every gap as converged noise
        rep = eigenvalue_rate_experiment(HALF, [2, 3, 4], "neumann", 1, tol=1e-2)
        assert rep.status_per_m == (STATUS_CONVERGED,)
        assert rep.fitted_rate_per_m == (None,)

    def test_level_validation(self):
        with pytest.raises(ConfigError):
            eigenvalue_rate_experiment(HALF, [2, 3], "neumann", 1)
        with pytest.raises(ConfigError):
            eigenvalue_rate_experiment(HALF, [3, 2, 4], "neumann", 1)
        with pytest.raises(ConfigError):
            eigenvalue_rate_experiment(HALF, [2, 2, 3], "neumann", 1)
        with pytest.raises(ConfigError):
            eigenvalue_rate_experiment(HALF, [2, 3, 4], "neumann", 0)

    def test_fit_stability_in_asymptotic_regime(self):
        rep = eigenvalue_rate_experiment(HALF, range(2, 8), "neumann", 3)
        for delta in rep.fit_drop_deepest_delta:
            assert delta is not None and abs(delta) < 0.05

    def test_fit_stability_detector_flags_preasymptotic(self):
        # (1/2,1/2) Dirichlet m=3 jumps non-monotonically between levels 2 and 3;
        # the drop-deepest diagnostic must expose that the fit is not settled
        rep = eigenvalue_rate_experiment(HALF, range(2, 8), "dirichlet", 3)
        gaps = rep.successive_gaps[2]
        assert gaps[1] > gaps[0]  # the non-monotone step that breaks the fit
        assert abs(rep.fit_drop_deepest_delta[2]) > 0.05

    def test_serialization_deterministic(self, half_neumann_report):
        again = eigenvalue_rate_experiment(HALF, range(2, 7), "neumann", 3)
        assert to_json(again) == to_json(half_neumann_report)
        assert _report_rows(again) == _report_rows(half_neumann_report)

    def test_csv_rows(self, half_neumann_report):
        rows = _report_rows(half_neumann_report)
        assert rows[0] == RATE_CSV_HEADER
        assert len(rows) == 1 + 3 * 4
        sample = rows[1]
        assert sample[1] == "neumann"
        assert float(sample[7]) == half_neumann_report.successive_gaps[0][0]

    def test_json_round_trip(self, half_neumann_report):
        doc = json.loads(to_json(half_neumann_report))
        assert doc["levels"] == [2, 3, 4, 5, 6]
        assert doc["lambdas"][0][0] == half_neumann_report.lambdas[0][0]


class TestEigenfunctionRates:
    def test_gaps_decay_with_measured_ratio(self):
        rep = eigenfunction_rate_experiment(HALF, range(2, 7), "neumann", 1)
        assert rep.status == STATUS_OK
        ratios = [b / a for a, b in zip(rep.sup_gaps, rep.sup_gaps[1:])]
        for r in ratios:
            assert 0.1 < r < 0.25  # measured contraction ~1/6 for symmetric weights
        assert rep.fitted_rate < math.log(float(HALF.w2))

    def test_constant_mode_all_gaps_zero(self):
        rep = eigenfunction_rate_experiment(HALF, range(2, 6), "neumann", 0)
        assert rep.sup_gaps == (0.0, 0.0, 0.0)
        assert rep.status == STATUS_CONVERGED
        assert rep.fitted_rate is None

    def test_dirichlet_endpoint_gaps_vanish(self):
        # both levels satisfy the boundary conditions exactly, so the gap at
        # x in {0,1} is zero up to the root residual
        from kreinfeller.spectrum import find_eigenvalues

        vals = []
        for n in (2, 3):
            mu = cantor_approximant(CantorLevel(HALF, n))
            rec = find_eigenvalues(mu, "dirichlet", 1)[0]
            vals.append(eval_on_grid(mu, rec.z, np.array([0.0, 1.0]), "sq"))
        gap = np.abs(vals[1] - vals[0])
        assert gap[0] == 0.0
        assert gap[1] <= 1e-11

    def test_custom_grid_and_validation(self):
        grid = np.linspace(0.0, 1.0, 50)
        rep = eigenfunction_rate_experiment(THIRD, [2, 3, 4], "dirichlet", 1, x_grid=grid)
        assert rep.grid_size == 50
        with pytest.raises(ConfigError):
            eigenfunction_rate_experiment(THIRD, [2, 3, 4], "dirichlet", 1, x_grid=[0.5])
        with pytest.raises(ConfigError):
            eigenfunction_rate_experiment(THIRD, [2, 3, 4], "dirichlet", 0)

    def test_default_grid_refines_breakpoints(self):
        grid = refined_grid(HALF, 3)
        mu = cantor_approximant(CantorLevel(HALF, 3))
        bps = np.array([float(b) for b in mu.breakpoints])
        for b in bps:
            assert np.min(np.abs(grid - b)) == 0.0
        # 16 interior points per interval
        n_intervals = len(mu.breakpoints) - 1
        assert grid.size == n_intervals * 17 + 1

    def test_csv_rows(self):
        rep = eigenfunction_rate_experiment(HALF, [2, 3, 4], "dirichlet", 1)
        rows = _report_rows(rep)
        assert rows[0] == FUNCTION_RATE_CSV_HEADER
        assert len(rows) == 3
        assert rows[1][1] == "dirichlet"


@pytest.fixture(scope="module")
def audit_report():
    return bound_audit(HALF, [1, 2, 3], coeff_order=8)


class TestBoundAudit:
    @pytest.fixture
    def report(self, audit_report):
        return audit_report

    def test_zero_violations(self, report):
        assert report.violations() == []

    def test_all_bound_families_present(self, report):
        bounds = {r.bound for r in report.rows}
        expected_prefixes = (
            "cdf-telescoping",
            "cdf-geometric-cap",
            "cdf-self-similarity",
            "coeff-factorial-",
            "coeff-gap-",
            "trig-gap-",
            "deriv-gap-",
        )
        for prefix in expected_prefixes:
            assert any(b.startswith(prefix) for b in bounds), prefix

    def test_worst_slack_nonnegative(self, report):
        for bound, row in report.worst_slack_per_bound().items():
            assert row.ok, bound

    def test_single_step_bound_has_real_margin(self, report):
        # consecutive pair: exact distance versus the one-step envelope w2^n
        row = next(
            r
            for r in report.rows
            if r.bound == "cdf-telescoping" and r.instance == "n=1 m=2"
        )
        assert row.measured <= row.limit
        assert row.limit == pytest.approx(0.5, rel=1e-15)

    def test_exact_single_step_distance_value(self):
        # hand value: one refinement step of the symmetric measure moves the
        # CDF by exactly 1/12 at the first breakpoint of the deeper level
        mu1 = cantor_approximant(CantorLevel(HALF, 1))
        mu2 = cantor_approximant(CantorLevel(HALF, 2))
        assert cdf_sup_distance_exact(mu1, mu2) == F(1, 12)

    def test_csv_and_json(self, report):
        rows = _report_rows(report)
        assert rows[0] == AUDIT_CSV_HEADER
        assert len(rows) == len(report.rows) + 1
        doc = json.loads(to_json(report))
        assert doc["violations"] == 0
        assert len(doc["rows"]) == len(report.rows)

    def test_validation(self):
        with pytest.raises(ConfigError):
            bound_audit(HALF, [])
        with pytest.raises(ConfigError):
            bound_audit(HALF, [1, 2], coeff_order=1)

    def test_exact_row_is_decided_before_rounding(self):
        # 1e-40 over the limit: equal as floats, a violation as Fractions
        limit = F(1, 3)
        row = conv._row("cdf-telescoping", "n=1 m=2", limit + F(1, 10**40), limit)
        assert row.measured == row.limit
        assert row.ok is False

    def test_float_row_passes_at_its_allowance(self):
        limit = 0.125
        allow = conv._allow(limit)
        row = conv._row("trig-gap-cp", "pair=(1,2) z=1", limit + allow, limit, allow)
        assert row.measured > row.limit
        assert row.ok is True

    def test_even_constant_fails_odd_family(self):
        # the n=0 coefficient gap of the CDF-normalized odd family contributes
        # z * dist, which the even families' 2 z^2 e^{z^2} envelope undercuts
        # at small z — this is why the audit carries per-family constants
        z = 0.25
        mu2 = cantor_approximant(CantorLevel(HALF, 2))
        mu3 = cantor_approximant(CantorLevel(HALF, 3))
        dist = float(cdf_sup_distance_exact(mu2, mu3))
        grid = refined_grid(HALF, 3)
        gap = float(
            np.max(np.abs(eval_on_grid(mu2, z, grid, "sp") - eval_on_grid(mu3, z, grid, "sp")))
        )
        wrong_limit = even_family_gap_constant(z) * dist
        assert gap > wrong_limit * 1.5

    def test_hard_failure_on_violation(self, monkeypatch):
        # force the known-wrong constant onto the odd family and watch the
        # audit's raise path fire
        broken = dict(conv._FAMILY_CONSTANTS)
        broken["sp"] = even_family_gap_constant
        monkeypatch.setattr(conv, "_FAMILY_CONSTANTS", broken)
        with pytest.raises(InconsistencyError):
            bound_audit(HALF, [2, 3], coeff_order=4, z_grid=[0.25])
        rep = bound_audit(
            HALF, [2, 3], coeff_order=4, z_grid=[0.25], raise_on_violation=False
        )
        bad = rep.violations()
        assert bad and all(r.bound == "trig-gap-sp" for r in bad)

    def test_builds_each_approximant_once(self, monkeypatch):
        # the rows read the approximants the audit already holds: one build per
        # level, plus two per level inside verify_refinement_identity
        from kreinfeller import measures

        calls = []
        build = measures.cantor_approximant

        def counted(spec, *args, **kwargs):
            calls.append(spec.level)
            return build(spec, *args, **kwargs)

        monkeypatch.setattr(measures, "cantor_approximant", counted)
        monkeypatch.setattr(conv, "cantor_approximant", counted)
        bound_audit(HALF, [1, 2, 3, 4, 5])
        assert len(calls) == 5 + 2 * 5

    def test_deterministic(self, report):
        again = bound_audit(HALF, [1, 2, 3], coeff_order=8)
        assert to_json(again) == to_json(report)
