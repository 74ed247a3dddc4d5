"""Command-line interface: determinism, formats, exit codes, consistency."""

import csv
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from kreinfeller.cli import (
    EIGVALS_CSV_HEADER,
    RunConfig,
    parse_levels,
    parse_weight,
    _csv_bytes,
    _eigvals_rows,
    _json_bytes,
    _pin_threads,
    _report_output,
    _report_rows,
    config_from_argv,
    main,
)
from kreinfeller.convergence import STATUS_CONVERGED, eigenvalue_rate_experiment
from kreinfeller.errors import ConfigError, ResourceError
from kreinfeller.measures import Measure, WeightVector
from kreinfeller.spectrum import find_eigenvalues


def run_cli(args, tmp_path=None):
    """Invoke the real entry point in a subprocess; returns CompletedProcess."""
    return subprocess.run(
        [sys.executable, "-m", "kreinfeller", *args],
        capture_output=True,
        cwd=str(tmp_path) if tmp_path else None,
    )


def parse_csv_bytes(payload: bytes):
    text = payload.decode("utf-8")
    return list(csv.reader(io.StringIO(text)))


class TestConfigParsing:
    def test_weight_decimal_is_exact(self):
        assert parse_weight("0.3333") == Fraction(3333, 10000)

    def test_weight_fraction(self):
        assert parse_weight("1/3") == Fraction(1, 3)

    @pytest.mark.parametrize("bad", ["0", "1", "-0.2", "5/3", "abc"])
    def test_weight_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_weight(bad)

    def test_levels_range_inclusive(self):
        assert parse_levels("1:4") == (1, 2, 3, 4)

    def test_levels_comma_list(self):
        assert parse_levels("2,4,6") == (2, 4, 6)

    @pytest.mark.parametrize("bad", ["3:1", "a:b", "1;2"])
    def test_levels_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_levels(bad)

    def test_defaults(self):
        cfg = config_from_argv(["eigvals"])
        assert cfg.command == "eigvals"
        assert cfg.weight == Fraction(1, 2)
        assert cfg.level == 0
        assert cfg.boundary == "neumann"
        assert cfg.format == "csv"
        assert cfg.order == 12

    def test_order_integer(self):
        cfg = config_from_argv(["audit", "--order", "24"])
        assert cfg.order == 24

    def test_order_auto_is_the_default(self):
        assert config_from_argv(["audit", "--order", "auto"]).order == 12
        assert config_from_argv(["audit"]).order == 12

    def test_order_garbage_rejected(self):
        with pytest.raises(ConfigError):
            config_from_argv(["audit", "--order", "many"])

    @pytest.mark.parametrize("command", ["eigvals", "eigfun", "sincurve", "rates", "oracle-compare"])
    def test_order_only_on_audit(self, command, capsys):
        # only the audit builds series tables, so only it takes an order
        with pytest.raises(ConfigError, match="unrecognized arguments: --order 5"):
            config_from_argv([command, "--order", "5"])
        assert main([command, "--order", "5"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        doc = json.loads(err[0])
        assert (doc["error"], doc["exit_code"]) == ("ConfigError", 2)

    @pytest.mark.parametrize(
        "argv",
        [["eigvals", "--boundary", "sideways"], ["eigvals", "--level", "x"], ["bogus"], [],
         ["rates", "--kind", "eigenfunction", "--m", "1,2"], ["eigfun", "--m", "2,2"]],
    )
    def test_rejected_command_lines_are_config_errors(self, argv, capsys):
        with pytest.raises(ConfigError):
            config_from_argv(argv)
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        doc = json.loads(err[0])
        assert (doc["error"], doc["exit_code"]) == ("ConfigError", 2)

    @pytest.mark.parametrize("argv", [["--help"], ["eigvals", "--help"]])
    def test_help_still_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            config_from_argv(argv)
        assert exc.value.code == 0
        assert "usage: kreinfeller" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["1e-15", "1e-3", "0.5"])
    def test_tol_window_enforced(self, tol):
        with pytest.raises(ConfigError):
            config_from_argv(["eigvals", "--tol", tol])

    def test_level_cap_resource_error(self):
        with pytest.raises(ResourceError):
            config_from_argv(["eigvals", "--level", "11"])

    def test_level_cap_can_be_raised(self):
        cfg = config_from_argv(["eigvals", "--level", "11", "--level-cap", "12"])
        assert cfg.level == 11

    def test_levels_obey_cap_too(self):
        with pytest.raises(ResourceError):
            config_from_argv(["rates", "--levels", "9:11"])

    @pytest.mark.parametrize("levels", [{"level": -1}, {"levels": (2, -1, 3)}])
    def test_negative_level_is_a_config_error(self, levels):
        with pytest.raises(ConfigError, match="level must be nonnegative"):
            RunConfig(command="rates", **levels)

    def test_eigfun_indices_default_to_one(self):
        assert config_from_argv(["eigfun"]).m_list == (1,)
        assert RunConfig(command="eigfun").m_list == (1,)

    def test_runconfig_rejects_unknown_command(self):
        with pytest.raises(ConfigError):
            RunConfig(command="solve-everything")

    def test_runconfig_rejects_bad_format(self):
        with pytest.raises(ConfigError):
            RunConfig(command="eigvals", format="xml")


class TestThreadPinning:
    def test_threads_flag_sets_env(self, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.delenv("KREINFELLER_THREADS", raising=False)
        _pin_threads(["eigvals", "--threads", "3"])
        import os

        assert os.environ["OMP_NUM_THREADS"] == "3"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"

    def test_env_variable_fallback(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("KREINFELLER_THREADS", "2")
        _pin_threads(["eigvals"])
        import os

        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_explicit_setting_not_clobbered(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        _pin_threads(["eigvals", "--threads=2"])
        import os

        assert os.environ["OMP_NUM_THREADS"] == "8"


class TestEigvalsCommand:
    def test_lebesgue_dirichlet_values(self, capsysbinary):
        rc = main(["eigvals", "--w", "0.5", "--level", "0", "--boundary", "dirichlet", "--m-max", "3"])
        assert rc == 0
        rows = parse_csv_bytes(capsysbinary.readouterr().out)
        assert rows[0] == ["boundary", "m", "z", "lambda", "bracket_lo", "bracket_hi", "residual", "error_bound"]
        assert len(rows) == 4
        for m, row in enumerate(rows[1:], start=1):
            assert row[0] == "dirichlet"
            assert int(row[1]) == m
            assert math.isclose(float(row[3]), (m * math.pi) ** 2, rel_tol=1e-12)

    def test_neumann_includes_zero_mode(self, capsysbinary):
        rc = main(["eigvals", "--w", "1/3", "--level", "1", "--m-max", "2"])
        assert rc == 0
        rows = parse_csv_bytes(capsysbinary.readouterr().out)
        assert [r[1] for r in rows[1:]] == ["0", "1", "2"]
        assert float(rows[1][3]) == 0.0

    def test_json_matches_library(self, capsysbinary):
        rc = main(["eigvals", "--w", "1/3", "--level", "2", "--m-max", "3", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsysbinary.readouterr().out.decode("utf-8"))
        from kreinfeller.measures import CantorLevel, WeightVector, cantor_approximant
        from kreinfeller.spectrum import find_eigenvalues

        w = WeightVector.of(Fraction(1, 3))
        records = find_eigenvalues(cantor_approximant(CantorLevel(w, 2)), "neumann", 4)
        assert doc["weights"] == ["1/3", "2/3"]
        for rec, got in zip(records, doc["records"]):
            assert got["m"] == rec.index
            assert got["z"] == rec.z  # exact float equality via JSON round-trip
            assert got["lambda"] == rec.lam

    def test_csv_17_digit_round_trip(self, capsysbinary):
        rc = main(["eigvals", "--w", "2/5", "--level", "2", "--m-max", "2"])
        assert rc == 0
        rows = parse_csv_bytes(capsysbinary.readouterr().out)
        from kreinfeller.measures import CantorLevel, WeightVector, cantor_approximant
        from kreinfeller.spectrum import find_eigenvalues

        mu = cantor_approximant(CantorLevel(WeightVector.of(Fraction(2, 5)), 2))
        records = find_eigenvalues(mu, "neumann", 3)
        for rec, row in zip(records, rows[1:]):
            assert float(row[2]) == rec.z  # 17 significant digits round-trip exactly
            assert float(row[3]) == rec.lam


class TestCsvRows:
    def test_rows_round_trip(self):
        recs = find_eigenvalues(Measure.lebesgue(), "neumann", 3)
        rows = parse_csv_bytes(_csv_bytes(_eigvals_rows(recs)))
        assert rows[0] == list(EIGVALS_CSV_HEADER)
        assert len(rows) == 4
        for row, rec in zip(rows[1:], recs):
            assert row[0] == "neumann"
            assert int(row[1]) == rec.index
            assert float(row[2]) == rec.z
            assert float(row[3]) == rec.lam
            assert float(row[6]) == rec.residual
            assert float(row[7]) == rec.error_bound


class TestEigfunCommand:
    def test_dirichlet_endpoints_vanish(self, capsysbinary):
        rc = main(["eigfun", "--w", "0.5", "--level", "1", "--boundary", "dirichlet", "--m", "1,2", "--x-points", "4"])
        assert rc == 0
        rows = parse_csv_bytes(capsysbinary.readouterr().out)
        assert rows[0] == ["x", "f_d_1", "f_d_2"]
        first, last = rows[1], rows[-1]
        assert float(first[0]) == 0.0 and float(last[0]) == 1.0
        for col in (1, 2):
            assert abs(float(first[col])) < 1e-12
            assert abs(float(last[col])) < 1e-12

    def test_neumann_starts_at_one(self, capsysbinary):
        rc = main(["eigfun", "--w", "1/3", "--level", "1", "--m", "1", "--x-points", "3"])
        assert rc == 0
        rows = parse_csv_bytes(capsysbinary.readouterr().out)
        assert float(rows[1][1]) == 1.0

    def test_grid_contains_breakpoints(self, capsysbinary):
        rc = main(["eigfun", "--w", "1/3", "--level", "1", "--m", "1", "--x-points", "2"])
        assert rc == 0
        rows = parse_csv_bytes(capsysbinary.readouterr().out)
        xs = [float(r[0]) for r in rows[1:]]
        for bp in (0.0, 1 / 3, 2 / 3, 1.0):
            assert any(abs(x - bp) < 1e-15 for x in xs)

    def test_normalized_scales_by_l2_norm(self, capsysbinary):
        args = ["eigfun", "--w", "0.5", "--level", "1", "--m", "1", "--x-points", "2", "--format", "json"]
        assert main(args) == 0
        raw = json.loads(capsysbinary.readouterr().out.decode("utf-8"))
        assert main(args + ["--normalized"]) == 0
        scaled = json.loads(capsysbinary.readouterr().out.decode("utf-8"))
        ratios = [
            u / v
            for u, v in zip(raw["values"]["1"], scaled["values"]["1"])
            if abs(v) > 1e-12
        ]
        assert max(ratios) - min(ratios) < 1e-12  # one global scale factor

    def test_dirichlet_m_zero_rejected(self, capsysbinary):
        rc = main(["eigfun", "--boundary", "dirichlet", "--m", "0"])
        assert rc == 2


class TestSincurveCommand:
    def test_sign_changes_bracket_eigenvalues(self, capsysbinary):
        """The plotted curves must change sign exactly where eigvals finds roots."""
        rc = main(["sincurve", "--w", "0.5", "--level", "2", "--z-max", "12", "--z-points", "1201"])
        assert rc == 0
        rows = parse_csv_bytes(capsysbinary.readouterr().out)
        assert rows[0] == ["z", "sinp", "sinq"]
        zs = [float(r[0]) for r in rows[1:]]
        sp = [float(r[1]) for r in rows[1:]]
        sq = [float(r[2]) for r in rows[1:]]

        main(["eigvals", "--w", "0.5", "--level", "2", "--m-max", "3", "--boundary", "neumann"])
        neu = parse_csv_bytes(capsysbinary.readouterr().out)
        main(["eigvals", "--w", "0.5", "--level", "2", "--m-max", "3", "--boundary", "dirichlet"])
        dir_ = parse_csv_bytes(capsysbinary.readouterr().out)

        def sign_change_cells(vals):
            return {
                i
                for i in range(len(vals) - 1)
                if vals[i] * vals[i + 1] < 0
            }

        def cell_of(z):
            return next(i for i in range(len(zs) - 1) if zs[i] <= z <= zs[i + 1])

        sp_cells = sign_change_cells(sp)
        sq_cells = sign_change_cells(sq)
        for row in neu[2:]:  # skip header and the m=0 record
            z = float(row[2])
            if z < 12:
                assert cell_of(z) in sp_cells
        for row in dir_[1:]:
            z = float(row[2])
            if z < 12:
                assert cell_of(z) in sq_cells

    def test_curves_start_at_zero(self, capsysbinary):
        rc = main(["sincurve", "--w", "1/3", "--level", "1", "--z-points", "5", "--z-max", "2"])
        assert rc == 0
        rows = parse_csv_bytes(capsysbinary.readouterr().out)
        assert float(rows[1][1]) == 0.0  # sp(0) = 0
        assert float(rows[1][2]) == 0.0  # sq(0) = 0


class TestRatesAndAudit:
    def test_rates_eigenvalue_csv(self, capsysbinary):
        rc = main(["rates", "--w", "0.5", "--levels", "1:3", "--m-max", "2"])
        assert rc == 0
        rows = parse_csv_bytes(capsysbinary.readouterr().out)
        assert rows[0][0] == "weights"
        assert len(rows) == 1 + 2 * 2  # two indices, two level gaps each

    def test_rates_eigenfunction_kind(self, capsysbinary):
        rc = main(["rates", "--w", "0.5", "--levels", "1:3", "--kind", "eigenfunction", "--m", "1", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsysbinary.readouterr().out.decode("utf-8"))
        assert doc["index"] == 1
        assert len(doc["sup_gaps"]) == 2

    def test_converged_index_writes_an_empty_fit(self):
        # a huge tolerance reclassifies every gap as converged noise, so no slope is fitted
        half = WeightVector.of(Fraction(1, 2))
        report = eigenvalue_rate_experiment(half, [2, 3, 4], "neumann", 1, tol=1e-2)
        assert report.status_per_m == (STATUS_CONVERGED,)
        rows = parse_csv_bytes(_csv_bytes(_report_rows(report)))
        fit = rows[0].index("fitted_rate")
        assert [row[fit] for row in rows[1:]] == ["", ""]
        doc = json.loads(_json_bytes(_report_output(report)[1]))
        assert doc["fitted_rate_per_m"] == [None]

    def test_audit_reports_no_violations(self, capsysbinary):
        rc = main(["audit", "--w", "0.3333", "--levels", "1:3", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsysbinary.readouterr().out.decode("utf-8"))
        assert doc["violations"] == 0
        assert len(doc["rows"]) > 0
        assert all(row["ok"] for row in doc["rows"])

    def test_audit_csv_all_rows_ok(self, capsysbinary):
        rc = main(["audit", "--w", "1/3", "--levels", "1:2"])
        assert rc == 0
        rows = parse_csv_bytes(capsysbinary.readouterr().out)
        ok_col = rows[0].index("ok")
        assert len(rows) > 10
        assert all(r[ok_col] == "1" for r in rows[1:])


class TestOracleCompare:
    def test_gaps_small(self, capsysbinary):
        rc = main(["oracle-compare", "--w", "1/3", "--level", "2", "--m-max", "3", "--mesh-power", "5"])
        assert rc == 0
        rows = parse_csv_bytes(capsysbinary.readouterr().out)
        assert rows[0] == ["boundary", "m", "lambda_spectral", "lambda_fem", "rel_gap"]
        for row in rows[1:]:
            assert float(row[4]) < 5e-3

    def test_mesh_must_resolve_breakpoints(self, capsysbinary):
        rc = main(["oracle-compare", "--w", "1/3", "--level", "4", "--mesh-power", "3"])
        assert rc == 2


class TestOutputFiles:
    def test_out_file_written(self, tmp_path, capsysbinary):
        out = tmp_path / "eig.csv"
        rc = main(["eigvals", "--w", "0.5", "--m-max", "1", "--out", str(out)])
        assert rc == 0
        assert capsysbinary.readouterr().out == b""
        assert out.exists()
        rows = parse_csv_bytes(out.read_bytes())
        assert rows[0][0] == "boundary"

    def test_no_partial_file_on_failure(self, tmp_path):
        out = tmp_path / "eig.csv"
        rc = main(["eigvals", "--m-max", "9", "--scan-ceiling", "4", "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_crlf_line_endings(self, tmp_path):
        out = tmp_path / "eig.csv"
        assert main(["eigvals", "--m-max", "1", "--out", str(out)]) == 0
        payload = out.read_bytes()
        assert b"\r\n" in payload
        assert payload.endswith(b"\r\n")
        # no bare LF: every LF is preceded by CR
        assert payload.count(b"\n") == payload.count(b"\r\n")

    def test_json_is_utf8_single_document(self, tmp_path):
        out = tmp_path / "eig.json"
        assert main(["eigvals", "--m-max", "1", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["command"] == "eigvals"


class TestExitCodesSubprocess:
    """End-to-end through the real interpreter entry point."""

    def test_success_is_zero(self):
        proc = run_cli(["eigvals", "--w", "0.5", "--m-max", "1"])
        assert proc.returncode == 0

    def test_config_error_is_two(self):
        proc = run_cli(["eigvals", "--tol", "1"])
        assert proc.returncode == 2
        err = json.loads(proc.stderr.decode("utf-8"))
        assert err["error"] == "ConfigError"
        assert err["exit_code"] == 2

    def test_precision_error_is_three(self):
        proc = run_cli(["eigvals", "--m-max", "9", "--scan-ceiling", "5"])
        assert proc.returncode == 3
        err = json.loads(proc.stderr.decode("utf-8"))
        assert err["error"] == "BracketError"

    def test_resource_error_is_four(self):
        proc = run_cli(["eigvals", "--level", "11"])
        assert proc.returncode == 4
        err = json.loads(proc.stderr.decode("utf-8"))
        assert err["error"] == "ResourceError"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["eigvals", "--w", "1/3", "--level", "3", "--m-max", "4"]
        assert run_cli([*args, "--out", str(a)]).returncode == 0
        assert run_cli([*args, "--out", str(b)]).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_json_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["rates", "--w", "0.5", "--levels", "1:3", "--m-max", "2", "--format", "json"]
        assert run_cli([*args, "--out", str(a)]).returncode == 0
        assert run_cli([*args, "--out", str(b)]).returncode == 0
        assert a.read_bytes() == b.read_bytes()
