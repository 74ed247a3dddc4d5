"""The scripts under scripts/: tiny end-to-end runs and rejected command lines."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# rate_experiments fits slopes, which needs at least three levels
TINY = {
    "bound_audit": ["--w", "1/3", "--levels", "1:2"],
    "oracle_comparison": ["--w", "1/3", "--levels", "1:2", "--m-max", "1", "--mesh-powers", "4,5"],
    "rate_experiments": ["--w", "1/3", "--levels", "1:3", "--m-max", "1"],
}


def load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_config_runs(name, capsys):
    assert load(name).main(TINY[name]) == 0
    assert "weights (1/3, 2/3)" in capsys.readouterr().out


def test_bound_audit_exits_three_on_a_violation(monkeypatch, capsys):
    # the audit runs with raise_on_violation=False, so a violated row must
    # still reach the exit code
    from kreinfeller.convergence import AuditRow

    module = load("bound_audit")
    audit = module.bound_audit

    def with_one_violation(*args, **kwargs):
        report = audit(*args, **kwargs)
        bad = AuditRow("cdf-telescoping", "n=1 m=2", 2.0, 1.0, False)
        return dataclasses.replace(report, rows=report.rows + (bad,))

    monkeypatch.setattr(module, "bound_audit", with_one_violation)
    assert module.main(TINY["bound_audit"]) == 3
    assert "  VIOLATED cdf-telescoping [n=1 m=2]" in capsys.readouterr().out


def test_levels_take_a_comma_list(capsys):
    assert load("bound_audit").main(["--w", "1/3", "--levels", "1,2"]) == 0
    assert "levels 1,2:" in capsys.readouterr().out


# the first four fail in a type function, the rest in argparse itself: a
# non-integer --order or --m-max (an unknown flag where the script has none)
# and an unknown flag
@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("bad", [["--levels", "4:2"], ["--levels", "a:b"], ["--levels", "2:"], ["--w", "2"],
                                 ["--order", "x"], ["--m-max", "x"], ["--bogus"]])
def test_rejected_value_exits_two_with_one_line(name, bad, capsys, monkeypatch):
    script = f"{name}.py"
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / script)])
    with pytest.raises(SystemExit) as exc:
        load(name).main(bad)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{script}: error: ") and err[0].count(script) == 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as exc:
        load(name).main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_too_few_levels_for_a_fit_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        load("rate_experiments").main(["--w", "1/3", "--levels", "1:2", "--m-max", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith("error: need at least 3 levels, got 2")


def test_bad_mesh_powers_exit_two_with_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        load("oracle_comparison").main(["--mesh-powers", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "error:" in err[0]


# level 0 keeps the scan short: it stops at the default ceiling with fewer
# roots than asked for, a BracketError the CLI reports with exit code 3
BEYOND_CEILING = {
    "oracle_comparison": ["--w", "1/3", "--levels", "0", "--mesh-powers", "4", "--m-max", "200"],
    "rate_experiments": ["--w", "1/3", "--levels", "0:2", "--m-max", "200"],
}


@pytest.mark.parametrize("name", sorted(BEYOND_CEILING))
def test_m_max_beyond_the_scan_ceiling_exits_three(name, capsys):
    with pytest.raises(SystemExit) as exc:
        load(name).main(BEYOND_CEILING[name])
    assert exc.value.code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "error: scan ceiling 500 reached" in err[0]


# the scripts write their reports through the CLI's CSV writer, so their files
# equal the CLI goldens byte for byte
GOLDEN = Path(__file__).parent / "golden"


def test_bound_audit_file_matches_cli_golden(tmp_path):
    out = tmp_path / "audit.csv"
    assert load("bound_audit").main(["--w", "1/3", "--levels", "1:3", "--order", "8", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "audit-w1_3-l1_3.csv").read_bytes()


def test_rate_experiments_file_matches_cli_golden(tmp_path):
    assert load("rate_experiments").main(
        ["--w", "1/3", "--levels", "2:5", "--m-max", "3", "--out-dir", str(tmp_path)]
    ) == 0
    written = (tmp_path / "eigenvalue_rates_w1_3_neumann.csv").read_bytes()
    assert written == (GOLDEN / "rates-w1_3-l2_5.csv").read_bytes()


def test_rate_experiments_files_name_the_exact_weight(tmp_path):
    # 1/3 and 0.3333 print the same 4-digit float; each keeps its own files
    assert load("rate_experiments").main(
        ["--w", "1/3", "--w", "0.3333", "--levels", "2:4", "--m-max", "1", "--out-dir", str(tmp_path)]
    ) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{kind}_rates_{tag}_{boundary}.csv"
        for kind in ("eigenvalue", "eigenfunction")
        for tag in ("w1_3", "w3333_10000")
        for boundary in ("neumann", "dirichlet")
    )
