"""The scripts under scripts/: tiny end-to-end runs and rejected command lines."""

import importlib.util
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


def test_levels_take_a_comma_list(capsys):
    assert load("bound_audit").main(["--w", "1/3", "--levels", "1,2"]) == 0
    assert "levels 1,2:" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("bad", [["--levels", "4:2"], ["--levels", "a:b"], ["--levels", "2:"], ["--w", "2"]])
def test_rejected_value_exits_two_with_one_line(name, bad, capsys):
    with pytest.raises(SystemExit) as exc:
        load(name).main(bad)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "error:" in err[0]


def test_too_few_levels_for_a_fit_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        load("rate_experiments").main(["--w", "1/3", "--levels", "1:2", "--m-max", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith("error: need at least 3 levels, got 2")
