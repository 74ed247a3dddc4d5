"""CLI goldens: every subcommand's output stays byte-identical to a committed file.

Each configuration runs in-process through ``cli.main`` with ``--out`` and is
compared byte for byte with ``tests/golden/<name>``.  The three ``eigvals``
configurations at levels 1 and 3 with weights 3/7, 7/16 and 9/20 move when
the scan step's ``q2(1)`` changes in its last bits, so they catch a value that
is merely close.

Regenerate (only for a stated, justified numerical change):

    PYTHONPATH=src python tests/test_golden.py
"""

import re
import shlex
from pathlib import Path

import pytest

from kreinfeller import convergence, series
from kreinfeller.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CONFIGS = {
    "eigvals-w3_7-l3.csv": ["eigvals", "--w", "3/7", "--level", "3", "--m-max", "8"],
    "eigvals-w7_16-l3-dirichlet.csv": [
        "eigvals", "--w", "7/16", "--level", "3", "--boundary", "dirichlet", "--m-max", "9",
    ],
    "eigvals-w9_20-l1.json": ["eigvals", "--w", "9/20", "--level", "1", "--m-max", "8", "--format", "json"],
    "eigfun-w1_3-l3-dirichlet.csv": [
        "eigfun", "--w", "1/3", "--level", "3", "--boundary", "dirichlet", "--m", "1,2,3", "--normalized",
    ],
    "eigfun-w2_5-l2.json": [
        "eigfun", "--w", "2/5", "--level", "2", "--m", "0,1,2", "--x-points", "5", "--format", "json",
    ],
    "sincurve-w1_3-l4.csv": ["sincurve", "--w", "1/3", "--level", "4"],
    "sincurve-w2_5-l3.json": [
        "sincurve", "--w", "2/5", "--level", "3", "--z-max", "20", "--z-points", "101", "--format", "json",
    ],
    "rates-w1_3-l2_5.csv": ["rates", "--w", "1/3", "--levels", "2:5", "--m-max", "3"],
    "rates-w1_3-l2_5-eigenfunction.csv": [
        "rates", "--w", "1/3", "--levels", "2:5", "--m-max", "3", "--kind", "eigenfunction", "--m", "2",
    ],
    "rates-w2_5-l1_4-dirichlet.json": [
        "rates", "--w", "2/5", "--levels", "1:4", "--boundary", "dirichlet", "--m-max", "2", "--format", "json",
    ],
    "rates-w2_5-l1_4-eigenfunction.json": [
        "rates", "--w", "2/5", "--levels", "1:4", "--kind", "eigenfunction", "--m", "1", "--format", "json",
    ],
    "audit-w1_3-l1_3.csv": ["audit", "--w", "1/3", "--levels", "1:3", "--order", "8"],
    "audit-w1_2-l1_2.json": ["audit", "--w", "1/2", "--levels", "1:2", "--format", "json"],
    "oracle-compare-w1_3-l2.csv": [
        "oracle-compare", "--w", "1/3", "--level", "2", "--mesh-power", "5", "--m-max", "4",
    ],
    "oracle-compare-w2_5-l1-dirichlet.json": [
        "oracle-compare", "--w", "2/5", "--level", "1", "--boundary", "dirichlet",
        "--mesh-power", "4", "--m-max", "3", "--format", "json",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(GOLDEN_CONFIGS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", sorted(n for n, args in GOLDEN_CONFIGS.items() if args[0] != "audit"))
def test_solves_need_no_series_table(name, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a series table was built outside the audit")

    monkeypatch.setattr(series, "build_table", refuse)
    monkeypatch.setattr(convergence, "build_table", refuse)
    test_cli_output_matches_golden(name, tmp_path)


def test_ci_console_script_commands_are_the_golden_configs():
    # CI pipes these commands into cmp against tests/golden; their arguments
    # are typed there a second time and must not drift from GOLDEN_CONFIGS
    workflow = Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml"
    pattern = re.compile(r"^\s*kreinfeller (.+?) \| cmp - tests/golden/(\S+)\s*$", re.MULTILINE)
    piped = pattern.findall(workflow.read_text(encoding="utf-8"))
    assert len(piped) == 5
    for args, name in piped:
        assert shlex.split(args) == GOLDEN_CONFIGS[name], name


def test_every_subcommand_and_format_is_covered():
    covered = {(args[0], name.rsplit(".", 1)[1]) for name, args in GOLDEN_CONFIGS.items()}
    commands = ("eigvals", "eigfun", "sincurve", "rates", "audit", "oracle-compare")
    assert covered == {(c, f) for c in commands for f in ("csv", "json")}


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, args in GOLDEN_CONFIGS.items():
        if main(args + ["--out", str(GOLDEN_DIR / name)]) != 0:
            raise SystemExit(f"{name}: command failed")
