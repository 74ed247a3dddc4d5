"""Command-line front end.

Six subcommands cover the toolkit's surface:

    eigvals         eigenvalue table for one measure
    eigfun          eigenfunction samples on a grid
    sincurve        the two boundary-value curves z -> sp(z), sq(z)
    rates           eigenvalue / eigenfunction convergence-rate report
    audit           proven-bound audit report
    oracle-compare  spectral solver vs. finite-element oracle, side by side

This module is the package's only writer of CSV and JSON; the computing
modules return plain data.  Every subcommand's handler builds one list of
raw rows (header first), and both formats come from it: CSV formats each
cell by one rule, and JSON takes the rows in one of two layouts, columns
(``sincurve``, ``eigfun``, ``oracle-compare``) or records (``eigvals``,
``audit``).  A ``rates`` document is the report's fields, which its
long-form rows cannot give back.  ``write_report_csv`` writes the scripts'
report files from the same rows.  ``EigenvalueRecord.csv_row`` in
``spectrum``, kept only for the benchmark harness, formats one record's
``eigvals`` row by the same field order and cell rule.

Design constraints honored here:

* Deterministic output: identical configuration -> byte-identical file.
  CSV floats are printed with 17 significant digits and JSON floats in
  their shortest round-trip form; CSV is RFC-4180 (CRLF line endings,
  minimal quoting), JSON is UTF-8, one document per file, with fixed key
  order.
* Atomic writes: output lands in a temporary sibling file first and is
  renamed into place; a failure mid-run leaves no partial output.
* Errors exit nonzero with a one-line machine-readable JSON description
  on stderr: 2 for configuration/domain problems, 3 for precision or
  consistency failures, 4 for resource caps.
* Thread pinning: ``main`` parses and checks the command line first, then
  sets the BLAS/OpenMP thread-count variables the user has not set from
  --threads (or the KREINFELLER_THREADS environment variable) *before*
  numpy is imported.  Parsing can come first because it imports no numpy:
  every heavy import below is deferred into the handlers.
* One statement per option: ``RunConfig`` states every default and check;
  the parser takes the defaults from its fields, and help prints them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import (
    ConfigError,
    PrecisionError,
    ResourceError,
    ToolkitError,
)

COMMANDS = ("eigvals", "eigfun", "sincurve", "rates", "audit", "oracle-compare")
FORMATS = ("csv", "json")
BOUNDARIES = ("neumann", "dirichlet")
RATE_KINDS = ("eigenvalue", "eigenfunction")

DEFAULT_ORDER = 12

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREADS_ENV = "KREINFELLER_THREADS"


def parse_weight(text: str) -> Fraction:
    """First branch weight as an exact rational.

    Accepts decimal strings ("0.5", "0.3333") and ratios ("1/3").
    Decimals are taken at face value: "0.3333" means 3333/10000, not
    one third.
    """
    try:
        w = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse weight {text!r}: {exc}") from None
    if not 0 < w < 1:
        raise ConfigError(f"weight must lie strictly between 0 and 1, got {w}")
    return w


def parse_levels(text: str) -> tuple[int, ...]:
    """Level list: 'a:b' (inclusive range) or comma-separated nonnegative integers."""
    try:
        if ":" in text:
            lo, hi = (int(part) for part in text.split(":", 1))
            levels = tuple(range(lo, hi + 1))
        else:
            levels = tuple(int(part) for part in text.split(","))
        if not levels or min(levels) < 0:
            raise ValueError("need one or more levels, all nonnegative")
        return levels
    except ValueError as exc:
        raise ConfigError(f"cannot parse levels {text!r}: {exc}") from None


def _parse_m_list(text: str) -> tuple[int, ...]:
    """Eigenvalue indices, comma separated."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse m {text!r}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """Validated run request; construction rejects inconsistent options."""

    command: str
    weight: Fraction = Fraction(1, 2)
    level: int = 0
    levels: tuple[int, ...] = ()
    boundary: str = "neumann"
    m_max: int = 4
    m_index: int = 1
    m_list: tuple[int, ...] = (1,)  # eigfun indices
    normalized: bool = False
    order: int = DEFAULT_ORDER
    z_max: float = 12.0
    z_points: int = 601
    x_points: int = 16
    scan_ceiling: float = 500.0
    mesh_power: int = 5
    rate_kind: str = "eigenvalue"
    level_cap: int = 10
    out_path: str | None = None
    format: str = "csv"
    threads: int | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; expected one of {COMMANDS}")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown format {self.format!r}; expected one of {FORMATS}")
        if self.boundary not in BOUNDARIES:
            raise ConfigError(f"unknown boundary {self.boundary!r}; expected one of {BOUNDARIES}")
        if self.rate_kind not in RATE_KINDS:
            raise ConfigError(f"unknown rate kind {self.rate_kind!r}; expected one of {RATE_KINDS}")
        for lv in (self.level, *self.levels):
            if lv < 0:
                raise ConfigError(f"level must be nonnegative, got {lv}")
            if lv > self.level_cap:
                raise ResourceError(
                    f"level {lv} exceeds the configured cap {self.level_cap}; "
                    "raise --level-cap explicitly to go deeper"
                )
        if self.m_max < 0:
            raise ConfigError(f"m-max must be nonnegative, got {self.m_max}")
        for m in (self.m_index, *self.m_list):
            if m < 0:
                raise ConfigError(f"m must be nonnegative, got {m}")
        if len(set(self.m_list)) < len(self.m_list):
            raise ConfigError(f"m list repeats an index: {','.join(map(str, self.m_list))}")
        if self.order < 2:
            raise ConfigError(f"order must be >= 2, got {self.order}")
        if not (0 < self.z_max < math.inf):
            raise ConfigError(f"z-max must be positive and finite, got {self.z_max}")
        if not (0 < self.scan_ceiling < math.inf):
            raise ConfigError(f"scan-ceiling must be positive and finite, got {self.scan_ceiling}")
        if self.z_points < 2:
            raise ConfigError(f"z-points must be >= 2, got {self.z_points}")
        if self.x_points < 1:
            raise ConfigError(f"x-points must be >= 1, got {self.x_points}")
        if self.mesh_power < 0:
            raise ConfigError(f"mesh-power must be nonnegative, got {self.mesh_power}")
        if self.threads is not None and self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")


# --------------------------------------------------------------------------
# argument parsing


_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name != "command"}


class ArgumentParser(argparse.ArgumentParser):
    """Raises :class:`ConfigError` for a rejected command line, so ``main``
    reports it as the one-line JSON error with exit code 2.  Subparsers
    inherit the class; the scripts under ``scripts/`` build their parsers
    from it too."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")

    def parse_and_run(self, handler, argv: list[str] | None = None) -> int:
        """A script's ``main``: ``handler(args)`` on the parsed command line.
        A failure exits 2, 3 or 4 with one line on stderr, as ``main`` does;
        the message of a rejected command line already names the program."""
        try:
            return handler(self.parse_args(argv))
        except ToolkitError as exc:
            message = str(exc).removeprefix(f"{self.prog}: ")
            self.exit(exit_code(exc), f"{self.prog}: error: {message}\n")


def _option(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """An argparse parent parser declaring one option, whose default is
    ``RunConfig``'s unless ``kwargs`` gives one."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.set_defaults(**_DEFAULTS)  # add_argument takes unset defaults from here
    parent.add_argument(*flags, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(
        prog="kreinfeller",
        description="Eigenvalues of the measure-second-derivative operator on [0,1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [
        _option("--w", dest="weight", type=parse_weight, metavar="W", help="first branch weight, decimal or fraction; the second is 1-W"),
        _option("--level-cap", type=int, help="maximum refinement level accepted"),
        _option("--out", dest="out_path", metavar="PATH", help="output file; stdout when absent"),
        _option("--format", choices=FORMATS, help="output format"),
        _option("--threads", type=int, help=f"pin BLAS/OpenMP thread count before numpy loads; {THREADS_ENV} when absent"),
    ]
    level = _option("--level", type=int, help="refinement level")
    levels = _option("--levels", type=parse_levels, default="1:3", metavar="A:B", help="refinement levels, inclusive range a:b or comma list")
    boundary = _option("--boundary", choices=BOUNDARIES, help="boundary condition")
    scan_ceiling = _option("--scan-ceiling", type=float, help="abort the root scan past this frequency")

    def m_max(**kwargs) -> argparse.ArgumentParser:
        # a function, not one shared parent, because rates has its own default
        return _option("--m-max", type=int, help="largest eigenvalue index", **kwargs)

    def command(name: str, help: str, *shared: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return sub.add_parser(
            name, help=help, parents=[*common, *shared], formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )

    command("eigvals", "eigenvalue table for one measure", level, boundary, m_max(), scan_ceiling)

    p = command("eigfun", "eigenfunction samples on a measure-adapted grid", level, boundary, scan_ceiling)
    p.add_argument("--m", dest="m_list", type=_parse_m_list, metavar="M[,M..]", help="eigenvalue indices to sample, comma separated")
    p.add_argument("--x-points", type=int, help="uniform samples per density interval")
    p.add_argument("--normalized", action="store_true", help="scale each eigenfunction to unit L2(measure) norm")

    p = command("sincurve", "boundary-value curves z -> sp(z), sq(z)", level)
    p.add_argument("--z-max", type=float, help="right end of the frequency range")
    p.add_argument("--z-points", type=int, help="number of samples on [0, z-max]")

    p = command("rates", "convergence-rate report across refinement levels", levels, boundary, m_max(default=3))
    p.add_argument("--kind", dest="rate_kind", choices=RATE_KINDS, help="track eigenvalues or one eigenfunction")
    p.add_argument("--m", dest="m_index", type=int, metavar="M", help="eigenfunction index for --kind eigenfunction")

    p = command("audit", "audit proven bounds on a family of approximants", levels)
    p.add_argument("--order", type=int, help="coefficient table order")

    p = command("oracle-compare", "spectral solver vs. finite-element oracle", level, boundary, m_max(), scan_ceiling)
    p.add_argument("--mesh-power", type=int, help="finite-element mesh size 3^-k")

    return parser


def config_from_argv(argv: list[str]) -> RunConfig:
    """Parse a command line into a checked ``RunConfig``.  Without
    ``--threads`` the thread count comes from the environment variable
    ``KREINFELLER_THREADS``, and ``RunConfig`` checks it like the flag."""
    args = vars(_build_parser().parse_args(argv))
    text = os.environ.get(THREADS_ENV)
    if args["threads"] is None and text is not None:
        try:
            args["threads"] = int(text)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {text!r}") from None
    return RunConfig(**args)


# --------------------------------------------------------------------------
# output plumbing


def _cell(value) -> str:
    """CSV text of one raw cell: a float at 17 significant digits, a bool as
    1/0, None as an empty cell, anything else through ``str``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_bytes(rows: list[tuple]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerows(map(_cell, row) for row in rows)
    return buf.getvalue().encode("utf-8")


def _columns(rows: list[tuple], names) -> dict:
    """JSON columns layout: each named column of ``rows`` (header first) as a list."""
    at = [rows[0].index(name) for name in names]
    return {name: [row[i] for row in rows[1:]] for name, i in zip(names, at)}


def _records(rows: list[tuple], names) -> list[dict]:
    """JSON records layout: one object per row of ``rows`` (header first),
    holding the named columns."""
    at = [rows[0].index(name) for name in names]
    return [{name: row[i] for name, i in zip(names, at)} for row in rows[1:]]


def _json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _emit(payload: bytes, out_path: str | None) -> None:
    """Write atomically: temp sibling + rename, so failures leave no partial file."""
    if out_path is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return
    tmp_path = out_path + ".partial"
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(payload)
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise


# --------------------------------------------------------------------------
# subcommand handlers; each returns (raw rows incl. header, json document)


def _weights(w) -> list[str]:
    return [str(w.w1), str(w.w2)]


def _measure_for(cfg: RunConfig, *keys: str):
    """The configured approximant and the JSON document's leading keys:
    command, weights, level, then the named config fields."""
    from .measures import CantorLevel, WeightVector, cantor_approximant

    w = WeightVector.of(cfg.weight)
    doc = {"command": cfg.command, "weights": _weights(w), "level": cfg.level}
    doc.update((key, getattr(cfg, key)) for key in keys)
    return cantor_approximant(CantorLevel(w, cfg.level)), doc


EIGVALS_CSV_HEADER = (
    "boundary", "m", "z", "lambda", "bracket_lo", "bracket_hi", "residual", "error_bound",
)
RATE_CSV_HEADER = (
    "weights", "boundary", "m", "level_from", "level_to",
    "lambda_from", "lambda_to", "gap", "cdf_bound_from", "fitted_rate", "status",
)
FUNCTION_RATE_CSV_HEADER = (
    "weights", "boundary", "m", "level_from", "level_to", "sup_gap", "fitted_rate", "status",
)
AUDIT_CSV_HEADER = ("bound", "instance", "measured", "limit", "slack", "ok")


def _eigvals_rows(records) -> list[tuple]:
    """Raw rows, header first, of eigenvalue records."""
    return [EIGVALS_CSV_HEADER] + [
        (r.boundary, r.index, r.z, r.lam, r.bracket_lo, r.bracket_hi, r.residual, r.error_bound)
        for r in records
    ]


def _run_eigvals(cfg: RunConfig):
    from .spectrum import find_eigenvalues, record_count

    mu, doc = _measure_for(cfg, "boundary")
    count = record_count(cfg.boundary, cfg.m_max)
    records = find_eigenvalues(mu, cfg.boundary, count, scan_ceiling=cfg.scan_ceiling)
    rows = _eigvals_rows(records)
    doc["records"] = _records(rows, EIGVALS_CSV_HEADER[1:])
    return rows, doc


def _run_eigfun(cfg: RunConfig):
    from .spectrum import eigenfunction, eigenfunction_eval, find_eigenvalues, record_count

    mu, doc = _measure_for(cfg, "boundary", "normalized")
    if cfg.boundary == "dirichlet" and min(cfg.m_list) < 1:
        raise ConfigError("dirichlet indices start at m=1")
    count = record_count(cfg.boundary, max(cfg.m_list))
    records = find_eigenvalues(mu, cfg.boundary, count, scan_ceiling=cfg.scan_ceiling)
    by_index = {r.index: r for r in records}
    xs = mu.sample_grid(cfg.x_points).tolist()
    columns = [xs]
    for m in cfg.m_list:
        ef = eigenfunction(mu, by_index[m])
        columns.append(eigenfunction_eval(ef, xs, normalized=cfg.normalized).tolist())
    header = ("x", *(f"f_{cfg.boundary[0]}_{m}" for m in cfg.m_list))
    rows = [header, *zip(*columns)]
    values = _columns(rows, header)
    doc["x"] = values.pop("x")
    doc["values"] = dict(zip(map(str, cfg.m_list), values.values()))
    doc["z"] = {str(m): by_index[m].z for m in cfg.m_list}
    return rows, doc


def _run_sincurve(cfg: RunConfig):
    from .propagation import boundary_values

    mu, doc = _measure_for(cfg)
    rows = [("z", "sinp", "sinq")]
    for k in range(cfg.z_points):
        z = cfg.z_max * k / (cfg.z_points - 1)
        r = boundary_values(mu, z)
        rows.append((z, r.sp, r.sq))
    doc.update(_columns(rows, rows[0]))
    return rows, doc


def _report_rows(report) -> list[tuple]:
    """Raw rows, header first, of a ``convergence`` rate or audit report."""
    from .convergence import AuditReport, RateReport

    if isinstance(report, AuditReport):
        return [AUDIT_CSV_HEADER] + [
            (r.bound, r.instance, r.measured, r.limit, r.slack, r.ok) for r in report.rows
        ]
    lead = (str(report.weights), report.boundary)
    steps = list(enumerate(zip(report.levels, report.levels[1:])))
    if isinstance(report, RateReport):
        rows = [RATE_CSV_HEADER]
        for i, m in enumerate(report.indices):
            lams, gaps = report.lambdas[i], report.successive_gaps[i]
            tail = (report.fitted_rate_per_m[i], report.status_per_m[i])
            for j, (lo, hi) in steps:
                values = (lams[j], lams[j + 1], gaps[j], report.cdf_dist_bounds[j])
                rows.append(lead + (m, lo, hi) + values + tail)
        return rows
    rows = [FUNCTION_RATE_CSV_HEADER]
    tail = (report.fitted_rate, report.status)
    for j, (lo, hi) in steps:
        rows.append(lead + (report.index, lo, hi, report.sup_gaps[j]) + tail)
    return rows


def _report_output(report) -> tuple[list[tuple], dict]:
    """Raw rows and JSON document of a ``convergence`` report.  The audit's
    document holds its rows as records and a violation count; a rate
    report's is its fields in declaration order, which the long-form rows
    cannot give back."""
    from .convergence import AuditReport

    rows = _report_rows(report)
    if isinstance(report, AuditReport):
        doc = {
            "weights": _weights(report.weights),
            "levels": report.levels,
            "violations": len(report.violations()),
            "rows": _records(rows, AUDIT_CSV_HEADER),
        }
    else:
        doc = {f.name: getattr(report, f.name) for f in fields(report)}
        doc["weights"] = _weights(report.weights)
    return rows, doc


def write_report_csv(report, out_path: str | None) -> None:
    """Write a rate or audit report as the CSV bytes ``rates`` and ``audit`` print,
    atomically to ``out_path`` (stdout when None)."""
    _emit(_csv_bytes(_report_rows(report)), out_path)


def _run_rates(cfg: RunConfig):
    from .convergence import eigenfunction_rate_experiment, eigenvalue_rate_experiment
    from .measures import WeightVector

    w = WeightVector.of(cfg.weight)
    if cfg.rate_kind == "eigenvalue":
        report = eigenvalue_rate_experiment(w, cfg.levels, cfg.boundary, cfg.m_max)
    else:
        report = eigenfunction_rate_experiment(w, cfg.levels, cfg.boundary, cfg.m_index)
    return _report_output(report)


def _run_audit(cfg: RunConfig):
    from .convergence import bound_audit
    from .measures import WeightVector

    w = WeightVector.of(cfg.weight)
    return _report_output(bound_audit(w, cfg.levels, coeff_order=cfg.order))


def _run_oracle_compare(cfg: RunConfig):
    from .spectrum import fem_oracle, find_eigenvalues, record_count, relative_gap

    mu, doc = _measure_for(cfg, "boundary")
    if cfg.mesh_power < cfg.level:
        raise ConfigError(
            f"mesh 3^-{cfg.mesh_power} cannot resolve level-{cfg.level} breakpoints; "
            "raise --mesh-power to at least the level"
        )
    count = record_count(cfg.boundary, cfg.m_max)
    records = find_eigenvalues(mu, cfg.boundary, count, scan_ceiling=cfg.scan_ceiling)
    mesh = 3.0 ** (-cfg.mesh_power)
    fem = fem_oracle(mu, mesh, count, cfg.boundary)
    rows = [("boundary", "m", "lambda_spectral", "lambda_fem", "rel_gap")]
    for r, lam_fem in zip(records, fem):
        rows.append((cfg.boundary, r.index, r.lam, lam_fem, relative_gap(r.lam, lam_fem)))
    doc["mesh"] = mesh
    doc.update(_columns(rows, rows[0][2:]))
    return rows, doc


_HANDLERS = {
    "eigvals": _run_eigvals,
    "eigfun": _run_eigfun,
    "sincurve": _run_sincurve,
    "rates": _run_rates,
    "audit": _run_audit,
    "oracle-compare": _run_oracle_compare,
}


def run(cfg: RunConfig) -> None:
    """Execute one configured command and write its output."""
    rows, doc = _HANDLERS[cfg.command](cfg)
    payload = _csv_bytes(rows) if cfg.format == "csv" else _json_bytes(doc)
    _emit(payload, cfg.out_path)


def exit_code(exc: Exception) -> int:
    """The exit code of a failure: 4 for a resource cap, 3 for a precision or
    consistency failure, 2 for anything else (configuration, domain, I/O)."""
    if isinstance(exc, ResourceError):
        return 4
    if isinstance(exc, PrecisionError):
        return 3
    return 2


def _pin_threads(threads: int | None) -> None:
    """Set the thread-count variables to ``threads`` before numpy loads,
    keeping any the user has already set."""
    if threads is not None:
        for var in _THREAD_ENV_VARS:
            os.environ.setdefault(var, str(threads))


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = config_from_argv(sys.argv[1:] if argv is None else argv)
        _pin_threads(cfg.threads)
        run(cfg)
    except (ToolkitError, OSError) as exc:
        code = exit_code(exc)
        name = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc), "exit_code": code}), file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
