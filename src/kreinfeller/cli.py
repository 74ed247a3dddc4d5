"""Command-line front end.

Six subcommands cover the toolkit's surface:

    eigvals         eigenvalue table for one measure
    eigfun          eigenfunction samples on a grid
    sincurve        the two boundary-value curves z -> sp(z), sq(z)
    rates           eigenvalue / eigenfunction convergence-rate report
    audit           proven-bound audit report
    oracle-compare  spectral solver vs. finite-element oracle, side by side

This module is the package's only writer of CSV and JSON.  Every
subcommand's handler, and ``write_report_csv`` for the scripts, lays out
its rows and documents here; the computing modules return plain data.

Design constraints honored here:

* Deterministic output: identical configuration -> byte-identical file.
  All floats are printed with 17 significant digits, CSV is RFC-4180
  (CRLF line endings, minimal quoting), JSON is UTF-8, one document per
  file, with fixed key order.
* Atomic writes: output lands in a temporary sibling file first and is
  renamed into place; a failure mid-run leaves no partial output.
* Errors exit nonzero with a one-line machine-readable JSON description
  on stderr: 2 for configuration/domain problems, 3 for precision or
  consistency failures, 4 for resource caps.
* Thread pinning: --threads (or the KREINFELLER_THREADS environment
  variable) sets the BLAS/OpenMP thread-count variables *before* numpy
  is imported, which is why every heavy import below is deferred into
  the handlers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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

TOL_MIN = 1e-14
TOL_MAX = 1e-4
DEFAULT_LEVEL_CAP = 10
DEFAULT_ORDER = 12

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREADS_ENV = "KREINFELLER_THREADS"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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


def _parse_order(text: str) -> int:
    """Coefficient table order: an integer, or 'auto' for the default."""
    if text == "auto":
        return DEFAULT_ORDER
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"order must be an integer or 'auto', got {text!r}") from None


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
    m_list: tuple[int, ...] = ()  # eigfun indices; empty means (m_index,)
    normalized: bool = False
    tol: float = 1e-12
    order: int = DEFAULT_ORDER
    z_max: float = 12.0
    z_points: int = 601
    x_points: int = 16
    scan_ceiling: float = 500.0
    mesh_power: int = 5
    rate_kind: str = "eigenvalue"
    level_cap: int = DEFAULT_LEVEL_CAP
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
        if not (TOL_MIN <= self.tol <= TOL_MAX):
            raise ConfigError(f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}], got {self.tol:g}")
        if self.level < 0:
            raise ConfigError(f"level must be nonnegative, got {self.level}")
        if self.level > self.level_cap:
            raise ResourceError(
                f"level {self.level} exceeds the configured cap {self.level_cap}; "
                "raise --level-cap explicitly to go deeper"
            )
        for lv in self.levels:
            if lv < 0:
                raise ConfigError(f"levels must be nonnegative, got {lv}")
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
        if self.z_max <= 0:
            raise ConfigError(f"z-max must be positive, got {self.z_max}")
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


class _ArgumentParser(argparse.ArgumentParser):
    """Raises :class:`ConfigError` for a rejected command line, so ``main``
    reports it as the one-line JSON error with exit code 2.  Subparsers
    inherit the class."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="kreinfeller",
        description="Eigenvalues of the measure-second-derivative operator on [0,1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, levels: bool = False) -> None:
        p.add_argument(
            "--w",
            dest="weight",
            type=parse_weight,
            default="0.5",
            metavar="W",
            help="first branch weight, decimal or fraction (default 0.5); the second is 1-W",
        )
        if levels:
            p.add_argument(
                "--levels",
                type=parse_levels,
                default="1:3",
                metavar="A:B",
                help="refinement levels, inclusive range a:b or comma list (default 1:3)",
            )
        else:
            p.add_argument("--level", type=int, default=0, help="refinement level (default 0)")
        p.add_argument("--level-cap", type=int, default=DEFAULT_LEVEL_CAP, help="maximum refinement level accepted (default %(default)s)")
        p.add_argument("--tol", type=float, default=1e-12, help="root-finding tolerance (default %(default)s)")
        p.add_argument("--out", dest="out_path", default=None, metavar="PATH", help="output file (default: stdout)")
        p.add_argument("--format", choices=FORMATS, default="csv", help="output format (default csv)")
        p.add_argument("--threads", type=int, default=None, help="pin BLAS/OpenMP thread count before numpy loads")

    p_eig = sub.add_parser("eigvals", help="eigenvalue table for one measure")
    common(p_eig)
    p_eig.add_argument("--boundary", choices=BOUNDARIES, default="neumann", help="boundary condition (default neumann)")
    p_eig.add_argument("--m-max", type=int, default=4, help="largest eigenvalue index reported (default 4)")
    p_eig.add_argument("--scan-ceiling", type=float, default=500.0, help="abort the root scan past this frequency (default 500)")

    p_fun = sub.add_parser("eigfun", help="eigenfunction samples on a measure-adapted grid")
    common(p_fun)
    p_fun.add_argument("--boundary", choices=BOUNDARIES, default="neumann", help="boundary condition (default neumann)")
    p_fun.add_argument("--m", dest="m_list", type=_parse_m_list, default="1", metavar="M[,M..]", help="eigenvalue indices to sample, comma separated (default 1)")
    p_fun.add_argument("--x-points", type=int, default=16, help="uniform samples per density interval (default 16)")
    p_fun.add_argument("--normalized", action="store_true", help="scale each eigenfunction to unit L2(measure) norm")
    p_fun.add_argument("--scan-ceiling", type=float, default=500.0, help="abort the root scan past this frequency (default 500)")

    p_sin = sub.add_parser("sincurve", help="boundary-value curves z -> sp(z), sq(z)")
    common(p_sin)
    p_sin.add_argument("--z-max", type=float, default=12.0, help="right end of the frequency range (default 12)")
    p_sin.add_argument("--z-points", type=int, default=601, help="number of samples on [0, z-max] (default 601)")

    p_rates = sub.add_parser("rates", help="convergence-rate report across refinement levels")
    common(p_rates, levels=True)
    p_rates.add_argument("--boundary", choices=BOUNDARIES, default="neumann", help="boundary condition (default neumann)")
    p_rates.add_argument("--kind", dest="rate_kind", choices=RATE_KINDS, default="eigenvalue", help="track eigenvalues or one eigenfunction (default eigenvalue)")
    p_rates.add_argument("--m-max", type=int, default=3, help="largest eigenvalue index tracked (default 3)")
    p_rates.add_argument("--m", dest="m_index", type=int, default=1, metavar="M", help="eigenfunction index for --kind eigenfunction (default 1)")

    p_audit = sub.add_parser("audit", help="audit proven bounds on a family of approximants")
    common(p_audit, levels=True)
    p_audit.add_argument("--order", type=_parse_order, default=DEFAULT_ORDER, help="coefficient table order, integer or 'auto' for the default (default %(default)s)")

    p_cmp = sub.add_parser("oracle-compare", help="spectral solver vs. finite-element oracle")
    common(p_cmp)
    p_cmp.add_argument("--boundary", choices=BOUNDARIES, default="neumann", help="boundary condition (default neumann)")
    p_cmp.add_argument("--m-max", type=int, default=4, help="largest eigenvalue index compared (default 4)")
    p_cmp.add_argument("--mesh-power", type=int, default=5, help="finite-element mesh size 3^-k (default k=5)")
    p_cmp.add_argument("--scan-ceiling", type=float, default=500.0, help="abort the root scan past this frequency (default 500)")

    return parser


def config_from_argv(argv: list[str]) -> RunConfig:
    return RunConfig(**vars(_build_parser().parse_args(argv)))


# --------------------------------------------------------------------------
# output plumbing


def _csv_bytes(rows: list[tuple[str, ...]]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


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
# subcommand handlers; each returns (csv rows incl. header, json document)


def _measure_for(cfg: RunConfig):
    from .measures import CantorLevel, WeightVector, cantor_approximant

    w = WeightVector.of(cfg.weight)
    return w, cantor_approximant(CantorLevel(w, cfg.level))


def _count_for(cfg: RunConfig, m_top: int) -> int:
    # Neumann tables start at the flat m=0 mode, so index m sits at position m.
    return m_top + 1 if cfg.boundary == "neumann" else m_top


def _weights(w) -> list[str]:
    return [str(w.w1), str(w.w2)]


def _json_header(cfg: RunConfig, w) -> dict:
    return {
        "command": cfg.command,
        "weights": _weights(w),
        "level": cfg.level,
    }


def _run_eigvals(cfg: RunConfig):
    from .spectrum import find_eigenvalues, records_to_rows

    w, mu = _measure_for(cfg)
    records = find_eigenvalues(
        mu, cfg.boundary, _count_for(cfg, cfg.m_max), tol=cfg.tol, scan_ceiling=cfg.scan_ceiling
    )
    rows = records_to_rows(records)
    doc = _json_header(cfg, w)
    doc["boundary"] = cfg.boundary
    doc["records"] = [
        {
            "m": r.index,
            "z": r.z,
            "lambda": r.lam,
            "bracket_lo": r.bracket_lo,
            "bracket_hi": r.bracket_hi,
            "residual": r.residual,
            "error_bound": r.error_bound,
        }
        for r in records
    ]
    return rows, doc


def _run_eigfun(cfg: RunConfig):
    from .spectrum import eigenfunction, eigenfunction_eval, find_eigenvalues

    m_list = cfg.m_list or (cfg.m_index,)
    w, mu = _measure_for(cfg)
    if cfg.boundary == "dirichlet" and min(m_list) < 1:
        raise ConfigError("dirichlet indices start at m=1")
    records = find_eigenvalues(
        mu, cfg.boundary, _count_for(cfg, max(m_list)), tol=cfg.tol, scan_ceiling=cfg.scan_ceiling
    )
    by_index = {r.index: r for r in records}
    xs = mu.sample_grid(cfg.x_points).tolist()
    header = ["x"] + [f"f_{cfg.boundary[0]}_{m}" for m in m_list]
    columns = []
    for m in m_list:
        if m not in by_index:
            raise ConfigError(f"index {m} not available for boundary {cfg.boundary}")
        ef = eigenfunction(mu, by_index[m])
        values = eigenfunction_eval(ef, xs, normalized=cfg.normalized)
        columns.append([float(v) for v in values])
    rows = [tuple(header)]
    for i, x in enumerate(xs):
        rows.append((_fmt(x),) + tuple(_fmt(col[i]) for col in columns))
    doc = _json_header(cfg, w)
    doc["boundary"] = cfg.boundary
    doc["normalized"] = cfg.normalized
    doc["x"] = xs
    doc["values"] = {str(m): columns[j] for j, m in enumerate(m_list)}
    doc["z"] = {str(m): by_index[m].z for m in m_list}
    return rows, doc


def _run_sincurve(cfg: RunConfig):
    from .propagation import boundary_values

    w, mu = _measure_for(cfg)
    zs = [cfg.z_max * k / (cfg.z_points - 1) for k in range(cfg.z_points)]
    rows = [("z", "sinp", "sinq")]
    sp_col: list[float] = []
    sq_col: list[float] = []
    for z in zs:
        r = boundary_values(mu, z)
        sp_col.append(r.sp)
        sq_col.append(r.sq)
        rows.append((_fmt(z), _fmt(r.sp), _fmt(r.sq)))
    doc = _json_header(cfg, w)
    doc["z"] = zs
    doc["sinp"] = sp_col
    doc["sinq"] = sq_col
    return rows, doc


RATE_CSV_HEADER = (
    "weights", "boundary", "m", "level_from", "level_to",
    "lambda_from", "lambda_to", "gap", "cdf_bound_from", "fitted_rate", "status",
)
FUNCTION_RATE_CSV_HEADER = (
    "weights", "boundary", "m", "level_from", "level_to", "sup_gap", "fitted_rate", "status",
)
AUDIT_CSV_HEADER = ("bound", "instance", "measured", "limit", "slack", "ok")


def _fit(slope: float | None) -> str:
    return "" if slope is None else _fmt(slope)


def _report_rows(report) -> list[tuple[str, ...]]:
    """CSV rows, header first, of a ``convergence`` rate or audit report."""
    from .convergence import AuditReport, RateReport

    if isinstance(report, AuditReport):
        rows = [AUDIT_CSV_HEADER]
        for r in report.rows:
            ok = "1" if r.ok else "0"
            rows.append((r.bound, r.instance, _fmt(r.measured), _fmt(r.limit), _fmt(r.slack), ok))
        return rows
    lead = (str(report.weights), report.boundary)
    steps = list(enumerate(zip(report.levels, report.levels[1:])))
    if isinstance(report, RateReport):
        rows = [RATE_CSV_HEADER]
        for i, m in enumerate(report.indices):
            lams, gaps = report.lambdas[i], report.successive_gaps[i]
            tail = (_fit(report.fitted_rate_per_m[i]), report.status_per_m[i])
            for j, (lo, hi) in steps:
                values = (lams[j], lams[j + 1], gaps[j], report.cdf_dist_bounds[j])
                rows.append(lead + (str(m), str(lo), str(hi)) + tuple(map(_fmt, values)) + tail)
        return rows
    rows = [FUNCTION_RATE_CSV_HEADER]
    tail = (_fit(report.fitted_rate), report.status)
    for j, (lo, hi) in steps:
        rows.append(lead + (str(report.index), str(lo), str(hi), _fmt(report.sup_gaps[j])) + tail)
    return rows


def _report_doc(report) -> dict:
    """JSON document of a ``convergence`` report: a rate report's fields in
    declaration order, or the audit's rows with their slack and a violation count."""
    from .convergence import AuditReport

    if isinstance(report, AuditReport):
        return {
            "weights": _weights(report.weights),
            "levels": report.levels,
            "violations": len(report.violations()),
            "rows": [
                {
                    "bound": r.bound,
                    "instance": r.instance,
                    "measured": r.measured,
                    "limit": r.limit,
                    "slack": r.slack,
                    "ok": r.ok,
                }
                for r in report.rows
            ],
        }
    doc = {f.name: getattr(report, f.name) for f in fields(report)}
    doc["weights"] = _weights(report.weights)
    return doc


def write_report_csv(report, out_path: str | None) -> None:
    """Write a rate or audit report as the CSV bytes ``rates`` and ``audit`` print,
    atomically to ``out_path`` (stdout when None)."""
    _emit(_csv_bytes(_report_rows(report)), out_path)


def _run_rates(cfg: RunConfig):
    from .convergence import eigenfunction_rate_experiment, eigenvalue_rate_experiment
    from .measures import WeightVector

    w = WeightVector.of(cfg.weight)
    if cfg.rate_kind == "eigenvalue":
        report = eigenvalue_rate_experiment(w, cfg.levels, cfg.boundary, cfg.m_max, tol=cfg.tol)
    else:
        report = eigenfunction_rate_experiment(w, cfg.levels, cfg.boundary, cfg.m_index)
    return _report_rows(report), _report_doc(report)


def _run_audit(cfg: RunConfig):
    from .convergence import bound_audit
    from .measures import WeightVector

    w = WeightVector.of(cfg.weight)
    report = bound_audit(w, cfg.levels, coeff_order=cfg.order)
    return _report_rows(report), _report_doc(report)


def _run_oracle_compare(cfg: RunConfig):
    from .spectrum import fem_oracle, find_eigenvalues

    w, mu = _measure_for(cfg)
    if cfg.mesh_power < cfg.level:
        raise ConfigError(
            f"mesh 3^-{cfg.mesh_power} cannot resolve level-{cfg.level} breakpoints; "
            "raise --mesh-power to at least the level"
        )
    count = _count_for(cfg, cfg.m_max)
    records = find_eigenvalues(mu, cfg.boundary, count, tol=cfg.tol, scan_ceiling=cfg.scan_ceiling)
    mesh = 3.0 ** (-cfg.mesh_power)
    fem = fem_oracle(mu, mesh, count, cfg.boundary)
    rows = [("boundary", "m", "lambda_spectral", "lambda_fem", "rel_gap")]
    gaps: list[float] = []
    for r, lam_fem in zip(records, fem):
        gap = abs(r.lam - lam_fem) / max(abs(r.lam), 1.0)
        gaps.append(gap)
        rows.append((cfg.boundary, str(r.index), _fmt(r.lam), _fmt(lam_fem), _fmt(gap)))
    doc = _json_header(cfg, w)
    doc["boundary"] = cfg.boundary
    doc["mesh"] = mesh
    doc["lambda_spectral"] = [r.lam for r in records]
    doc["lambda_fem"] = list(fem)
    doc["rel_gap"] = gaps
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


def _exit_code(exc: ToolkitError) -> int:
    if isinstance(exc, ResourceError):
        return 4
    if isinstance(exc, PrecisionError):
        return 3
    return 2


def _pin_threads(argv: list[str]) -> None:
    """Set thread-count env vars before any numpy import.

    Scans raw argv (parsing happens later) and falls back to the
    KREINFELLER_THREADS environment variable.
    """
    value: str | None = os.environ.get(THREADS_ENV)
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--threads="):
            value = arg.split("=", 1)[1]
    if value is None:
        return
    for var in _THREAD_ENV_VARS:
        os.environ.setdefault(var, value)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _pin_threads(argv)
    try:
        cfg = config_from_argv(argv)
        run(cfg)
    except ToolkitError as exc:
        code = _exit_code(exc)
        err = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        print(json.dumps(err), file=sys.stderr)
        return code
    except OSError as exc:
        err = {"error": "OSError", "message": str(exc), "exit_code": 2}
        print(json.dumps(err), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
