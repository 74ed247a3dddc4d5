#!/usr/bin/env python3
"""Convergence-rate experiments across refinement levels.

Runs the eigenvalue-gap and eigenfunction-gap experiments for a list of
weight pairs and both boundary conditions, prints the fitted log-slopes
next to the proven-envelope slope log(w2), and optionally writes the full
reports as CSV.  Each slope is printed with its drop-deepest delta (the
slope change when the deepest gap is left out of the fit); a fit with
|delta| > 0.05 is marked "unsettled", since its slope is still
pre-asymptotic.

Usage:
    python3 scripts/rate_experiments.py
    python3 scripts/rate_experiments.py --w 0.5 --w 1/3 --levels 5:9 --out-dir results/
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

from kreinfeller.cli import ArgumentParser, parse_levels, parse_weight, write_report_csv
from kreinfeller.convergence import (
    eigenfunction_rate_experiment,
    eigenvalue_rate_experiment,
)
from kreinfeller.measures import WeightVector

SETTLED_DELTA = 0.05


def describe_fit(slope, delta) -> str:
    """Slope, drop-deepest delta and an "unsettled" mark when |delta| > 0.05."""
    if slope is None:
        return "  (converged)"
    if delta is None:
        return f"{slope:+.4f}  delta    n/a"
    mark = "  unsettled" if abs(delta) > SETTLED_DELTA else ""
    return f"{slope:+.4f}  delta {delta:+.4f}{mark}"


def main(argv=None) -> int:
    ap = ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--w", action="append", type=parse_weight, default=None, metavar="W",
                    help="first branch weight; repeatable (default: 0.5 and 1/3)")
    ap.add_argument("--levels", type=parse_levels, default="5:9",
                    help="inclusive level range a:b or comma list (default 5:9)")
    ap.add_argument("--m-max", type=int, default=3, help="largest eigenvalue index tracked (default 3)")
    ap.add_argument("--out-dir", default=None, help="directory for CSV reports (default: print only)")
    return ap.parse_and_run(run, argv)


def run(args) -> int:
    """Run the experiments for parsed command-line arguments."""
    weights = args.w or [Fraction(1, 2), Fraction(1, 3)]
    levels = args.levels
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    for first in weights:
        w = WeightVector.of(first)
        envelope = math.log(float(w.w2))
        print(f"\nweights ({w.w1}, {w.w2}), levels {','.join(map(str, levels))}, "
              f"envelope slope log(w2) = {envelope:+.4f}")
        for boundary in ("neumann", "dirichlet"):
            ev = eigenvalue_rate_experiment(w, levels, boundary, args.m_max)
            for i, m in enumerate(ev.indices):
                shown = describe_fit(ev.fitted_rate_per_m[i], ev.fit_drop_deepest_delta[i])
                print(f"  eigenvalue   {boundary:9s} m={m}: fitted slope {shown}  "
                      f"status={ev.status_per_m[i]}")
            ef = eigenfunction_rate_experiment(w, levels, boundary, 1)
            shown = describe_fit(ef.fitted_rate, ef.fit_drop_deepest_delta)
            print(f"  eigenfunction {boundary:8s} m=1: fitted slope {shown}  status={ef.status}")
            if out_dir:
                # the exact weight names the file, so 1/3 and 0.3333 never collide
                tag = f"w{w.w1.numerator}_{w.w1.denominator}_{boundary}"
                for kind, report in (("eigenvalue", ev), ("eigenfunction", ef)):
                    path = out_dir / f"{kind}_rates_{tag}.csv"
                    write_report_csv(report, str(path))
                    print(f"  wrote {path}")

    print("\nnote: measured slopes are steeper than the envelope; the proven "
          "bound c*w2^n holds but is not tight. A moment expansion of one "
          "refinement step predicts per-level gap ratios (w1^2+w2^2)/3 for "
          "Neumann eigenvalues and 1/3 for Dirichlet eigenvalues and for "
          "eigenfunctions; symmetric weights give (w1^2+w2^2)/3 = 1/6 throughout. "
          "For (1/3,2/3): 5/27 (log -1.686) Neumann eigenvalues, 1/3 (log -1.099) "
          "otherwise. Fits marked unsettled are pre-asymptotic (eigenvalue fits "
          "over levels 2:6 often are); deepen --levels to settle them.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
