#!/usr/bin/env python3
"""Audit every proven inequality on a family of approximants.

Checks coefficient factorial bounds, coefficient-gap bounds, the
closed-form sup-norm gap constants for all four trig-type functions and
their derivatives, the CDF sup-distance bounds (telescoping and
geometric cap) and the exact one-step self-similarity of the CDFs, then
prints the tightest margin seen per bound family.
Exits 3, the CLI's code for an inconsistency, when any weight's audit
reports a violated row.

Usage:
    python3 scripts/bound_audit.py
    python3 scripts/bound_audit.py --w 0.25 --levels 1:6 --out audit.csv
"""

import sys
from fractions import Fraction

from kreinfeller.cli import ArgumentParser, parse_levels, parse_weight, write_report_csv
from kreinfeller.convergence import bound_audit
from kreinfeller.measures import WeightVector


def main(argv=None) -> int:
    ap = ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--w", action="append", type=parse_weight, default=None, metavar="W",
                    help="first branch weight; repeatable (default: 0.5, 1/3, 0.25)")
    ap.add_argument("--levels", type=parse_levels, default="1:6",
                    help="inclusive level range a:b or comma list (default 1:6)")
    ap.add_argument("--order", type=int, default=12, help="coefficient table order (default 12)")
    ap.add_argument("--out", default=None, help="write all rows for the last weight pair as CSV")
    return ap.parse_and_run(run, argv)


def run(args) -> int:
    """Run the audit for parsed command-line arguments."""
    levels = args.levels
    weights = args.w or [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]

    report = None
    violated = False
    for first in weights:
        w = WeightVector.of(first)
        report = bound_audit(w, levels, coeff_order=args.order, raise_on_violation=False)
        bad = report.violations()
        violated = violated or bool(bad)
        print(f"\nweights ({w.w1}, {w.w2}), levels {','.join(map(str, levels))}: "
              f"{len(report.rows)} bound instances, {len(bad)} violations")
        for name, row in sorted(report.worst_slack_per_bound().items()):
            print(f"  {name:28s} tightest margin {row.slack:12.5e}  [{row.instance}]")
        for row in bad[:10]:
            print(f"  VIOLATED {row.bound} [{row.instance}]: "
                  f"measured {row.measured:.6e} > limit {row.limit:.6e}")

    if args.out and report is not None:
        write_report_csv(report, args.out)
        print(f"\nwrote {args.out}")
    return 3 if violated else 0


if __name__ == "__main__":
    sys.exit(main())
