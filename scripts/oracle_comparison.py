#!/usr/bin/env python3
"""Cross-validate the spectral solver against the finite-element oracle.

For each weight pair and refinement level, computes eigenvalues two
independent ways — certified root-finding on the boundary-value curves,
and a P1 finite-element generalized eigenproblem — and reports the worst
relative gap at each mesh size.  The gap must shrink under mesh
refinement; the spectral values are the reference.

Usage:
    python3 scripts/oracle_comparison.py
    python3 scripts/oracle_comparison.py --w 1/3 --levels 1:4 --m-max 6 --mesh-powers 4,5,6
"""

import argparse
import sys
from fractions import Fraction

from kreinfeller.cli import parse_levels, parse_weight
from kreinfeller.errors import ConfigError
from kreinfeller.measures import CantorLevel, WeightVector, cantor_approximant
from kreinfeller.spectrum import fem_oracle, find_eigenvalues, record_count, relative_gap


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--w", action="append", type=parse_weight, default=None, metavar="W",
                    help="first branch weight; repeatable (default: 0.5, 1/3, 0.25)")
    ap.add_argument("--levels", type=parse_levels, default="1:4",
                    help="inclusive level range a:b or comma list (default 1:4)")
    ap.add_argument("--m-max", type=int, default=6, help="largest eigenvalue index (default 6)")
    ap.add_argument("--mesh-powers", type=parse_levels, default="4,5,6",
                    help="comma list k for meshes h=3^-k (default 4,5,6)")
    # a rejected value exits 2 with one line on stderr, as the CLI does
    try:
        return run(ap.parse_args(argv))
    except ConfigError as exc:
        ap.exit(2, f"{ap.prog}: error: {exc}\n")


def run(args) -> int:
    """Run the comparison for parsed command-line arguments."""
    weights = args.w or [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    header = "  ".join(f"h=3^-{k}" for k in args.mesh_powers)
    for first in weights:
        w = WeightVector.of(first)
        print(f"\nweights ({w.w1}, {w.w2})   worst relative gap over m<={args.m_max}")
        print(f"  level  boundary   {header}")
        for level in args.levels:
            mu = cantor_approximant(CantorLevel(w, level))
            for boundary in ("neumann", "dirichlet"):
                count = record_count(boundary, args.m_max)
                records = find_eigenvalues(mu, boundary, count)
                start = 1 if boundary == "neumann" else 0
                cells = []
                for k in args.mesh_powers:
                    if k < level:
                        cells.append("   (mesh too coarse)")
                        continue
                    fem = fem_oracle(mu, 3.0**-k, count, boundary)
                    worst = max(
                        relative_gap(r.lam, lf) for r, lf in list(zip(records, fem))[start:]
                    )
                    cells.append(f"{worst:10.3e}")
                print(f"   {level}     {boundary:9s} " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
