"""Output checks, run outside the timed region.

Each check returns a list of failure messages; an empty list means the task's
output is correct.  A failed check counts the task as failed.
"""

from __future__ import annotations

import math

# README claim: at meshes of 3^-6 and finer the FEM oracle agrees with the
# spectral solver to this relative gap.
ORACLE_REL_GAP = 5e-3
ORACLE_CLAIM_MESH = 6


def check(task, outcome) -> list[str]:
    if task.kind == "general":
        return _check_general(task.measure, outcome.parsed)
    cfg = task.config
    doc = outcome.parsed
    if cfg.command == "eigvals":
        from kreinfeller.measures import CantorLevel, WeightVector, cantor_approximant

        records = _records_from_doc(doc)
        problems = []
        if task.kind == "control":
            problems += check_level0(records)
        mu = cantor_approximant(CantorLevel(WeightVector.of(cfg.weight), cfg.level))
        return problems + check_records(mu, records, zero_counts=None)
    if cfg.command == "oracle-compare":
        return check_oracle(cfg.mesh_power, doc["rel_gap"])
    if cfg.command == "audit":
        return [] if doc["violations"] == 0 else [f"audit reports {doc['violations']} violations"]
    if cfg.command == "rates":
        return [] if tuple(doc["levels"]) == tuple(cfg.levels) else ["rates report lost levels"]
    return [f"no check for command {cfg.command!r}"]


def _records_from_doc(doc):
    from kreinfeller.spectrum import EigenvalueRecord

    return [
        EigenvalueRecord(
            index=r["m"],
            boundary=doc["boundary"],
            z=r["z"],
            lam=r["lambda"],
            bracket_lo=r["bracket_lo"],
            bracket_hi=r["bracket_hi"],
            residual=r["residual"],
            error_bound=r["error_bound"],
        )
        for r in doc["records"]
    ]


def check_records(mu, records, zero_counts) -> list[str]:
    """Strict order, a sign change across each bracket, and the zero-count law.

    ``zero_counts`` are counts the task already produced; when None they are
    computed here.
    """
    from kreinfeller.propagation import boundary_values
    from kreinfeller.spectrum import NEUMANN, count_zeros, eigenfunction

    problems = []
    zs = [r.z for r in records]
    if any(b <= a for a, b in zip(zs, zs[1:])):
        problems.append("records not strictly increasing")
    for i, rec in enumerate(records):
        if rec.z > 0.0:
            lo = boundary_values(mu, rec.bracket_lo)
            hi = boundary_values(mu, rec.bracket_hi)
            attr = "sp" if rec.boundary == NEUMANN else "sq"
            if not getattr(lo, attr) * getattr(hi, attr) < 0.0:
                problems.append(f"m={rec.index}: no sign change across the bracket")
        zeros = count_zeros(eigenfunction(mu, rec)) if zero_counts is None else zero_counts[i]
        expected = rec.index if rec.boundary == NEUMANN else rec.index + 1
        if zeros != expected:
            problems.append(f"m={rec.index}: {zeros} zeros, index law says {expected}")
    return problems


def check_level0(records) -> list[str]:
    """Lebesgue measure: z_m = m pi, to within each record's error bound."""
    return [
        f"m={r.index}: |z - m pi| = {abs(r.z - r.index * math.pi):.3e} > error_bound {r.error_bound:.3e}"
        for r in records
        if abs(r.z - r.index * math.pi) > r.error_bound
    ]


def check_oracle(mesh_power: int, rel_gaps) -> list[str]:
    if mesh_power < ORACLE_CLAIM_MESH:
        return []
    return [
        f"entry {i}: oracle rel_gap {g:.3e} > {ORACLE_REL_GAP:g}"
        for i, g in enumerate(rel_gaps)
        if not g <= ORACLE_REL_GAP
    ]


def _check_general(mu, per_boundary) -> list[str]:
    problems = []
    for boundary, (records, zeros) in per_boundary.items():
        problems += [f"{boundary} {p}" for p in check_records(mu, records, zeros)]
    return problems
