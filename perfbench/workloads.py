"""Seeded workload generators and the task runner.

A workload is a sequence of rounds.  Every round of a workload has the same
composition (the same task kinds, levels, boundaries, mesh sizes and
piece-count strata); the seed draws the weights, the general measures, the
task order and the level-0 controls.  The benchmark always measures whole rounds, so two seeds do the same
amount of work up to what the drawn inputs change.

The program under test receives only the generated ``RunConfig``s and
``Measure``s; everything random lives here.
"""

from __future__ import annotations

import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("cantor-deep", "general-measure", "experiments")

# Nominal length of one round, measured on a shared 2-core VM.  A run times
# as many whole rounds as fit in --seconds, at least one.  The count does not
# depend on how fast the code under test is, so both sides of a comparison
# time exactly the same tasks.
ROUND_SECONDS = {"cantor-deep": 24.0, "general-measure": 22.0, "experiments": 22.0}

# Weights w1 = p/q (q <= 20) in [2/5, 1/2].  Eight-root solves at these
# weights need 1050-1250 boundary evaluations per Neumann+Dirichlet pair;
# 1/3 and 1/4 need 1340 and 1820, so one draw of them at level 10 would move
# an eight-task run by more than the benchmark's bounds.  1/3 still runs in the
# traced reference solves.
WEIGHT_POOL = tuple(
    sorted({Fraction(p, q) for q in range(2, 21) for p in range(1, q)
            if Fraction(2, 5) <= Fraction(p, q) <= Fraction(1, 2)})
)

# Level 9 runs three times per round, so the round's median task is the
# median of six level-9 solves, not the gap between two levels.
CANTOR_LEVELS = (8, 9, 9, 9, 10)
# One fixed weight holds the level-10 slot of every round, which keeps the
# round's slowest tasks the same from seed to seed.
DEEP_WEIGHT = Fraction(2, 5)
DEEP_LEVEL = 10
# The classic middle-thirds weight 1/2 is left out of this workload: at levels
# 8-10 the solver's scan steps over a close pair of Dirichlet roots near
# z ~ 29.60, so records m = 7, 8 are really roots 9, 10 and the index-law
# check fails.  perfbench/tests/test_harness.py keeps that defect in view.
CLASSIC_WEIGHT = Fraction(1, 2)
CANTOR_M_MAX = 8
# Piece-count strata and how many measures each contributes.  The median task
# is the median of six mid-size measures and the slowest is the large one:
# tasks of one size still differ by up to 40% in wall time on a shared host,
# so the median needs several of them.
GENERAL_STRATA = (((280, 320), 1), ((570, 630), 6), ((900, 1000), 1))
GENERAL_ROOTS = 9
GENERAL_GRID_POINTS = 2049
# mesh power -> levels of the oracle comparisons in a round, each run for
# both boundaries.  Deeper levels leave more nodes massless, and condensation
# shrinks the dense eigenproblem: at mesh 3^-8 a level-5 task takes ~6 s,
# level 2 ~12 s, level 0 ~60 s.  The six ~0.5 s mesh-3^-7 tasks cost the
# same whatever weight is drawn.
ORACLE_LEVELS = {7: (3, 4, 5), 8: (5,)}
CONTROL_SHARE = 0.5


@dataclass
class Task:
    """One unit of timed work: a CLI run or a general-measure library task."""

    task_id: str
    kind: str  # "cli", "general", or "control" (a level-0 cli task checked in closed form)
    config: object = None  # kreinfeller.cli.RunConfig for CLI tasks
    measure: object = None  # kreinfeller.measures.Measure for general tasks


@dataclass
class Outcome:
    """What a task delivered: its output bytes plus a parsed view for checks."""

    payload: bytes
    parsed: object
    roots: int


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    # string seeds hash through SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{round_index}")


def round_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // ROUND_SECONDS[workload]))


def make_round(workload: str, seed: int, round_index: int) -> list[Task]:
    """Timed tasks of one round, in execution order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = _rng(workload, seed, round_index)
    prefix = f"{workload}/s{seed}/r{round_index}"
    if workload == "cantor-deep":
        tasks = _cantor_round(rng, prefix)
    elif workload == "general-measure":
        tasks = _general_round(rng, prefix)
    else:
        tasks = _experiment_round(rng, prefix)
    rng.shuffle(tasks)
    return tasks


def make_controls(workload: str, seed: int, round_index: int, tasks: list[Task]) -> list[Task]:
    """Level-0 eigvals tasks attached to a seeded half of a round's tasks.

    Level 0 is Lebesgue measure, whose spectrum is known in closed form, so
    these are checked against lambda_m = (m pi)^2 outside the timed region.
    """
    from kreinfeller.cli import RunConfig

    rng = _rng(workload + ":controls", seed, round_index)
    controls = []
    for task in rng.sample(tasks, round(CONTROL_SHARE * len(tasks))):
        cfg = RunConfig(
            command="eigvals",
            weight=rng.choice(WEIGHT_POOL),
            level=0,
            boundary=rng.choice(("neumann", "dirichlet")),
            m_max=rng.randint(4, 12),
            format="json",
        )
        controls.append(Task(task.task_id + "/level0", "control", config=cfg))
    return controls


def _cantor_round(rng: random.Random, prefix: str) -> list[Task]:
    from kreinfeller.cli import RunConfig

    drawn = [w for w in WEIGHT_POOL if w != CLASSIC_WEIGHT]
    deep_slot = CANTOR_LEVELS.index(DEEP_LEVEL)
    tasks = []
    for slot, level in enumerate(CANTOR_LEVELS):
        # one weight per level, both boundaries: the pair's cost varies less
        # across the pool than either boundary's alone
        weight = DEEP_WEIGHT if slot == deep_slot else rng.choice(drawn)
        for boundary in ("neumann", "dirichlet"):
            cfg = RunConfig(
                command="eigvals",
                weight=weight,
                level=level,
                boundary=boundary,
                m_max=CANTOR_M_MAX,
                level_cap=max(CANTOR_LEVELS),
                format="json",
            )
            tasks.append(Task(f"{prefix}/eigvals-{len(tasks)}-L{level}-{boundary[0]}", "cli",
                              config=cfg))
    return tasks


def general_measure(rng: random.Random, lo: int, hi: int):
    """Non-self-similar measure on a j/N grid with small-integer densities.

    Densities are integers 0..4 (zero pieces are gaps; the two end pieces
    carry mass) scaled by one exact rational so the total mass is exactly 1.
    """
    from kreinfeller.measures import Measure

    pieces = rng.randint(lo, hi)
    n_grid = pieces * rng.randint(2, 4)
    cuts = sorted(rng.sample(range(1, n_grid), pieces - 1))
    ticks = [0] + cuts + [n_grid]
    weights = [0 if rng.random() < 0.15 else rng.randint(1, 4) for _ in range(pieces)]
    weights[0] = weights[0] or 1
    weights[-1] = weights[-1] or 1
    raw_mass = sum(k * (b - a) for k, a, b in zip(weights, ticks, ticks[1:]))
    scale = Fraction(n_grid, raw_mass)
    return Measure(
        tuple(Fraction(t, n_grid) for t in ticks),
        tuple(k * scale for k in weights),
    )


def _general_round(rng: random.Random, prefix: str) -> list[Task]:
    tasks = []
    for (lo, hi), count in GENERAL_STRATA:
        for _ in range(count):
            mu = general_measure(rng, lo, hi)
            tasks.append(Task(f"{prefix}/general-{len(tasks)}-K{mu.piece_count}", "general",
                              measure=mu))
    return tasks


def _experiment_round(rng: random.Random, prefix: str) -> list[Task]:
    """Both boundaries of one eigenvalue-rate report, eigenfunction-rate
    reports for m = 1..3 and both boundaries, the two audits, and the oracle
    comparisons of ORACLE_LEVELS.  The six cheap eigenfunction reports and
    the six mesh-3^-7 comparisons centre the round's median on the latter."""
    from kreinfeller.cli import RunConfig

    boundaries = ("neumann", "dirichlet")
    weight = rng.choice(WEIGHT_POOL)
    specs = [
        (f"rates-eigenvalue-{b[0]}",
         dict(command="rates", levels=tuple(range(2, 9)), m_max=6, boundary=b, weight=weight))
        for b in boundaries
    ]
    specs += [
        (f"rates-eigenfunction-m{m}-{b[0]}",
         dict(command="rates", rate_kind="eigenfunction", levels=tuple(range(2, 8)), m_index=m,
              boundary=b))
        for m in (1, 2, 3)
        for b in boundaries
    ]
    specs += [
        ("audit-1-5", dict(command="audit", levels=tuple(range(1, 6)), order=12)),
        ("audit-1-6", dict(command="audit", levels=tuple(range(1, 7)), order=12)),
    ]
    specs += [
        (f"oracle-L{level}-mesh{mesh}-{b[0]}",
         dict(command="oracle-compare", level=level, mesh_power=mesh, m_max=6, boundary=b))
        for mesh, levels in ORACLE_LEVELS.items()
        for level in levels
        for b in boundaries
    ]
    tasks = []
    for name, kwargs in specs:
        kwargs.setdefault("weight", rng.choice(WEIGHT_POOL))
        cfg = RunConfig(format="json", **kwargs)
        tasks.append(Task(f"{prefix}/{name}", "cli", config=cfg))
    return tasks


def warmup_task(workload: str) -> Task:
    """Small fixed task of the workload's shape, run once during set-up."""
    from kreinfeller.cli import RunConfig

    if workload == "general-measure":
        return Task("warmup", "general", measure=general_measure(random.Random("warmup"), 40, 40))
    if workload == "cantor-deep":
        return Task("warmup", "cli", config=RunConfig(
            command="eigvals", weight=Fraction(1, 2), level=4, m_max=CANTOR_M_MAX, format="json"))
    return Task("warmup", "cli", config=RunConfig(
        command="oracle-compare", weight=Fraction(1, 2), level=2, mesh_power=3, m_max=3,
        format="json"))


# --------------------------------------------------------------------------
# execution


def cli_output(cfg) -> bytes:
    """Run one CLI configuration and return what it writes to stdout."""
    from kreinfeller.cli import run

    buf = io.BytesIO()
    wrapper = io.TextIOWrapper(buf, encoding="utf-8")
    saved = sys.stdout
    sys.stdout = wrapper
    try:
        run(cfg)
        wrapper.flush()
    finally:
        sys.stdout = saved
        wrapper.detach()
    return buf.getvalue()


def execute(task: Task) -> Outcome:
    """Run a task; raises whatever the program raises."""
    if task.kind == "general":
        return _execute_general(task.measure)
    payload = cli_output(task.config)
    doc = json.loads(payload)
    return Outcome(payload, doc, _roots_delivered(task.config.command, doc))


def _roots_delivered(command: str, doc: dict) -> int:
    if command == "eigvals":
        return len(doc["records"])
    if command == "oracle-compare":
        return len(doc["lambda_spectral"])
    if command == "rates" and "lambdas" in doc:
        return sum(len(row) for row in doc["lambdas"])
    return 0


def _execute_general(mu) -> Outcome:
    import numpy as np
    from kreinfeller.series import build_table
    from kreinfeller.spectrum import (
        count_zeros,
        eigenfunction,
        eigenfunction_eval,
        eigenfunction_l2_norm,
        find_eigenvalues,
    )

    xs = np.linspace(0.0, 1.0, GENERAL_GRID_POINTS)
    table = build_table(mu, 2)
    parts: list[bytes] = []
    per_boundary = {}
    for boundary in ("neumann", "dirichlet"):
        records = find_eigenvalues(table, boundary, GENERAL_ROOTS)
        zeros = []
        for rec in records:
            ef = eigenfunction(mu, rec)
            values = eigenfunction_eval(ef, xs, normalized=True)
            norm = eigenfunction_l2_norm(ef)
            zeros.append(count_zeros(ef))
            parts.append(",".join(rec.csv_row()).encode())
            parts.append(values.tobytes())
            parts.append(f"{norm!r},{zeros[-1]}".encode())
        per_boundary[boundary] = (records, zeros)
    roots = sum(len(recs) for recs, _ in per_boundary.values())
    return Outcome(b"\n".join(parts), per_boundary, roots)
