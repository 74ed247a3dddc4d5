"""Tests for the benchmark's own helpers.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.load_program()


def _inputs(workload, seed, rounds=2):
    """Comparable view of every input a seed generates."""
    out = []
    for r in range(rounds):
        tasks = workloads.make_round(workload, seed, r)
        for task in tasks + workloads.make_controls(workload, seed, r, tasks):
            if task.measure is not None:
                out.append((task.task_id, task.measure.breakpoints, task.measure.densities))
            else:
                out.append((task.task_id, task.config))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_distinct_seeds_give_distinct_inputs(workload):
    views = [_inputs(workload, seed, rounds=1) for seed in range(6)]
    for i in range(len(views)):
        for j in range(i):
            assert views[i] != views[j]


def test_general_measures_have_exact_unit_mass():
    for seed in range(4):
        for task in workloads.make_round("general-measure", seed, 0):
            mu = task.measure
            bp = mu.breakpoints
            mass = sum(d * (b - a) for d, a, b in zip(mu.densities, bp, bp[1:]))
            assert mass == Fraction(1)
            assert 280 <= mu.piece_count <= 1000
            assert mu.densities[0] > 0 and mu.densities[-1] > 0
            assert any(d == 0 for d in mu.densities)


def test_every_run_config_validates():
    from kreinfeller.cli import RunConfig

    for workload in workloads.WORKLOADS:
        for seed in range(3):
            tasks = workloads.make_round(workload, seed, 0)
            for task in tasks + workloads.make_controls(workload, seed, 0, tasks):
                if task.config is None:
                    continue
                assert isinstance(task.config, RunConfig)
                # replace() runs __post_init__ validation again
                dataclasses.replace(task.config)


def test_weight_pool_is_exact_and_in_range():
    assert Fraction(1, 2) in workloads.WEIGHT_POOL and Fraction(2, 5) in workloads.WEIGHT_POOL
    assert all(isinstance(w, Fraction) and Fraction(2, 5) <= w <= Fraction(1, 2)
               for w in workloads.WEIGHT_POOL)


def test_cantor_deep_never_runs_the_classic_weight():
    for seed in range(6):
        for task in workloads.make_round("cantor-deep", seed, 0):
            assert task.config.weight != workloads.CLASSIC_WEIGHT


@pytest.mark.xfail(strict=True, reason="solver defect: the scan steps over a close pair of "
                   "Dirichlet roots near z ~ 29.60 of the w = 1/2 Cantor measure at levels 8-10")
def test_classic_cantor_level8_dirichlet_follows_the_index_law():
    """Passes once the solver stops skipping roots; 1/2 may then rejoin cantor-deep."""
    from kreinfeller.cli import RunConfig

    cfg = RunConfig(command="eigvals", weight=workloads.CLASSIC_WEIGHT, level=8,
                    boundary="dirichlet", m_max=workloads.CANTOR_M_MAX, format="json")
    task = workloads.Task("classic-L8-d", "cli", config=cfg)
    assert checks.check(task, workloads.execute(task)) == []


@pytest.mark.parametrize("n", [20, 21, 37, 100, 1000])
def test_tail_leaves_at_least_ten_samples_beyond(n):
    rng = random.Random(n)
    values = [rng.lognormvariate(0.0, 1.0) for _ in range(n)]
    value, percentile = run.tail(values)
    assert sum(v > value for v in values) >= 10
    # and it is the highest such order statistic
    assert sum(v > sorted(values)[-10] for v in values) < 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_with_ties_still_leaves_ten_beyond():
    values = [1.0] * 15 + [2.0] * 10
    value, _ = run.tail(values)
    assert value == 1.0 and sum(v > value for v in values) == 10
    values = [1.0] * 12 + [2.0] * 12
    value, _ = run.tail(values)
    assert sum(v > value for v in values) >= 10


def test_tail_of_a_short_run_is_the_maximum():
    value, percentile = run.tail([3.0, 1.0, 2.0])
    assert (value, percentile) == (3.0, 100.0)


def test_self_time_on_hand_built_span_tree():
    S = tracing.Span
    spans = [
        S("cli.run", 0.0, 10.0, None, "t"),                 # 0
        S("spectrum.find_eigenvalues", 1.0, 7.0, 0, "t"),   # 1
        S("propagation.boundary_values", 2.0, 3.0, 1, "t"),  # 2
        S("propagation.boundary_values", 4.0, 6.0, 1, "t"),  # 3
        S("series.build_table", 8.0, 9.5, 0, "t"),          # 4
        S("polyalg.integrate_dt", 8.5, 9.0, 4, "t"),        # 5
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 3.0, 1.0, 2.0, 1.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    S = tracing.Span
    spans = [
        S("a.f", 0.0, 10.0, None, "t"),
        S("b.g", 1.0, 5.0, 0, "t"),
        S("b.h", 3.0, 6.0, 0, "t"),
        S("b.k", 9.0, 12.0, 0, "t"),  # runs past its parent: only 1 s inside
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_restores_every_binding():
    import kreinfeller.convergence as convergence
    import kreinfeller.propagation as propagation
    import kreinfeller.spectrum as spectrum
    from kreinfeller.polyalg import PiecewisePolynomial

    originals = (propagation.boundary_values, spectrum.boundary_values,
                 convergence.boundary_values, PiecewisePolynomial.__dict__["eval_many"])
    with tracing.Tracer() as tracer:
        assert spectrum.boundary_values is not originals[1]
        assert spectrum.boundary_values is propagation.boundary_values
        mu = workloads.general_measure(random.Random(1), 30, 30)
        tracer.task = "t"
        spectrum.find_eigenvalues(__import__("kreinfeller.series").series.build_table(mu, 2),
                                  "dirichlet", 2)
    names = {s.name for s in tracer.spans}
    assert {"spectrum.find_eigenvalues", "propagation.boundary_values",
            "polyalg.integrate_dt"} <= names
    assert all(s.task == "t" for s in tracer.spans)
    assert (propagation.boundary_values, spectrum.boundary_values,
            convergence.boundary_values, PiecewisePolynomial.__dict__["eval_many"]) == originals
