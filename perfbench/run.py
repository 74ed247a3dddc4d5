"""Layered benchmark of the kreinfeller toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload cantor-deep --seed 1 --seconds 25 --trace 0

Workloads are ``cantor-deep``, ``general-measure`` and ``experiments`` (see
``perfbench/README.md``).  Each is a closed loop with one client: tasks run
back to back in this single-threaded process, with BLAS/OpenMP pinned to one
thread before numpy loads.  The package is imported from ``src/`` of the
checkout this file sits in.

``--trace 0`` times as many whole rounds of seeded tasks as fit in
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` runs every
task of the same rounds twice, plainly and with every public layer function
wrapped in a span, and prints the per-layer metrics; it also checks that both
runs of a task produced byte-identical output.  Either way every task's output is checked outside the
timed region, and the last line of stdout is one JSON object.  A task that
raised or failed a check makes ``correct`` false and is named on stderr; the
exit code stays 0 once that result is printed.  It is 2 when the program
cannot be loaded.
"""

import os

# single-threaded baseline; must happen before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 3  # this process plus two fresh child processes
TAIL_BEYOND = 10

# ROADMAP baseline: boundary_values calls of one solve, w = 1/3, Dirichlet,
# 8 roots, per level; and the per-call time at level 8 for reference only.
REFERENCE_CALLS = {6: 827, 8: 840, 10: 857}
REFERENCE_MS_PER_CALL_L8 = 2.45


class ProgramMissing(Exception):
    pass


def load_program() -> None:
    """Import numpy, scipy and the checkout's kreinfeller package."""
    if not (SRC / "kreinfeller" / "__init__.py").is_file():
        raise ProgramMissing(f"no kreinfeller package under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401

    import kreinfeller
    from kreinfeller import cli, convergence, measures, polyalg, propagation, series, spectrum  # noqa: F401

    if Path(kreinfeller.__file__).resolve().parent != (SRC / "kreinfeller").resolve():
        raise ProgramMissing(f"kreinfeller imported from {kreinfeller.__file__}, not from {SRC}")


def set_up(workload: str) -> float:
    """Import everything and run one warm-up task; seconds since start-up."""
    from workloads import execute, warmup_task

    load_program()
    execute(warmup_task(workload))
    return time.perf_counter() - T0


def child_setup_seconds(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# timed passes


@dataclass
class Result:
    task: object
    outcome: object  # workloads.Outcome, or None when the task raised
    error: str | None
    seconds: float

    def digest(self) -> str:
        data = self.outcome.payload if self.outcome is not None else self.error.encode()
        return hashlib.sha256(data).hexdigest()


def run_task(task) -> Result:
    from kreinfeller.errors import ToolkitError
    from workloads import execute

    gc.collect()  # garbage left by earlier tasks is not this task's time
    start = time.perf_counter()
    try:
        outcome, error = execute(task), None
    except ToolkitError as exc:
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    return Result(task, outcome, error, time.perf_counter() - start)


def timed_rounds(workload: str, seed: int, seconds: float, runner=run_task):
    """Run whole rounds back to back; returns (rounds of tasks, runner results).
    Inputs are made before each round's tasks are timed."""
    from workloads import make_round, round_count

    rounds, results = [], []
    for r in range(round_count(workload, seconds)):
        tasks = make_round(workload, seed, r)
        results += [runner(task) for task in tasks]
        rounds.append(tasks)
    return rounds, results


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest percentile leaving >= ``beyond``
    samples above it.  Below ``2 * beyond`` samples that percentile would sit
    at or under the median, so the maximum (percentile 100) is returned."""
    xs = sorted(values)
    n = len(xs)
    if n < 2 * beyond:
        return xs[-1], 100.0
    k = n - beyond
    while k > 1 and xs[k - 1] == xs[k]:
        k -= 1
    return xs[k - 1], 100.0 * k / n


def check_all(workload: str, seed: int, rounds, results) -> tuple[int, list[tuple[str, str]]]:
    """Check every timed task and run the level-0 controls; returns
    (tasks attempted, (task id, failed check) pairs)."""
    from checks import check
    from workloads import make_controls

    failures = []
    attempted = len(results)
    for res in results:
        if res.error is not None:
            failures.append((res.task.task_id, f"raised {res.error}"))
            continue
        failures += [(res.task.task_id, p) for p in check(res.task, res.outcome)]
    for r, tasks in enumerate(rounds):
        for control in make_controls(workload, seed, r, tasks):
            attempted += 1
            res = run_task(control)
            if res.error is not None:
                failures.append((control.task_id, f"raised {res.error}"))
            else:
                failures += [(control.task_id, p) for p in check(control, res.outcome)]
    return attempted, failures


def failed_tasks(failures) -> int:
    return len({task_id for task_id, _ in failures})


# --------------------------------------------------------------------------
# the two modes


def end_to_end(workload: str, seed: int, seconds: float, setup_main: float):
    rounds, results = timed_rounds(workload, seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failures = check_all(workload, seed, rounds, results)
    setups = [setup_main] + [child_setup_seconds(workload) for _ in range(SETUP_SAMPLES - 1)]

    times = [r.seconds for r in results]
    wall = sum(times)
    done = [r for r in results if r.error is None]
    tail_s, tail_pct = tail(times)
    for r in results:
        print(f"# task {r.task.task_id} {r.seconds:.3f} s")
    print(f"# {workload} seed {seed}: {len(rounds)} round(s), {len(times)} timed tasks, "
          f"{wall:.3f} s timed; task_s.tail is p{tail_pct:.1f} of {len(times)} samples; "
          f"setup samples {', '.join(f'{s:.3f}' for s in setups)}")
    metrics = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": len(done) / wall,
        "roots_per_s": sum(r.outcome.roots for r in done) / wall,
        "task_s.p50": statistics.median(times),
        "task_s.tail": tail_s,
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1.0 - failed_tasks(failures) / attempted,
    }
    return metrics, attempted, failures


def reference_solves(tracer) -> dict[int, tuple[int, float]]:
    """Traced w = 1/3 Dirichlet 8-root solves; level -> (calls, busy seconds)."""
    from fractions import Fraction

    from kreinfeller.measures import CantorLevel, WeightVector, cantor_approximant
    from kreinfeller.series import build_table
    from kreinfeller.spectrum import find_eigenvalues

    out = {}
    for level in REFERENCE_CALLS:
        tracer.task = f"reference/L{level}"
        first = len(tracer.spans)
        mu = cantor_approximant(CantorLevel(WeightVector.of(Fraction(1, 3)), level))
        find_eigenvalues(build_table(mu, 2), "dirichlet", 8)
        calls = [s for s in tracer.spans[first:] if s.name == "propagation.boundary_values"]
        out[level] = (len(calls), sum(s.end - s.start for s in calls))
    tracer.task = None
    return out


def per_layer(workload: str, seed: int, seconds: float):
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    traced = []

    def run_traced(task):
        tracer.task = task.task_id
        with tracer:
            res = run_task(task)
        tracer.task = None
        return res

    def run_both(task):
        # alternate which pass goes first, so drift in machine speed does not
        # bias trace.overhead
        if len(traced) % 2:
            traced.append(run_traced(task))
            return run_task(task)
        untraced = run_task(task)
        traced.append(run_traced(task))
        return untraced

    rounds, untraced = timed_rounds(workload, seed, seconds, run_both)
    workload_spans = len(tracer.spans)
    if workload == "cantor-deep":
        with tracer:
            references = reference_solves(tracer)
    else:
        references = {}

    attempted, failures = check_all(workload, seed, rounds, untraced)
    for a, b in zip(untraced, traced):
        if a.digest() != b.digest():
            failures.append((a.task.task_id, "traced output differs from untraced output"))
    attempted += len(references)
    for level, (calls, busy) in references.items():
        note = ""
        if level == 8:
            note = (f"; {1e3 * busy / calls:.3f} ms per call "
                    f"(ROADMAP measured {REFERENCE_MS_PER_CALL_L8} ms, for reference only)")
        print(f"# reference w=1/3 dirichlet 8 roots level {level}: {calls} boundary_values calls "
              f"(ROADMAP {REFERENCE_CALLS[level]}){note}")
        if calls != REFERENCE_CALLS[level]:
            failures.append((f"reference/L{level}", f"{calls} boundary_values calls, "
                             f"ROADMAP baseline is {REFERENCE_CALLS[level]}"))

    spans = tracer.spans[:workload_spans]
    output_bytes = sum(len(r.outcome.payload) for r in traced
                       if r.outcome is not None and r.task.config is not None)
    metrics, seconds_table = layer_metrics(
        spans, tracer.errors, sum(r.seconds for r in traced), sum(r.seconds for r in untraced),
        output_bytes)
    write_spans(workload, seed, tracer.spans)
    for i, (a, b) in enumerate(zip(untraced, traced)):
        first = "traced" if i % 2 else "untraced"
        print(f"# task {a.task.task_id} untraced {a.seconds:.3f} s traced {b.seconds:.3f} s "
              f"({first} first)")
    print(f"# {workload} seed {seed}: {len(traced)} traced tasks, {len(tracer.spans)} spans")
    for name, value in seconds_table.items():
        print(f"# {name:<48} {value:12.6f} s")
    return metrics, attempted, failures


def write_spans(workload: str, seed: int, spans) -> None:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-s{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.task, s.work]) + "\n")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        units = declared_metrics(bool(args.trace))
        setup_main = set_up(args.workload)
    except (ProgramMissing, ImportError, OSError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(f"{setup_main!r}")
        return 0

    if args.trace:
        metrics, attempted, failures = per_layer(args.workload, args.seed, args.seconds)
    else:
        metrics, attempted, failures = end_to_end(args.workload, args.seed, args.seconds, setup_main)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for task_id, problem in failures:
        print(f"perfbench: FAILED {task_id}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_tasks(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
