"""Layer tracing from outside the program.

A :class:`Tracer` replaces the public functions listed in ``TARGETS`` at every
module attribute (and class attribute) through which the program can reach
them, records one span per call, and puts the originals back on exit.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at task level
    task: str | None
    work: int = 0  # pieces, points, roots, dofs or rows, depending on the function


def _pieces(args, kwargs, result):
    return len(args[0].densities)


def _grid_points(args, kwargs, result):
    return len(result)


def _roots(args, kwargs, result):
    return sum(1 for r in result if r.z > 0.0)


def _cantor_pieces(args, kwargs, result):
    return result.piece_count


def _fem_dofs(args, kwargs, result):
    mesh_size, boundary = args[1], args[3]
    nodes = int(round(1.0 / mesh_size))
    return nodes - 1 if boundary == "dirichlet" else nodes + 1


def _audit_rows(args, kwargs, result):
    return len(result.rows)


# (module, attribute, how to count the work of one call)
TARGETS = (
    ("kreinfeller.measures", "cantor_approximant", _cantor_pieces),
    ("kreinfeller.measures", "cdf_sup_distance_exact", None),
    ("kreinfeller.measures", "verify_refinement_identity", None),
    ("kreinfeller.polyalg", "integrate_dt", None),
    ("kreinfeller.polyalg", "integrate_dmu", None),
    ("kreinfeller.polyalg", "PiecewisePolynomial.eval_many", _grid_points),
    ("kreinfeller.series", "build_table", None),
    ("kreinfeller.propagation", "boundary_values", _pieces),
    ("kreinfeller.propagation", "eval_on_grid", _grid_points),
    ("kreinfeller.spectrum", "find_eigenvalues", _roots),
    ("kreinfeller.spectrum", "eigenfunction_eval", None),
    ("kreinfeller.spectrum", "eigenfunction_l2_norm", None),
    ("kreinfeller.spectrum", "count_zeros", None),
    ("kreinfeller.spectrum", "fem_oracle", _fem_dofs),
    ("scipy.linalg", "solve", None),
    ("scipy.linalg", "eigh", None),
    ("kreinfeller.convergence", "eigenvalue_rate_experiment", None),
    ("kreinfeller.convergence", "eigenfunction_rate_experiment", None),
    ("kreinfeller.convergence", "refined_grid", None),
    ("kreinfeller.convergence", "bound_audit", _audit_rows),
    ("kreinfeller.cli", "run", None),
)

LAYERS = ("measures", "polyalg", "series", "propagation", "spectrum", "convergence", "cli")


def span_name(module: str, attr: str) -> str:
    """'kreinfeller.spectrum', 'find_eigenvalues' -> 'spectrum.find_eigenvalues'."""
    short = module.removeprefix("kreinfeller.")
    return f"{short}.{attr.split('.')[-1]}"


def layer_of(name: str) -> str:
    return "scipy" if name.startswith("scipy.") else name.split(".", 1)[0]


class Tracer:
    """Context manager: patch on enter, restore on exit."""

    def __init__(self):
        from kreinfeller.errors import ToolkitError

        self._toolkit_error = ToolkitError
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self.task: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack, errors = self.spans, self._stack, self.errors
        layer = layer_of(name)
        toolkit_error = self._toolkit_error
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.task)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except toolkit_error:
                errors[layer] += 1
                raise
            finally:
                span.end = clock()
                stack.pop()
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def __enter__(self):
        import importlib

        for module_name, attr, work in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[fn_name]
                self._patch(owner, fn_name, original,
                            self.wrap(span_name(module_name, attr), original, work))
                continue
            original = getattr(module, fn_name)
            wrapped = self.wrap(span_name(module_name, attr), original, work)
            self._patch(module, fn_name, original, wrapped)
            # every other binding of the same function object inside the package
            for other_name, other in list(sys.modules.items()):
                if other is None or other is module or not other_name.startswith("kreinfeller"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, original, wrapped)
        return self

    def _patch(self, owner, key, original, value):
        self._restore.append((owner, key, original))
        setattr(owner, key, value)

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False


# --------------------------------------------------------------------------
# analysis


def merged_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - merged_length(
            (max(s, span.start), min(e, span.end)) for s, e in children.get(i, ()) if e > span.start
            and s < span.end
        )
        for i, span in enumerate(spans)
    ]


def _has_ancestor(spans, span, name) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], errors: Counter, task_wall: float,
                  untraced_wall: float, output_bytes: int):
    """Per-layer metrics keyed by the names BENCHMARK.json lists, plus busy
    and self seconds of every traced function and layer for the printed table.

    Times of functions that some workload never reaches are given as shares
    of the traced task wall time, so an idle layer reads 0 as a ratio.
    """
    own = self_times(spans)
    busy, calls, work, self_s = Counter(), Counter(), Counter(), Counter()
    layer_self = Counter()
    bv_in_solver = 0
    for span, own_s in zip(spans, own):
        calls[span.name] += 1
        busy[span.name] += span.end - span.start
        work[span.name] += span.work
        self_s[span.name] += own_s
        layer_self[layer_of(span.name)] += own_s
        if span.name == "propagation.boundary_values" and _has_ancestor(
                spans, span, "spectrum.find_eigenvalues"):
            bv_in_solver += 1

    def share(value):
        return value / task_wall if task_wall > 0 else 0.0

    roots = work["spectrum.find_eigenvalues"]
    bv_pieces = work["propagation.boundary_values"]
    fem_assembly = self_s["spectrum.fem_oracle"]
    out = {
        "measures.cantor_approximant.calls": calls["measures.cantor_approximant"],
        "measures.cantor_approximant.share": share(busy["measures.cantor_approximant"]),
        "measures.pieces": work["measures.cantor_approximant"],
        "measures.cdf_sup_distance_exact.share": share(busy["measures.cdf_sup_distance_exact"]),
        "polyalg.integrate.busy_s": busy["polyalg.integrate_dt"] + busy["polyalg.integrate_dmu"],
        "polyalg.eval_many.share": share(busy["polyalg.eval_many"]),
        "polyalg.eval_many.points": work["polyalg.eval_many"],
        "series.build_table.calls": calls["series.build_table"],
        "series.build_table.busy_s": busy["series.build_table"],
        "series.build_table.share": share(busy["series.build_table"]),
        "propagation.boundary_values.calls": calls["propagation.boundary_values"],
        "propagation.boundary_values.busy_s": busy["propagation.boundary_values"],
        "propagation.boundary_values.us_per_piece":
            1e6 * busy["propagation.boundary_values"] / bv_pieces if bv_pieces else 0.0,
        "propagation.boundary_values.calls_per_root": bv_in_solver / roots if roots else 0.0,
        "propagation.eval_on_grid.calls": calls["propagation.eval_on_grid"],
        "propagation.eval_on_grid.share": share(busy["propagation.eval_on_grid"]),
        "propagation.eval_on_grid.points": work["propagation.eval_on_grid"],
        "spectrum.find_eigenvalues.calls": calls["spectrum.find_eigenvalues"],
        "spectrum.find_eigenvalues.busy_s": busy["spectrum.find_eigenvalues"],
        "spectrum.find_eigenvalues.self_s": self_s["spectrum.find_eigenvalues"],
        "spectrum.roots": roots,
        "spectrum.count_zeros.share": share(busy["spectrum.count_zeros"]),
        "spectrum.eigenfunction_l2_norm.share": share(busy["spectrum.eigenfunction_l2_norm"]),
        "spectrum.fem_oracle.calls": calls["spectrum.fem_oracle"],
        "spectrum.fem_oracle.share": share(busy["spectrum.fem_oracle"]),
        "spectrum.fem_oracle.dofs": work["spectrum.fem_oracle"],
        "spectrum.fem_oracle.assembly_share": share(fem_assembly),
        "scipy.linalg.solve.share": share(busy["scipy.linalg.solve"]),
        "scipy.linalg.eigh.share": share(busy["scipy.linalg.eigh"]),
        "convergence.eigenvalue_rate_experiment.share":
            share(busy["convergence.eigenvalue_rate_experiment"]),
        "convergence.eigenfunction_rate_experiment.share":
            share(busy["convergence.eigenfunction_rate_experiment"]),
        "convergence.bound_audit.share": share(busy["convergence.bound_audit"]),
        "convergence.bound_audit.rows": work["convergence.bound_audit"],
        "convergence.self_share": share(layer_self["convergence"]),
        "cli.run.calls": calls["cli.run"],
        "cli.run.share": share(busy["cli.run"]),
        "cli.self_share": share(layer_self["cli"]),
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    out["trace.overhead"] = task_wall / untraced_wall - 1.0 if untraced_wall > 0 else 0.0

    # the same layers in seconds, for the printed table
    seconds = {
        name: busy[name]
        for name in sorted(busy)
    }
    seconds.update({f"{layer}.self_s": layer_self[layer] for layer in sorted(layer_self)})
    seconds["spectrum.fem_oracle.assembly_s"] = fem_assembly
    return out, seconds
