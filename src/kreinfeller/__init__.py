"""Spectral toolkit for second-derivative operators taken against a measure.

Computes eigenvalues and eigenfunctions of u'' = -lambda u where the
second derivative is taken with respect to a probability measure with
piecewise-constant density on [0,1] (weighted-Cantor approximants in
particular), plus convergence-rate experiments and bound audits.

Submodules are imported lazily so the CLI can pin BLAS thread counts
via environment variables before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # measures
    "WeightVector": ".measures",
    "Measure": ".measures",
    "CantorLevel": ".measures",
    "cantor_approximant": ".measures",
    "cdf_sup_distance_exact": ".measures",
    "verify_refinement_identity": ".measures",
    # polynomial layer
    "PiecewisePolynomial": ".polyalg",
    "integrate_dt": ".polyalg",
    "integrate_dmu": ".polyalg",
    # series layer
    "TrigTable": ".series",
    "build_table": ".series",
    "default_order": ".series",
    # closed-form evaluation
    "PropagationResult": ".propagation",
    "boundary_values": ".propagation",
    "eval_on_grid": ".propagation",
    # spectrum
    "EigenvalueRecord": ".spectrum",
    "Eigenfunction": ".spectrum",
    "find_eigenvalues": ".spectrum",
    "eigenfunction": ".spectrum",
    "eigenfunction_eval": ".spectrum",
    "eigenfunction_l2_norm": ".spectrum",
    "count_zeros": ".spectrum",
    "fem_oracle": ".spectrum",
    # convergence
    "RateReport": ".convergence",
    "FunctionRateReport": ".convergence",
    "AuditReport": ".convergence",
    "eigenvalue_rate_experiment": ".convergence",
    "eigenfunction_rate_experiment": ".convergence",
    "bound_audit": ".convergence",
    # command line
    "RunConfig": ".cli",
    "run": ".cli",
    "main": ".cli",
    # errors
    "ToolkitError": ".errors",
    "DomainError": ".errors",
    "ConfigError": ".errors",
    "ResourceError": ".errors",
    "PrecisionError": ".errors",
    "BracketError": ".errors",
    "InconsistencyError": ".errors",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    mod = _EXPORTS.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(mod, __name__), name)
    globals()[name] = value
    return value
