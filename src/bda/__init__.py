"""Bi-level optimization with descent aggregation.

Solvers for problems min_x F(x, y) subject to y minimizing f(x, .), including
the aggregated inner scheme that mixes upper- and lower-level descent
directions, reverse/forward/implicit/one-stage hypergradient estimators, and
a verification suite that audits the method's descent inequality, complexity
bound, and hypergradient consistency numerically.
"""
import importlib

# each public name and the submodule that defines it; a submodule loads on
# the first use of one of its names (PEP 562), so a process that builds one
# problem compiles and runs only the modules it needs.  ``harness`` is not
# imported eagerly so that ``python -m bda.harness`` runs it only once.
_ORIGIN = {
    **dict.fromkeys(("BoxRegion", "CapabilityError", "ContractError",
                     "NumericalError", "as_vector", "rng_stream"), "numerics"),
    **dict.fromkeys(("BilevelProblem", "HypercleanConfig", "lls_quadratic",
                     "make_counterexample", "make_hypercleaning",
                     "make_lls_quadratic", "make_problem", "make_remark1",
                     "make_remark1_regularized",
                     "remark1_plain_descent_limit"), "problems"),
    **dict.fromkeys(("AggregationSchedule", "InnerTrace", "aggregated_step",
                     "default_y0", "plain_gd_step", "run_inner"), "inner"),
    **dict.fromkeys(("HypergradResult", "hypergrad_forward",
                     "hypergrad_implicit", "hypergrad_onestage",
                     "hypergrad_reverse"), "hypergrad"),
    **dict.fromkeys(("METHODS", "RunRecord", "SolverConfig", "outer_step",
                     "solve", "solve_many"), "outer"),
    "verify": "verify",
    "harness": "harness",
}
_MODULES = frozenset(_ORIGIN.values())

__all__ = sorted(_ORIGIN)

__version__ = "0.1.0"


def __getattr__(name):
    module = _ORIGIN.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value     # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
