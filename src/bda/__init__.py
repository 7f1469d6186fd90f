"""Bi-level optimization with descent aggregation.

Solvers for problems min_x F(x, y) subject to y minimizing f(x, .), including
the aggregated inner scheme that mixes upper- and lower-level descent
directions, reverse/forward/implicit/one-stage hypergradient estimators, and
a verification suite that audits the method's descent inequality, complexity
bound, and hypergradient consistency numerically.
"""
import importlib

from .numerics import (BoxRegion, CapabilityError, ContractError,
                       NumericalError, as_matrix, as_vector, rng_stream)
from .problems import (BilevelProblem, HypercleanConfig, lls_quadratic,
                       make_counterexample, make_hypercleaning,
                       make_lls_quadratic, make_problem, make_remark1,
                       make_remark1_regularized, remark1_plain_descent_limit)
from .inner import (AggregationSchedule, InnerTrace, aggregated_step,
                    default_y0, descent_directions, plain_gd_step, run_inner)
from .hypergrad import (HypergradResult, hypergrad_forward, hypergrad_implicit,
                        hypergrad_onestage, hypergrad_reverse)
from .outer import METHODS, RunRecord, SolverConfig, outer_step, solve
from . import verify

__all__ = [
    "AggregationSchedule", "BilevelProblem", "BoxRegion", "CapabilityError",
    "ContractError", "HypercleanConfig", "HypergradResult", "InnerTrace",
    "METHODS", "NumericalError", "RunRecord", "SolverConfig",
    "aggregated_step", "as_matrix", "as_vector", "default_y0",
    "descent_directions", "harness", "hypergrad_forward", "hypergrad_implicit",
    "hypergrad_onestage", "hypergrad_reverse", "lls_quadratic",
    "make_counterexample", "make_hypercleaning", "make_lls_quadratic",
    "make_problem", "make_remark1", "make_remark1_regularized", "outer_step",
    "plain_gd_step", "remark1_plain_descent_limit",
    "rng_stream", "run_inner", "solve", "verify",
]

__version__ = "0.1.0"


def __getattr__(name):
    # loaded on first use, so that ``python -m bda.harness`` runs it only once
    if name == "harness":
        return importlib.import_module(".harness", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
