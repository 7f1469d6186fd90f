"""Upper-level projected gradient loop and full solver assembly.

One outer iteration runs the configured inner dynamics, forms the method's
hypergradient, and takes a projected step on x.  Metrics against analytic
references are recorded whenever the problem supplies them.
"""
from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .hypergrad import (IMPLICIT_ORACLES, ONESTAGE_ORACLES, UNROLL_ORACLES,
                        hypergrad_implicit, hypergrad_onestage,
                        hypergrad_reverse)
from .inner import AggregationSchedule, default_y0, run_inner
from .numerics import (BoxRegion, CapabilityError, ContractError,
                       NumericalError, as_vector)
from .problems import BilevelProblem

# One row per method: the inner dynamics ('bda' aggregated | 'plain' descent),
# the hypergradient route ('reverse' | 'implicit' | 'onestage'), whether the
# inner state carries across outer iterations, and the oracles the route needs.
Method = namedtuple("Method", "inner route carries_inner requires")
METHODS = {
    "bda": Method("bda", "reverse", False, UNROLL_ORACLES["bda"]),
    "rhg": Method("plain", "reverse", False, UNROLL_ORACLES["plain"]),
    "trhg": Method("plain", "reverse", False, UNROLL_ORACLES["plain"]),
    "ihg": Method("plain", "implicit", False, IMPLICIT_ORACLES),
    "obda": Method("bda", "onestage", True, ONESTAGE_ORACLES),
}

METRIC_COLUMNS = ("phiK", "grad_norm", "err_x", "err_y", "f_gap", "phi_gap")


@dataclass(frozen=True)
class SolverConfig:
    method: str = "bda"
    K: int = 20
    truncate_at: int | None = None
    lam: float | None = None          # UL step size; None picks a safe default
    T_max: int = 1000
    stop_tol: float = 1e-8
    sched: AggregationSchedule = field(default_factory=AggregationSchedule)
    seed: int = 0
    cg_tol: float = 1e-10
    cg_max_iter: int | None = None
    onestage_eps: float = 1e-4

    def __post_init__(self):
        if self.method not in METHODS:
            raise ContractError(f"unknown method '{self.method}'")
        if self.T_max < 1:
            raise ContractError("T_max must be >= 1")
        if self.K < 1:
            raise ContractError("K must be >= 1")
        if self.method == "obda" and self.K != 1:
            object.__setattr__(self, "K", 1)
        if self.method == "bda" and not (0.0 < self.sched.mu < 1.0):
            raise ContractError("bda requires mu in (0, 1)")
        if (self.method == "trhg") != (self.truncate_at is not None):
            raise ContractError("trhg requires truncate_at; no other method "
                                "takes it")
        if self.truncate_at is not None and not 0 <= self.truncate_at <= self.K:
            raise ContractError("truncate_at must lie in [0, K]")
        if self.lam is not None and self.lam <= 0:
            raise ContractError("lam must be positive")


@dataclass
class RunRecord:
    """Per-iteration history of one solve."""

    problem: str
    method: str
    xs: np.ndarray                 # (T+1, n) outer iterates, x_0 first
    metrics: dict                  # name -> (T,) array, nan when unavailable
    status: str                    # 'converged' | 'max-iters' | 'aborted'
    resolved_lambda: float | None  # None when the default-step probes failed
    wall_time_s: float
    final_grad_norm: float
    y_final: np.ndarray
    config: dict
    error: str | None = None
    error_class: str | None = None  # 'CapabilityError' | 'NumericalError'
    # per outer iteration, a (3, K+1) array of its inner run's f and F values
    # and projection flags (column k + 1 flags step k; column 0 holds 0)
    inner_rows: list = field(default_factory=list)

    @property
    def T(self) -> int:
        return self.xs.shape[0] - 1

    @property
    def x_final(self) -> np.ndarray:
        return self.xs[-1]


def outer_step(x, g, lam: float, region_x: BoxRegion) -> np.ndarray:
    """x - lam * g projected back onto the feasible box."""
    x = as_vector(x, name="x")
    g = as_vector(g, dim=x.shape[0], name="gradient")
    return region_x.project(x - lam * g)


def _method_gradient(problem: BilevelProblem, x, cfg: SolverConfig, y0=None):
    """Hypergradient, final y, and inner rows of one outer iteration."""
    method = METHODS[cfg.method]
    if method.route == "reverse":
        res = hypergrad_reverse(problem, x, cfg.K, cfg.sched, mode=method.inner,
                                truncate_at=cfg.truncate_at, y0=y0)
        y_K, trace = res.diagnostics["y_final"], res.diagnostics["trace"]
    elif method.route == "implicit":
        y_K, trace = run_inner(problem, x, cfg.K, cfg.sched, mode=method.inner,
                               y0=y0)
        res = hypergrad_implicit(problem, x, y_K, cg_tol=cfg.cg_tol,
                                 cg_max_iter=cfg.cg_max_iter)
    else:  # one aggregated step from the carried y0
        res = hypergrad_onestage(problem, x, y0, cfg.sched, cfg.onestage_eps)
        y_K = res.diagnostics["y1"]
        return res.gradient, y_K, np.array(
            [[problem.f(x, y0), problem.f(x, y_K)],
             [problem.F(x, y0), problem.F(x, y_K)],
             [0.0, res.diagnostics["branch"] == "projected"]])
    return res.gradient, y_K, np.array(
        [trace.f_vals, trace.F_vals,
         np.r_[False, trace.proj_active.any(axis=1)]])


def default_lambda(problem: BilevelProblem, cfg: SolverConfig, x0) -> float:
    """Safe default UL step: 0.5 over an empirical Lipschitz estimate of the
    hypergradient around the start point."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    x0 = as_vector(x0, dim=problem.n, name="x0")
    y0 = default_y0(problem)
    points = [x0]
    for _ in range(3):
        probe = x0 + 0.5 * rng.standard_normal(problem.n)
        points.append(problem.region_x.project(probe))
    grads = [_method_gradient(problem, p, cfg, y0=y0)[0] for p in points]
    lip = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = float(np.linalg.norm(points[i] - points[j]))
            if d > 1e-12:
                lip = max(lip, float(np.linalg.norm(grads[i] - grads[j])) / d)
    if lip <= 0:
        return 1.0
    return 0.5 / lip


def solve(problem: BilevelProblem, cfg: SolverConfig, x0=None,
          y0=None) -> RunRecord:
    """Run the configured method until the outer step stalls or T_max.

    ``y0`` overrides the fixed inner initialization (default: 0 projected
    onto Y).  For obda the inner state instead persists across outer
    iterations, starting from ``y0``.
    """
    method = METHODS[cfg.method]
    problem.require(*method.requires)
    cfg.sched.require_admissible(problem)
    x = problem.region_x.project(np.zeros(problem.n) if x0 is None
                                 else as_vector(x0, dim=problem.n, name="x0"))
    y_start = default_y0(problem) if y0 is None else \
        problem.region_y.project(as_vector(y0, dim=problem.m, name="y0"))
    lam = cfg.lam

    xs = [x.copy()]
    columns = {name: [] for name in METRIC_COLUMNS}
    inner_rows = []
    status = "max-iters"
    error_msg = error_class = None
    start = time.perf_counter()
    y_K = y_start
    for _ in range(cfg.T_max):
        try:
            # resolved here so that a failing probe also aborts with a record
            if lam is None:
                lam = default_lambda(problem, cfg, x)
            g, y_K, rows = _method_gradient(problem, x, cfg, y0=y_start)
        except (NumericalError, CapabilityError) as err:
            status, error_msg = "aborted", str(err)
            error_class = ("CapabilityError" if isinstance(err, CapabilityError)
                           else "NumericalError")
            break
        if method.carries_inner:
            y_start = y_K
        inner_rows.append(rows)
        f_K, F_K = rows[0, -1], rows[1, -1]
        columns["phiK"].append(F_K)
        columns["grad_norm"].append(float(np.linalg.norm(g)))
        columns["err_x"].append(
            float(np.linalg.norm(x - problem.x_opt))
            if problem.x_opt is not None else np.nan)
        columns["err_y"].append(
            float(np.linalg.norm(y_K - problem.y_opt))
            if problem.y_opt is not None else np.nan)
        columns["f_gap"].append(
            f_K - problem.f_star_of_x(x)
            if problem.f_star_of_x is not None else np.nan)
        columns["phi_gap"].append(
            abs(F_K - problem.phi_star_of_x(x))
            if problem.phi_star_of_x is not None else np.nan)
        x_next = outer_step(x, g, lam, problem.region_x)
        moved = float(np.linalg.norm(x_next - x))
        x = x_next
        xs.append(x.copy())
        if moved <= cfg.stop_tol:
            status = "converged"
            break
    wall = time.perf_counter() - start

    metrics = {name: np.asarray(vals, dtype=float)
               for name, vals in columns.items()}
    final_grad = metrics["grad_norm"][-1] if metrics["grad_norm"].size else np.nan
    return RunRecord(
        problem=problem.name, method=cfg.method,
        xs=np.asarray(xs), metrics=metrics, status=status,
        resolved_lambda=lam, wall_time_s=wall,
        final_grad_norm=float(final_grad),
        y_final=np.asarray(y_K), config=config_dict(cfg, lam),
        error=error_msg, error_class=error_class, inner_rows=inner_rows)


def config_dict(cfg: SolverConfig, resolved_lambda: float | None = None) -> dict:
    sched = cfg.sched
    out = {
        "method": cfg.method, "K": cfg.K, "truncate_at": cfg.truncate_at,
        "lambda": cfg.lam if cfg.lam is not None else resolved_lambda,
        "T_max": cfg.T_max, "stop_tol": cfg.stop_tol, "seed": cfg.seed,
        "mu": sched.mu, "su": sched.s_u, "sl": sched.s_l,
        "alpha_rule": sched.alpha_rule, "alpha_scale": sched.alpha_scale,
        "beta_rule": sched.beta_rule, "beta_start": sched.beta_start,
        "beta_lower": sched.beta_lower,
    }
    return out
