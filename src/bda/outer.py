"""Upper-level projected gradient loop and full solver assembly.

One outer iteration runs the configured inner dynamics, forms the method's
hypergradient, and takes a projected step on x.  Metrics against analytic
references are recorded whenever the problem supplies them.  ``solve_many``
is the one loop: it runs several starts side by side, and ``solve`` is its
one-start case.
"""
from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .hypergrad import (IMPLICIT_ORACLES, ONESTAGE_ORACLES, UNROLL_ORACLES,
                        hypergrad_implicit, hypergrad_onestage,
                        hypergrad_reverse)
from .inner import AggregationSchedule, default_y0, inner_values, run_inner
from .numerics import (BoxRegion, CapabilityError, ContractError,
                       NumericalError, as_vector, rng_stream)
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

# Run config key -> (field, JSON type), for the SolverConfig and its
# AggregationSchedule: the one map that configs are read through and written
# from.  cg_tol and cg_max_iter are not run config keys.
SOLVER_KEYS = {
    "method": ("method", str), "K": ("K", int),
    "truncate_at": ("truncate_at", int), "lambda": ("lam", float),
    "T_max": ("T_max", int), "stop_tol": ("stop_tol", float),
    "seed": ("seed", int),
}
SCHED_KEYS = {
    "mu": ("mu", float), "su": ("s_u", float), "sl": ("s_l", float),
    "alpha_rule": ("alpha_rule", str), "alpha_scale": ("alpha_scale", float),
    "beta_start": ("beta_start", float), "beta_lower": ("beta_lower", float),
}


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

    def __post_init__(self):
        if self.method not in METHODS:
            raise ContractError(f"unknown method '{self.method}'")
        for name, ok, need in (
                ("T_max", self.T_max >= 1, ">= 1"), ("K", self.K >= 1, ">= 1"),
                ("truncate_at", self.truncate_at is None
                 or 0 <= self.truncate_at <= self.K, "in [0, K]"),
                ("lam", self.lam is None or 0 < self.lam < np.inf,
                 "positive and finite"),
                ("stop_tol", 0 <= self.stop_tol < np.inf,
                 "non-negative and finite"),
                ("seed", self.seed >= 0, ">= 0"),
                ("cg_tol", 0 < self.cg_tol < np.inf, "positive and finite"),
                ("cg_max_iter", self.cg_max_iter is None
                 or self.cg_max_iter >= 1, ">= 1")):
            if not ok:
                raise ContractError(f"{name} must be {need}, got "
                                    f"{getattr(self, name)!r}")
        if self.method == "obda" and self.K != 1:
            raise ContractError(f"obda takes one inner step: K must be 1, "
                                f"got K={self.K}")
        if (self.method == "trhg") != (self.truncate_at is not None):
            raise ContractError("trhg requires truncate_at; no other method "
                                "takes it")

@dataclass
class RunRecord:
    """Per-iteration history of one solve."""

    problem: str
    method: str
    xs: np.ndarray                 # (T+1, n) outer iterates, x_0 first
    metrics: dict                  # name -> (T,) array, nan when unavailable
    status: str                    # 'converged' | 'max-iters' | 'aborted'
    wall_time_s: float             # of the whole solve_many batch
    y_final: np.ndarray
    # config_dict of the run with the lambda it used (None when the
    # default-step probes failed)
    config: dict
    error: str | None = None
    error_class: str | None = None  # 'CapabilityError' | 'NumericalError'
    # kept only with keep_inner=True: per outer iteration, a (3, K+1)
    # array of its inner run's f and F values and projection flags (column
    # k + 1 flags step k; column 0 holds 0)
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
    return region_x.clamp(as_vector(x - lam * g, dim=region_x.dim,
                                    name="outer step x - lam * g"))


def _method_gradient(problem: BilevelProblem, x, cfg: SolverConfig, y0=None,
                     sched=None):
    """Hypergradient of one outer iteration, its inner iterates (ending at
    y_K; for obda, the carried y_t and y_{t+1}) and per-step projection flags
    (obda's: its projected branch).  No f or F value is evaluated.  Every
    route also takes (B, n) rows of x, (B, m) rows of y0 and, in ``sched``,
    one schedule per row, giving (B, n), (K+1, B, m) and (K, B) arrays."""
    method = METHODS[cfg.method]
    sched = cfg.sched if sched is None else sched
    if method.route == "onestage":  # one aggregated step from the carried y0
        res = hypergrad_onestage(problem, x, y0, sched)
        return (res.gradient, np.stack([y0, res.diagnostics["y1"]]),
                np.asarray(res.diagnostics["branch"] == "projected")[None])
    if method.route == "reverse":
        res = hypergrad_reverse(problem, x, cfg.K, sched, mode=method.inner,
                                truncate_at=cfg.truncate_at, y0=y0)
        trace = res.diagnostics["trace"]
    else:
        y_K, trace = run_inner(problem, x, cfg.K, sched,
                               mode=method.inner, y0=y0)
        res = hypergrad_implicit(problem, x, y_K, cg_tol=cfg.cg_tol,
                                 cg_max_iter=cfg.cg_max_iter)
    return res.gradient, trace.ys, trace.proj_active.any(axis=-1)


def default_lambda(problem: BilevelProblem, cfg: SolverConfig, x0,
                   y0=None) -> float:
    """Safe default UL step: 0.5 over an empirical Lipschitz estimate of the
    hypergradient around the start point, each probe's inner run starting
    from ``y0`` (default: 0 projected onto Y), as the solve's runs do."""
    rng = rng_stream(cfg.seed)
    x0 = as_vector(x0, dim=problem.n, name="x0")
    points = np.array([x0, *(
        problem.region_x.project(x0 + 0.5 * rng.standard_normal(problem.n))
        for _ in range(3))])
    y0 = np.tile(default_y0(problem) if y0 is None else y0, (len(points), 1))
    try:  # the four probes as rows of one call, each with its solo bits
        grads = _method_gradient(problem, points, cfg, y0=y0)[0]
    except (NumericalError, CapabilityError):
        # one at a time, so that the failing probe raises its own error
        grads = [_method_gradient(problem, p, cfg, y0=y)[0]
                 for p, y in zip(points, y0)]
    lip = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = float(np.linalg.norm(points[i] - points[j]))
            if d > 1e-12:
                lip = max(lip, float(np.linalg.norm(grads[i] - grads[j])) / d)
    return 0.5 / lip if lip > 0 else 1.0


def solve(problem: BilevelProblem, cfg: SolverConfig, x0=None,
          y0=None, keep_inner: bool = False) -> RunRecord:
    """Run the configured method from ``x0`` (default: the origin) until the
    outer step stalls or T_max: ``solve_many`` with one start."""
    x0 = np.zeros(problem.n) if x0 is None else \
        as_vector(x0, dim=problem.n, name="x0")
    return solve_many(problem, cfg, x0[None], y0=y0, keep_inner=keep_inner)[0]


def solve_many(problem: BilevelProblem, configs, X0, y0=None,
               keep_inner: bool = False) -> list[RunRecord]:
    """Run from each row of the (B, n) array ``X0`` under its own config;
    one record per row, each start stopping on its own.

    ``configs`` is one SolverConfig for every row, or a sequence of B.  The
    rows must agree on method, K, truncate_at, T_max, cg_tol and cg_max_iter;
    they may differ in the schedule, lam, stop_tol and seed.

    ``y0`` overrides the fixed inner initialization (default: 0 projected
    onto Y).  For obda the inner state instead persists across outer
    iterations, starting from ``y0``.  f and F are evaluated at y_K only,
    unless ``keep_inner`` asks for their values along every inner run.

    The hypergradients of all live starts come from one call on their
    stacked rows, each under its own schedule; if it raises, the outer
    iteration is redone one start at a time, so that only the failing start
    aborts, with its own message.  The last live start is stepped alone.
    Every record's ``wall_time_s`` is the wall time of the whole batch.
    """
    X0 = as_vector(X0, dim=problem.n, name="x0", rows=True)
    if X0.ndim != 2:
        raise ContractError(f"x0: expected a (B, n) array of starts, got "
                            f"shape {X0.shape}")
    if len(X0) == 0:
        raise ContractError("x0: the batch has no starts")
    cfgs = [configs] * len(X0) if isinstance(configs, SolverConfig) \
        else list(configs)
    if len(cfgs) != len(X0):
        raise ContractError(f"solve_many: {len(cfgs)} configs for "
                            f"{len(X0)} starts; give one, or one per start")
    for name in ("method", "K", "truncate_at", "T_max", "cg_tol",
                 "cg_max_iter"):
        values = {getattr(c, name) for c in cfgs}
        if len(values) > 1:
            raise ContractError(f"solve_many: the starts' configs differ in "
                                f"{name}: {sorted(map(repr, values))}")
    cfg = cfgs[0]
    method = METHODS[cfg.method]
    problem.require(*method.requires)
    for sched in dict.fromkeys(c.sched for c in cfgs):
        sched.require_admissible(problem)
    y_start = default_y0(problem) if y0 is None else \
        problem.region_y.project(as_vector(y0, dim=problem.m, name="y0"))
    runs = [_Run(problem.region_x.project(x0), y_start, c)
            for x0, c in zip(X0, cfgs)]

    start = time.perf_counter()
    _advance_all(problem, runs, keep_inner)
    wall = time.perf_counter() - start
    records = []
    while runs:  # each run's lists go as its record takes their place
        records.append(runs.pop(0).record(problem, wall))
    return records


def _advance_all(problem: BilevelProblem, runs: list,
                 keep_inner: bool) -> None:
    """Step every run of ``solve_many`` until it stops or reaches T_max: the
    live runs from one hypergradient call on their rows while more than one
    is left; a lone run computes its own step on 1-D arrays."""
    cfg = runs[0].cfg
    live, t = runs, 0
    while live and t < cfg.T_max:
        steps = [None] * len(live)
        if len(live) > 1:
            try:
                g, ys, active = _method_gradient(
                    problem, np.array([run.x for run in live]), cfg,
                    y0=np.array([run.y_start for run in live]),
                    sched=[run.cfg.sched for run in live])
                steps = [(g[b], ys[:, b], active[:, b])
                         for b in range(len(live))]
            except (NumericalError, CapabilityError):
                pass  # each start below recomputes its own step
        live = [run for run, step in zip(live, steps)
                if run.advance(problem, step, keep_inner)]
        t += 1


class _Run:
    """The state of one start of ``solve_many``."""

    def __init__(self, x, y_start, cfg: SolverConfig):
        self.x, self.y_start, self.y_K = x, y_start, y_start
        self.cfg, self.lam = cfg, cfg.lam
        self.xs = [x.copy()]
        self.columns = {name: [] for name in METRIC_COLUMNS}
        self.inner_rows = []
        self.status = "max-iters"
        self.error = self.error_class = None

    def advance(self, problem: BilevelProblem, step,
                keep_inner: bool) -> bool:
        """One outer iteration, from ``step`` = (g, ys, active) when given;
        whether the run goes on."""
        x, cfg = self.x, self.cfg
        try:
            # resolved here so that a failing probe also aborts with a record
            if self.lam is None:
                self.lam = default_lambda(problem, cfg, x, self.y_start)
            g, ys, active = step if step is not None else \
                _method_gradient(problem, x, cfg, y0=self.y_start)
            # f and F along the kept inner run, else at y_K alone
            values = inner_values(problem, x, ys if keep_inner else ys[-1:])
            x_next = outer_step(x, g, self.lam, problem.region_x)
        except (NumericalError, CapabilityError) as err:
            self.status, self.error = "aborted", str(err)
            self.error_class = ("CapabilityError"
                                if isinstance(err, CapabilityError)
                                else "NumericalError")
            return False
        # a copy of a batch row, whose view would keep the batch's trace alive
        self.y_K = y_K = ys[-1] if step is None else ys[-1].copy()
        if METHODS[cfg.method].carries_inner:
            self.y_start = y_K
        if keep_inner:
            self.inner_rows.append(np.vstack([values, np.r_[False, active]]))
        f_K, F_K = values[:, -1]
        columns = self.columns
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
        moved = float(np.linalg.norm(x_next - x))
        self.x = x_next
        self.xs.append(x_next.copy())
        if moved <= cfg.stop_tol:
            self.status = "converged"
            return False
        return True

    def record(self, problem: BilevelProblem, wall: float) -> RunRecord:
        cfg = self.cfg
        metrics = {name: np.asarray(vals, dtype=float)
                   for name, vals in self.columns.items()}
        return RunRecord(
            problem=problem.name, method=cfg.method,
            xs=np.asarray(self.xs), metrics=metrics, status=self.status,
            wall_time_s=wall, y_final=np.asarray(self.y_K),
            config={**config_dict(cfg), "lambda": self.lam},
            error=self.error, error_class=self.error_class,
            inner_rows=self.inner_rows)


def config_dict(cfg: SolverConfig) -> dict:
    """``cfg`` as run config keys; with a "problem" key it loads back as
    ``cfg`` (cg_tol and cg_max_iter aside)."""
    return {**{key: getattr(cfg, name) for key, (name, _) in SOLVER_KEYS.items()},
            **{key: getattr(cfg.sched, name)
               for key, (name, _) in SCHED_KEYS.items()}}
