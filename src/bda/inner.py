"""Lower-level dynamics: aggregated and plain projected gradient steps.

The aggregated step mixes scaled descent directions of both objectives,

    y_{k+1} = Proj_Y( y_k - (mu * alpha_k * s_u * grad_y F
                             + (1 - mu) * beta_k * s_l * grad_y f) ),

and is computed as the convex combination of the two auxiliary points
z_u = y_k - s_u * alpha_k * grad_y F and z_l = y_k - s_l * beta_k * grad_y f
so that, when the projection is inactive, y_{k+1} equals
mu * z_u + (1 - mu) * z_l bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ContractError, NumericalError, as_vector
from .problems import BilevelProblem

_ALPHA_RULES = ("harmonic", "scaled", "constant", "zero")
_BETA_RULES = ("constant", "declining")


@dataclass(frozen=True)
class AggregationSchedule:
    """Aggregation weights and step sizes for the inner dynamics.

    alpha rules (k is the 0-based step index):
      harmonic  -> 1 / (k + 1)
      scaled    -> alpha_scale / (k + 1)   (first step uses alpha_scale)
      constant  -> alpha_scale
      zero      -> 0                        (diagnostic: drops the UL term)
    beta rules:
      constant  -> beta_start (= beta_lower)
      declining -> beta_lower + (beta_start - beta_lower) / (k + 1)

    mu = 0 is allowed only as a diagnostic that reduces the step to the plain
    scheme; solver configurations insist on mu in (0, 1).
    """

    mu: float = 0.1
    s_u: float = 0.1
    s_l: float = 0.1
    alpha_rule: str = "harmonic"
    alpha_scale: float = 1.0
    beta_rule: str = "constant"
    beta_start: float = 1.0
    beta_lower: float = 1.0

    def __post_init__(self):
        if self.alpha_rule not in _ALPHA_RULES:
            raise ContractError(f"unknown alpha_rule '{self.alpha_rule}'")
        if self.beta_rule not in _BETA_RULES:
            raise ContractError(f"unknown beta_rule '{self.beta_rule}'")
        if not (0.0 <= self.mu < 1.0):
            raise ContractError("mu must lie in [0, 1); (0,1) outside diagnostics")
        if self.s_u <= 0 or self.s_l <= 0:
            raise ContractError("step sizes s_u, s_l must be positive")
        if self.alpha_rule != "zero" and not (0.0 < self.alpha_scale <= 1.0):
            raise ContractError("alpha_scale must lie in (0, 1]")
        if not (0.0 < self.beta_lower <= self.beta_start <= 1.0):
            raise ContractError("need 0 < beta_lower <= beta_start <= 1")
        if self.beta_rule == "constant" and self.beta_start != self.beta_lower:
            raise ContractError("constant beta rule requires beta_start == beta_lower")

    def alpha(self, k: int) -> float:
        if self.alpha_rule == "harmonic":
            return 1.0 / (k + 1)
        if self.alpha_rule == "scaled":
            return self.alpha_scale / (k + 1)
        if self.alpha_rule == "constant":
            return self.alpha_scale
        return 0.0

    def beta(self, k: int) -> float:
        if self.beta_rule == "constant":
            return self.beta_start
        return self.beta_lower + (self.beta_start - self.beta_lower) / (k + 1)

    @property
    def c_beta(self) -> float:
        """Smallest c with |beta_k - beta_{k-1}| <= c / (k+1)^2 for all k >= 1."""
        if self.beta_rule == "constant":
            return 0.0
        # |beta_k - beta_{k-1}| = (beta_start - beta_lower) / (k (k+1))
        return 2.0 * (self.beta_start - self.beta_lower)

    @property
    def alpha_tends_to_zero(self) -> bool:
        return self.alpha_rule in ("harmonic", "scaled", "zero")

    @property
    def alpha_sum_diverges(self) -> bool:
        return self.alpha_rule in ("harmonic", "scaled", "constant")

    def breaches(self, L_F: float | None, L_f: float | None) -> list[str]:
        """The hypotheses s_u < 1/L_F, s_l < 1/L_f and mu in (0, 1) that this
        schedule breaks under the given smoothness constants (None skips one)."""
        out = []
        if L_F is not None and not self.s_u < 1.0 / L_F:
            out.append(f"s_u={self.s_u} is not below 1/L_F={1.0 / L_F:.3g}")
        if L_f is not None and not self.s_l < 1.0 / L_f:
            out.append(f"s_l={self.s_l} is not below 1/L_f={1.0 / L_f:.3g}")
        if not 0.0 < self.mu < 1.0:
            out.append(f"mu={self.mu} is outside (0, 1)")
        return out

    def require_admissible(self, problem: BilevelProblem) -> None:
        """The schedule must meet its hypotheses under the declared constants."""
        breaches = self.breaches(problem.L_F, problem.L_f)
        if breaches:
            raise ContractError("; ".join(breaches))


@dataclass
class InnerTrace:
    """Per-iteration history of one inner run (ys has K+1 records)."""

    ys: np.ndarray            # (K+1, m)
    z_u: np.ndarray           # (K, m)   y_k - s_u alpha_k grad_y F
    z_l: np.ndarray           # (K, m)   y_k - s_l beta_k grad_y f
    f_vals: np.ndarray        # (K+1,)
    F_vals: np.ndarray        # (K+1,)
    alphas: np.ndarray        # (K,)
    betas: np.ndarray         # (K,)
    proj_active: np.ndarray   # (K, m) bool, per-coordinate clamping
    mode: str = "bda"

    @property
    def K(self) -> int:
        return self.ys.shape[0] - 1

    def validate(self) -> None:
        for name in ("ys", "z_u", "z_l", "f_vals", "F_vals"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericalError(f"InnerTrace.{name}: non-finite entries")


def descent_directions(problem: BilevelProblem, x, y, k: int,
                       sched: AggregationSchedule):
    """Scaled descent directions (s_u * grad_y F, s_l * grad_y f) at (x, y)."""
    x, y = problem.check_point(x, y)
    gF = np.asarray(problem.grad_y_F(x, y), dtype=float)
    gf = np.asarray(problem.grad_y_f(x, y), dtype=float)
    if not np.all(np.isfinite(gF)):
        raise NumericalError(f"grad_y_F non-finite at inner step k={k}")
    if not np.all(np.isfinite(gf)):
        raise NumericalError(f"grad_y_f non-finite at inner step k={k}")
    return sched.s_u * gF, sched.s_l * gf


def _aggregated_points(problem: BilevelProblem, x, y, k: int,
                       sched: AggregationSchedule):
    """(z_u, z_l, pre-projection point) of one aggregated step."""
    dF, df = descent_directions(problem, x, y, k, sched)
    z_u = y - sched.alpha(k) * dF
    z_l = y - sched.beta(k) * df
    return z_u, z_l, sched.mu * z_u + (1.0 - sched.mu) * z_l


def aggregated_step(problem: BilevelProblem, x, y, k: int,
                    sched: AggregationSchedule):
    """One aggregated projected step; returns (y_next, z_u, z_l)."""
    z_u, z_l, pre = _aggregated_points(problem, x, y, k, sched)
    return problem.region_y.project(pre), z_u, z_l


def _plain_point(problem: BilevelProblem, x, y, s_l: float):
    """Pre-projection point y - s_l * grad_y f of one plain step."""
    if s_l <= 0:
        raise ContractError("plain_gd_step: s_l must be positive")
    x, y = problem.check_point(x, y)
    gf = np.asarray(problem.grad_y_f(x, y), dtype=float)
    if not np.all(np.isfinite(gf)):
        raise NumericalError("grad_y_f non-finite in plain step")
    return y - s_l * gf


def plain_gd_step(problem: BilevelProblem, x, y, s_l: float):
    """One projected gradient step on the lower-level objective only."""
    return problem.region_y.project(_plain_point(problem, x, y, s_l))


def default_y0(problem: BilevelProblem) -> np.ndarray:
    return problem.region_y.project(np.zeros(problem.m))


def run_inner(problem: BilevelProblem, x, K: int, sched: AggregationSchedule,
              mode: str = "bda", y0=None):
    """Run K inner steps from y0 (default: 0 projected onto Y).

    Returns (y_K, InnerTrace).  mode 'bda' performs aggregated steps, mode
    'plain' performs lower-level gradient steps with step size sched.s_l; in
    plain mode the stored auxiliaries are z_u = y_k (no UL move) and
    z_l = y_{k+1} before projection.
    """
    if K < 0:
        raise ContractError("run_inner: K must be >= 0")
    if mode not in ("bda", "plain"):
        raise ContractError(f"run_inner: unknown mode '{mode}'")
    x = as_vector(x, dim=problem.n, name="x")
    y = default_y0(problem) if y0 is None else \
        problem.region_y.project(as_vector(y0, dim=problem.m, name="y0"))

    m = problem.m
    ys = np.empty((K + 1, m))
    z_u = np.empty((K, m))
    z_l = np.empty((K, m))
    f_vals = np.empty(K + 1)
    F_vals = np.empty(K + 1)
    alphas = np.empty(K)
    betas = np.empty(K)
    proj_active = np.zeros((K, m), dtype=bool)

    ys[0] = y
    f_vals[0] = problem.f(x, y)
    F_vals[0] = problem.F(x, y)
    for k in range(K):
        try:
            if mode == "bda":
                zu_k, zl_k, pre = _aggregated_points(problem, x, y, k, sched)
            else:
                zu_k = y
                zl_k = pre = _plain_point(problem, x, y, sched.s_l)
            y_next = problem.region_y.project(pre)
        except NumericalError as err:
            raise NumericalError(f"inner step k={k}: {err}") from err
        proj_active[k] = problem.region_y.active_mask(pre)
        ys[k + 1] = y_next
        z_u[k] = zu_k
        z_l[k] = zl_k
        alphas[k] = sched.alpha(k)
        betas[k] = sched.beta(k)
        f_vals[k + 1] = problem.f(x, y_next)
        F_vals[k + 1] = problem.F(x, y_next)
        y = y_next

    trace = InnerTrace(ys=ys, z_u=z_u, z_l=z_l, f_vals=f_vals, F_vals=F_vals,
                       alphas=alphas, betas=betas, proj_active=proj_active,
                       mode=mode)
    trace.validate()
    return y, trace
