"""Lower-level dynamics: aggregated and plain projected gradient steps.

The aggregated step mixes scaled descent directions of both objectives,

    y_{k+1} = Proj_Y( y_k - (mu * alpha_k * s_u * grad_y F
                             + (1 - mu) * beta_k * s_l * grad_y f) ),

and is computed as the convex combination of the two auxiliary points
z_u = y_k - s_u * alpha_k * grad_y F and z_l = y_k - s_l * beta_k * grad_y f
so that, when the projection is inactive, y_{k+1} equals
mu * z_u + (1 - mu) * z_l bit-for-bit.  The auxiliary points are locals of
the step; the trace keeps the iterates, the weights and the clamped
coordinates, and the audits in ``verify`` derive z_u and z_l from them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import ContractError, NumericalError, as_vector
from .problems import BilevelProblem

_ALPHA_RULES = ("harmonic", "constant")


@dataclass(frozen=True)
class AggregationSchedule:
    """Aggregation weights and step sizes for the inner dynamics.

    alpha rules (k is the 0-based step index):
      harmonic  -> alpha_scale / (k + 1)
      constant  -> alpha_scale            (0 drops the UL term)
    beta_k = beta_lower + (beta_start - beta_lower) / (k + 1), which is
    constant when beta_start == beta_lower.

    mu must lie in (0, 1), the range the convergence analysis assumes.
    """

    mu: float = 0.1
    s_u: float = 0.1
    s_l: float = 0.1
    alpha_rule: str = "harmonic"
    alpha_scale: float = 1.0
    beta_start: float = 1.0
    beta_lower: float = 1.0

    def __post_init__(self):
        if self.alpha_rule not in _ALPHA_RULES:
            raise ContractError(f"unknown alpha_rule '{self.alpha_rule}'")
        if not (0.0 < self.mu < 1.0):
            raise ContractError(f"mu={self.mu} must lie in (0, 1)")
        if not (0 < self.s_u < np.inf and 0 < self.s_l < np.inf):
            raise ContractError("s_u and s_l must be positive and finite")
        if not (0.0 <= self.alpha_scale <= 1.0):
            raise ContractError("alpha_scale must lie in [0, 1]")
        if not (0.0 < self.beta_lower <= self.beta_start <= 1.0):
            raise ContractError("need 0 < beta_lower <= beta_start <= 1")

    def alpha(self, k: int) -> float:
        if self.alpha_rule == "harmonic":
            return self.alpha_scale / (k + 1)
        return self.alpha_scale

    def beta(self, k: int) -> float:
        return self.beta_lower + (self.beta_start - self.beta_lower) / (k + 1)

    def weights(self, K: int):
        """(alphas, betas): alpha_k and beta_k for k < K as read-only (K,)
        arrays, built once per (schedule, K)."""
        return _weights(self, K)

    @property
    def c_beta(self) -> float:
        """Smallest c with |beta_k - beta_{k-1}| <= c / (k+1)^2 for all k >= 1."""
        # |beta_k - beta_{k-1}| = (beta_start - beta_lower) / (k (k+1))
        return 2.0 * (self.beta_start - self.beta_lower)

    def breaches(self, L_F: float | None, L_f: float | None) -> list[str]:
        """The hypotheses s_u < 1/L_F and s_l < 1/L_f that this schedule
        breaks under the given smoothness constants (None skips one)."""
        out = []
        if L_F is not None and not self.s_u < 1.0 / L_F:
            out.append(f"s_u={self.s_u} is not below 1/L_F={1.0 / L_F:.3g}")
        if L_f is not None and not self.s_l < 1.0 / L_f:
            out.append(f"s_l={self.s_l} is not below 1/L_f={1.0 / L_f:.3g}")
        return out

    def require_admissible(self, problem: BilevelProblem) -> None:
        """The schedule must meet its hypotheses under the declared constants."""
        breaches = self.breaches(problem.L_F, problem.L_f)
        if breaches:
            raise ContractError("; ".join(breaches))


@lru_cache(maxsize=64)
def _weights(sched: AggregationSchedule, K: int):
    weights = (np.array([sched.alpha(k) for k in range(K)], dtype=float),
               np.array([sched.beta(k) for k in range(K)], dtype=float))
    for w in weights:
        w.flags.writeable = False
    return weights


class _ScheduleColumns:
    """The schedules of a batch's rows, one per row, as coefficient
    columns: mu, s_u and s_l are (B, 1) arrays and ``weights`` gives (K, B, 1)
    ones.  The inner step and its products read them as they read one
    schedule's floats; broadcast over (B, m) rows, each row gets the bits of
    its own schedule's scalars."""

    def __init__(self, scheds):
        self.scheds = scheds
        self.mu, self.s_u, self.s_l = (
            np.array([[getattr(s, name)] for s in scheds], dtype=float)
            for name in ("mu", "s_u", "s_l"))

    def weights(self, K: int):
        per_row = [s.weights(K) for s in self.scheds]
        return tuple(np.stack(w, axis=1)[..., None] for w in zip(*per_row))


def schedule_rows(sched, rows: tuple):
    """``sched`` for a run on x of leading shape ``rows``: one schedule as
    given; a sequence of schedules, one per row of a (B, n) x, as their
    shared schedule when the rows agree, else as coefficient columns."""
    if isinstance(sched, AggregationSchedule):
        return sched
    scheds = tuple(sched)
    if rows != (len(scheds),):
        raise ContractError(f"{len(scheds)} schedules for x rows of shape "
                            f"{rows}: give one schedule per row")
    if not all(isinstance(s, AggregationSchedule) for s in scheds):
        raise ContractError("the schedules must be AggregationSchedules")
    if all(s == scheds[0] for s in scheds):
        return scheds[0]
    return _ScheduleColumns(scheds)


@dataclass
class InnerTrace:
    """Per-iteration history of one inner run (ys has K+1 records).  A run
    from B rows of x stores (K+1, B, m), (K, B, m) and so on; with one
    schedule per row, ``sched`` holds their coefficient columns and alphas
    and betas are (K, B, 1)."""

    ys: np.ndarray            # (K+1, m)
    alphas: np.ndarray        # (K,)
    betas: np.ndarray         # (K,)
    proj_active: np.ndarray   # (K, m) bool, per-coordinate clamping
    sched: AggregationSchedule  # the run's schedule, or its rows' columns

    @property
    def K(self) -> int:
        return self.ys.shape[0] - 1


def _step_error(k, gF, gf, pre) -> Exception:
    """Why inner step k (None: a plain step) failed its check: the first
    non-finite gradient, else the pre-projection point."""
    where = "plain step" if k is None else f"inner step k={k}"
    for name, v in (("grad_y_F", gF), ("grad_y_f", gf),
                    ("pre-projection point", pre)):
        if v is not None and not np.isfinite(v).all():
            return NumericalError(f"{where}: {name} non-finite")
    return ContractError(f"{where}: pre-projection point has shape {pre.shape}")


def _step(problem: BilevelProblem, x, y, k, s_l: float,
          sched: AggregationSchedule | None = None,
          alpha: float = 0.0, beta: float = 0.0):
    """(y_next, pre) of inner step k from a checked (x, y): the
    aggregated step of ``sched`` with weights alpha, beta, else the plain step
    y - s_l grad_y f; on (B, m) rows the coefficients may be (B, 1) columns
    (see ``schedule_rows``).  Its one check, of ``pre``, runs before the
    clamp, so a non-finite gradient raises instead of being clamped into Y."""
    if sched is None:
        gF, gf = None, np.asarray(problem.grad_y_f(x, y), dtype=float)
        pre = y - s_l * gf
    else:
        gF = np.asarray(problem.grad_y_F(x, y), dtype=float)
        gf = np.asarray(problem.grad_y_f(x, y), dtype=float)
        z_u = y - alpha * (sched.s_u * gF)
        z_l = y - beta * (s_l * gf)
        pre = sched.mu * z_u + (1.0 - sched.mu) * z_l
    if pre.shape != y.shape or not np.isfinite(pre).all():
        raise _step_error(k, gF, gf, pre)
    return problem.region_y.clamp(pre), pre


def aggregated_step(problem: BilevelProblem, x, y, k: int,
                    sched: AggregationSchedule):
    """One aggregated projected step; returns y_{k+1}."""
    x, y = problem.check_point(x, y)
    return _step(problem, x, y, k, sched.s_l, sched, sched.alpha(k),
                 sched.beta(k))[0]


def plain_gd_step(problem: BilevelProblem, x, y, s_l: float):
    """One projected gradient step on the lower-level objective only."""
    if s_l <= 0:
        raise ContractError("plain_gd_step: s_l must be positive")
    x, y = problem.check_point(x, y)
    return _step(problem, x, y, None, s_l)[0]


def default_y0(problem: BilevelProblem) -> np.ndarray:
    return problem.region_y.project(np.zeros(problem.m))


def run_inner(problem: BilevelProblem, x, K: int, sched: AggregationSchedule,
              mode: str = "bda", y0=None):
    """Run K inner steps from y0 (default: 0 projected onto Y).

    Returns (y_K, InnerTrace).  mode 'bda' performs aggregated steps, mode
    'plain' performs lower-level gradient steps with step size sched.s_l.
    Only gradients are evaluated; the f and F values along the run come from
    ``inner_values`` on request.

    x may be a (B, n) array: the rows run together, each from its row of a
    (B, m) y0 or from a shared (m,) one, and one non-finite row raises for
    all of them.  ``sched`` may then also be a sequence of schedules, one
    per row; each row gets the bits of its own run.
    """
    if K < 0:
        raise ContractError("run_inner: K must be >= 0")
    if mode not in ("bda", "plain"):
        raise ContractError(f"run_inner: unknown mode '{mode}'")
    x = as_vector(x, dim=problem.n, name="x", rows=True)
    sched = schedule_rows(sched, x.shape[:-1])
    y = default_y0(problem) if y0 is None else problem.region_y.clamp(
        as_vector(y0, dim=problem.m, name="y0", rows=True))
    if y.shape[:-1] not in ((), x.shape[:-1]):
        raise ContractError(f"run_inner: y0 of shape {y.shape} does not fit "
                            f"x of shape {x.shape}")

    shape = (*x.shape[:-1], problem.m)
    ys = np.empty((K + 1, *shape))
    alphas, betas = sched.weights(K)
    proj_active = np.zeros((K, *shape), dtype=bool)
    aggregated = sched if mode == "bda" else None

    ys[0] = y
    y = ys[0]  # a shared y0 now fills every row
    for k in range(K):
        y_next, pre = _step(problem, x, y, k, sched.s_l, aggregated,
                            alphas[k], betas[k])
        proj_active[k] = y_next != pre
        ys[k + 1] = y = y_next

    trace = InnerTrace(ys=ys, alphas=alphas, betas=betas,
                       proj_active=proj_active, sched=sched)
    return y, trace


def inner_values(problem: BilevelProblem, x, ys) -> np.ndarray:
    """f and F at each inner iterate in ``ys`` (a sequence or stack of
    points): a (2, len(ys)) array.  Several points take one row call to
    each of f and F, with x broadcast to the rows; one point the 1-D call."""
    ys = np.asarray(ys, dtype=float)
    # one point keeps its 1-D call: as a row, solo hyperclean ran 5-16% slower
    at = (x, ys[0]) if len(ys) == 1 else \
        (np.broadcast_to(x, (len(ys), problem.n)), ys)
    vals = np.array([problem.f(*at), problem.F(*at)], dtype=float)
    vals = vals.reshape(2, len(ys))
    if not np.isfinite(vals).all():
        raise NumericalError("non-finite f or F value along the inner run")
    return vals
