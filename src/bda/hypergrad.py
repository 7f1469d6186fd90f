"""Hypergradient estimators for the approximate value function x -> F(x, y_K(x)).

Four routes are provided: reverse-mode unrolling of the exact inner update
maps (optionally truncated), forward-mode Jacobian propagation, the implicit
route through the lower-level optimality system, and the single-step
finite-difference scheme, all on the problem's Hessian-vector products.
Unrolled estimators differentiate through an active box projection with the
diagonal 0/1 generalized Jacobian that zeroes clamped coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .inner import AggregationSchedule, run_inner
from .numerics import CapabilityError, ContractError, NumericalError, as_vector
from .problems import BilevelProblem, product_rows


@dataclass
class HypergradResult:
    gradient: np.ndarray
    method: str
    diagnostics: dict = field(default_factory=dict)


# Problem oracles each estimator needs; the unrolled routes need those of the
# inner mode they differentiate through.
UNROLL_ORACLES = {"plain": ("hess_yy_f", "hess_yx_f"),
                  "bda": ("hess_yy_f", "hess_yx_f", "hess_yy_F", "hess_yx_F")}
IMPLICIT_ORACLES = ("hess_yy_f", "hess_yx_f")
ONESTAGE_ORACLES = ("grad_x_f",)


def _step_products(problem: BilevelProblem, x, y, mode: str,
                   alpha: float, beta: float, sched: AggregationSchedule):
    """Products yy: q -> (c_F H_F + c_f H_f) q and yx: q -> (c_F C_F + c_f C_f)' q
    at (x, y) for the pre-projection update u = y - (c_F grad_y F + c_f grad_y f):
    (du/dy)' q = q - yy(q), du/dy being symmetric, and (du/dx)' q = -yx(q).
    Plain descent has c_F = 0 and c_f = s_l."""
    if mode == "plain":
        return (lambda q: sched.s_l * problem.hess_yy_f(x, y, q),
                lambda q: sched.s_l * problem.hess_yx_f(x, y, q))
    cu = sched.mu * alpha * sched.s_u
    cl = (1.0 - sched.mu) * beta * sched.s_l
    return (lambda q: cu * problem.hess_yy_F(x, y, q)
            + cl * problem.hess_yy_f(x, y, q),
            lambda q: cu * problem.hess_yx_F(x, y, q)
            + cl * problem.hess_yx_f(x, y, q))


def hypergrad_reverse(problem: BilevelProblem, x, K: int,
                      sched: AggregationSchedule, mode: str = "bda",
                      truncate_at: int | None = None,
                      y0=None) -> HypergradResult:
    """Backward accumulation through the stored inner trajectory.

    ``truncate_at`` keeps only the last that many backward steps, treating
    the Jacobian of the earlier iterate as zero (truncated unrolling); None
    or K means no truncation.
    """
    problem.require(*UNROLL_ORACLES.get(mode, ()))
    if truncate_at is not None and not (0 <= truncate_at <= K):
        raise ContractError("truncate_at must lie in [0, K]")
    x = as_vector(x, dim=problem.n, name="x")
    y_K, trace = run_inner(problem, x, K, sched, mode=mode, y0=y0)

    p = np.asarray(problem.grad_y_F(x, y_K), dtype=float)
    g = np.asarray(problem.grad_x_F(x, y_K), dtype=float).copy()
    kept = K if truncate_at is None else truncate_at
    for k in range(K - 1, K - kept - 1, -1):
        q = np.where(trace.proj_active[k], 0.0, p)
        yy, yx = _step_products(problem, x, trace.ys[k], mode,
                                trace.alphas[k], trace.betas[k], sched)
        g -= yx(q)
        p = q - yy(q)
    if not np.all(np.isfinite(g)):
        raise NumericalError("reverse hypergradient is non-finite")
    return HypergradResult(
        gradient=g, method="reverse",
        diagnostics={"iterations": K, "truncate_at": kept, "mode": mode,
                     "projection_hit": bool(trace.proj_active.any()),
                     "y_final": y_K, "trace": trace})


def hypergrad_forward(problem: BilevelProblem, x, K: int,
                      sched: AggregationSchedule, mode: str = "bda",
                      strict_projection: bool = True,
                      y0=None) -> HypergradResult:
    """Forward propagation of the iterate Jacobian d y_k / d x."""
    problem.require(*UNROLL_ORACLES.get(mode, ()))
    x = as_vector(x, dim=problem.n, name="x")
    y_K, trace = run_inner(problem, x, K, sched, mode=mode, y0=y0)
    if strict_projection and trace.proj_active.any():
        raise CapabilityError(
            "projection became active along the trajectory; rerun with "
            "strict_projection=False to use the clamped-row convention")

    # J <- (du/dy) J + du/dx: n yy-products on J's columns, m yx-products for du/dx
    J = np.zeros((problem.m, problem.n))
    for k in range(K):
        yy, yx = _step_products(problem, x, trace.ys[k], mode,
                                trace.alphas[k], trace.betas[k], sched)
        J = J - np.column_stack([yy(col) for col in J.T]) \
            - product_rows(yx, problem.m)
        J[trace.proj_active[k]] = 0.0
    g = np.asarray(problem.grad_x_F(x, y_K), dtype=float) \
        + J.T @ np.asarray(problem.grad_y_F(x, y_K), dtype=float)
    if not np.all(np.isfinite(g)):
        raise NumericalError("forward hypergradient is non-finite")
    return HypergradResult(
        gradient=g, method="forward",
        diagnostics={"iterations": K, "mode": mode,
                     "projection_hit": bool(trace.proj_active.any())})


def _conjugate_gradient(matvec, b: np.ndarray, tol: float, max_iter: int):
    """Plain CG on matvec(p) = H p with curvature monitoring; returns
    (solution, residual, iters)."""
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0.0, 0
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for it in range(1, max_iter + 1):
        Hp = matvec(p)
        curv = float(p @ Hp)
        if curv <= 1e-12 * float(p @ p):
            raise CapabilityError(
                f"lower-level Hessian is not positive definite "
                f"(curvature {curv:.3e} on CG direction at iteration {it})")
        step = rs / curv
        x = x + step * p
        r = r - step * Hp
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol * max(1.0, bnorm):
            return x, float(np.sqrt(rs_new)), it
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise NumericalError(
        f"CG stalled after {max_iter} iterations, residual "
        f"{np.sqrt(rs):.3e} > tol {tol:.3e}")


def hypergrad_implicit(problem: BilevelProblem, x, y_hat,
                       cg_tol: float = 1e-10,
                       cg_max_iter: int | None = None) -> HypergradResult:
    """Implicit route: solve (grad_yy f) q = grad_y_F by CG on hess_yy_f
    products, then grad = grad_x_F - hess_yx_f(q)."""
    problem.require(*IMPLICIT_ORACLES)
    x, y_hat = problem.check_point(x, y_hat)
    bvec = np.asarray(problem.grad_y_F(x, y_hat), dtype=float)
    max_iter = cg_max_iter if cg_max_iter is not None else 10 * problem.m
    q, residual, iters = _conjugate_gradient(
        lambda v: problem.hess_yy_f(x, y_hat, v), bvec, cg_tol, max_iter)
    g = np.asarray(problem.grad_x_F(x, y_hat), dtype=float) \
        - problem.hess_yx_f(x, y_hat, q)
    if not np.all(np.isfinite(g)):
        raise NumericalError("implicit hypergradient is non-finite")
    return HypergradResult(
        gradient=g, method="implicit",
        diagnostics={"cg_residual": residual, "cg_iterations": iters})


def hypergrad_onestage(problem: BilevelProblem, x, y0,
                       sched: AggregationSchedule, eps: float) -> HypergradResult:
    """Single aggregated step followed by a finite-difference correction.

    The step uses the combined objective alpha*F + beta*f with the
    aggregation weights folded in (alpha = mu*alpha_0*s_u/s_l,
    beta = (1-mu)*beta_0) and step size s = s_l, which reproduces the
    aggregated update exactly.  When the step stays interior, the mixed
    second-derivative term of the one-step chain rule is replaced by a
    central difference of grad_x(alpha*F + beta*f); when the projection
    clips the step, a nested four-point difference through the projection
    is used instead.
    """
    if eps <= 0:
        raise ContractError("hypergrad_onestage: eps must be positive")
    problem.require(*ONESTAGE_ORACLES)
    x = as_vector(x, dim=problem.n, name="x")
    y0 = problem.region_y.project(as_vector(y0, dim=problem.m, name="y0"))

    s = sched.s_l
    alpha = sched.mu * sched.alpha(0) * sched.s_u / sched.s_l
    beta = (1.0 - sched.mu) * sched.beta(0)

    def grad_y_phi(yv):
        return alpha * np.asarray(problem.grad_y_F(x, yv)) \
            + beta * np.asarray(problem.grad_y_f(x, yv))

    def grad_x_phi(yv):
        return alpha * np.asarray(problem.grad_x_F(x, yv)) \
            + beta * np.asarray(problem.grad_x_f(x, yv))

    z0 = y0 - s * grad_y_phi(y0)
    active = problem.region_y.active_mask(z0)
    y1 = problem.region_y.project(z0)
    v = np.asarray(problem.grad_y_F(x, y1), dtype=float)
    g_direct = np.asarray(problem.grad_x_F(x, y1), dtype=float)

    if not active.any():
        h_plus = y0 + eps * v
        h_minus = y0 - eps * v
        if np.any(v != 0.0) and np.array_equal(h_plus, h_minus):
            raise NumericalError(
                f"eps={eps:g} too small: probe points coincide in floating point")
        g = g_direct - s * (grad_x_phi(h_plus) - grad_x_phi(h_minus)) / (2.0 * eps)
        branch = "interior"
    else:
        root = np.sqrt(eps)
        w_plus = problem.region_y.project(z0 + root * v)
        w_minus = problem.region_y.project(z0 - root * v)
        h_pp = y0 + eps * w_plus
        h_mp = y0 - eps * w_plus
        h_pm = y0 + eps * w_minus
        h_mm = y0 - eps * w_minus
        if np.any(v != 0.0) and np.array_equal(h_pp, h_mp) \
                and np.array_equal(h_pm, h_mm):
            raise NumericalError(
                f"eps={eps:g} too small: probe points coincide in floating point")
        numer = (grad_x_phi(h_pp) - grad_x_phi(h_mp)
                 - (grad_x_phi(h_pm) - grad_x_phi(h_mm)))
        g = g_direct - s * numer / (4.0 * eps ** 1.5)
        branch = "projected"
    if not np.all(np.isfinite(g)):
        raise NumericalError("one-stage hypergradient is non-finite")
    return HypergradResult(
        gradient=g, method="onestage",
        diagnostics={"branch": branch, "eps": eps, "alpha": alpha,
                     "beta": beta, "step": s, "y1": y1})
