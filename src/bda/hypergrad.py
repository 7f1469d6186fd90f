"""Hypergradient estimators for the approximate value function x -> F(x, y_K(x)).

Four routes are provided: reverse-mode unrolling of the exact inner update
maps (optionally truncated), forward-mode Jacobian propagation and the
implicit route through the lower-level optimality system, all three on the
problem's Hessian-vector products, and the single-step finite-difference
scheme, on its gradients alone.
Unrolled estimators differentiate through an active box projection with the
diagonal 0/1 generalized Jacobian that zeroes clamped coordinates.  Every
route takes one point or (B, n) rows of points, each row with the bits of
its solo call; the implicit and one-stage routes solve each row alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .inner import (AggregationSchedule, _step, _step_coefficients,
                    run_inner, schedule_rows)
from .numerics import CapabilityError, ContractError, NumericalError, as_vector
from .problems import BilevelProblem, matvec, product_rows


@dataclass
class HypergradResult:
    gradient: np.ndarray
    diagnostics: dict = field(default_factory=dict)


# Problem oracles each estimator needs; the unrolled routes need those of the
# inner mode they differentiate through.
UNROLL_ORACLES = {"plain": ("hess_yy_f", "hess_yx_f"),
                  "bda": ("hess_yy_f", "hess_yx_f", "hess_yy_F", "hess_yx_F")}
IMPLICIT_ORACLES = ("hess_yy_f", "hess_yx_f")
ONESTAGE_ORACLES = ("grad_x_f",)


def _combined(cu, cl, product_F, product_f, x, y, q):
    """c_u product_F(x, y, q) + c_l product_f(x, y, q), f's term alone when
    c_u is None: with the yy products, (du/dy)' q = q - this, du/dy being
    symmetric; with the yx products, (du/dx)' q = -this."""
    out = cl * product_f(x, y, q)
    return out if cu is None else cu * product_F(x, y, q) + out


def hypergrad_reverse(problem: BilevelProblem, x, K: int,
                      sched: AggregationSchedule, mode: str = "bda",
                      truncate_at: int | None = None,
                      y0=None) -> HypergradResult:
    """Backward accumulation through the stored inner trajectory.

    ``truncate_at`` keeps only the last that many backward steps, treating
    the Jacobian of the earlier iterate as zero (truncated unrolling); None
    or K means no truncation.  x may be a (B, n) array, and ``sched`` one
    schedule per row, as in ``run_inner``: the gradient is then (B, n), one
    row per row of x, and a non-finite row raises for all of them.

    The adjoint p_k is carried by the y-side products alone, so the loop
    runs only that recursion and keeps each step's masked adjoint q_k; the
    x-side terms (du_k/dx)' q_k of all kept steps then take one row call
    per oracle, and g subtracts them in step order.
    """
    problem.require(*UNROLL_ORACLES.get(mode, ()))
    if truncate_at is not None and not (0 <= truncate_at <= K):
        raise ContractError("truncate_at must lie in [0, K]")
    x = as_vector(x, dim=problem.n, name="x", rows=True)
    y_K, trace = run_inner(problem, x, K, sched, mode=mode, y0=y0)
    cu, cl = _step_coefficients(trace.sched, trace.alphas, trace.betas, mode)

    p = np.asarray(problem.grad_y_F(x, y_K), dtype=float)
    g = np.array(problem.grad_x_F(x, y_K), dtype=float)
    kept = K if truncate_at is None else truncate_at
    steps = np.arange(K - 1, K - kept - 1, -1)  # the kept steps, last first
    qs = np.empty((kept, *p.shape))
    clamped = trace.proj_active.any(axis=tuple(range(1, y_K.ndim + 1)))
    # the products inline, not through _combined: a call per step costs
    # about 1.5 us, a twentieth of a counterexample step
    for q, k in zip(qs, steps):
        y = trace.ys[k]
        q[...] = p
        if clamped[k]:
            q[trace.proj_active[k]] = 0.0
        yy = cl[k] * problem.hess_yy_f(x, y, q)
        if cu is not None:
            yy = cu[k] * problem.hess_yy_F(x, y, q) + yy
        p = q - yy
    if kept:  # x broadcast to the kept steps' rows, last step first
        at = (np.tile(x, (kept, 1)), trace.ys[steps].reshape(-1, problem.m),
              qs.reshape(-1, problem.m))
        shape = (kept, *g.shape)

        def scaled(c, product):  # the kept steps' coefficients on their rows
            c = c[steps]
            return c.reshape(c.shape + (1,) * (len(shape) - c.ndim)) \
                * product(*at).reshape(shape)

        yx = scaled(cl, problem.hess_yx_f)
        if cu is not None:
            yx = scaled(cu, problem.hess_yx_F) + yx
        # a reduction along axis 0 runs in order: the bits of g -= yx_k
        g = np.subtract.reduce(np.concatenate([g[None], yx]), axis=0)
    if not np.isfinite(g).all():
        raise NumericalError("reverse hypergradient is non-finite")
    return HypergradResult(
        gradient=g, diagnostics={"truncate_at": kept, "trace": trace})


def hypergrad_forward(problem: BilevelProblem, x, K: int | list,
                      sched: AggregationSchedule,
                      mode: str = "bda") -> HypergradResult:
    """Forward propagation of the iterate Jacobian d y_k / d x.

    x may be a (B, n) array, and ``sched`` one schedule per row, as in
    ``run_inner``: the Jacobian is then (B, m, n), the gradient (B, n), each
    row with the bits of that row alone; a non-finite row raises for all.
    K may be a non-decreasing list: one pass stacks its horizons' gradients
    in list order, each with its one-horizon bits (alpha_k, beta_k ignore K).
    """
    problem.require(*UNROLL_ORACLES.get(mode, ()))
    horizons = [K] if np.ndim(K) == 0 else list(K)
    if not horizons or horizons != sorted(horizons) or horizons[0] < 0:
        raise ContractError("need one or more non-decreasing horizons K >= 0")
    x = as_vector(x, dim=problem.n, name="x", rows=True)
    _, trace = run_inner(problem, x, horizons[-1], sched, mode=mode)

    # J <- (du/dy) J + du/dx: n yy-products on J's columns, m yx-products for du/dx
    rows = x.shape[:-1]
    J = np.zeros((*rows, problem.m, problem.n))
    cu, cl = _step_coefficients(trace.sched, trace.alphas, trace.betas, mode)
    grads = []
    for start, stop in zip([0] + horizons, horizons):
        for k in range(start, stop):
            at = (None if cu is None else cu[k], cl[k])
            yy = [_combined(*at, problem.hess_yy_F, problem.hess_yy_f, x,
                            trace.ys[k], J[..., j]) for j in range(problem.n)]
            J = J - np.stack(yy, axis=-1) - product_rows(
                lambda q: _combined(*at, problem.hess_yx_F, problem.hess_yx_f,
                                    x, trace.ys[k], q), problem.m, rows)
            J[trace.proj_active[k]] = 0.0
        y_K = trace.ys[stop]
        grads.append(np.asarray(problem.grad_x_F(x, y_K), dtype=float)
                     + matvec(np.swapaxes(J, -1, -2), np.asarray(
                         problem.grad_y_F(x, y_K), dtype=float)))
    g = grads[0] if np.ndim(K) == 0 else np.array(grads)
    if not np.isfinite(g).all():
        raise NumericalError("forward hypergradient is non-finite")
    return HypergradResult(
        gradient=g,
        diagnostics={"projection_hit": bool(trace.proj_active.any())})


def _conjugate_gradient(hess, b: np.ndarray, tol: float, max_iter: int):
    """Plain CG on hess(p) = H p with curvature monitoring; returns
    (solution, residual, iters).  Non-positive curvature, a curvature or
    residual that overflows, or a stall raises."""
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0.0, 0
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for it in range(1, max_iter + 1):
        Hp = hess(p)
        curv = float(p @ Hp)
        if not (np.isfinite(curv) and np.isfinite(rs)):
            raise NumericalError(
                f"CG curvature or residual non-finite at iteration {it} "
                f"(overflow)")
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


def _stacked(results, x, keys) -> HypergradResult:
    """The per-row results of a row call on x as one: the gradients as
    (B, n) rows and each diagnostic in ``keys`` as a (B, ...) array."""
    return HypergradResult(
        gradient=np.array([res.gradient for res in results]).reshape(x.shape),
        diagnostics={key: np.array([res.diagnostics[key] for res in results])
                     for key in keys})


def hypergrad_implicit(problem: BilevelProblem, x, y_hat,
                       cg_tol: float = 1e-10,
                       cg_max_iter: int | None = None) -> HypergradResult:
    """Implicit route: solve (grad_yy f) q = grad_y_F by CG on hess_yy_f
    products, then grad = grad_x_F - hess_yx_f(q).

    x and y_hat may be (B, n) and (B, m) rows, each solved alone: the
    gradient is then (B, n) and ``cg_iterations`` and ``cg_residual`` are
    (B,) arrays; a row whose CG fails, or whose gradient is non-finite,
    raises for all of them.
    """
    problem.require(*IMPLICIT_ORACLES)
    x = as_vector(x, dim=problem.n, name="x", rows=True)
    y_hat = as_vector(y_hat, dim=problem.m, name="y", rows=True)
    if x.shape[:-1] != y_hat.shape[:-1]:
        raise ContractError(f"hypergrad_implicit: y of shape {y_hat.shape} "
                            f"does not fit x of shape {x.shape}")
    if x.ndim == 2:
        return _stacked([hypergrad_implicit(problem, xb, yb, cg_tol,
                                            cg_max_iter)
                         for xb, yb in zip(x, y_hat)],
                        x, ("cg_residual", "cg_iterations"))
    bvec = np.asarray(problem.grad_y_F(x, y_hat), dtype=float)
    max_iter = cg_max_iter if cg_max_iter is not None else 10 * problem.m
    q, residual, iters = _conjugate_gradient(
        lambda v: problem.hess_yy_f(x, y_hat, v), bvec, cg_tol, max_iter)
    g = np.asarray(problem.grad_x_F(x, y_hat), dtype=float) \
        - problem.hess_yx_f(x, y_hat, q)
    if not np.isfinite(g).all():
        raise NumericalError("implicit hypergradient is non-finite")
    return HypergradResult(
        gradient=g,
        diagnostics={"cg_residual": residual, "cg_iterations": iters})


def hypergrad_onestage(problem: BilevelProblem, x, y0,
                       sched: AggregationSchedule,
                       eps: float = 1e-4) -> HypergradResult:
    """Single aggregated step followed by a finite-difference correction.

    The step is ``run_inner``'s first: y1 has the bits of
    ``run_inner(problem, x, 1, sched, y0=y0)``'s, and the step is clipped
    exactly where that run records ``proj_active``.  With c_u and c_l the
    step's weights of grad_y F and grad_y f, the mixed second-derivative
    term of the one-step chain rule is a central difference of
    grad_x(c_u F + c_l f) when the step stays interior, and a nested
    four-point difference through the projection when it is clipped.

    x and y0 may be (B, n) and (B, m) rows, and ``sched`` one schedule per
    row, as in ``run_inner``: each row is solved alone under its own
    schedule, ``branch`` is then a (B,) array and ``y1`` (B, m) rows, and a
    row that fails a check raises for all.
    """
    if eps <= 0:
        raise ContractError("hypergrad_onestage: eps must be positive")
    problem.require(*ONESTAGE_ORACLES)
    x = as_vector(x, dim=problem.n, name="x", rows=True)
    y0 = problem.region_y.clamp(
        as_vector(y0, dim=problem.m, name="y0", rows=True))
    if x.shape[:-1] != y0.shape[:-1]:
        raise ContractError(f"hypergrad_onestage: y0 of shape {y0.shape} "
                            f"does not fit x of shape {x.shape}")
    schedule_rows(sched, x.shape[:-1])  # one schedule, or one per row of x
    if x.ndim == 2:
        scheds = [sched] * len(x) if isinstance(sched, AggregationSchedule) \
            else sched
        return _stacked([hypergrad_onestage(problem, xb, yb, sb, eps)
                         for xb, yb, sb in zip(x, y0, scheds)],
                        x, ("branch", "y1"))
    alphas, betas = sched.weights(1)
    y1, z0 = _step(problem, x, y0, 0, sched.s_l, sched, alphas[0], betas[0])
    projected = bool((y1 != z0).any())
    (c_u,), (c_l,) = _step_coefficients(sched, alphas, betas, "bda")

    def grad_x_phi(yv):
        return c_u * np.asarray(problem.grad_x_F(x, yv)) \
            + c_l * np.asarray(problem.grad_x_f(x, yv))

    v = np.asarray(problem.grad_y_F(x, y1), dtype=float)
    g_direct = np.asarray(problem.grad_x_F(x, y1), dtype=float)

    # differences of grad_x phi over probe pairs y0 +- eps w: w = v on an
    # interior step, w = P(z0 + root v) and P(z0 - root v) on a clipped one
    if projected:
        root = np.sqrt(eps)
        ws = [problem.region_y.project(z0 + root * v),
              problem.region_y.project(z0 - root * v)]
        scale = 4.0 * eps ** 1.5
    else:
        ws, scale = [v], 2.0 * eps
    pairs = [(y0 + eps * w, y0 - eps * w) for w in ws]
    if np.any(v != 0.0) and all(np.array_equal(*pair) for pair in pairs):
        raise NumericalError(f"eps={eps:g} too small: probe points coincide "
                             f"in floating point")
    diffs = [grad_x_phi(h_plus) - grad_x_phi(h_minus)
             for h_plus, h_minus in pairs]
    g = g_direct - (diffs[0] - diffs[1] if projected else diffs[0]) / scale
    if not np.isfinite(g).all():
        raise NumericalError("one-stage hypergradient is non-finite")
    return HypergradResult(gradient=g, diagnostics={
        "branch": "projected" if projected else "interior", "y1": y1})
