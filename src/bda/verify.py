"""Independent oracles and numerical auditors for the solver stack.

The oracles here (finite differences, grid minimization, bisection roots)
never call the code paths they are used to check.  The auditors evaluate the
descent inequality of the aggregated step, the nonexpansiveness of the
lower-level auxiliary point, the explicit complexity bound of the aggregated
scheme, and the uniform convergence of unrolled hypergradients to the
implicit one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .hypergrad import hypergrad_forward
from . import inner
from .inner import AggregationSchedule, InnerTrace, run_inner
from .numerics import (CapabilityError, ContractError, NumericalError,
                       as_vector, rng_stream)
from .problems import BilevelProblem, product_rows


@dataclass(frozen=True)
class VerifyTolerances:
    """Single tuning point for every threshold used by the auditors."""

    slack_tol: float = 1e-9          # admissible negative slack in inequalities
    nonexpansive_tol: float = 1e-10  # slack for the auxiliary-point contraction
    fd_rel_tol: float = 1e-5         # gradient vs central differences
    root_residual_tol: float = 1e-12
    sup_inflation: float = 1.05      # margin on sampled suprema


TOLERANCES = VerifyTolerances()


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def fd_gradient(scalar_map, x, eps: float) -> np.ndarray:
    """Central finite differences of a scalar map, coordinate by coordinate."""
    if eps <= 0:
        raise ContractError("fd_gradient: eps must be positive")
    x = as_vector(x, name="x")
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        step = np.zeros_like(x)
        step[i] = eps
        hi = float(scalar_map(x + step))
        lo = float(scalar_map(x - step))
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NumericalError(f"fd_gradient: non-finite evaluation at coordinate {i}")
        g[i] = (hi - lo) / (2.0 * eps)
    return g


def grid_argmin(scalar_map, interval, points: int, vectorized: bool = False):
    """Brute-force minimizer over a uniform 1-D grid; ties go to the smallest x.

    With ``vectorized=True`` the map is called once on the whole grid array,
    which is the only practical route for multi-million-point grids.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if points < 2:
        raise ContractError("grid_argmin: need at least 2 points")
    if hi <= lo:
        raise ContractError("grid_argmin: empty interval")
    xs = np.linspace(lo, hi, points)
    if vectorized:
        vals = np.asarray(scalar_map(xs), dtype=float)
        if vals.shape != xs.shape:
            raise ContractError("grid_argmin: vectorized map must preserve shape")
    else:
        vals = np.fromiter((float(scalar_map(float(t))) for t in xs),
                           dtype=float, count=points)
    if not np.isfinite(vals).all():
        raise NumericalError("grid_argmin: non-finite objective values")
    idx = int(np.argmin(vals))  # argmin returns the first (smallest x) tie
    return float(xs[idx]), float(vals[idx])


@dataclass(frozen=True)
class PlainDescentRoot:
    """Per-coordinate stationary point of the unrolled plain-descent limit on
    the counter-example, found by bisection of t^3 + a (a t - 1)^3 = 0."""

    x_hat: float
    residual: float
    a_K: float


def rhg_limit_oracle_counterexample(s_l: float, K: int) -> PlainDescentRoot:
    """Where reverse-mode over plain descent converges on the counter-example.

    With constant LL step s_l and K steps, the inner map reaches
    y_K = a_K x (a_K = 1 - (1-s_l)^K) with the free half of the LL variable
    stuck at zero, so the outer stationarity condition reduces per coordinate
    to t^3 + a_K (a_K t - 1)^3 = 0 on [0, 1].
    """
    if not (0.0 < s_l < 1.0):
        raise ContractError("s_l must lie in (0, 1)")
    if K < 1:
        raise ContractError("K must be >= 1")
    a = 1.0 - (1.0 - s_l) ** K

    def g(t: float) -> float:
        return t ** 3 + a * (a * t - 1.0) ** 3

    lo, hi = 0.0, 1.0
    glo, ghi = g(lo), g(hi)
    if not (glo < 0.0 < ghi):
        raise NumericalError("bisection bracket failed on [0, 1]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            lo = hi = mid
            break
        if gm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16:
            break
    x_hat = 0.5 * (lo + hi)
    residual = abs(g(x_hat))
    if residual > TOLERANCES.root_residual_tol:
        raise NumericalError(f"bisection residual {residual:.3e} too large")
    return PlainDescentRoot(x_hat=x_hat, residual=residual, a_K=a)


# ---------------------------------------------------------------------------
# rate constants and the complexity bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateConstants:
    D: float
    M_F: float
    M_f: float
    C0: float
    C1: float
    C2: float
    C3: float
    beta_lower: float
    c_beta: float
    s_l: float
    s_u: float
    mu: float
    L_F: float
    L_f: float
    M0: float
    phi_x: float

    def __post_init__(self):
        vals = (self.D, self.M_F, self.M_f, self.C0, self.C1, self.C2, self.C3)
        if not all(math.isfinite(v) and v > 0 for v in vals):
            raise NumericalError("rate constants must be positive and finite")


def corrupted_constants(rc: RateConstants, scale: float = 1e-6) -> RateConstants:
    """Negative control: shrink the bound constants so a correct checker must
    flag violations.  Both C2 and C3 are scaled; shrinking C2 alone can never
    produce a violation because the C3 >= D^2 floor already dominates every
    trajectory quantity whenever the step-size hypotheses hold."""
    return replace(rc, C2=rc.C2 * scale, C3=rc.C3 * scale)


def _sampled_sup(values, inflation: float) -> float:
    return float(np.max(values)) * inflation


def _sample_points(problem: BilevelProblem, rng, count: int):
    """Paired (x, y) samples mixing box corners (where convex sups live) and
    uniform interior points."""
    half = max(count // 2, 1)
    xs = np.vstack([problem.region_x.sample_corners(rng, half),
                    problem.region_x.sample(rng, half)])
    ys = np.vstack([problem.region_y.sample_corners(rng, half),
                    problem.region_y.sample(rng, half)])
    return xs, ys


def compute_rate_constants(problem: BilevelProblem, sched: AggregationSchedule,
                           x) -> RateConstants:
    """Over-estimated suprema and the explicit constants of the complexity bound.

    D is the diameter of Y; M_F, M_f (and the smoothness constants the problem
    does not declare) are suprema over 200 samples of X x Y from seed 0, all
    inflated by 5% so the resulting constants remain valid over-estimates.
    The value-function term is evaluated at ``x``.
    """
    if not (problem.region_x.is_bounded and problem.region_y.is_bounded):
        raise CapabilityError("rate constants need compact X and Y")
    problem.require("F_lower_bound", "phi_star_of_x")
    rng = rng_stream(0)
    infl = TOLERANCES.sup_inflation

    D = problem.region_y.diameter() * infl  # the exact box diagonal, inflated
    xs, ys = _sample_points(problem, rng, 200)
    # one row call per oracle; vecdot and svd give each sample the bits of
    # np.linalg.norm on that sample alone
    M_F, M_f = (_sampled_sup(np.sqrt(np.vecdot(G, G)), infl)
                for G in (problem.grad_y_F(xs, ys), problem.grad_y_f(xs, ys)))

    def sup_hessian_norm(name):
        problem.require(name)
        product = getattr(problem, name)
        hessians = product_rows(lambda v: product(xs, ys, v), problem.m,
                                xs.shape[:1])
        return _sampled_sup(np.linalg.svd(hessians, compute_uv=False)[:, 0],
                            infl)

    L_F = problem.L_F if problem.L_F is not None \
        else sup_hessian_norm("hess_yy_F")
    L_f = problem.L_f if problem.L_f is not None \
        else sup_hessian_norm("hess_yy_f")

    breaches = sched.breaches(L_F, L_f)
    if breaches:
        raise ContractError("rate constants: " + "; ".join(breaches))

    M0 = problem.F_lower_bound
    phi_x = float(problem.phi_star_of_x(as_vector(x, dim=problem.n)))

    beta_lower = sched.beta_lower
    c_beta = sched.c_beta
    mu, s_u, s_l = sched.mu, sched.s_u, sched.s_l

    C0 = max(2.0 + (c_beta / beta_lower) ** 2, 3.0)
    value_term = D ** 2 + 2.0 * s_u * (phi_x - M0)
    denom = min(1.0 - s_l * L_f, 1.0 - s_u * L_F, 1.0)
    C1 = (C0 * value_term + 2.0 * mu * s_u * D * M_F
          + 2.0 * (1.0 - mu) * s_l * c_beta * D * M_f) / denom
    C2 = (s_l ** 2 * L_f ** 2 * D + 4.0 * D * L_f / beta_lower) * math.sqrt(C1)
    C3 = value_term / ((1.0 - mu) * (1.0 - s_l * L_f))
    return RateConstants(D=D, M_F=M_F, M_f=M_f, C0=C0, C1=C1, C2=C2, C3=C3,
                         beta_lower=beta_lower, c_beta=c_beta, s_l=s_l,
                         s_u=s_u, mu=mu, L_F=L_F, L_f=L_f, M0=M0, phi_x=phi_x)


@dataclass
class CheckReport:
    check_name: str
    status: str                  # 'pass' | 'fail' | 'hypothesis-breach'
    worst_margin: float
    location: str
    violations: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"check_name": self.check_name, "status": self.status,
                "worst_margin": self.worst_margin, "location": self.location}


def check_rate_bound(problem: BilevelProblem, x, sched: AggregationSchedule,
                     k_max: int, constants=None) -> CheckReport | list:
    """Evaluate both displayed complexity inequalities for k in [2, k_max].

    The distance inequality bounds |y_k - z^l_{k+1}|^2 and the value
    inequality bounds f(z^l_{k+1}) - min_y f, each by constants times
    (1 + ln k) / k^{1/4}.  Violations are data, not errors; they are listed
    with their k and margin.  ``constants`` (default: computed at x) may be
    a list: one measured trajectory is then judged per set, a report each.
    """
    if sched.alpha_rule != "harmonic" or sched.alpha_scale != 1.0:
        raise ContractError("rate bound requires alpha_k = 1 / (k + 1)")
    if k_max < 2:
        raise ContractError("k_max must be >= 2")
    problem.require("f_star_of_x")
    x = as_vector(x, dim=problem.n, name="x")
    if constants is None:
        constants = compute_rate_constants(problem, sched, x=x)
    sets = constants if isinstance(constants, list) else [constants]

    # k_max + 1 inner steps give z^l_{k+1} up to k = k_max; rows keep 1-D bits
    _, trace = run_inner(problem, x, k_max + 1, sched, mode="bda")
    _, z_l = _auxiliary_points(problem, x, trace)
    dists = np.vecdot(trace.ys[:-1] - z_l, trace.ys[:-1] - z_l).tolist()
    gaps = (problem.f(np.broadcast_to(x, (k_max + 1, problem.n)), z_l)
            - float(problem.f_star_of_x(x))).tolist()
    reports = []
    for rc in sets:
        total = 2.0 * rc.C2 + rc.C3
        violations = []
        worst = math.inf
        for k in range(2, k_max + 1):
            decay = (1.0 + math.log(k)) / k ** 0.25
            rhs_dist = total / rc.beta_lower ** 2 * decay
            rhs_gap = rc.D / (rc.beta_lower ** 2 * rc.s_l) \
                * math.sqrt(total) * math.sqrt(decay)
            for name, lhs, rhs in (("distance", dists[k], rhs_dist),
                                   ("value_gap", gaps[k], rhs_gap)):
                margin = rhs - lhs
                worst = min(worst, margin)
                if margin < 0:
                    violations.append((k, name, margin))
        reports.append(CheckReport(
            check_name="rate_bound",
            status="pass" if not violations else "fail", worst_margin=worst,
            location=f"x={np.array2string(x, precision=3)}, k_max={k_max}",
            violations=violations, details={"constants": rc}))
    return reports if isinstance(constants, list) else reports[0]


# ---------------------------------------------------------------------------
# descent inequality and nonexpansiveness audits
# ---------------------------------------------------------------------------

def _auxiliary_points(problem: BilevelProblem, x, trace: InnerTrace):
    """(z_u, z_l) at every y_k of a 'bda' trace from one checked x, by the
    step's own helper in one row call per gradient: the bits the step
    computed.  A trace of rows of x, or of no steps, is refused."""
    if trace.ys.shape != (trace.K + 1, problem.m) or trace.K < 1:
        raise ContractError(f"audits read a trace of one x with at least one "
                            f"step, got ys of shape {trace.ys.shape}")
    z_u, z_l, _, _ = inner._auxiliary_points(
        problem, np.broadcast_to(x, (trace.K, problem.n)), trace.ys[:-1],
        trace.sched, trace.alphas[:, None], trace.betas[:, None])
    return z_u, z_l


def _slack(problem: BilevelProblem, x, trace: InnerTrace, k: int, y_test,
           z_u, z_l) -> float:
    """The descent inequality's slack at step k, given its auxiliary points."""
    sched = trace.sched
    mu, s_u, s_l = sched.mu, sched.s_u, sched.s_l
    a_k, b_k = trace.alphas[k], trace.betas[k]
    y_k, y_next = trace.ys[k], trace.ys[k + 1]
    L_F, L_f = problem.L_F, problem.L_f

    def sq(v):
        return float(np.dot(v, v))

    lhs = (1.0 - mu) * b_k * problem.f(x, y_test) \
        + mu * s_u * a_k / s_l * problem.F(x, y_test)
    rhs = ((1.0 - mu) * b_k * problem.f(x, z_l)
           + mu * s_u * a_k / s_l * problem.F(x, z_u)
           + mu / (2.0 * s_l) * (1.0 - a_k * s_u * L_F) * sq(y_k - z_u)
           + 1.0 / (2.0 * s_l) * sq(y_test - y_next)
           + 1.0 / (2.0 * s_l) * sq((1.0 - mu) * z_l + mu * z_u - y_next)
           + (1.0 - mu) / (2.0 * s_l) * (1.0 - b_k * s_l * L_f) * sq(y_k - z_l)
           - 1.0 / (2.0 * s_l) * sq(y_test - y_k))
    return lhs - rhs


def descent_slack(problem: BilevelProblem, x, trace: InnerTrace, k: int,
                  y_test) -> float:
    """Slack of the aggregated-step descent inequality at step k of a 'bda'
    trace and test point y_test (nonnegative when the inequality holds),
    under the schedule the trace ran with."""
    problem.require("L_F", "L_f")
    x = as_vector(x, dim=problem.n, name="x")
    y_test = as_vector(y_test, dim=problem.m, name="y_test")
    if not (0 <= k < trace.K):
        raise ContractError("k outside trace range")
    z_u, z_l = _auxiliary_points(problem, x, trace)
    return _slack(problem, x, trace, k, y_test, z_u[k], z_l[k])


def _sample_test_points(problem: BilevelProblem, trace: InnerTrace,
                        rng, count: int) -> np.ndarray:
    if problem.region_y.is_bounded:
        return problem.region_y.sample(rng, count)
    center = trace.ys.mean(axis=0)
    scale = 1.0 + float(np.abs(trace.ys).max())
    return center + scale * rng.standard_normal((count, problem.m))


def check_descent_inequality(problem: BilevelProblem, x, trace: InnerTrace,
                             num_test_points: int = 100,
                             seed: int = 0) -> CheckReport:
    """Minimum descent-inequality slack over random (k, y_test) pairs of a
    'bda' trace, under the schedule the trace ran with.

    A schedule that breaks the step-size hypotheses is reported as a
    hypothesis breach up front; slacks are still evaluated for diagnosis.
    """
    problem.require("L_F", "L_f")
    if num_test_points < 1:
        raise ContractError("num_test_points must be >= 1")
    x = as_vector(x, dim=problem.n, name="x")
    z_u, z_l = _auxiliary_points(problem, x, trace)
    breaches = trace.sched.breaches(problem.L_F, problem.L_f)
    rng = rng_stream(seed)
    ks = rng.integers(0, trace.K, size=num_test_points)
    y_tests = _sample_test_points(problem, trace, rng, num_test_points)
    # always include the iterates themselves as feasible test points
    extra = [(int(k), trace.ys[int(k)]) for k in ks[: min(10, trace.K)]]
    pairs = list(zip(ks.tolist(), y_tests)) + extra

    worst = math.inf
    worst_loc = ""
    violations = []
    for k, y_test in pairs:
        slack = _slack(problem, x, trace, k, y_test, z_u[k], z_l[k])
        if slack < worst:
            worst = slack
            worst_loc = f"k={int(k)}"
        if slack < -TOLERANCES.slack_tol:
            violations.append((int(k), slack))
    if breaches:
        status = "hypothesis-breach"
    else:
        status = "pass" if worst >= -TOLERANCES.slack_tol else "fail"
    return CheckReport(
        check_name="descent_inequality", status=status,
        worst_margin=worst, location=worst_loc, violations=violations,
        details={"hypothesis_breaches": breaches,
                 "num_pairs": len(pairs)})


def check_nonexpansive(problem: BilevelProblem, x, trace: InnerTrace) -> CheckReport:
    """Audit |z^l_{k+1} - y_bar| <= |y_k - y_bar| along a 'bda' trace, for
    y_bar in the LL solution set at x (the attached representative)."""
    problem.require("y_star_of_x")
    x = as_vector(x, dim=problem.n, name="x")
    _, z_l = _auxiliary_points(problem, x, trace)
    y_bar = np.asarray(problem.y_star_of_x(x), dtype=float)
    worst = math.inf
    worst_loc = ""
    violations = []
    for k in range(trace.K):
        margin = (float(np.linalg.norm(trace.ys[k] - y_bar))
                  - float(np.linalg.norm(z_l[k] - y_bar)))
        if margin < worst:
            worst = margin
            worst_loc = f"k={k}"
        if margin < -TOLERANCES.nonexpansive_tol:
            violations.append((k, margin))
    status = "pass" if not violations else "fail"
    return CheckReport(check_name="nonexpansive", status=status,
                       worst_margin=worst, location=worst_loc,
                       violations=violations)


# ---------------------------------------------------------------------------
# hypergradient stationarity audit
# ---------------------------------------------------------------------------

def check_stationarity(problem: BilevelProblem, grid, sched: AggregationSchedule,
                       k_list) -> np.ndarray:
    """Sup over the grid of |unrolled hypergradient - analytic grad phi| for
    each horizon in k_list (forward propagation over the aggregated dynamics).

    The grid points are the rows of one ``grad_phi_of_x`` call and of one
    ``hypergrad_forward`` call on all horizons, each with the bits of its
    point and horizon run alone.  A clamped trajectory is a CapabilityError,
    an empty grid or k_list a ContractError: a sup over nothing passes."""
    problem.require("grad_phi_of_x")
    points = [as_vector(x, dim=problem.n, name="x") for x in grid]
    horizons = [int(K) for K in k_list]
    if not points or not horizons:
        raise ContractError("check_stationarity: empty grid or k_list")
    X = np.array(points)
    exact = problem.grad_phi_of_x(X)
    res = hypergrad_forward(problem, X, sorted(horizons), sched, mode="bda")
    if res.diagnostics["projection_hit"]:
        raise CapabilityError("projection became active along the trajectory")
    sup_errors = {K: max(float(np.linalg.norm(d)) for d in approx - exact)
                  for K, approx in zip(sorted(horizons), res.gradient)}
    return np.asarray([sup_errors[K] for K in horizons])
