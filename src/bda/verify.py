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
    if not np.all(np.isfinite(vals)):
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
                           sample_density: int = 200, x=None,
                           seed: int = 0) -> RateConstants:
    """Over-estimated suprema and the explicit constants of the complexity bound.

    D is the diameter of Y and M_F, M_f (and the smoothness constants when
    the problem does not declare them) are suprema over samples of X x Y, all
    inflated by 5% so the resulting constants remain valid over-estimates.
    The value-function term is evaluated at ``x`` when given, otherwise at
    the sampled supremum.
    """
    if not (problem.region_x.is_bounded and problem.region_y.is_bounded):
        raise CapabilityError("rate constants need compact X and Y")
    problem.require("F_lower_bound", "phi_star_of_x")
    rng = rng_stream(seed)
    infl = TOLERANCES.sup_inflation

    D = problem.region_y.diameter() * infl  # the exact box diagonal, inflated
    xs, ys = _sample_points(problem, rng, sample_density)
    gF = [np.linalg.norm(problem.grad_y_F(xi, yi)) for xi, yi in zip(xs, ys)]
    gf = [np.linalg.norm(problem.grad_y_f(xi, yi)) for xi, yi in zip(xs, ys)]
    M_F = _sampled_sup(gF, infl)
    M_f = _sampled_sup(gf, infl)

    def sup_hessian_norm(name):
        problem.require(name)
        product = getattr(problem, name)
        return _sampled_sup(
            [np.linalg.norm(product_rows(
                lambda v: product(xi, yi, v), problem.m), 2)
             for xi, yi in zip(xs, ys)], infl)

    L_F = problem.L_F if problem.L_F is not None \
        else sup_hessian_norm("hess_yy_F")
    L_f = problem.L_f if problem.L_f is not None \
        else sup_hessian_norm("hess_yy_f")

    breaches = sched.breaches(L_F, L_f)
    if breaches:
        raise ContractError("rate constants: " + "; ".join(breaches))

    M0 = problem.F_lower_bound
    if x is not None:
        phi_x = float(problem.phi_star_of_x(as_vector(x, dim=problem.n)))
    else:
        phi_x = _sampled_sup([problem.phi_star_of_x(xi) for xi in xs], infl)

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
                     k_max: int, constants: RateConstants | None = None,
                     sample_density: int = 200, seed: int = 0,
                     y0=None) -> CheckReport:
    """Evaluate both displayed complexity inequalities for k in [2, k_max].

    The distance inequality bounds |y_k - z^l_{k+1}|^2 and the value
    inequality bounds f(z^l_{k+1}) - min_y f, each by constants times
    (1 + ln k) / k^{1/4}.  Violations are data, not errors; they are listed
    with their k and margin.
    """
    if sched.alpha_rule != "harmonic":
        raise ContractError("rate bound requires the harmonic alpha rule")
    if k_max < 2:
        raise ContractError("k_max must be >= 2")
    problem.require("f_star_of_x")
    x = as_vector(x, dim=problem.n, name="x")
    rc = constants if constants is not None else compute_rate_constants(
        problem, sched, sample_density=sample_density, x=x, seed=seed)

    # need z^l_{k+1} up to k = k_max, i.e. k_max + 1 inner steps
    _, trace = run_inner(problem, x, k_max + 1, sched, mode="bda", y0=y0)
    f_star = float(problem.f_star_of_x(x))
    total = 2.0 * rc.C2 + rc.C3
    violations = []
    worst = math.inf
    for k in range(2, k_max + 1):
        decay = (1.0 + math.log(k)) / k ** 0.25
        lhs_dist = float(np.dot(trace.ys[k] - trace.z_l[k],
                                trace.ys[k] - trace.z_l[k]))
        rhs_dist = total / rc.beta_lower ** 2 * decay
        lhs_gap = problem.f(x, trace.z_l[k]) - f_star
        rhs_gap = rc.D / (rc.beta_lower ** 2 * rc.s_l) \
            * math.sqrt(total) * math.sqrt(decay)
        for name, lhs, rhs in (("distance", lhs_dist, rhs_dist),
                               ("value_gap", lhs_gap, rhs_gap)):
            margin = rhs - lhs
            worst = min(worst, margin)
            if margin < 0:
                violations.append((k, name, margin))
    status = "pass" if not violations else "fail"
    return CheckReport(
        check_name="rate_bound", status=status, worst_margin=worst,
        location=f"x={np.array2string(x, precision=3)}, k_max={k_max}",
        violations=violations, details={"constants": rc})


# ---------------------------------------------------------------------------
# descent inequality and nonexpansiveness audits
# ---------------------------------------------------------------------------

def descent_slack(problem: BilevelProblem, x, trace: InnerTrace,
                  sched: AggregationSchedule, k: int, y_test) -> float:
    """Slack of the aggregated-step descent inequality at step k and test
    point y_test (nonnegative when the inequality holds)."""
    problem.require("L_F", "L_f")
    x = as_vector(x, dim=problem.n, name="x")
    y_test = as_vector(y_test, dim=problem.m, name="y_test")
    if not (0 <= k < trace.K):
        raise ContractError("k outside trace range")
    mu, s_u, s_l = sched.mu, sched.s_u, sched.s_l
    a_k, b_k = trace.alphas[k], trace.betas[k]
    y_k, y_next = trace.ys[k], trace.ys[k + 1]
    z_u, z_l = trace.z_u[k], trace.z_l[k]
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


def _sample_test_points(problem: BilevelProblem, trace: InnerTrace,
                        rng, count: int) -> np.ndarray:
    if problem.region_y.is_bounded:
        return problem.region_y.sample(rng, count)
    center = trace.ys.mean(axis=0)
    scale = 1.0 + float(np.abs(trace.ys).max())
    return center + scale * rng.standard_normal((count, problem.m))


def check_descent_inequality(problem: BilevelProblem, x, trace: InnerTrace,
                             sched: AggregationSchedule,
                             num_test_points: int = 100,
                             seed: int = 0) -> CheckReport:
    """Minimum descent-inequality slack over random (k, y_test) pairs.

    A schedule that breaks the step-size hypotheses is reported as a
    hypothesis breach up front; slacks are still evaluated for diagnosis.
    """
    problem.require("L_F", "L_f")
    breaches = sched.breaches(problem.L_F, problem.L_f)
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
        slack = descent_slack(problem, x, trace, sched, int(k), y_test)
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
    """Audit |z^l_{k+1} - y_bar| <= |y_k - y_bar| for y_bar in the LL
    solution set at x (the attached representative)."""
    problem.require("y_star_of_x")
    x = as_vector(x, dim=problem.n, name="x")
    y_bar = np.asarray(problem.y_star_of_x(x), dtype=float)
    worst = math.inf
    worst_loc = ""
    violations = []
    for k in range(trace.K):
        margin = (float(np.linalg.norm(trace.ys[k] - y_bar))
                  - float(np.linalg.norm(trace.z_l[k] - y_bar)))
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
    each horizon in k_list (forward propagation over the aggregated dynamics)."""
    problem.require("grad_phi_of_x")
    sup_errors = []
    for K in k_list:
        worst = 0.0
        for x in grid:
            x = as_vector(x, dim=problem.n, name="x")
            approx = hypergrad_forward(problem, x, int(K), sched,
                                       mode="bda").gradient
            exact = np.asarray(problem.grad_phi_of_x(x), dtype=float)
            worst = max(worst, float(np.linalg.norm(approx - exact)))
        sup_errors.append(worst)
    return np.asarray(sup_errors)
