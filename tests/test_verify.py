import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bda.hypergrad import hypergrad_forward, hypergrad_reverse
from bda.inner import AggregationSchedule, run_inner
from bda.numerics import BoxRegion, CapabilityError, ContractError, rng_stream
from bda.problems import (lls_quadratic, make_counterexample,
                          make_lls_quadratic, make_remark1, product_rows)
from bda.verify import (TOLERANCES, _auxiliary_points, _sample_points,
                        _sampled_sup, check_descent_inequality,
                        check_nonexpansive, check_rate_bound,
                        check_stationarity,
                        compute_rate_constants, corrupted_constants,
                        descent_slack, fd_gradient, grid_argmin,
                        rhg_limit_oracle_counterexample)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_fd_gradient_quadratic_exactness():
    g = fd_gradient(lambda v: 0.5 * float(v[0] ** 2), np.array([3.0]), 1e-5)
    assert g[0] == pytest.approx(3.0, abs=1e-9)


def test_fd_gradient_constant_map():
    g = fd_gradient(lambda v: 7.0, np.array([1.0, -2.0]), 1e-6)
    np.testing.assert_array_equal(g, [0.0, 0.0])


def test_fd_gradient_cross_checks_reverse_mode():
    p = make_remark1()
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1)

    def phi_K(xv):
        y_K, _ = run_inner(p, np.atleast_1d(xv), 20, sched, mode="plain")
        return p.F(np.atleast_1d(xv), y_K)

    x = np.array([0.7])
    fd = fd_gradient(phi_K, x, 1e-6 * (1 + abs(x[0])))
    rev = hypergrad_reverse(p, x, 20, sched, mode="plain").gradient
    assert abs(fd[0] - rev[0]) / abs(fd[0]) <= 1e-5


def test_fd_gradient_rejects_bad_eps():
    with pytest.raises(ContractError):
        fd_gradient(lambda v: 0.0, np.array([1.0]), 0.0)


# ---------------------------------------------------------------------------
# grid minimization
# ---------------------------------------------------------------------------

def test_grid_argmin_parabola():
    x, v = grid_argmin(lambda t: (t - 1.0) ** 2, (-2.0, 2.0), 401)
    assert x == 1.0 and v == 0.0


def test_grid_argmin_monotone_returns_endpoint():
    x, _ = grid_argmin(lambda t: t, (-1.0, 3.0), 101)
    assert x == -1.0
    x, _ = grid_argmin(lambda t: -t, (-1.0, 3.0), 101)
    assert x == 3.0


def test_grid_argmin_tie_takes_smallest_x():
    x, _ = grid_argmin(lambda t: (abs(t) - 1.0) ** 2, (-2.0, 2.0), 401)
    assert x == -1.0


def test_grid_argmin_vectorized_matches_scalar():
    xs, vs = grid_argmin(lambda t: np.cos(t), (0.0, 6.0), 601, vectorized=True)
    xp, vp = grid_argmin(lambda t: math.cos(t), (0.0, 6.0), 601)
    assert xs == xp and vs == vp


# ---------------------------------------------------------------------------
# rate constants
# ---------------------------------------------------------------------------

def _rate_setup(n=2, y_radius=1.0, x_point=0.5):
    problem = make_counterexample(n, y_radius=y_radius)
    probe = AggregationSchedule(mu=0.1, s_u=1e-9, s_l=0.1,
                                alpha_rule="harmonic")
    x = x_point * np.ones(n)
    rc0 = compute_rate_constants(problem, probe, x=x)
    sched = AggregationSchedule(mu=0.1, s_u=0.5 / rc0.L_F, s_l=0.1,
                                alpha_rule="harmonic")
    return problem, sched, x


def test_rate_constants_c0_with_constant_beta():
    _, sched, x = _rate_setup()
    problem = make_counterexample(2, y_radius=1.0)
    rc = compute_rate_constants(problem, sched, x=x)
    assert rc.C0 == 3.0   # max(2 + 0, 3) with c_beta = 0
    assert rc.c_beta == 0.0


def test_rate_constants_diameter_estimate_reaches_box_diagonal():
    problem, sched, x = _rate_setup(n=1, y_radius=1.0)  # Y = [-1, 1]^2
    rc = compute_rate_constants(problem, sched, x=x)
    true_d = 2.0 * math.sqrt(2.0)
    assert rc.D >= 0.95 * true_d
    assert rc.D >= true_d          # inflated estimate stays an upper bound
    assert rc.D <= 1.1 * true_d


def test_rate_constants_monotone_in_ul_step():
    problem, sched, x = _rate_setup()
    smaller = dataclasses.replace(sched, s_u=0.25 * sched.s_u)
    rc1 = compute_rate_constants(problem, smaller, x=x)
    rc2 = compute_rate_constants(problem, sched, x=x)
    assert rc2.C3 >= rc1.C3


@pytest.mark.parametrize("kind", ["counterexample", "lls"])
def test_rate_constants_equal_the_per_sample_loops(kind):
    # the sups before they took one row call per oracle: one 1-D call, norm
    # and spectral norm per sample.  The counterexample declares no L_F, so
    # its hess_yy_F sup is sampled too
    if kind == "counterexample":
        problem = make_counterexample(5)
    else:
        problem = dataclasses.replace(make_lls_quadratic(2, 3, seed=4),
                                      region_y=BoxRegion.cube(3, -2.0, 2.0))
    sched = AggregationSchedule(mu=0.1, s_u=1e-9, s_l=0.5 / problem.L_f)
    rc = compute_rate_constants(problem, sched, x=np.ones(problem.n))
    xs, ys = _sample_points(problem, rng_stream(0), 200)
    infl = TOLERANCES.sup_inflation
    M_F = _sampled_sup([np.linalg.norm(problem.grad_y_F(x, y))
                        for x, y in zip(xs, ys)], infl)
    M_f = _sampled_sup([np.linalg.norm(problem.grad_y_f(x, y))
                        for x, y in zip(xs, ys)], infl)
    L_F = problem.L_F if problem.L_F is not None else _sampled_sup(
        [np.linalg.norm(product_rows(
            lambda v: problem.hess_yy_F(x, y, v), problem.m), 2)
         for x, y in zip(xs, ys)], infl)
    assert (rc.M_F, rc.M_f, rc.L_F) == (M_F, M_f, L_F)


def test_rate_constants_need_compact_regions():
    p = make_lls_quadratic(1, 2, seed=0)   # unbounded Y
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1)
    with pytest.raises(CapabilityError):
        compute_rate_constants(p, sched, x=np.zeros(1))


def test_rate_bound_trivial_gap_at_stationary_x():
    # at x = 0 the inner run never moves: both inequalities hold with the
    # left side identically zero
    problem, sched, _ = _rate_setup()
    x0 = np.zeros(2)
    report = check_rate_bound(problem, x0, sched, k_max=50)
    assert report.status == "pass"
    assert not report.violations


def test_rate_bound_requires_harmonic_alpha():
    problem, sched, x = _rate_setup()
    bad = dataclasses.replace(sched, alpha_rule="harmonic", alpha_scale=0.5)
    with pytest.raises(ContractError):
        check_rate_bound(problem, x, bad, k_max=10)


def test_rate_bound_negative_control_fires():
    problem, sched, x = _rate_setup(n=2, y_radius=2.0, x_point=1.5)
    rc = compute_rate_constants(problem, sched, x=x)
    good = check_rate_bound(problem, x, sched, k_max=100, constants=rc)
    assert good.status == "pass"
    bad = check_rate_bound(problem, x, sched, k_max=100,
                           constants=corrupted_constants(rc))
    assert bad.status == "fail"
    assert bad.violations


# ---------------------------------------------------------------------------
# descent inequality
# ---------------------------------------------------------------------------

def _descent_setup(problem, s_l_factor=0.5, K=40):
    sched = AggregationSchedule(mu=0.3, s_u=0.5 / problem.L_F,
                                s_l=s_l_factor / problem.L_f,
                                alpha_rule="harmonic")
    x = 0.25 * np.ones(problem.n)
    _, trace = run_inner(problem, x, K, sched, mode="bda")
    return sched, x, trace


def test_descent_slack_nonnegative_at_iterates():
    p = make_lls_quadratic(2, 3, seed=5)
    sched, x, trace = _descent_setup(p)
    for k in (0, 5, 20):
        assert descent_slack(p, x, trace, k, trace.ys[k]) >= -1e-9


def test_descent_inequality_random_triples():
    for problem in (make_remark1(), make_lls_quadratic(2, 3, seed=5)):
        sched, x, trace = _descent_setup(problem)
        report = check_descent_inequality(problem, x, trace,
                                          num_test_points=100, seed=11)
        assert report.status == "pass"
        assert report.worst_margin >= -1e-9


def test_descent_inequality_flags_hypothesis_breach():
    p = make_remark1()
    sched, x, trace = _descent_setup(p, s_l_factor=2.0)
    report = check_descent_inequality(p, x, trace, num_test_points=30,
                                      seed=1)
    assert report.status == "hypothesis-breach"
    assert any("s_l" in b for b in report.details["hypothesis_breaches"])


def test_audits_refuse_vacuous_input():
    p = make_remark1()
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1)
    x = np.array([0.6])
    _, empty = run_inner(p, x, 0, sched, mode="bda")
    # a K=0 trace passed with worst margin inf, or leaked numpy's ValueError
    with pytest.raises(ContractError, match="at least one step"):
        check_nonexpansive(p, x, empty)
    with pytest.raises(ContractError, match="at least one step"):
        check_descent_inequality(p, x, empty)
    _, trace = run_inner(p, x, 5, sched, mode="bda")
    for count in (0, -1):  # a minimum over no pairs passed
        with pytest.raises(ContractError, match="num_test_points"):
            check_descent_inequality(p, x, trace, num_test_points=count)
    # a run from rows of x is not a trace of the one x the audit takes
    _, rows = run_inner(p, np.stack([x, x]), 5, sched, mode="bda")
    with pytest.raises(ContractError, match="one x"):
        check_nonexpansive(p, x, rows)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(kind=st.sampled_from(["lls", "counterexample"]), n=st.integers(1, 3),
       seed=st.integers(0, 10_000), K=st.integers(1, 10),
       alpha=st.sampled_from([("harmonic", 1.0), ("harmonic", 0.6),
                              ("constant", 0.3)]),
       beta=st.sampled_from([(1.0, 1.0), (0.9, 0.3)]))
def test_derived_auxiliary_points_are_the_steps_own(kind, n, seed, K, alpha,
                                                    beta):
    # both problems sit in a box tight enough to clamp some steps
    if kind == "lls":
        q = dataclasses.replace(make_lls_quadratic(n, n + 2, seed=seed),
                                region_y=BoxRegion.cube(n + 2, -0.3, 0.3))
        s = 0.5 / max(q.L_F, q.L_f)
    else:
        q, s = make_counterexample(n, y_radius=0.6), 0.1
    sched = AggregationSchedule(mu=0.3, s_u=s, s_l=s, alpha_rule=alpha[0],
                                alpha_scale=alpha[1], beta_start=beta[0],
                                beta_lower=beta[1])
    rng = rng_stream(seed)
    x = q.region_x.project(1.5 * rng.standard_normal(n))
    _, trace = run_inner(q, x, K, sched, mode="bda",
                         y0=rng.standard_normal(q.m))
    z_u, z_l = _auxiliary_points(q, x, trace)
    assert z_u.shape == z_l.shape == (K, q.m)
    for k in range(K):
        y = trace.ys[k]
        own_u = y - sched.alpha(k) * (sched.s_u * np.asarray(q.grad_y_F(x, y)))
        own_l = y - sched.beta(k) * (sched.s_l * np.asarray(q.grad_y_f(x, y)))
        assert z_u[k].tobytes() == own_u.tobytes()
        assert z_l[k].tobytes() == own_l.tobytes()
        # the step's own combination of them, clamped, is the next iterate
        pre = sched.mu * z_u[k] + (1.0 - sched.mu) * z_l[k]
        assert q.region_y.clamp(pre).tobytes() == trace.ys[k + 1].tobytes()
        assert (trace.proj_active[k] == (trace.ys[k + 1] != pre)).all()


def test_check_report_json_shape():
    p = make_lls_quadratic(2, 3, seed=5)
    sched, x, trace = _descent_setup(p)
    report = check_descent_inequality(p, x, trace, 10, seed=0)
    d = report.to_json_dict()
    assert set(d) == {"check_name", "status", "worst_margin", "location"}


# ---------------------------------------------------------------------------
# stationarity audit
# ---------------------------------------------------------------------------

def test_stationarity_zero_horizon_value():
    p = make_lls_quadratic(1, 2, seed=3)
    sched = AggregationSchedule(mu=0.1, s_u=0.2, s_l=0.2)
    grid = [np.array([t]) for t in (-1.0, 0.0, 1.0)]
    errs = check_stationarity(p, grid, sched, [0])
    y0 = np.zeros(2)
    expected = max(np.linalg.norm(p.grad_x_F(x, y0) - p.grad_phi_of_x(x))
                   for x in grid)
    assert errs[0] == pytest.approx(expected, rel=1e-12)


def test_stationarity_decoupled_problem_zero_error():
    p = lls_quadratic(A=np.eye(2), B=np.zeros((2, 1)), b=[1.0, 2.0], rho=0.3)
    sched = AggregationSchedule(mu=0.1, s_u=0.2, s_l=0.2, alpha_rule="harmonic")
    grid = [np.array([t]) for t in (-1.0, 0.5)]
    errs = check_stationarity(p, grid, sched, [0, 3, 10])
    np.testing.assert_allclose(errs, 0.0, atol=1e-14)


def test_stationarity_errors_decrease():
    p = make_lls_quadratic(1, 2, seed=3)
    s = 0.5 / max(p.L_F, p.L_f)
    sched = AggregationSchedule(mu=0.1, s_u=s, s_l=s, alpha_rule="harmonic")
    grid = [np.array([t]) for t in np.linspace(-2, 2, 5)]
    errs = check_stationarity(p, grid, sched, [10, 100, 400])
    assert errs[2] < errs[1] < errs[0]


def _criterion7():
    # the problem, schedule and grid of acceptance criterion 7
    p = make_lls_quadratic(1, 2, seed=3)
    s = 0.5 / max(p.L_F, p.L_f)
    sched = AggregationSchedule(mu=0.1, s_u=s, s_l=s, alpha_rule="harmonic")
    return p, sched, [np.array([t]) for t in np.linspace(-2.0, 2.0, 11)]


def test_stationarity_rows_equal_the_per_point_loop():
    # the audit before its grid ran as rows: one forward call per point
    remark1 = (make_remark1(), AggregationSchedule(mu=0.1, s_u=0.5, s_l=0.5),
               [np.array([t]) for t in np.linspace(-2.0, 2.0, 5)])
    for p, sched, grid in (_criterion7(), remark1):
        k_list = [10, 1000]
        expected = [max(float(np.linalg.norm(
            hypergrad_forward(p, x, K, sched, mode="bda").gradient
            - p.grad_phi_of_x(x))) for x in grid) for K in k_list]
        errs = check_stationarity(p, grid, sched, k_list)
        assert errs.tobytes() == np.array(expected).tobytes(), p.name


def test_stationarity_rejects_an_empty_grid_or_horizon_list():
    # a sup over no point or no horizon would pass the suite's bound
    p, sched, grid = _criterion7()
    with pytest.raises(ContractError, match="empty"):
        check_stationarity(p, [], sched, [10, 1000])
    with pytest.raises(ContractError, match="empty"):
        check_stationarity(p, grid, sched, [])


# ---------------------------------------------------------------------------
# plain-descent limit oracle
# ---------------------------------------------------------------------------

def test_oracle_root_satisfies_first_order_condition():
    for s_l, K in ((0.1, 20), (0.3, 5), (0.7, 50)):
        root = rhg_limit_oracle_counterexample(s_l, K)
        g = root.x_hat ** 3 + root.a_K * (root.a_K * root.x_hat - 1.0) ** 3
        assert abs(g) <= 1e-12
        assert root.residual <= 1e-12
        assert root.x_hat < 1.0


def test_oracle_small_contraction_limit():
    root = rhg_limit_oracle_counterexample(1e-4, 1)
    assert root.x_hat <= 0.05   # vanishing a_K drags the root to zero


def test_oracle_input_validation():
    with pytest.raises(ContractError):
        rhg_limit_oracle_counterexample(1.0, 5)
    with pytest.raises(ContractError):
        rhg_limit_oracle_counterexample(0.5, 0)


def test_contradiction_bound_on_unit_interval():
    a = np.linspace(0.0, 1.0, 10_000)
    vals = 1.0 + (a - 1.0) ** 3 * a
    assert vals.min() >= 0.75


def test_nonexpansive_audit_catches_forged_oracle():
    p = make_remark1()
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1)
    x = np.array([0.6])
    _, trace = run_inner(p, x, 20, sched, mode="bda")
    # a LL gradient 30 times too large makes the step s_l grad_y f
    # overshoot the solution set: z_l lands twice as far from it as y_k
    forged = dataclasses.replace(
        p, grad_y_f=lambda x, y: 30.0 * np.asarray(p.grad_y_f(x, y)))
    assert check_nonexpansive(p, x, trace).status == "pass"
    report = check_nonexpansive(forged, x, trace)
    assert report.status == "fail"
