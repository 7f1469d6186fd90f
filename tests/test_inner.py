import dataclasses

import numpy as np
import pytest

from bda.inner import (AggregationSchedule, aggregated_step,
                       descent_directions, plain_gd_step, run_inner)
from bda.numerics import ContractError, NumericalError
from bda.problems import (make_counterexample, make_lls_quadratic,
                          make_remark1)
from bda.verify import check_nonexpansive


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_alpha_rules():
    assert AggregationSchedule(alpha_rule="harmonic").alpha(0) == 1.0
    assert AggregationSchedule(alpha_rule="harmonic").alpha(9) == pytest.approx(0.1)
    scaled = AggregationSchedule(alpha_rule="scaled", alpha_scale=0.5)
    assert scaled.alpha(0) == 0.5          # first step uses the full scale
    assert scaled.alpha(4) == pytest.approx(0.1)
    assert AggregationSchedule(alpha_rule="constant", alpha_scale=0.3).alpha(7) == 0.3
    assert AggregationSchedule(alpha_rule="zero").alpha(0) == 0.0


def test_alpha_rule_symbolic_properties():
    assert AggregationSchedule(alpha_rule="harmonic").alpha_tends_to_zero
    assert AggregationSchedule(alpha_rule="harmonic").alpha_sum_diverges
    const = AggregationSchedule(alpha_rule="constant", alpha_scale=0.5)
    assert not const.alpha_tends_to_zero
    assert const.alpha_sum_diverges


def test_alpha_nonincreasing_and_in_range():
    for rule, scale in (("harmonic", 1.0), ("scaled", 0.5), ("constant", 0.7)):
        sched = AggregationSchedule(alpha_rule=rule, alpha_scale=scale)
        vals = [sched.alpha(k) for k in range(50)]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(vals[k + 1] <= vals[k] for k in range(49))


def test_beta_declining_rule_increment_bound():
    sched = AggregationSchedule(beta_rule="declining", beta_start=1.0,
                                beta_lower=0.4)
    vals = [sched.beta(k) for k in range(200)]
    assert all(sched.beta_lower <= v <= 1.0 for v in vals)
    for k in range(1, 200):
        assert abs(vals[k] - vals[k - 1]) <= sched.c_beta / (k + 1) ** 2 + 1e-15
    assert AggregationSchedule().c_beta == 0.0


def test_schedule_validation_errors():
    with pytest.raises(ContractError):
        AggregationSchedule(mu=1.0)
    with pytest.raises(ContractError):
        AggregationSchedule(s_l=0.0)
    with pytest.raises(ContractError):
        AggregationSchedule(alpha_rule="scaled", alpha_scale=1.5)
    with pytest.raises(ContractError):
        AggregationSchedule(beta_rule="declining", beta_start=0.5,
                            beta_lower=0.9)
    with pytest.raises(ContractError):
        AggregationSchedule(alpha_rule="mystery")


def test_schedule_admissibility_against_declared_constants():
    problem = make_remark1()  # L_F = L_f = 1
    AggregationSchedule(s_u=0.5, s_l=0.5).require_admissible(problem)
    with pytest.raises(ContractError):
        AggregationSchedule(s_u=0.5, s_l=1.5).require_admissible(problem)
    with pytest.raises(ContractError):
        AggregationSchedule(s_u=1.0, s_l=0.5).require_admissible(problem)


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

def test_descent_directions_hand_value():
    p = make_remark1()
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1)
    dF, df = descent_directions(p, [1.0], [0.0, 0.0], 0, sched)
    np.testing.assert_allclose(dF, [-0.1, -0.1])
    np.testing.assert_allclose(df, [-0.1, 0.0])


def test_descent_directions_zero_gradient_and_scaling():
    p = make_remark1()
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1)
    # grad_y F vanishes at y = (1, x)
    dF, _ = descent_directions(p, [0.7], [1.0, 0.7], 0, sched)
    np.testing.assert_array_equal(dF, [0.0, 0.0])
    doubled = AggregationSchedule(mu=0.1, s_u=0.2, s_l=0.1)
    dF1, _ = descent_directions(p, [1.0], [0.2, 0.4], 0, sched)
    dF2, _ = descent_directions(p, [1.0], [0.2, 0.4], 0, doubled)
    np.testing.assert_array_equal(dF2, 2.0 * dF1)


def test_aggregated_step_hand_value():
    p = make_remark1()
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1,
                                alpha_rule="scaled", alpha_scale=0.5)
    y1, _, _ = aggregated_step(p, np.array([1.0]), np.array([0.0, 0.0]), 0, sched)
    np.testing.assert_allclose(y1, [0.095, 0.005], rtol=0, atol=1e-15)


def test_aggregated_step_mu_zero_reduces_to_scaled_plain():
    p = make_remark1()
    sched = AggregationSchedule(mu=0.0, s_u=0.1, s_l=0.2,
                                beta_rule="constant", beta_start=0.5,
                                beta_lower=0.5)
    y = np.array([0.3, -0.4])
    y1, _, _ = aggregated_step(p, np.array([1.0]), y, 0, sched)
    expected = plain_gd_step(p, np.array([1.0]), y, 0.2 * 0.5)
    np.testing.assert_allclose(y1, expected, atol=1e-16)


def test_aggregated_step_alpha_zero_is_plain_projected_step():
    p = make_counterexample(2)
    sched = AggregationSchedule(mu=0.4, s_u=0.1, s_l=0.1, alpha_rule="zero")
    x = np.array([0.5, 0.5])
    y = np.array([0.2, -0.1, 0.0, 0.3])
    y1, _, _ = aggregated_step(p, x, y, 0, sched)
    # with alpha_k = 0 only the (1-mu) beta s_l grad_f term remains
    expected = p.region_y.project(y - (1 - 0.4) * 0.1 * np.asarray(p.grad_y_f(x, y)))
    np.testing.assert_allclose(y1, expected, atol=1e-16)


def test_convex_combination_identity_exact_when_interior():
    p = make_counterexample(3)
    sched = AggregationSchedule(mu=0.3, s_u=0.1, s_l=0.1)
    x = 0.5 * np.ones(3)
    _, trace = run_inner(p, x, 30, sched, mode="bda")
    assert not trace.proj_active.any()
    for k in range(trace.K):
        combo = (1 - sched.mu) * trace.z_l[k] + sched.mu * trace.z_u[k]
        np.testing.assert_array_equal(trace.ys[k + 1], combo)


def test_plain_gd_step_hand_value_and_fixed_point():
    p = make_counterexample(1)
    y1 = plain_gd_step(p, np.array([1.0]), np.zeros(2), 0.1)
    np.testing.assert_allclose(y1, [0.1, 0.0])
    # stationary point of f: y = x (free block anywhere interior)
    fixed = np.array([1.0, 0.2])
    np.testing.assert_array_equal(plain_gd_step(p, np.array([1.0]), fixed, 0.1),
                                  fixed)
    with pytest.raises(ContractError):
        plain_gd_step(p, np.array([1.0]), np.zeros(2), 0.0)


def test_plain_steps_reproduce_remark1_closed_form():
    p = make_remark1()
    x = np.array([1.0])
    y = np.zeros(2)
    for _ in range(20):
        y = plain_gd_step(p, x, y, 0.1)
    assert y[0] == pytest.approx(1.0 - 0.9 ** 20, abs=1e-15)
    assert y[1] == 0.0


# ---------------------------------------------------------------------------
# run_inner
# ---------------------------------------------------------------------------

def test_run_inner_zero_steps():
    p = make_remark1()
    sched = AggregationSchedule()
    y_K, trace = run_inner(p, [0.5], 0, sched, mode="bda")
    np.testing.assert_array_equal(y_K, [0.0, 0.0])
    assert trace.ys.shape == (1, 2)
    assert trace.K == 0


def test_run_inner_trace_shapes_and_determinism():
    p = make_counterexample(2)
    sched = AggregationSchedule(mu=0.2, s_u=0.1, s_l=0.1)
    x = np.array([0.7, -0.3])
    y1, t1 = run_inner(p, x, 25, sched, mode="bda")
    y2, t2 = run_inner(p, x, 25, sched, mode="bda")
    assert t1.ys.shape == (26, 4)
    assert t1.z_u.shape == (25, 4)
    np.testing.assert_array_equal(y1, y2)
    np.testing.assert_array_equal(t1.f_vals, t2.f_vals)


def test_run_inner_plain_matches_closed_form():
    p = make_remark1()
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1)
    y_K, trace = run_inner(p, [1.0], 20, sched, mode="plain")
    np.testing.assert_allclose(y_K, [1.0 - 0.9 ** 20, 0.0], atol=1e-15)
    assert trace.mode == "plain"


def test_run_inner_plain_step_evaluates_grad_y_f_once():
    base = make_counterexample(3)
    calls = []

    def counted(x, y):
        calls.append(1)
        return base.grad_y_f(x, y)

    p = dataclasses.replace(base, grad_y_f=counted)
    run_inner(p, 0.5 * np.ones(3), 7, AggregationSchedule(), mode="plain")
    assert len(calls) == 7


def test_run_inner_bda_ll_gap_monotone_after_transient():
    # the aggregated run drives the LL gap down monotonically once the large
    # early UL weights have decayed
    p = make_counterexample(50)
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1,
                                alpha_rule="scaled", alpha_scale=0.5)
    x = np.ones(50)
    _, trace = run_inner(p, x, 20, sched, mode="bda")
    gaps = trace.f_vals - p.f_star_of_x(x)
    for k in range(3, 20):
        assert gaps[k + 1] <= gaps[k] + 1e-15


def test_run_inner_custom_start_and_validation():
    p = make_counterexample(2)
    sched = AggregationSchedule()
    start = np.array([5.0, 5.0, -9.0, 0.0])
    _, trace = run_inner(p, np.zeros(2), 1, sched, mode="bda", y0=start)
    np.testing.assert_array_equal(trace.ys[0], [3.0, 3.0, -3.0, 0.0])
    with pytest.raises(ContractError):
        run_inner(p, np.zeros(2), -1, sched)
    with pytest.raises(ContractError):
        run_inner(p, np.zeros(2), 1, sched, mode="other")
    with pytest.raises(NumericalError):
        run_inner(p, np.zeros(2), 1, sched, y0=np.array([np.nan, 0, 0, 0]))


def test_iterates_stay_in_compact_box():
    p = make_counterexample(3, y_radius=2.0)
    sched = AggregationSchedule(mu=0.3, s_u=0.1, s_l=0.1)
    x = 1.5 * np.ones(3)
    _, trace = run_inner(p, x, 200, sched, mode="bda")
    assert np.all(np.abs(trace.ys) <= 2.0 + 1e-12)
    # auxiliaries stay inside a fixed ball around the feasible box
    assert np.all(np.abs(trace.z_l) <= 10.0)
    assert np.all(np.abs(trace.z_u) <= 10.0)


def test_aux_point_contraction_on_known_solution_sets():
    for problem, x in ((make_counterexample(4), 0.8 * np.ones(4)),
                       (make_remark1(), np.array([0.6]))):
        sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1)
        _, trace = run_inner(problem, x, 100, sched, mode="bda")
        report = check_nonexpansive(problem, x, trace)
        assert report.status == "pass"


def test_unbounded_region_run_stays_bounded_and_converges():
    # level-bounded LL keeps the aggregated run bounded without any box
    p = make_lls_quadratic(2, 3, seed=8)
    assert p.region_y.is_whole_space
    s = 0.5 / max(p.L_F, p.L_f)
    sched = AggregationSchedule(mu=0.2, s_u=s, s_l=s, alpha_rule="harmonic")
    x = np.array([0.5, -0.5])
    _, trace = run_inner(p, x, 400, sched, mode="bda")
    assert np.all(np.abs(trace.ys) < 50.0)
    gaps = trace.f_vals - p.f_star_of_x(x)
    assert gaps[-1] <= 1e-6
    assert gaps[-1] <= gaps[40]
