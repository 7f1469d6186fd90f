import dataclasses

import numpy as np
import pytest

from bda.inner import AggregationSchedule
from bda.numerics import BoxRegion, CapabilityError, ContractError
from bda.outer import SolverConfig, outer_step, solve
from bda.problems import (make_counterexample, make_lls_quadratic,
                          make_remark1, remark1_plain_descent_limit)

SCHED = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1)


def test_outer_step_examples():
    box = BoxRegion.cube(1, -100.0, 100.0)
    assert outer_step([0.5], [0.2], 1.0, box)[0] == pytest.approx(0.3)
    assert outer_step([99.9], [-1.0], 1.0, box)[0] == 100.0
    np.testing.assert_array_equal(outer_step([0.7], [0.0], 1.0, box), [0.7])


def test_solver_config_validation():
    with pytest.raises(ContractError):
        SolverConfig(method="bda", T_max=0)
    with pytest.raises(ContractError):
        SolverConfig(method="nope")
    with pytest.raises(ContractError):
        SolverConfig(method="trhg", K=10)          # needs truncate_at
    with pytest.raises(ContractError):
        SolverConfig(method="trhg", K=10, truncate_at=11)
    with pytest.raises(ContractError):
        SolverConfig(method="rhg", K=10, truncate_at=5)  # trhg only
    with pytest.raises(ContractError):
        SolverConfig(method="bda", sched=AggregationSchedule(mu=0.0))
    assert SolverConfig(method="obda", K=7).K == 1  # forced single step
    with pytest.raises(ContractError):
        SolverConfig(method="rhg", lam=-1.0)


def test_single_outer_iteration():
    p = make_remark1()
    cfg = SolverConfig(method="rhg", K=5, lam=0.5, T_max=1, sched=SCHED)
    record = solve(p, cfg)
    assert len(record.metrics["phiK"]) == 1
    assert record.xs.shape[0] == 2
    assert record.status == "max-iters"


def test_solve_deterministic():
    p = make_remark1()
    cfg = SolverConfig(method="rhg", K=10, lam=0.4, T_max=50, sched=SCHED)
    r1, r2 = solve(p, cfg), solve(p, cfg)
    for name in r1.metrics:
        np.testing.assert_array_equal(r1.metrics[name], r2.metrics[name])
    np.testing.assert_array_equal(r1.xs, r2.xs)


def test_capability_error_surfaces_before_iterating():
    p = dataclasses.replace(make_remark1(), hess_yy_f=None)
    cfg = SolverConfig(method="rhg", K=5, lam=0.1, T_max=10, sched=SCHED)
    with pytest.raises(CapabilityError):
        solve(p, cfg)


def test_schedule_admissibility_enforced_by_solve():
    p = make_remark1()  # L_f = 1
    bad = AggregationSchedule(mu=0.1, s_u=0.1, s_l=1.5)
    cfg = SolverConfig(method="rhg", K=5, lam=0.1, T_max=10, sched=bad)
    with pytest.raises(ContractError):
        solve(p, cfg)


def test_rhg_converges_to_plain_descent_limit():
    p = make_remark1()
    cfg = SolverConfig(method="rhg", K=20, lam=0.5, T_max=500, sched=SCHED,
                       stop_tol=1e-12)
    record = solve(p, cfg)
    _, x_K = remark1_plain_descent_limit(0.1, 20)
    assert record.status == "converged"
    assert abs(record.x_final[0] - x_K) <= 1e-6
    assert record.metrics["phi_gap"][-1] >= 0.0


def test_default_lambda_heuristic_runs():
    p = make_lls_quadratic(2, 3, seed=6)
    s = 0.4 / max(p.L_F, p.L_f)
    sched = AggregationSchedule(mu=0.2, s_u=s, s_l=s, alpha_rule="harmonic")
    cfg = SolverConfig(method="rhg", K=10, lam=None, T_max=40, sched=sched)
    record = solve(p, cfg)
    assert record.resolved_lambda > 0.0
    assert record.config["lambda"] == record.resolved_lambda


def test_metrics_nan_when_no_references():
    import bda.problems as problems
    cfg_hc = problems.HypercleanConfig(num_classes=2, feature_dim=2,
                                       n_train=8, n_val=8, n_test=8,
                                       corruption_fraction=0.25, seed=1)
    p = problems.make_hypercleaning(cfg_hc)
    sched = AggregationSchedule(mu=0.1, s_u=0.5 / p.L_F, s_l=0.5 / p.L_f,
                                alpha_rule="harmonic")
    cfg = SolverConfig(method="rhg", K=5, lam=0.5, T_max=3, sched=sched)
    record = solve(p, cfg)
    assert np.isnan(record.metrics["err_x"]).all()
    assert np.isfinite(record.metrics["phiK"]).all()


def test_obda_carries_inner_state_and_improves():
    p = make_lls_quadratic(2, 3, seed=12)
    s = 0.5 / max(p.L_F, p.L_f)
    sched = AggregationSchedule(mu=0.1, s_u=s, s_l=s, alpha_rule="harmonic")
    cfg = SolverConfig(method="obda", K=1, lam=0.2, T_max=400, sched=sched,
                       stop_tol=1e-12)
    record = solve(p, cfg)
    # the single-step surrogate gradient is biased, so exact recovery of the
    # optimum is not expected; warm-started steps must still close most of
    # the gap and track the LL solution
    start_err = np.linalg.norm(np.zeros(2) - p.x_opt)
    final_err = np.linalg.norm(record.x_final - p.x_opt)
    assert final_err <= 0.6 * start_err
    # the carried state trails the moving target by O(lam), not more
    y_track = np.linalg.norm(record.y_final - p.y_star_of_x(record.x_final))
    assert y_track <= 0.2


def test_ihg_solve_reaches_optimum_on_strongly_convex_ll():
    p = make_lls_quadratic(2, 3, seed=13)
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.9 / p.L_f)
    cfg = SolverConfig(method="ihg", K=200, lam=0.5, T_max=300, sched=sched,
                       stop_tol=1e-11)
    record = solve(p, cfg)
    assert np.linalg.norm(record.x_final - p.x_opt) <= 1e-4


@pytest.mark.slow
def test_final_error_decreases_with_inner_horizon():
    # longer inner horizons give a better surrogate, so the solved point
    # moves monotonically toward the true optimum (10% slack)
    p = make_counterexample(8)
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1,
                                alpha_rule="scaled", alpha_scale=0.5)
    errs = []
    for K in (5, 20, 80):
        cfg = SolverConfig(method="bda", K=K, lam=0.01, T_max=3000,
                           sched=sched, stop_tol=1e-10)
        record = solve(p, cfg)
        assert record.status == "converged"
        errs.append(record.metrics["err_x"][-1])
    assert errs[1] <= 1.1 * errs[0]
    assert errs[2] <= 1.1 * errs[1]


def test_numerical_failure_aborts_with_partial_record():
    base = make_remark1()

    def exploding_grad(x, y):
        g = np.asarray(base.grad_y_f(x, y), dtype=float)
        return g / 0.0 if x[0] < 0.3 else g   # blows up once x drifts left

    p = dataclasses.replace(base, grad_y_f=exploding_grad)
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1)
    cfg = SolverConfig(method="rhg", K=10, lam=2.0, T_max=50, sched=sched)
    with np.errstate(divide="ignore", invalid="ignore"):
        record = solve(p, cfg, x0=np.array([0.8]))
    assert record.status == "aborted"
    assert record.error_class == "NumericalError"
    assert "inner step" in record.error
    assert len(record.metrics["phiK"]) < 50   # partial history retained


def test_capability_failure_mid_run_aborts_with_partial_record():
    # CG meets the singular remark1 Hessian once x leaves 0
    cfg = SolverConfig(method="ihg", K=10, lam=0.5, T_max=20, sched=SCHED)
    record = solve(make_remark1(), cfg)
    assert record.status == "aborted"
    assert record.error_class == "CapabilityError"
    assert "not positive definite" in record.error
    assert len(record.metrics["phiK"]) == 1
    assert record.xs.shape == (2, 1)


def test_default_lambda_probe_failure_aborts_with_empty_record():
    # no lambda: the default-step probes already meet the singular Hessian
    cfg = SolverConfig(method="ihg", K=10, T_max=20, sched=SCHED)
    record = solve(make_remark1(), cfg)
    assert record.status == "aborted"
    assert "not positive definite" in record.error
    assert record.T == 0
    assert record.resolved_lambda is None
    assert len(record.metrics["phiK"]) == 0


def test_approximate_stationarity_transfers_to_true_gradient():
    # driving the surrogate gradient to zero leaves the true value-function
    # gradient small once the horizon is long
    p = make_lls_quadratic(2, 3, seed=14)
    s = 0.5 / max(p.L_F, p.L_f)
    sched = AggregationSchedule(mu=0.1, s_u=s, s_l=s, alpha_rule="harmonic")
    cfg = SolverConfig(method="bda", K=300, lam=None, T_max=500, sched=sched,
                       stop_tol=1e-12)
    record = solve(p, cfg)
    assert record.final_grad_norm <= 1e-6
    true_grad = np.linalg.norm(p.grad_phi_of_x(record.x_final))
    assert true_grad <= 1e-3
