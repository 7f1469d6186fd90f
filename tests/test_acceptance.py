"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured quantities (run with -s to see all lines)."""
import filecmp
import json

import numpy as np

from bda.harness import (default_hyperclean_solver, hyperclean_baseline,
                         hyperclean_metrics, load_config, run_experiment)
from bda.hypergrad import (hypergrad_forward, hypergrad_implicit,
                           hypergrad_onestage, hypergrad_reverse)
from bda.inner import AggregationSchedule, run_inner
from bda.outer import SolverConfig, solve
from bda.problems import (HypercleanConfig, make_counterexample,
                          make_hypercleaning, make_lls_quadratic,
                          make_remark1, remark1_plain_descent_limit)
from bda.verify import (check_descent_inequality, check_nonexpansive,
                        check_rate_bound, check_stationarity,
                        compute_rate_constants, corrupted_constants,
                        fd_gradient, grid_argmin,
                        rhg_limit_oracle_counterexample)

SCHED_81 = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1,
                               alpha_rule="harmonic", alpha_scale=0.5)


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_remark1_closed_form():
    problem = make_remark1()
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1)
    cfg = SolverConfig(method="rhg", K=20, lam=0.5, T_max=2000, sched=sched,
                       stop_tol=1e-12)
    record = solve(problem, cfg)
    a_K, x_K = remark1_plain_descent_limit(0.1, 20)
    solver_err = abs(record.x_final[0] - x_K)

    def phi_K_grid(xs):
        # independent vectorized unrolling of the plain recursion
        y1 = np.zeros_like(xs)
        for _ in range(20):
            y1 = y1 - 0.1 * (y1 - xs)
        return 0.5 * xs ** 2 + 0.5 * (y1 - 1.0) ** 2

    spacing = 200.0 / (2_000_000 - 1)
    x_grid, _ = grid_argmin(phi_K_grid, (-100.0, 100.0), 2_000_000,
                            vectorized=True)
    grid_err = abs(x_grid - x_K)
    ok = solver_err <= 1e-3 and grid_err <= spacing and x_K <= 0.5
    _report(1, "remark1-closed-form", ok,
            f"|x-x_K|={solver_err:.2e}, grid dev={grid_err:.2e} "
            f"(spacing {spacing:.1e}), x_K={x_K:.6f}<=0.5")


def test_criterion_02_counterexample_separation():
    n = 50
    problem = make_counterexample(n)
    bda_cfg = SolverConfig(method="bda", K=20, lam=0.01, T_max=1000,
                           sched=SCHED_81, stop_tol=1e-12)
    bda_rec = solve(problem, bda_cfg)
    bda_err = float(np.linalg.norm(bda_rec.x_final - np.ones(n))) / np.sqrt(n)

    rhg_cfg = SolverConfig(method="rhg", K=20, lam=0.003, T_max=2000,
                           sched=SCHED_81, stop_tol=1e-12)
    rhg_rec = solve(problem, rhg_cfg)
    oracle = rhg_limit_oracle_counterexample(0.1, 20)
    rhg_dev = float(np.abs(rhg_rec.x_final - oracle.x_hat).max())

    a = np.linspace(0.0, 1.0, 10_000)
    bound_ok = (1.0 + (a - 1.0) ** 3 * a).min() >= 0.75

    ok = bda_err <= 0.1 and rhg_dev <= 1e-3 and oracle.x_hat < 0.9 and bound_ok
    _report(2, "counterexample-separation", ok,
            f"bda |x-e|/sqrt(n)={bda_err:.4f}<=0.1, rhg dev={rhg_dev:.1e}, "
            f"x_hat={oracle.x_hat:.4f}<0.9, bound>=3/4 {bound_ok}")


def test_criterion_03_hypergradient_cross_validation():
    worst_pair = worst_fd = 0.0
    cases = []
    q = make_lls_quadratic(2, 3, seed=7)
    s = 0.4 / max(q.L_F, q.L_f)
    cases.append((q, AggregationSchedule(mu=0.2, s_u=s, s_l=s,
                                         alpha_rule="harmonic"),
                  "bda", np.array([0.4, -0.8])))
    cases.append((make_remark1(),
                  AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1),
                  "plain", np.array([0.7])))
    for problem, sched, mode, x in cases:
        rev = hypergrad_reverse(problem, x, 10, sched, mode=mode).gradient
        fwd = hypergrad_forward(problem, x, 10, sched, mode=mode).gradient
        worst_pair = max(worst_pair,
                         np.linalg.norm(rev - fwd) / np.linalg.norm(rev))

        def phi_K(xv, problem=problem, sched=sched, mode=mode):
            xv = np.atleast_1d(np.asarray(xv, dtype=float))
            y_K, _ = run_inner(problem, xv, 10, sched, mode=mode)
            return problem.F(xv, y_K)

        fd = fd_gradient(phi_K, x, eps=1e-6 * (1 + np.linalg.norm(x)))
        for est in (rev, fwd):
            worst_fd = max(worst_fd,
                           np.linalg.norm(est - fd) / np.linalg.norm(fd))

    sched_l = AggregationSchedule(mu=0.1, s_u=s, s_l=0.9 / q.L_f)
    x = np.array([0.6, -0.2])
    g500 = hypergrad_reverse(q, x, 500, sched_l, mode="plain").gradient
    y500, _ = run_inner(q, x, 500, sched_l, mode="plain")
    gimp = hypergrad_implicit(q, x, y500).gradient
    imp_rel = np.linalg.norm(g500 - gimp) / np.linalg.norm(gimp)

    ok = worst_pair <= 1e-8 and worst_fd <= 1e-5 and imp_rel <= 1e-4
    _report(3, "hypergradient-cross-validation", ok,
            f"rev/fwd={worst_pair:.1e}<=1e-8, vs fd={worst_fd:.1e}<=1e-5, "
            f"rev500/implicit={imp_rel:.1e}<=1e-4")


def test_criterion_04_descent_inequality_audit():
    worst = np.inf
    for problem in (make_remark1(), make_lls_quadratic(2, 3, seed=5)):
        sched = AggregationSchedule(mu=0.3, s_u=0.5 / problem.L_F,
                                    s_l=0.5 / problem.L_f,
                                    alpha_rule="harmonic")
        x = 0.25 * np.ones(problem.n)
        _, trace = run_inner(problem, x, 60, sched, mode="bda")
        report = check_descent_inequality(problem, x, trace,
                                          num_test_points=100, seed=11)
        worst = min(worst, report.worst_margin)
        assert report.status == "pass"

    bad_problem = make_remark1()
    bad = AggregationSchedule(mu=0.3, s_u=0.5, s_l=2.0 / bad_problem.L_f,
                              alpha_rule="harmonic")
    _, trace = run_inner(bad_problem, np.array([0.25]), 60, bad, mode="bda")
    neg = check_descent_inequality(bad_problem, np.array([0.25]), trace,
                                   num_test_points=50, seed=1)
    ok = worst >= -1e-9 and neg.status == "hypothesis-breach"
    _report(4, "descent-inequality-audit", ok,
            f"min slack={worst:.2e}>=-1e-9, negative control: {neg.status}")


def test_criterion_05_aux_point_nonexpansiveness():
    worst = np.inf
    for problem, x in ((make_counterexample(4), 0.8 * np.ones(4)),
                       (make_counterexample(4), 1.6 * np.ones(4)),
                       (make_remark1(), np.array([0.6]))):
        sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1,
                                    alpha_rule="harmonic")
        _, trace = run_inner(problem, x, 150, sched, mode="bda")
        report = check_nonexpansive(problem, x, trace)
        worst = min(worst, report.worst_margin)
        assert report.status == "pass"
    ok = worst >= -1e-10
    _report(5, "aux-point-nonexpansiveness", ok,
            f"min margin={worst:.2e}>=-1e-10 over all inner iterations")


def test_criterion_06_rate_bound():
    problem = make_counterexample(5)
    probe = AggregationSchedule(mu=0.1, s_u=1e-9, s_l=0.1,
                                alpha_rule="harmonic")
    x = 1.5 * np.ones(5)
    rc_probe = compute_rate_constants(problem, probe, x=x)
    sched = AggregationSchedule(mu=0.1, s_u=0.5 / rc_probe.L_F, s_l=0.1,
                                alpha_rule="harmonic")
    constants = compute_rate_constants(problem, sched, x=x)
    good = check_rate_bound(problem, x, sched, k_max=500, constants=constants)
    neg = check_rate_bound(problem, x, sched, k_max=500,
                           constants=corrupted_constants(constants))
    ok = good.status == "pass" and not good.violations and len(neg.violations) > 0
    _report(6, "rate-bound", ok,
            f"violations: honest={len(good.violations)} (worst margin "
            f"{good.worst_margin:.3g}), corrupted={len(neg.violations)}")


def test_criterion_07_stationarity():
    problem = make_lls_quadratic(1, 2, seed=3)
    s = 0.5 / max(problem.L_F, problem.L_f)
    sched = AggregationSchedule(mu=0.1, s_u=s, s_l=s, alpha_rule="harmonic")
    grid = [np.array([t]) for t in np.linspace(-2.0, 2.0, 11)]
    errs = check_stationarity(problem, grid, sched, k_list=[10, 1000])
    ok = errs[1] <= 1e-3 and errs[1] <= errs[0]
    _report(7, "stationarity", ok,
            f"sup err k=1000: {errs[1]:.2e}<=1e-3 and <= k=10 value {errs[0]:.2e}")


def test_criterion_08_convergence_properties():
    n = 5
    problem = make_counterexample(n)
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.05,
                                alpha_rule="harmonic")
    samples = [1.7 * np.ones(n), 0.5 * np.ones(n),
               np.array([1.5, 0.8, 1.2, 0.6, 1.4])]
    worst_phi = worst_gap = 0.0
    for x in samples:
        # start the free LL block at its optimistic value so the audited
        # quantity isolates the aggregated dynamics of the coupled block
        y0 = np.concatenate([np.zeros(n), x])
        phi = problem.phi_star_of_x(x)
        f_star = problem.f_star_of_x(x)
        vals = {}
        for K in (20, 200):
            y_K, _ = run_inner(problem, x, K, sched, mode="bda", y0=y0)
            vals[K] = (abs(problem.F(x, y_K) - phi),
                       problem.f(x, y_K) - f_star)
        worst_phi = max(worst_phi, vals[200][0] / vals[20][0])
        worst_gap = max(worst_gap, vals[200][1] / vals[20][1])
    ok = worst_phi <= 0.1 and worst_gap <= 0.1
    _report(8, "convergence-properties", ok,
            f"|phi_K-phi| ratio K200/K20 <= {worst_phi:.3f}, "
            f"f-gap ratio <= {worst_gap:.4f} (both <= 0.1)")


def test_criterion_09_onestage_consistency():
    problem = make_remark1()
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1,
                                alpha_rule="harmonic", alpha_scale=0.5)
    ref = hypergrad_reverse(problem, [1.0], 1, sched, mode="bda").gradient
    res = hypergrad_onestage(problem, [1.0], [0.0, 0.0], sched, eps=1e-4)
    rel = abs(res.gradient[0] - ref[0]) / abs(ref[0])

    ce = make_counterexample(3)
    sched_ce = AggregationSchedule(mu=0.3, s_u=0.1, s_l=0.1,
                                   alpha_rule="harmonic", alpha_scale=0.5)
    x = 1.5 * np.ones(3)
    ref_ce = hypergrad_reverse(ce, x, 1, sched_ce, mode="bda").gradient
    eps_grid = np.logspace(-6, -2, 9)
    errors = []
    for eps in eps_grid:
        est = hypergrad_onestage(ce, x, np.zeros(6), sched_ce,
                                 eps=float(eps)).gradient
        errors.append(np.linalg.norm(est - ref_ce) / np.linalg.norm(ref_ce))
    slope = float(np.polyfit(np.log(eps_grid), np.log(errors), 1)[0])
    ok = rel <= 1e-3 and slope >= 0.8
    _report(9, "onestage-consistency", ok,
            f"rel err at eps=1e-4: {rel:.1e}<=1e-3, order slope={slope:.2f}>=0.8")


def test_criterion_10_toy_hypercleaning():
    cfg = HypercleanConfig(num_classes=3, feature_dim=2, n_train=30,
                           n_val=30, n_test=30, corruption_fraction=0.5,
                           seed=1)
    problem = make_hypercleaning(cfg)
    solver = default_hyperclean_solver(problem, "bda", seed=1)
    record = solve(problem, solver)
    mets = hyperclean_metrics(problem, record.x_final, record.y_final)
    base = hyperclean_baseline(problem, K=solver.K, sched=solver.sched)
    margin = mets["mean_sigma_clean"] - mets["mean_sigma_corrupted"]
    ok = (margin >= 0.2 and mets["f1"] >= 0.8
          and mets["val_acc"] >= base["val_acc"])
    _report(10, "toy-hypercleaning", ok,
            f"sigma margin={margin:.3f}>=0.2, F1={mets['f1']:.3f}>=0.8, "
            f"val {mets['val_acc']:.3f}>=baseline {base['val_acc']:.3f}")


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "problem": "counterexample", "problem_params": {"n": 4},
        "method": "bda", "K": 10, "lambda": 0.01,
        "mu": 0.1, "su": 0.1, "sl": 0.1,
        "alpha_rule": "harmonic", "alpha_scale": 0.5,
        "T_max": 60, "stop_tol": 1e-10, "seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    traces = []
    for tag in ("run_a", "run_b"):
        exp = load_config(str(cfg_path))
        exp.out_dir = str(tmp_path / tag)
        run_experiment(exp)
        traces.append(str(tmp_path / tag / "trace.csv"))
    identical = filecmp.cmp(*traces, shallow=False)
    _report(11, "determinism", identical,
            "two runs of the same config/seed give byte-identical traces")
