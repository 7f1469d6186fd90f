import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bda.outer
from bda.hypergrad import hypergrad_onestage
from bda.inner import AggregationSchedule, default_y0, run_inner
from bda.numerics import (BoxRegion, CapabilityError, ContractError,
                          NumericalError, rng_stream)
from bda.outer import SolverConfig, outer_step, solve, solve_many
from bda.problems import (HypercleanConfig, make_counterexample,
                          make_hypercleaning, make_lls_quadratic, make_remark1,
                          make_remark1_regularized,
                          remark1_plain_descent_limit)

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
    with pytest.raises(ContractError, match="K=7"):
        SolverConfig(method="obda", K=7)            # obda takes one inner step
    with pytest.raises(ContractError):
        SolverConfig(method="rhg", lam=-1.0)
    # settings that would otherwise abort or stall mid-run
    for bad in ({"lam": np.nan}, {"lam": np.inf}, {"stop_tol": np.nan},
                {"stop_tol": np.inf}, {"cg_tol": -1.0}, {"cg_tol": 0.0},
                {"cg_tol": np.nan}, {"cg_tol": np.inf}, {"cg_max_iter": 0}):
        name = next(iter(bad))
        with pytest.raises(ContractError, match=name):
            SolverConfig(method="ihg", **bad)


def test_solver_config_rejects_a_negative_seed():
    # default_lambda's probes draw from rng_stream(seed), which takes no
    # negative seed
    with pytest.raises(ContractError, match="seed must be >= 0"):
        SolverConfig(method="bda", seed=-1)


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
    assert record.config["lambda"] > 0.0


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
                                alpha_rule="harmonic", alpha_scale=0.5)
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


def test_non_finite_outer_step_aborts_with_record():
    # x - lam * g overflows on the first step; the run ends with a record
    cfg = SolverConfig(method="bda", K=5, lam=1e307, T_max=20, sched=SCHED)
    with np.errstate(over="ignore"):
        record = solve(make_remark1(), cfg, x0=np.array([50.0]))
    assert record.status == "aborted"
    assert record.error_class == "NumericalError"
    assert record.error == "outer step x - lam * g: non-finite entries"
    assert record.T == 0 and len(record.metrics["phiK"]) == 0


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
    assert record.config["lambda"] is None
    assert len(record.metrics["phiK"]) == 0


def _probe_loop_lambda(problem, cfg, x0, y0=None):
    """default_lambda with its four probes taken one point at a time."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    points = [x0] + [problem.region_x.project(
        x0 + 0.5 * rng.standard_normal(problem.n)) for _ in range(3)]
    y0 = default_y0(problem) if y0 is None else y0
    grads = [bda.outer._method_gradient(problem, p, cfg, y0=y0)[0]
             for p in points]
    lip = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            d = float(np.linalg.norm(points[i] - points[j]))
            if d > 1e-12:
                lip = max(lip, float(np.linalg.norm(grads[i] - grads[j])) / d)
    return 0.5 / lip if lip > 0 else 1.0


@pytest.mark.parametrize("method", ["bda", "rhg", "trhg", "ihg", "obda"])
@pytest.mark.parametrize("kind", ["remark1", "lls", "hyperclean"])
def test_default_lambda_row_call_equals_the_probe_loop(kind, method):
    # the four probes go to the route as rows of one call; the step equals
    # the one-point-at-a-time loop's bit for bit, and a failing probe
    # raises the error the loop meets first
    if kind == "remark1":
        p, sched = make_remark1(), SCHED
    elif kind == "lls":
        p = make_lls_quadratic(2, 3, seed=6)
        s = 0.4 / max(p.L_F, p.L_f)
        sched = AggregationSchedule(mu=0.2, s_u=s, s_l=s)
    else:
        p = make_hypercleaning(HypercleanConfig(
            num_classes=2, feature_dim=2, n_train=8, n_val=8, n_test=8,
            corruption_fraction=0.25, seed=3))
        sched = AggregationSchedule(mu=0.1, s_u=0.5 / p.L_F, s_l=0.5 / p.L_f)
    cfg = SolverConfig(method=method, K=1 if method == "obda" else 6,
                       truncate_at=3 if method == "trhg" else None,
                       sched=sched, seed=11, cg_max_iter=200)
    x0 = 0.3 * np.ones(p.n)
    try:
        want = _probe_loop_lambda(p, cfg, x0)
    except (NumericalError, CapabilityError) as err:
        with pytest.raises(type(err)) as got:
            bda.outer.default_lambda(p, cfg, x0)
        assert str(got.value) == str(err)
        return
    got = bda.outer.default_lambda(p, cfg, x0)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_default_step_probes_from_the_runs_own_y0():
    # the run starts its inner runs from y0 = (2.5, 2.5, 2.5, 0, 0, 0); its
    # hypergradient at x = 0 is -0.55 per coordinate, against -4.0 from the
    # default y0, so the step fitted to the default start is far too small
    p = make_counterexample(3, y_radius=1.5)
    y0 = np.concatenate([2.5 * np.ones(3), np.zeros(3)])
    cfg = SolverConfig(method="bda", K=10, T_max=1, seed=0)
    x0 = np.zeros(3)
    want = _probe_loop_lambda(p, cfg, x0, y0=y0)
    assert want != pytest.approx(_probe_loop_lambda(p, cfg, x0), rel=0.5)
    assert bda.outer.default_lambda(p, cfg, x0, y0=y0) == want
    assert solve(p, cfg, y0=y0).config["lambda"] == want


def test_approximate_stationarity_transfers_to_true_gradient():
    # driving the surrogate gradient to zero leaves the true value-function
    # gradient small once the horizon is long
    p = make_lls_quadratic(2, 3, seed=14)
    s = 0.5 / max(p.L_F, p.L_f)
    sched = AggregationSchedule(mu=0.1, s_u=s, s_l=s, alpha_rule="harmonic")
    cfg = SolverConfig(method="bda", K=300, lam=None, T_max=500, sched=sched,
                       stop_tol=1e-12)
    record = solve(p, cfg)
    assert record.metrics["grad_norm"][-1] <= 1e-6
    true_grad = np.linalg.norm(p.grad_phi_of_x(record.x_final))
    assert true_grad <= 1e-3


def _value_counting(problem):
    """Copy of ``problem`` whose f and F count the points they are asked
    for in ``calls``: one per call on a vector y, one per row of a (B, m) y."""
    calls = {"f": 0, "F": 0}

    def counted(name):
        fn = getattr(problem, name)

        def call(x, y):
            calls[name] += len(y) if np.ndim(y) == 2 else 1
            return fn(x, y)
        return call

    return dataclasses.replace(problem, f=counted("f"), F=counted("F")), calls


@pytest.mark.parametrize("method", ["bda", "rhg", "ihg", "obda"])
def test_values_only_at_y_K_unless_inner_rows_are_kept(method):
    # ihg aborts at its second iteration (the counterexample's lower-level
    # Hessian is singular in z); the completed iteration still counts
    K = 4
    for keep_inner, per_iter in ((False, 1), (True, 2 if method == "obda"
                                              else K + 1)):
        p, calls = _value_counting(make_counterexample(3))
        cfg = SolverConfig(method=method, K=1 if method == "obda" else K,
                           lam=0.01, T_max=5, sched=SCHED)
        record = solve(p, cfg, keep_inner=keep_inner)
        assert record.T >= 1
        assert calls == {"f": per_iter * record.T, "F": per_iter * record.T}
        assert len(record.inner_rows) == (record.T if keep_inner else 0)


@pytest.mark.parametrize("method", ["bda", "rhg", "obda"])
def test_default_step_probes_evaluate_no_values(method):
    # with no lambda, the probes of default_lambda take only hypergradients;
    # f and F are still evaluated once per completed outer iteration, the
    # first at x0
    p, calls = _value_counting(make_counterexample(3))
    cfg = SolverConfig(method=method, K=1 if method == "obda" else 4,
                       T_max=5, sched=SCHED)
    record = solve(p, cfg)
    assert record.T >= 1 and record.config["lambda"] is not None
    assert calls == {"f": record.T, "F": record.T}


def test_kept_inner_rows_match_values_at_the_inner_iterates():
    # independent oracle: f and F called directly at run_inner's iterates
    # (bda) and at the carried one-stage states (obda)
    p = make_counterexample(3, y_radius=0.5)
    sched = AggregationSchedule(mu=0.3, s_u=0.1, s_l=0.1)
    x0 = np.ones(3)  # pulls y onto its box after a few free steps
    cfg = SolverConfig(method="bda", K=6, lam=0.01, T_max=8, sched=sched)
    record = solve(p, cfg, x0=x0, keep_inner=True)
    assert record.T == len(record.inner_rows) == 8
    for t, rows in enumerate(record.inner_rows):
        x = record.xs[t]
        _, trace = run_inner(p, x, cfg.K, sched, mode="bda")
        np.testing.assert_array_equal(rows[0], [p.f(x, y) for y in trace.ys])
        np.testing.assert_array_equal(rows[1], [p.F(x, y) for y in trace.ys])
        np.testing.assert_array_equal(
            rows[2], np.r_[False, trace.proj_active.any(axis=1)])
    assert any(0 < rows[2].sum() < cfg.K for rows in record.inner_rows)
    assert record.metrics["phiK"][-1] == record.inner_rows[-1][1, -1]

    cfg = SolverConfig(method="obda", K=1, lam=0.01, T_max=8, sched=sched)
    record = solve(p, cfg, x0=x0, keep_inner=True)
    assert record.T == len(record.inner_rows) == 8
    y = default_y0(p)
    for t, rows in enumerate(record.inner_rows):
        x = record.xs[t]
        res = hypergrad_onestage(p, x, y, sched)
        y_next = res.diagnostics["y1"]
        np.testing.assert_array_equal(rows[:2], [[p.f(x, y), p.f(x, y_next)],
                                                 [p.F(x, y), p.F(x, y_next)]])
        assert rows[2, 1] == (res.diagnostics["branch"] == "projected")
        y = y_next
    assert any(rows[2, 1] for rows in record.inner_rows)


# ---------------------------------------------------------------------------
# solve_many: several starts side by side
# ---------------------------------------------------------------------------

CE_SCHED = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1,
                               alpha_rule="harmonic", alpha_scale=0.5)


def _ce_config(method):
    # stop_tol lets the starts converge at different iterations
    return SolverConfig(method=method, K=5, lam=0.05, T_max=60,
                        sched=CE_SCHED, stop_tol=1e-3,
                        truncate_at=2 if method == "trhg" else None)


def _assert_same_run(record, solo, rtol):
    assert (record.status, record.T, record.error_class, record.error) == \
        (solo.status, solo.T, solo.error_class, solo.error)
    assert len(record.inner_rows) == len(solo.inner_rows)
    for rows, solo_rows in zip(record.inner_rows, solo.inner_rows):
        np.testing.assert_allclose(rows, solo_rows, rtol=rtol, atol=0)
    np.testing.assert_allclose(record.xs, solo.xs, rtol=rtol, atol=0)
    np.testing.assert_allclose(record.y_final, solo.y_final, rtol=rtol, atol=0)
    for name, vals in solo.metrics.items():
        np.testing.assert_allclose(record.metrics[name], vals, rtol=rtol,
                                   atol=0, equal_nan=True, err_msg=name)


def _batch_sizes(monkeypatch):
    """The number of rows of each x a hypergradient route is called on (0
    for one point), in call order."""
    sizes = []

    def recording(route):
        def call(problem, x, *args, **kwargs):
            sizes.append(len(x) if np.ndim(x) == 2 else 0)
            return route(problem, x, *args, **kwargs)
        return call

    for name in ("hypergrad_reverse", "hypergrad_implicit",
                 "hypergrad_onestage"):
        monkeypatch.setattr(bda.outer, name,
                            recording(getattr(bda.outer, name)))
    return sizes


def _boxed_lls(n, seed):
    # as lls_quadratic(..., y_radius=0.3) would build it
    return dataclasses.replace(make_lls_quadratic(n, n + 2, seed),
                               region_y=BoxRegion.cube(n + 2, -0.3, 0.3))


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(lls=st.booleans(), method=st.sampled_from(["bda", "rhg", "trhg"]),
       n=st.integers(1, 5), rows=st.integers(2, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_solve_many_matches_solo_solves_and_repeats(lls, method, n, rows,
                                                    seed):
    # the tight LL box clamps some rows' inner steps and not others'
    p = _boxed_lls(n, seed) if lls else make_counterexample(n, y_radius=0.3)
    X = rng_stream(seed).uniform(-1.0, 1.0, (rows, n))
    cfg = _ce_config(method)
    with pytest.MonkeyPatch.context() as patch:
        sizes = _batch_sizes(patch)
        records = solve_many(p, cfg, X, keep_inner=True)
    assert sizes[0] == rows  # the live starts went in one call
    for record, x0 in zip(records, X):
        _assert_same_run(record, solve(p, cfg, x0=x0, keep_inner=True),
                         rtol=1e-12)
    again = solve_many(p, cfg, X, keep_inner=True)
    for record, other in zip(records, again):
        assert record.xs.tobytes() == other.xs.tobytes()
        assert record.y_final.tobytes() == other.y_final.tobytes()
        for name, vals in record.metrics.items():
            assert vals.tobytes() == other.metrics[name].tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=15)
@given(method=st.sampled_from(["bda", "rhg", "trhg"]), n=st.integers(1, 5),
       rows=st.integers(2, 4), bad=st.integers(0, 3),
       scale=st.floats(30.0, 1e3), seed=st.integers(0, 2 ** 32 - 1))
def test_solve_many_aborts_only_the_diverging_start(method, n, rows, bad,
                                                    scale, seed):
    # a wide x box lets the quartic run away from one far start
    p = make_counterexample(n, x_radius=1e300)
    X = rng_stream(seed).uniform(-1.0, 1.0, (rows, n))
    bad %= rows
    X[bad] = scale
    cfg = _ce_config(method)
    with np.errstate(over="ignore", invalid="ignore"):
        records = solve_many(p, cfg, X)
        solos = [solve(p, cfg, x0=x0) for x0 in X]
    assert [r.status == "aborted" for r in records] == \
        [b == bad for b in range(rows)]
    for record, solo in zip(records, solos):
        _assert_same_run(record, solo, rtol=1e-12)


@pytest.mark.parametrize("method", ["bda", "rhg", "ihg", "obda"])
def test_solve_many_on_remark1_and_hyperclean_equals_solve_bitwise(method):
    # every method steps the starts as rows (remark1's own row kernels,
    # hyperclean's one call per row); on remark1 ihg's batch call raises on
    # the singular Hessian and each start aborts alone, and no lambda runs
    # the probes
    hyperclean = make_hypercleaning(HypercleanConfig(
        num_classes=2, feature_dim=2, n_train=8, n_val=8, n_test=8,
        corruption_fraction=0.25, seed=3))
    cases = [(make_remark1(), np.array([[0.0], [0.8], [-1.5]]), SCHED, 40),
             (hyperclean, rng_stream(4).standard_normal((3, 8)),
              AggregationSchedule(mu=0.1, s_u=0.001, s_l=0.001), 4)]
    for p, X, sched, T_max in cases:
        for lam in (0.5, None):
            cfg = SolverConfig(method=method, K=1 if method == "obda" else 10,
                               lam=lam, T_max=T_max, sched=sched,
                               stop_tol=1e-10)
            with pytest.MonkeyPatch.context() as patch:
                sizes = _batch_sizes(patch)
                records = solve_many(p, cfg, X, keep_inner=True)
            assert sizes[0] == len(X)  # all rows in the first call
            for record, x0 in zip(records, X):
                _assert_bitwise_same_run(
                    record, solve(p, cfg, x0=x0, keep_inner=True))


@pytest.mark.parametrize("method", ["bda", "rhg", "trhg", "ihg", "obda"])
def test_every_method_takes_one_hypergradient_call_per_outer_iteration(method):
    # three starts that neither converge nor abort in T_max iterations, with
    # lam given so that no probe runs: one call on all three rows each time
    p = make_lls_quadratic(2, 4, seed=5)
    cfg = SolverConfig(method=method, K=1 if method == "obda" else 4,
                       truncate_at=2 if method == "trhg" else None,
                       lam=0.1, T_max=6, sched=SCHED, stop_tol=0.0)
    with pytest.MonkeyPatch.context() as patch:
        sizes = _batch_sizes(patch)
        records = solve_many(p, cfg, rng_stream(2).uniform(-1, 1, (3, 2)))
    assert [r.status for r in records] == ["max-iters"] * 3
    assert sizes == [3] * cfg.T_max


def _failing_beyond(problem, bound):
    """``problem`` on an unbounded x box, whose grad_x_F turns non-finite on
    the rows with x_0 > bound."""
    grad_x_F = problem.grad_x_F

    def failing(x, y):
        return np.where(x[..., :1] > bound, np.nan, grad_x_F(x, y))
    return dataclasses.replace(problem, grad_x_F=failing,
                               region_x=BoxRegion.whole_space(problem.n))


@pytest.mark.parametrize("method", ["ihg", "obda"])
def test_solve_many_ihg_and_obda_equal_solo_solves_with_an_aborting_row(
        method):
    # the third start's hypergradient is non-finite: the batch call raises,
    # each start is redone alone, and that start aborts with its solo error
    hyperclean = make_hypercleaning(HypercleanConfig(
        num_classes=2, feature_dim=2, n_train=8, n_val=8, n_test=8,
        corruption_fraction=0.25, seed=3))
    cases = [(make_lls_quadratic(3, 5, seed=2), SCHED),
             (make_remark1_regularized(0.05), SCHED),
             (hyperclean, AggregationSchedule(mu=0.1, s_u=0.001, s_l=0.001))]
    for p, sched in cases:
        p = _failing_beyond(p, 5.0)
        X = rng_stream(5).uniform(-1.0, 1.0, (4, p.n))
        X[2, 0] = 10.0
        cfg = SolverConfig(method=method, K=1 if method == "obda" else 8,
                           lam=0.3, T_max=20, sched=sched, stop_tol=1e-6)
        records = solve_many(p, cfg, X, keep_inner=True)
        assert [r.status == "aborted" for r in records] == \
            [False, False, True, False]
        for record, x0 in zip(records, X):
            _assert_bitwise_same_run(record, solve(p, cfg, x0=x0,
                                                   keep_inner=True))


def test_solve_many_takes_rows_of_starts():
    cfg = SolverConfig(method="rhg", K=5, lam=0.5, T_max=3, sched=SCHED)
    with pytest.raises(ContractError, match="B, n"):
        solve_many(make_remark1(), cfg, np.zeros(1))
    with pytest.raises(ContractError, match="dimension 1"):
        solve_many(make_remark1(), cfg, np.zeros((2, 3)))


def _assert_bitwise_same_run(record, solo):
    assert (record.status, record.T, record.error, record.error_class,
            record.config) == \
        (solo.status, solo.T, solo.error, solo.error_class, solo.config)
    assert record.xs.tobytes() == solo.xs.tobytes()
    assert record.y_final.tobytes() == solo.y_final.tobytes()
    for name, vals in solo.metrics.items():
        assert record.metrics[name].tobytes() == vals.tobytes(), name
    assert [r.tobytes() for r in record.inner_rows] == \
        [r.tobytes() for r in solo.inner_rows]


# the counterexample suite's bda schedule and its alpha sweep's three
SUITE_SCHEDS = [CE_SCHED] + [
    AggregationSchedule(mu=0.5, s_u=0.1, s_l=0.1, alpha_rule=rule,
                        alpha_scale=scale)
    for rule, scale in (("constant", 0.0), ("constant", 0.5),
                        ("harmonic", 0.5))]


@pytest.mark.parametrize("lls", [False, True])
def test_solve_many_with_a_config_per_row_equals_solo_solves_bitwise(lls):
    # rows differ in schedule, lam, stop_tol and seed; the third row stops
    # after its first iteration, the others at their own tolerances
    p = _boxed_lls(4, 3) if lls else make_counterexample(5)
    cfgs = [SolverConfig(method="bda", K=6, T_max=40, sched=sched, seed=i,
                         lam=0.05 if i % 2 else 0.02,
                         stop_tol=1e3 if i == 2 else 1e-4)
            for i, sched in enumerate(SUITE_SCHEDS)]
    X = rng_stream(7).uniform(-0.5, 0.5, (len(cfgs), p.n))
    with pytest.MonkeyPatch.context() as patch:
        sizes = _batch_sizes(patch)
        records = solve_many(p, cfgs, X, keep_inner=True)
    assert sizes[0] == len(cfgs)  # the rows went in one call
    assert records[2].T == 1 and len({r.T for r in records}) > 1
    for record, cfg, x0 in zip(records, cfgs, X):
        _assert_bitwise_same_run(record, solve(p, cfg, x0=x0,
                                               keep_inner=True))


def test_solve_many_with_per_row_plain_step_sizes_equals_solo_bitwise():
    # rhg reads only s_l of each row's schedule
    p = _boxed_lls(3, 11)
    cfgs = [_ce_config("rhg"),
            dataclasses.replace(_ce_config("rhg"),
                                sched=AggregationSchedule(s_l=0.05))]
    X = rng_stream(3).uniform(-1.0, 1.0, (2, 3))
    for record, cfg, x0 in zip(solve_many(p, cfgs, X), cfgs, X):
        _assert_bitwise_same_run(record, solve(p, cfg, x0=x0))


@pytest.mark.parametrize("field,value", [
    ("method", "rhg"), ("K", 4), ("T_max", 41),
    ("truncate_at", 2), ("cg_tol", 1e-6), ("cg_max_iter", 7)])
def test_solve_many_rows_must_share_method_K_truncation_and_T_max(field,
                                                                  value):
    # one CG call serves every row, so the CG settings are shared too
    base = SolverConfig(method="trhg" if field == "truncate_at" else "bda",
                        K=5, T_max=40, lam=0.05, sched=CE_SCHED,
                        truncate_at=1 if field == "truncate_at" else None)
    other = dataclasses.replace(base, **{field: value})
    with pytest.raises(ContractError, match=f"differ in {field}"):
        solve_many(make_counterexample(2), [base, other], np.zeros((2, 2)))


def test_solve_many_takes_one_config_or_one_per_row():
    cfg = _ce_config("bda")
    p = make_counterexample(2)
    for configs in ([cfg], [cfg] * 3):
        with pytest.raises(ContractError, match="one per start"):
            solve_many(p, configs, np.zeros((2, 2)))
    # an empty batch is an error, not an empty list
    for problem in (p, make_remark1()):
        with pytest.raises(ContractError, match="no starts"):
            solve_many(problem, cfg, np.zeros((0, problem.n)))
