import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bda.inner import (AggregationSchedule, aggregated_step, inner_values,
                       plain_gd_step, run_inner)
from bda.numerics import BoxRegion, ContractError, NumericalError, rng_stream
from bda.problems import (make_counterexample, make_lls_quadratic,
                          make_remark1)
from bda.verify import _auxiliary_points, check_nonexpansive


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_alpha_rules():
    assert AggregationSchedule(alpha_rule="harmonic").alpha(0) == 1.0
    assert AggregationSchedule(alpha_rule="harmonic").alpha(9) == pytest.approx(0.1)
    scaled = AggregationSchedule(alpha_rule="harmonic", alpha_scale=0.5)
    assert scaled.alpha(0) == 0.5          # first step uses the full scale
    assert scaled.alpha(4) == pytest.approx(0.1)
    assert AggregationSchedule(alpha_rule="constant", alpha_scale=0.3).alpha(7) == 0.3
    assert AggregationSchedule(alpha_rule="constant",
                               alpha_scale=0.0).alpha(0) == 0.0


def test_alpha_nonincreasing_and_in_range():
    for rule, scale in (("harmonic", 1.0), ("harmonic", 0.5), ("constant", 0.7)):
        sched = AggregationSchedule(alpha_rule=rule, alpha_scale=scale)
        vals = [sched.alpha(k) for k in range(50)]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(vals[k + 1] <= vals[k] for k in range(49))


def test_beta_declining_rule_increment_bound():
    sched = AggregationSchedule(beta_start=1.0, beta_lower=0.4)
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
        AggregationSchedule(alpha_rule="harmonic", alpha_scale=1.5)
    with pytest.raises(ContractError):
        AggregationSchedule(beta_start=0.5, beta_lower=0.9)
    with pytest.raises(ContractError):
        AggregationSchedule(alpha_rule="mystery")
    for bad in (np.nan, np.inf):  # would run until a step went non-finite
        with pytest.raises(ContractError, match="finite"):
            AggregationSchedule(s_u=bad)
        with pytest.raises(ContractError, match="finite"):
            AggregationSchedule(s_l=bad)


def _old_schedule(alpha_rule, alpha_scale, beta_rule, beta_start, beta_lower):
    """Reference: alpha(k), beta(k) and c_beta as computed when the schedule
    had four alpha rules and a beta rule."""
    def alpha(k):
        if alpha_rule == "harmonic":
            return 1.0 / (k + 1)
        if alpha_rule == "scaled":
            return alpha_scale / (k + 1)
        if alpha_rule == "constant":
            return alpha_scale
        return 0.0

    def beta(k):
        if beta_rule == "constant":
            return beta_start
        return beta_lower + (beta_start - beta_lower) / (k + 1)

    c_beta = 0.0 if beta_rule == "constant" else 2.0 * (beta_start - beta_lower)
    return alpha, beta, c_beta


@settings(derandomize=True, deadline=None, database=None)
@given(alpha_rule=st.sampled_from(["harmonic", "scaled", "constant", "zero"]),
       alpha_scale=st.floats(0.0, 1.0, exclude_min=True),
       beta_rule=st.sampled_from(["constant", "declining"]),
       beta_lower=st.floats(0.0, 1.0, exclude_min=True),
       beta_frac=st.floats(0.0, 1.0), k=st.integers(0, 10**6))
def test_schedule_numbers_bitwise_equal_the_old_rules(alpha_rule, alpha_scale,
                                                      beta_rule, beta_lower,
                                                      beta_frac, k):
    beta_start = beta_lower if beta_rule == "constant" else \
        min(1.0, beta_lower + beta_frac * (1.0 - beta_lower))
    old_alpha, old_beta, old_c_beta = _old_schedule(
        alpha_rule, alpha_scale, beta_rule, beta_start, beta_lower)
    # scaled is harmonic at its scale, zero is constant at 0, and the
    # constant beta rule is the declining one with beta_start == beta_lower
    rule, scale = {"harmonic": ("harmonic", 1.0),
                   "scaled": ("harmonic", alpha_scale),
                   "constant": ("constant", alpha_scale),
                   "zero": ("constant", 0.0)}[alpha_rule]
    sched = AggregationSchedule(alpha_rule=rule, alpha_scale=scale,
                                beta_start=beta_start, beta_lower=beta_lower)
    assert sched.alpha(k).hex() == old_alpha(k).hex()
    assert sched.beta(k).hex() == old_beta(k).hex()
    assert sched.c_beta.hex() == old_c_beta.hex()


@pytest.mark.parametrize("mu", [0.0, -0.1, 1.0, float("nan")])
def test_mu_outside_open_unit_interval_rejected_when_built(mu):
    with pytest.raises(ContractError, match=r"mu=.* must lie in \(0, 1\)"):
        AggregationSchedule(mu=mu)


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

def test_aggregated_step_hand_value():
    p = make_remark1()
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1,
                                alpha_rule="harmonic", alpha_scale=0.5)
    y1 = aggregated_step(p, np.array([1.0]), np.array([0.0, 0.0]), 0, sched)
    np.testing.assert_allclose(y1, [0.095, 0.005], rtol=0, atol=1e-15)


def test_aggregated_step_alpha_zero_is_plain_projected_step():
    p = make_counterexample(2)
    sched = AggregationSchedule(mu=0.4, s_u=0.1, s_l=0.1, alpha_rule="constant",
                                alpha_scale=0.0)
    x = np.array([0.5, 0.5])
    y = np.array([0.2, -0.1, 0.0, 0.3])
    y1 = aggregated_step(p, x, y, 0, sched)
    # with alpha_k = 0 only the (1-mu) beta s_l grad_f term remains
    expected = p.region_y.project(y - (1 - 0.4) * 0.1 * np.asarray(p.grad_y_f(x, y)))
    np.testing.assert_allclose(y1, expected, atol=1e-16)


def test_convex_combination_identity_exact_when_interior():
    p = make_counterexample(3)
    sched = AggregationSchedule(mu=0.3, s_u=0.1, s_l=0.1)
    x = 0.5 * np.ones(3)
    _, trace = run_inner(p, x, 30, sched, mode="bda")
    assert not trace.proj_active.any()
    z_u, z_l = _auxiliary_points(p, x, trace)
    for k in range(trace.K):
        combo = (1 - sched.mu) * z_l[k] + sched.mu * z_u[k]
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
    assert t1.proj_active.shape == (25, 4)
    np.testing.assert_array_equal(y1, y2)
    np.testing.assert_array_equal(inner_values(p, x, t1.ys),
                                  inner_values(p, x, t2.ys))


def test_run_inner_plain_matches_closed_form():
    p = make_remark1()
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1)
    y_K, trace = run_inner(p, [1.0], 20, sched, mode="plain")
    np.testing.assert_allclose(y_K, [1.0 - 0.9 ** 20, 0.0], atol=1e-15)


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
                                alpha_rule="harmonic", alpha_scale=0.5)
    x = np.ones(50)
    _, trace = run_inner(p, x, 20, sched, mode="bda")
    gaps = inner_values(p, x, trace.ys)[0] - p.f_star_of_x(x)
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
    z_u, z_l = _auxiliary_points(p, x, trace)
    assert np.all(np.abs(z_l) <= 10.0)
    assert np.all(np.abs(z_u) <= 10.0)


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
    assert (p.region_y.lower == -np.inf).all() and (p.region_y.upper == np.inf).all()
    s = 0.5 / max(p.L_F, p.L_f)
    sched = AggregationSchedule(mu=0.2, s_u=s, s_l=s, alpha_rule="harmonic")
    x = np.array([0.5, -0.5])
    _, trace = run_inner(p, x, 400, sched, mode="bda")
    assert np.all(np.abs(trace.ys) < 50.0)
    gaps = inner_values(p, x, trace.ys)[0] - p.f_star_of_x(x)
    assert gaps[-1] <= 1e-6
    assert gaps[-1] <= gaps[40]


# ---------------------------------------------------------------------------
# run_inner against the public steps, and its one check per step
# ---------------------------------------------------------------------------

@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(n=st.integers(1, 4), m=st.integers(1, 6), seed=st.integers(0, 10_000),
       K=st.integers(1, 12), mode=st.sampled_from(["bda", "plain"]),
       alpha=st.sampled_from([("harmonic", 1.0), ("harmonic", 0.6),
                              ("constant", 0.3)]),
       beta=st.sampled_from([(1.0, 1.0), (0.9, 0.3)]))
def test_run_inner_equals_public_steps_on_clamping_box(n, m, seed, K, mode,
                                                       alpha, beta):
    q = dataclasses.replace(make_lls_quadratic(n, m, seed=seed),
                            region_y=BoxRegion.cube(m, -0.3, 0.3))
    s = 0.5 / max(q.L_F, q.L_f)
    sched = AggregationSchedule(mu=0.3, s_u=s, s_l=s, alpha_rule=alpha[0],
                                alpha_scale=alpha[1], beta_start=beta[0],
                                beta_lower=beta[1])
    rng = rng_stream(seed)
    x = q.region_x.project(2.0 * rng.standard_normal(n))
    y0 = rng.standard_normal(m)
    _, trace = run_inner(q, x, K, sched, mode=mode, y0=y0)

    y = q.region_y.project(y0)
    np.testing.assert_array_equal(trace.ys[0], y)
    for k in range(K):
        g_f = np.asarray(q.grad_y_f(x, y))
        if mode == "bda":
            y_next = aggregated_step(q, x, y, k, sched)
            z_u = y - sched.alpha(k) * (sched.s_u * np.asarray(q.grad_y_F(x, y)))
            z_l = y - sched.beta(k) * (sched.s_l * g_f)
            pre = sched.mu * z_u + (1.0 - sched.mu) * z_l
            derived = [z[k] for z in _auxiliary_points(q, x, trace)]
            np.testing.assert_array_equal(derived, [z_u, z_l])
        else:
            y_next = plain_gd_step(q, x, y, sched.s_l)
            pre = y - sched.s_l * g_f
        np.testing.assert_array_equal(trace.proj_active[k], y_next != pre)
        np.testing.assert_array_equal(trace.ys[k + 1], y_next)
        y = y_next


def _inf_from_third_call(fn):
    """``fn`` with an inf in its first entry from its third call on."""
    calls = []

    def broken(x, y):
        calls.append(1)
        g = np.array(fn(x, y), dtype=float)
        if len(calls) >= 3:
            g[0] = np.inf
        return g
    return broken


@pytest.mark.parametrize("oracle,mode", [("grad_y_F", "bda"),
                                         ("grad_y_f", "bda"),
                                         ("grad_y_f", "plain")])
def test_non_finite_gradient_mid_run_raises_before_any_clamp(oracle, mode):
    base = make_counterexample(3, y_radius=0.5)
    clamped = []

    class Watched(BoxRegion):
        # records every point the box is asked to clamp
        def project(self, v):
            clamped.append(np.array(v, dtype=float))
            return super().project(v)

        def clamp(self, v):
            clamped.append(np.array(v, dtype=float))
            return super().clamp(v)

    box = base.region_y
    p = dataclasses.replace(
        base, region_y=Watched(box.lower, box.upper),
        **{oracle: _inf_from_third_call(getattr(base, oracle))})
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.9)
    x = 3.0 * np.ones(3)
    # the box binds on the steps that come before the broken one
    _, healthy = run_inner(base, x, 2, sched, mode=mode)
    assert healthy.proj_active.any(axis=1).all()
    with pytest.raises(NumericalError,
                       match=rf"inner step k=2\b.*{oracle} non-finite"):
        run_inner(p, x, 10, sched, mode=mode)
    # y0 and the two healthy steps were clamped (project may clamp through
    # clamp, so a point can show twice), and no non-finite point ever was
    assert len(clamped) >= 3
    assert all(np.isfinite(v).all() for v in clamped)


def test_inner_error_names_the_step_and_the_oracle_once():
    base = make_counterexample(3, y_radius=0.5)
    p = dataclasses.replace(base,
                            grad_y_F=_inf_from_third_call(base.grad_y_F))
    with pytest.raises(NumericalError) as err:
        run_inner(p, np.ones(3), 10, AggregationSchedule(), mode="bda")
    assert str(err.value) == "inner step k=2: grad_y_F non-finite"
    p = dataclasses.replace(base, grad_y_f=lambda x, y: np.full(6, np.nan))
    with pytest.raises(NumericalError, match="^plain step: grad_y_f non-finite$"):
        plain_gd_step(p, np.ones(3), np.zeros(6), 0.1)
    # a gradient of the wrong shape broadcasts into a wrong-shaped point
    p = dataclasses.replace(base, grad_y_f=lambda x, y: np.zeros((6, 1)))
    with pytest.raises(ContractError,
                       match=r"^inner step k=0: pre-projection point has shape"):
        run_inner(p, np.ones(3), 10, AggregationSchedule(), mode="plain")


# ---------------------------------------------------------------------------
# schedule weights and inner values
# ---------------------------------------------------------------------------

def test_schedule_weights_are_shared_read_only_arrays():
    sched = AggregationSchedule(alpha_rule="harmonic", alpha_scale=0.5,
                                beta_start=1.0, beta_lower=0.5)
    alphas, betas = sched.weights(6)
    np.testing.assert_array_equal(alphas, [sched.alpha(k) for k in range(6)])
    np.testing.assert_array_equal(betas, [sched.beta(k) for k in range(6)])
    # an equal schedule reads the same arrays, which no caller can alter
    again = sched.weights(6)
    assert again[0] is alphas and again[1] is betas
    assert AggregationSchedule(**vars(sched)).weights(6)[0] is alphas
    with pytest.raises(ValueError, match="read-only"):
        alphas[0] = 1.0
    assert sched.weights(5)[0].shape == (5,)


def _counted_values(problem):
    """Copy of ``problem`` whose f and F record the shape of every y."""
    shapes = []

    def counted(fn):
        def call(x, y):
            shapes.append(np.shape(y))
            return fn(x, y)
        return call

    return dataclasses.replace(problem, f=counted(problem.f),
                               F=counted(problem.F)), shapes


@pytest.mark.parametrize("kind", ["lls_quadratic", "counterexample"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inner_values_on_rows_equal_the_per_point_values(kind, seed):
    # independent oracle: f and F called at each iterate alone; a batched
    # problem answers the whole run in one row call to each
    if kind == "lls_quadratic":
        base = make_lls_quadratic(3, 5, seed=seed)
    else:
        base = make_counterexample(3, y_radius=0.5)
    rng = rng_stream(seed)
    x = base.region_x.project(rng.standard_normal(base.n))
    sched = AggregationSchedule(mu=0.3, s_u=0.1, s_l=0.1)
    _, trace = run_inner(base, x, 7, sched, mode="bda",
                         y0=rng.standard_normal(base.m))
    p, shapes = _counted_values(base)
    vals = inner_values(p, x, trace.ys)
    assert shapes == [trace.ys.shape] * 2
    np.testing.assert_array_equal(vals[0], [base.f(x, y) for y in trace.ys])
    np.testing.assert_array_equal(vals[1], [base.F(x, y) for y in trace.ys])
    # obda's carried pair (y_t, y_{t+1}) comes as a tuple
    pair = (trace.ys[0], trace.ys[1])
    np.testing.assert_array_equal(inner_values(p, x, pair), vals[:, :2])
    # one point keeps the 1-D call
    shapes.clear()
    np.testing.assert_array_equal(inner_values(p, x, trace.ys[-1:]),
                                  vals[:, -1:])
    assert shapes == [(base.m,)] * 2
