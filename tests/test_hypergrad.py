import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bda.hypergrad import (hypergrad_forward, hypergrad_implicit,
                           hypergrad_onestage, hypergrad_reverse)
from bda.inner import AggregationSchedule, run_inner
from bda.numerics import (BoxRegion, CapabilityError, ContractError,
                          NumericalError, rng_stream)
from bda.outer import SolverConfig, solve
from bda.problems import (HypercleanConfig, lls_quadratic,
                          make_counterexample, make_hypercleaning,
                          make_lls_quadratic, make_remark1, product_rows)
from bda.verify import fd_gradient

PLAIN = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1)


# ---------------------------------------------------------------------------
# reverse mode
# ---------------------------------------------------------------------------

def test_reverse_hand_value_on_flat_direction_problem():
    # phi_K(x) = x^2/2 + (a x - 1)^2 / 2 with a = 1 - 0.9^2, so the
    # gradient at x = 1 is x (1 + a^2) - a = 0.8461
    p = make_remark1()
    res = hypergrad_reverse(p, [1.0], 2, PLAIN, mode="plain")
    assert res.gradient[0] == pytest.approx(0.8461, abs=1e-12)


def test_reverse_truncation_semantics():
    p = make_remark1()
    full = hypergrad_reverse(p, [0.8], 10, PLAIN, mode="plain")
    noop = hypergrad_reverse(p, [0.8], 10, PLAIN, mode="plain", truncate_at=10)
    np.testing.assert_array_equal(full.gradient, noop.gradient)
    cut = hypergrad_reverse(p, [0.8], 10, PLAIN, mode="plain", truncate_at=0)
    # cutting everything leaves only the direct partial derivative
    x = np.array([0.8])
    y_K, _ = run_inner(p, x, 10, PLAIN, mode="plain")
    np.testing.assert_array_equal(cut.gradient, p.grad_x_F(x, y_K))
    with pytest.raises(ContractError):
        hypergrad_reverse(p, [0.8], 10, PLAIN, mode="plain", truncate_at=11)


def test_reverse_zero_horizon_is_direct_gradient():
    p = make_counterexample(2)
    sched = AggregationSchedule(mu=0.2, s_u=0.1, s_l=0.1)
    x = np.array([0.4, 0.9])
    res = hypergrad_reverse(p, x, 0, sched, mode="bda")
    y0 = p.region_y.project(np.zeros(4))
    np.testing.assert_array_equal(res.gradient, p.grad_x_F(x, y0))


def test_reverse_needs_second_derivatives():
    p = make_remark1()
    import dataclasses
    crippled = dataclasses.replace(p, hess_yx_f=None)
    with pytest.raises(CapabilityError, match="hess_yx_f"):
        hypergrad_reverse(crippled, [0.5], 3, PLAIN, mode="plain")


# ---------------------------------------------------------------------------
# forward mode
# ---------------------------------------------------------------------------

def test_forward_matches_reverse_bitwise_scale():
    q = make_lls_quadratic(2, 3, seed=1)
    s = 0.4 / max(q.L_F, q.L_f)
    sched = AggregationSchedule(mu=0.2, s_u=s, s_l=s, alpha_rule="harmonic")
    x = np.array([0.3, -0.7])
    gr = hypergrad_reverse(q, x, 10, sched, mode="bda").gradient
    gf = hypergrad_forward(q, x, 10, sched, mode="bda").gradient
    assert np.linalg.norm(gr - gf) <= 1e-10 * max(np.linalg.norm(gr), 1e-30)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(n=st.integers(1, 4), m=st.integers(1, 6), seed=st.integers(0, 10_000),
       K=st.integers(1, 15), mode=st.sampled_from(["bda", "plain"]))
def test_reverse_equals_forward_on_random_quadratics(n, m, seed, K, mode):
    q = make_lls_quadratic(n, m, seed=seed)  # Y is the whole space
    s = 0.5 / max(q.L_F, q.L_f)
    sched = AggregationSchedule(mu=0.3, s_u=s, s_l=s, alpha_rule="harmonic")
    x = q.region_x.project(rng_stream(seed).standard_normal(n))
    gr = hypergrad_reverse(q, x, K, sched, mode=mode).gradient
    gf = hypergrad_forward(q, x, K, sched, mode=mode).gradient
    assert np.linalg.norm(gr - gf) <= 1e-10 * max(np.linalg.norm(gr), 1e-12)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(n=st.integers(1, 4), m=st.integers(1, 6), seed=st.integers(0, 10_000),
       K=st.integers(1, 15), mode=st.sampled_from(["bda", "plain"]))
def test_reverse_equals_forward_through_clamping_box(n, m, seed, K, mode):
    # steps that clamp zero rows of the Jacobian; the others skip the mask
    q = dataclasses.replace(make_lls_quadratic(n, m, seed=seed),
                            region_y=BoxRegion.cube(m, -0.3, 0.3))
    s = 0.5 / max(q.L_F, q.L_f)
    sched = AggregationSchedule(mu=0.3, s_u=s, s_l=s, alpha_rule="harmonic")
    x = q.region_x.project(2.0 * rng_stream(seed).standard_normal(n))
    gr = hypergrad_reverse(q, x, K, sched, mode=mode).gradient
    gf = hypergrad_forward(q, x, K, sched, mode=mode).gradient
    assert np.linalg.norm(gr - gf) <= 1e-10 * max(np.linalg.norm(gr), 1e-12)


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(n=st.integers(1, 5), rows=st.integers(1, 4),
       mode=st.sampled_from(["bda", "plain"]),
       truncate_at=st.sampled_from([None, 0, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_reverse_on_rows_equals_each_row_alone(n, rows, mode, truncate_at,
                                               seed):
    # a tight box clamps some steps of some rows only
    p = make_counterexample(n, y_radius=0.6)
    sched = AggregationSchedule(mu=0.3, s_u=0.1, s_l=0.1)
    rng = rng_stream(seed)
    X = 1.5 * rng.standard_normal((rows, n))
    Y0 = 0.5 * rng.standard_normal((rows, 2 * n))
    res = hypergrad_reverse(p, X, 6, sched, mode=mode,
                            truncate_at=truncate_at, y0=Y0)
    trace = res.diagnostics["trace"]
    assert res.gradient.shape == (rows, n)
    assert trace.ys.shape == (7, rows, 2 * n)
    assert trace.proj_active.shape == (6, rows, 2 * n)
    for b in range(rows):
        alone = hypergrad_reverse(p, X[b], 6, sched, mode=mode,
                                  truncate_at=truncate_at, y0=Y0[b])
        np.testing.assert_array_equal(res.gradient[b], alone.gradient)
        for name in ("ys", "proj_active"):
            np.testing.assert_array_equal(
                getattr(trace, name)[:, b],
                getattr(alone.diagnostics["trace"], name))
    # one y0 is shared by every row
    y_K, shared = run_inner(p, X, 6, sched, mode=mode, y0=Y0[0])
    np.testing.assert_array_equal(y_K[0], trace.ys[-1, 0])
    assert (shared.ys[0] == Y0[0].clip(-0.6, 0.6)).all()


ROW_SCHEDS = [AggregationSchedule(mu=0.3, s_u=0.1, s_l=0.1),
              AggregationSchedule(mu=0.5, s_u=0.05, s_l=0.2,
                                  alpha_rule="constant", alpha_scale=0.0),
              AggregationSchedule(mu=0.1, s_u=0.2, s_l=0.1, beta_start=1.0,
                                  beta_lower=0.5)]


@settings(derandomize=True, deadline=None, database=None, max_examples=15)
@given(n=st.integers(1, 4), picks=st.lists(st.integers(0, 2), min_size=1,
                                           max_size=4),
       mode=st.sampled_from(["bda", "plain"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rows_take_one_schedule_each(n, picks, mode, seed):
    # each row runs under its own schedule with the bits of its solo run;
    # the counterexample's tight box clamps some rows, lls_quadratic none
    scheds = [ROW_SCHEDS[i] for i in picks]
    rng = rng_stream(seed)
    X = 1.5 * rng.standard_normal((len(picks), n))
    p = make_counterexample(n, y_radius=0.6)
    res = hypergrad_reverse(p, X, 5, scheds, mode=mode, truncate_at=3)
    trace = res.diagnostics["trace"]
    q = make_lls_quadratic(n, n + 2, seed=seed)
    fwd = hypergrad_forward(q, X, 5, scheds, mode=mode)
    for b, sched in enumerate(scheds):
        alone = hypergrad_reverse(p, X[b], 5, sched, mode=mode, truncate_at=3)
        assert res.gradient[b].tobytes() == alone.gradient.tobytes()
        for name in ("ys", "proj_active"):
            assert getattr(trace, name)[:, b].tobytes() == \
                getattr(alone.diagnostics["trace"], name).tobytes()
        assert fwd.gradient[b].tobytes() == \
            hypergrad_forward(q, X[b], 5, sched, mode=mode).gradient.tobytes()
    # rows that share one schedule run on its floats
    shape = (5,) if len(set(scheds)) == 1 else (5, len(picks), 1)
    assert trace.alphas.shape == trace.betas.shape == shape


def test_one_schedule_per_row_of_x():
    p = make_counterexample(2)
    with pytest.raises(ContractError, match="one schedule per row"):
        run_inner(p, np.zeros((3, 2)), 2, ROW_SCHEDS[:2])
    with pytest.raises(ContractError, match="one schedule per row"):
        hypergrad_reverse(p, np.zeros(2), 2, ROW_SCHEDS[:1])


def test_rows_need_matching_y0_rows():
    sched = AggregationSchedule(mu=0.3, s_u=0.1, s_l=0.1)
    with pytest.raises(ContractError, match="does not fit"):
        run_inner(make_counterexample(2), np.zeros((3, 2)), 3, sched,
                  y0=np.zeros((2, 4)))


def _reference_reverse(problem, x, K, sched, mode, truncate_at):
    """The reverse pass as one loop over the steps: each step subtracts its
    x-side product (c_u C_F + c_l C_f)' q_k from g as it goes."""
    y_K, trace = run_inner(problem, x, K, sched, mode=mode)
    sched = trace.sched
    p = problem.grad_y_F(x, y_K)
    g = np.array(problem.grad_x_F(x, y_K), dtype=float)
    kept = K if truncate_at is None else truncate_at
    for k in range(K - 1, K - kept - 1, -1):
        y = trace.ys[k]
        q = np.where(trace.proj_active[k], 0.0, p)
        if mode == "plain":
            g -= sched.s_l * problem.hess_yx_f(x, y, q)
            p = q - sched.s_l * problem.hess_yy_f(x, y, q)
            continue
        cu = sched.mu * trace.alphas[k] * sched.s_u
        cl = (1.0 - sched.mu) * trace.betas[k] * sched.s_l
        g -= cu * problem.hess_yx_F(x, y, q) + cl * problem.hess_yx_f(x, y, q)
        p = q - (cu * problem.hess_yy_F(x, y, q)
                 + cl * problem.hess_yy_f(x, y, q))
    return g


# (problem, step size): lls_quadratic's and the counterexample's LL boxes
# clamp some steps of some rows; hyperclean's never does
REVERSE_PROBLEMS = {
    "lls": lambda n, seed: (dataclasses.replace(
        make_lls_quadratic(n, n + 2, seed=seed),
        region_y=BoxRegion.cube(n + 2, -0.3, 0.3)), None),
    "counterexample": lambda n, seed: (make_counterexample(
        n, y_radius=0.6), 0.1),
    "hyperclean": lambda n, seed: (make_hypercleaning(HypercleanConfig(
        num_classes=2, feature_dim=2, n_train=8, n_val=8, n_test=8,
        corruption_fraction=0.25, seed=3)), None),
}


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(kind=st.sampled_from(sorted(REVERSE_PROBLEMS)), n=st.integers(1, 4),
       K=st.integers(0, 8), cut=st.sampled_from(["none", 0, 1, "half", "K"]),
       mode=st.sampled_from(["bda", "plain"]), rows=st.integers(0, 3),
       mixed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_reverse_equals_the_per_step_loop(kind, n, K, cut, mode, rows, mixed,
                                          seed):
    # byte for byte: the deferred x-side row call and the in-order
    # reduction give each row the bits of the loop that subtracts per step
    p, s = REVERSE_PROBLEMS[kind](n, seed % 1000)
    s = s or 0.5 / max(p.L_F, p.L_f)
    truncate_at = {"none": None, "half": K // 2, "K": K}.get(cut, cut)
    if truncate_at is not None and truncate_at > K:
        truncate_at = K
    rng = rng_stream(seed)
    x = 1.5 * rng.standard_normal((rows, p.n) if rows else p.n)
    variants = [dict(), dict(mu=0.5, alpha_rule="constant", alpha_scale=0.0),
                dict(mu=0.1, s_u=2.0 * s, beta_lower=0.5)]
    scheds = [AggregationSchedule(**{"mu": 0.3, "s_u": s, "s_l": s, **v})
              for v in variants]
    sched = [scheds[i % 3] for i in range(rows)] if rows and mixed \
        else scheds[seed % 3]
    got = hypergrad_reverse(p, x, K, sched, mode=mode,
                            truncate_at=truncate_at).gradient
    want = _reference_reverse(p, x, K, sched, mode, truncate_at)
    assert got.shape == want.shape == x.shape
    assert got.tobytes() == want.tobytes()


def _counting(problem, calls):
    """Copy of ``problem`` whose second-order oracles record the number of
    points of each call in ``calls[name]``."""
    def counted(name):
        fn = getattr(problem, name)

        def call(x, y, v):
            calls.setdefault(name, []).append(len(y) if y.ndim == 2 else 1)
            return fn(x, y, v)
        return call

    names = ("hess_yy_f", "hess_yx_f", "hess_yy_F", "hess_yx_F")
    return dataclasses.replace(problem, **{m: counted(m) for m in names})


@pytest.mark.parametrize("rows", [0, 3])
@pytest.mark.parametrize("mode,truncate_at", [("bda", None), ("bda", 2),
                                              ("plain", None), ("plain", 0)])
def test_reverse_takes_x_side_products_in_one_row_call(rows, mode,
                                                       truncate_at):
    # per hypergradient, each x-side oracle takes all kept steps' points at
    # once; the y-side ones run once per kept step, on the rows of x
    calls = {}
    p = _counting(make_counterexample(2, y_radius=0.6), calls)
    x = 1.5 * rng_stream(4).standard_normal((rows, 2) if rows else 2)
    K = 5
    hypergrad_reverse(p, x, K, AggregationSchedule(mu=0.3, s_u=0.1, s_l=0.1),
                      mode=mode, truncate_at=truncate_at)
    kept, B = K if truncate_at is None else truncate_at, max(rows, 1)
    second = ("yx_f", "yy_f") if mode == "plain" else \
        ("yx_f", "yy_f", "yx_F", "yy_F")
    want = {f"hess_{name}": ([kept * B] if kept else []) if "yx" in name
            else [B] * kept for name in second}
    assert {name: v for name, v in calls.items() if v} == \
        {name: v for name, v in want.items() if v}


HORIZONS = [0, 2, 2, 6]  # a zero horizon and a repeat


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(clamped=st.booleans(), n=st.integers(1, 4), rows=st.integers(1, 4),
       mode=st.sampled_from(["bda", "plain"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_forward_on_rows_equals_each_row_alone(clamped, n, rows, mode, seed):
    # the counterexample's tight box clamps some steps of some rows only;
    # lls_quadratic runs unclamped.  One pass answers every horizon, each
    # with the bits of its one-horizon call, row by row
    if clamped:
        p = make_counterexample(n, y_radius=0.6)
    else:
        p = make_lls_quadratic(n, n + 2, seed=seed)
    sched = AggregationSchedule(mu=0.3, s_u=0.1, s_l=0.1)
    X = 1.5 * rng_stream(seed).standard_normal((rows, n))
    res = hypergrad_forward(p, X, HORIZONS, sched, mode=mode)
    assert res.gradient.shape == (len(HORIZONS), rows, n)
    hits = []
    for K, grads in zip(HORIZONS, res.gradient):
        one = hypergrad_forward(p, X, K, sched, mode=mode)
        assert grads.tobytes() == one.gradient.tobytes()
        for b in range(rows):
            alone = hypergrad_forward(p, X[b], K, sched, mode=mode)
            assert grads[b].tobytes() == alone.gradient.tobytes()
            hits.append(alone.diagnostics["projection_hit"])
    assert res.diagnostics["projection_hit"] == any(hits)


def test_forward_on_rows_mixes_clamped_and_free_rows():
    # row 1 clamps and row 0 does not; each keeps its own bits under the
    # 0/1 convention, and the call reports that a row clamped
    p = make_counterexample(2, y_radius=0.6)
    sched = AggregationSchedule(mu=0.3, s_u=0.1, s_l=0.1)
    X = np.array([[0.1, -0.2], [1.5, 2.0]])
    res = hypergrad_forward(p, X, 6, sched)
    alone = [hypergrad_forward(p, x, 6, sched) for x in X]
    assert [a.diagnostics["projection_hit"] for a in alone] == [False, True]
    assert res.diagnostics["projection_hit"]
    for row, a in zip(res.gradient, alone):
        np.testing.assert_array_equal(row, a.gradient)


def test_forward_horizons_are_one_int_or_a_non_decreasing_list():
    q = make_lls_quadratic(2, 3, seed=2)
    sched = AggregationSchedule(mu=0.2, s_u=0.1, s_l=0.1)
    x = np.array([0.1, 0.2])
    assert hypergrad_forward(q, x, 3, sched).gradient.shape == (2,)
    assert hypergrad_forward(q, x, [3], sched).gradient.shape == (1, 2)
    for bad in ([], [3, 2], [-1, 2], -1):
        with pytest.raises(ContractError, match="horizons"):
            hypergrad_forward(q, x, bad, sched)


def test_forward_zero_horizon():
    q = make_lls_quadratic(2, 3, seed=2)
    sched = AggregationSchedule(mu=0.2, s_u=0.1, s_l=0.1)
    x = np.array([0.1, 0.2])
    res = hypergrad_forward(q, x, 0, sched, mode="bda")
    np.testing.assert_array_equal(res.gradient, q.grad_x_F(x, np.zeros(3)))


def test_forward_jacobian_geometric_limit():
    # scalar A=2, B=1, s=0.25: dy_K/dx -> A^{-1} B = 1/2
    p = lls_quadratic(A=2.0, B=1.0, b=[0.0], rho=0.0, x_radius=10.0)
    sched = AggregationSchedule(mu=0.1, s_u=0.25, s_l=0.25)
    x = np.array([1.0])
    res = hypergrad_forward(p, x, 80, sched, mode="plain")
    # gradient = J' (y_K - b); recover J by dividing by the residual
    y_K, _ = run_inner(p, x, 80, sched, mode="plain")
    J = res.gradient[0] / (y_K[0] - 0.0)
    assert J == pytest.approx(0.5, abs=1e-12)


def test_forward_differentiates_a_clamped_run_like_reverse_mode():
    # the box clamps every step: both routes zero the clamped coordinates
    tight = make_counterexample(2, y_radius=0.05)
    sched = AggregationSchedule(mu=0.2, s_u=0.1, s_l=0.1)
    x = 1.5 * np.ones(2)
    res = hypergrad_forward(tight, x, 5, sched, mode="bda")
    assert np.all(np.isfinite(res.gradient))
    assert res.diagnostics["projection_hit"]
    rev = hypergrad_reverse(tight, x, 5, sched, mode="bda").gradient
    assert np.linalg.norm(rev - res.gradient) <= 1e-12 * np.linalg.norm(rev)


def test_unrolled_estimators_match_finite_differences():
    q = make_lls_quadratic(2, 3, seed=7)
    s = 0.4 / max(q.L_F, q.L_f)
    sched = AggregationSchedule(mu=0.2, s_u=s, s_l=s, alpha_rule="harmonic")
    x = np.array([0.4, -0.8])

    def phi_K(xv):
        y_K, _ = run_inner(q, np.atleast_1d(xv), 10, sched, mode="bda")
        return q.F(np.atleast_1d(xv), y_K)

    fd = fd_gradient(phi_K, x, eps=1e-6 * (1 + np.linalg.norm(x)))
    for res in (hypergrad_reverse(q, x, 10, sched, mode="bda"),
                hypergrad_forward(q, x, 10, sched, mode="bda")):
        rel = np.linalg.norm(res.gradient - fd) / np.linalg.norm(fd)
        assert rel <= 1e-5


# ---------------------------------------------------------------------------
# implicit route
# ---------------------------------------------------------------------------

def test_implicit_scalar_hand_value():
    p = lls_quadratic(A=2.0, B=1.0, b=[1.0], rho=0.0, x_radius=10.0)
    res = hypergrad_implicit(p, [4.0], p.y_star_of_x([4.0]))
    assert res.gradient[0] == pytest.approx(0.5, abs=1e-12)
    assert res.diagnostics["cg_residual"] <= 1e-10


def test_implicit_decoupled_case_is_direct_gradient():
    p = lls_quadratic(A=np.eye(2), B=np.zeros((2, 1)), b=[1.0, 2.0], rho=0.3)
    x = np.array([0.7])
    res = hypergrad_implicit(p, x, np.array([0.1, -0.2]))
    np.testing.assert_array_equal(res.gradient, p.grad_x_F(x, np.zeros(2)))


def test_implicit_singular_hessian_is_capability_error():
    p = make_remark1()
    with pytest.raises(CapabilityError):
        hypergrad_implicit(p, [1.0], [0.5, 0.3])


def test_implicit_cg_overflow_is_numerical_error():
    # from x = 1e155 the curvature p'Hp overflows to inf; inf <= 1e-12 * inf
    # must not read as a Hessian that is not positive definite
    p = dataclasses.replace(make_lls_quadratic(3, 5, 2),
                            region_x=BoxRegion.whole_space(3))
    x = np.full(3, 1e155)
    with np.errstate(over="ignore", invalid="ignore"):
        y_K, _ = run_inner(p, x, 5, PLAIN, mode="plain")
        with pytest.raises(NumericalError, match="overflow"):
            hypergrad_implicit(p, x, y_K)
        record = solve(p, SolverConfig(method="ihg", K=5, lam=0.1, T_max=3,
                                       sched=PLAIN), x0=x)
    assert (record.status, record.error_class) == ("aborted", "NumericalError")
    assert "overflow" in record.error


def test_implicit_cg_stagnation_error_carries_residual():
    p = lls_quadratic(A=np.diag([1.0, 50.0]), B=np.eye(2), b=[1.0, 2.0])
    with pytest.raises(NumericalError, match="residual"):
        hypergrad_implicit(p, [0.5, 0.5], [3.0, 3.0], cg_tol=1e-14,
                           cg_max_iter=1)


def test_implicit_matches_long_unrolled_run():
    q = make_lls_quadratic(2, 3, seed=11)
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.9 / q.L_f)
    x = np.array([0.6, -0.2])
    g_unrolled = hypergrad_reverse(q, x, 500, sched, mode="plain").gradient
    y500, _ = run_inner(q, x, 500, sched, mode="plain")
    g_implicit = hypergrad_implicit(q, x, y500).gradient
    rel = np.linalg.norm(g_unrolled - g_implicit) / np.linalg.norm(g_implicit)
    assert rel <= 1e-4


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(n=st.integers(1, 4), m=st.integers(2, 9), rows=st.integers(3, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_implicit_on_rows_equals_each_row_alone(n, m, rows, seed):
    # grad_y F = y - b: row 0 has a zero right-hand side (no CG iteration),
    # row 1 an eigenvector of grad_yy f (one), the others random ones (more)
    p = make_lls_quadratic(n, m, seed)
    rng = rng_stream(seed)
    X = rng.standard_normal((rows, n))
    b = -p.grad_y_F(X[0], np.zeros(m))
    A = product_rows(lambda v: p.hess_yy_f(X[0], b, v), m)
    Y = b + rng.standard_normal((rows, m))
    Y[0] = b
    Y[1] = b + np.linalg.eigh(A)[1][:, 0]
    res = hypergrad_implicit(p, X, Y)
    iters, residual = (res.diagnostics[k] for k in ("cg_iterations",
                                                     "cg_residual"))
    assert res.gradient.shape == (rows, n)
    assert iters.shape == residual.shape == (rows,)
    assert list(iters[:2]) == [0, 1] and (iters[2:] > 1).all()
    for k in range(rows):
        alone = hypergrad_implicit(p, X[k], Y[k])
        assert res.gradient[k].tobytes() == alone.gradient.tobytes()
        assert iters[k] == alone.diagnostics["cg_iterations"]
        assert residual[k] == alone.diagnostics["cg_residual"]
        assert type(alone.diagnostics["cg_iterations"]) is int
        assert type(alone.diagnostics["cg_residual"]) is float


def test_implicit_on_zero_rows_is_an_empty_batch():
    # as the reverse and forward routes: a (0, n) gradient, empty diagnostics
    p = make_lls_quadratic(2, 3, 0)
    res = hypergrad_implicit(p, np.zeros((0, 2)), np.zeros((0, 3)))
    assert res.gradient.shape == (0, 2)
    assert sorted(res.diagnostics) == ["cg_iterations", "cg_residual"]
    assert all(v.size == 0 for v in res.diagnostics.values())


def test_implicit_batch_with_a_non_pd_row_is_capability_error():
    # row 1's lower-level Hessian is negative definite: alone it raises,
    # and in a batch it raises for row 0, which solves alone
    base = make_lls_quadratic(2, 3, seed=4)
    p = dataclasses.replace(base, hess_yy_f=lambda x, y, v: np.sign(
        x[..., :1]) * base.hess_yy_f(x, y, v))
    X, Y = np.array([[0.5, 0.1], [-0.5, 0.1]]), np.zeros((2, 3))
    assert np.isfinite(hypergrad_implicit(p, X[0], Y[0]).gradient).all()
    for x, y in ((X[1], Y[1]), (X, Y)):
        with pytest.raises(CapabilityError, match="not positive definite"):
            hypergrad_implicit(p, x, y)


def test_implicit_rows_need_matching_y_rows():
    p = make_lls_quadratic(2, 3, seed=0)
    with pytest.raises(ContractError, match="does not fit"):
        hypergrad_implicit(p, np.zeros((2, 2)), np.zeros(3))


# ---------------------------------------------------------------------------
# one-stage scheme
# ---------------------------------------------------------------------------

ONESTAGE = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1,
                               alpha_rule="harmonic", alpha_scale=0.5)


def test_onestage_close_to_one_step_reverse():
    p = make_remark1()
    res = hypergrad_onestage(p, [1.0], [0.0, 0.0], ONESTAGE, eps=1e-4)
    ref = hypergrad_reverse(p, [1.0], 1, ONESTAGE, mode="bda").gradient
    assert abs(res.gradient[0] - ref[0]) / abs(ref[0]) <= 1e-3
    assert res.diagnostics["branch"] == "interior"


def test_onestage_zero_coupling_gradient_is_exact():
    # choose b so grad_y F vanishes at the post-step point: the difference
    # term then disappears and the result equals the direct x-gradient
    A, B, rho = 2.0, 1.0, 0.3
    s, mu = 0.1, 0.1
    x0 = 1.0
    beta = (1 - mu) * 1.0
    y1 = s * beta * B * x0  # one aggregated step from y0 = 0 (b-independent)
    p = lls_quadratic(A=A, B=B, b=[y1], rho=rho, x_radius=10.0)
    sched = AggregationSchedule(mu=mu, s_u=s, s_l=s, alpha_rule="constant",
                                alpha_scale=0.0)
    res = hypergrad_onestage(p, [x0], [0.0], sched, eps=1e-5)
    np.testing.assert_array_equal(res.gradient, p.grad_x_F(np.array([x0]), np.array([y1])))


def test_onestage_projected_branch_fires():
    tight = make_counterexample(2, y_radius=0.02)
    res = hypergrad_onestage(tight, 1.5 * np.ones(2), np.zeros(4), ONESTAGE,
                             eps=1e-4)
    assert res.diagnostics["branch"] == "projected"
    assert np.all(np.isfinite(res.gradient))


@pytest.mark.parametrize("s_l", [0.5, 0.9])
def test_onestage_projected_branch_matches_one_step_reverse(s_l):
    # the clipped step's difference carries the step size s = s_l, as the
    # interior branch's does; one-step reverse mode is the reference
    p = make_counterexample(2, y_radius=0.3)
    x, y0 = np.array([1.5, 0.2]), np.zeros(p.m)
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=s_l,
                                alpha_rule="harmonic", alpha_scale=0.5)
    res = hypergrad_onestage(p, x, y0, sched, eps=1e-6)
    ref = hypergrad_reverse(p, x, 1, sched, mode="bda", y0=y0).gradient
    assert res.diagnostics["branch"] == "projected"
    np.testing.assert_allclose(res.gradient, ref, rtol=1e-6)


def test_onestage_degenerate_eps():
    p = make_remark1()
    # at eps this small the probe offsets vanish against a nonzero base point
    with pytest.raises(NumericalError):
        hypergrad_onestage(p, [1.0], [0.5, 0.5], ONESTAGE, eps=1e-300)
    with pytest.raises(ContractError):
        hypergrad_onestage(p, [1.0], [0.0, 0.0], ONESTAGE, eps=0.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(n=st.integers(1, 4), picks=st.lists(st.integers(0, 2), min_size=2,
                                           max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_onestage_on_rows_equals_each_row_alone(n, picks, seed):
    # in a tight LL box, row 0's small x keeps its step interior and row 1's
    # large x clips it; every row runs under its own schedule
    p = make_counterexample(n, y_radius=0.6)
    scheds = [ROW_SCHEDS[i] for i in picks]
    rng = rng_stream(seed)
    X = rng.standard_normal((len(picks), n))
    X[0] *= 1e-3
    X[1] = 8.0 + np.abs(X[1])
    Y0 = rng.uniform(-0.01, 0.01, (len(picks), p.m))
    res = hypergrad_onestage(p, X, Y0, scheds, eps=1e-6)
    branch = res.diagnostics["branch"]
    assert list(branch[:2]) == ["interior", "projected"]
    for b, sched in enumerate(scheds):
        alone = hypergrad_onestage(p, X[b], Y0[b], sched, eps=1e-6)
        assert alone.diagnostics["branch"] == branch[b]
        assert res.gradient[b].tobytes() == alone.gradient.tobytes()
        assert res.diagnostics["y1"][b].tobytes() == \
            alone.diagnostics["y1"].tobytes()


def test_onestage_rows_need_matching_y0_rows():
    p = make_remark1()
    with pytest.raises(ContractError, match="does not fit"):
        hypergrad_onestage(p, np.zeros((2, 1)), np.zeros(2), ONESTAGE)


def test_onestage_on_zero_rows_is_an_empty_batch():
    p = make_lls_quadratic(2, 3, 0)
    res = hypergrad_onestage(p, np.zeros((0, 2)), np.zeros((0, 3)), ONESTAGE)
    assert res.gradient.shape == (0, 2)
    assert sorted(res.diagnostics) == ["branch", "y1"]
    assert all(v.size == 0 for v in res.diagnostics.values())


def test_onestage_batch_does_only_its_rows_own_work():
    # an interior row takes two grad_x_f rows, a projected one four: a batch
    # that mixes them asks for as many rows as its solo calls together
    base = make_counterexample(3, y_radius=0.6)
    rows = [0]

    def grad_x_f(x, y):
        rows[0] += len(y) if np.ndim(y) == 2 else 1
        return base.grad_x_f(x, y)

    p = dataclasses.replace(base, grad_x_f=grad_x_f)
    rng = rng_stream(3)
    X = rng.standard_normal((4, 3))
    X[0] *= 1e-3
    X[1] = 8.0 + np.abs(X[1])
    Y0 = rng.uniform(-0.01, 0.01, (4, p.m))
    branch = hypergrad_onestage(p, X, Y0, ONESTAGE,
                                eps=1e-6).diagnostics["branch"]
    batch, rows[0] = rows[0], 0
    for b in range(4):
        hypergrad_onestage(p, X[b], Y0[b], ONESTAGE, eps=1e-6)
    assert list(branch[:2]) == ["interior", "projected"]
    assert batch == rows[0] == 2 * len(branch) + 2 * np.count_nonzero(
        branch == "projected")
