import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bda.hypergrad import (hypergrad_forward, hypergrad_implicit,
                           hypergrad_onestage, hypergrad_reverse)
from bda.inner import AggregationSchedule, run_inner
from bda.numerics import (CapabilityError, ContractError, NumericalError,
                          rng_stream)
from bda.problems import (lls_quadratic, make_counterexample,
                          make_lls_quadratic, make_remark1)
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
    assert res.method == "reverse"


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


def test_forward_strict_projection_refusal_and_convention():
    tight = make_counterexample(2, y_radius=0.05)
    sched = AggregationSchedule(mu=0.2, s_u=0.1, s_l=0.1)
    x = 1.5 * np.ones(2)
    with pytest.raises(CapabilityError):
        hypergrad_forward(tight, x, 5, sched, mode="bda")
    res = hypergrad_forward(tight, x, 5, sched, mode="bda",
                            strict_projection=False)
    assert np.all(np.isfinite(res.gradient))
    assert res.diagnostics["projection_hit"]


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


# ---------------------------------------------------------------------------
# one-stage scheme
# ---------------------------------------------------------------------------

ONESTAGE = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1,
                               alpha_rule="scaled", alpha_scale=0.5)


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
    sched = AggregationSchedule(mu=mu, s_u=s, s_l=s, alpha_rule="zero")
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
                                alpha_rule="scaled", alpha_scale=0.5)
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
