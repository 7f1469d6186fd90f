import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bda import problems
from bda.harness import default_hyperclean_solver
from bda.hypergrad import hypergrad_implicit, hypergrad_reverse
from bda.inner import AggregationSchedule, run_inner
from bda.numerics import ContractError, rng_stream
from bda.outer import solve, solve_many
from bda.problems import (HypercleanConfig, lls_quadratic, make_counterexample,
                          make_hypercleaning, make_lls_quadratic, make_problem,
                          make_remark1, make_remark1_regularized,
                          remark1_plain_descent_limit, _MEMO_POINTS, _sigmoid,
                          _softmax)
from bda.verify import fd_gradient, grid_argmin


def _sample_xy(problem, rng, scale=0.7):
    x = scale * rng.standard_normal(problem.n)
    y = scale * rng.standard_normal(problem.m)
    return problem.region_x.project(x), problem.region_y.project(y)


SMALL_HYPERCLEAN = HypercleanConfig(num_classes=2, feature_dim=2, n_train=8,
                                    n_val=8, n_test=8,
                                    corruption_fraction=0.25, seed=3)

ALL_PROBLEMS = [
    make_counterexample(2),
    make_remark1(),
    make_remark1_regularized(0.05),
    make_lls_quadratic(2, 3, seed=1),
    make_hypercleaning(SMALL_HYPERCLEAN),
]

ORACLES = ("F", "f", "grad_x_F", "grad_y_F", "grad_y_f", "grad_x_f",
           "hess_yy_f", "hess_yx_f", "hess_yy_F", "hess_yx_F")
REFERENCES = ("y_star_of_x", "f_star_of_x", "phi_star_of_x", "grad_phi_of_x")


def _in_rows(problem, label=None, rows=3, at=1):
    """``problem``, named ``<label>-rows``, whose oracles answer from row
    ``at`` of one call on ``rows`` stacked points, the other rows random: the
    row oracles, seen through the 1-D contract."""
    rng = rng_stream(7)
    fill = (rng.standard_normal((rows, problem.n)),
            rng.standard_normal((rows, problem.m)),
            rng.standard_normal((rows, problem.m)))

    def row_of(fn):
        def call(*args):
            stacked = [np.vstack([other[:at], [arg], other[at + 1:]])
                       for arg, other in zip(args, fill)]
            return fn(*stacked)[at]
        return call

    return dataclasses.replace(
        problem, name=f"{label or problem.name}-rows",
        **{name: row_of(getattr(problem, name)) for name in ORACLES})


# every problem through its 1-D oracles, and through rows
ORACLE_CASES = [*ALL_PROBLEMS, *(
    _in_rows(p, "lls" if p.name.startswith("lls") else None)
    for p in ALL_PROBLEMS)]


@pytest.mark.parametrize("problem", ORACLE_CASES, ids=lambda p: p.name)
def test_declared_gradients_match_finite_differences(problem):
    rng = rng_stream(11)
    for _ in range(3):
        x, y = _sample_xy(problem, rng)
        eps_y = 1e-6 * (1.0 + np.linalg.norm(y))
        eps_x = 1e-6 * (1.0 + np.linalg.norm(x))
        checks = [
            (problem.grad_y_F(x, y), fd_gradient(lambda yy: problem.F(x, yy), y, eps_y)),
            (problem.grad_y_f(x, y), fd_gradient(lambda yy: problem.f(x, yy), y, eps_y)),
            (problem.grad_x_F(x, y), fd_gradient(lambda xx: problem.F(xx, y), x, eps_x)),
        ]
        if problem.grad_x_f is not None:
            checks.append((problem.grad_x_f(x, y),
                           fd_gradient(lambda xx: problem.f(xx, y), x, eps_x)))
        for declared, fd in checks:
            denom = max(np.linalg.norm(fd), 1.0)
            assert np.linalg.norm(np.asarray(declared) - fd) / denom <= 1e-5


@pytest.mark.parametrize("problem", ORACLE_CASES, ids=lambda p: p.name)
def test_declared_hessians_match_finite_differences(problem):
    # each product against its central-difference Jacobian times a random v
    rng = rng_stream(5)
    x, y = _sample_xy(problem, rng)
    v = rng.standard_normal(problem.m)
    eps = 1e-5

    def fd_jac(vec_fn, point, cols):
        out = np.zeros((len(vec_fn(point)), cols))
        for j in range(cols):
            step = np.zeros(cols)
            step[j] = eps
            out[:, j] = (np.asarray(vec_fn(point + step))
                         - np.asarray(vec_fn(point - step))) / (2 * eps)
        return out

    pairs = [
        (problem.hess_yy_f(x, y, v), fd_jac(lambda yy: problem.grad_y_f(x, yy), y, problem.m) @ v),
        (problem.hess_yy_F(x, y, v), fd_jac(lambda yy: problem.grad_y_F(x, yy), y, problem.m) @ v),
        (problem.hess_yx_f(x, y, v), fd_jac(lambda xx: problem.grad_y_f(xx, y), x, problem.n).T @ v),
        (problem.hess_yx_F(x, y, v), fd_jac(lambda xx: problem.grad_y_F(xx, y), x, problem.n).T @ v),
    ]
    for declared, fd in pairs:
        assert np.shape(declared) == fd.shape
        denom = max(np.linalg.norm(fd), 1.0)
        assert np.linalg.norm(np.asarray(declared) - fd) / denom <= 1e-4


@pytest.mark.parametrize("problem", ORACLE_CASES, ids=lambda p: p.name)
@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_hessian_products_are_symmetric(problem, seed):
    # <u, H v> = <H u, v> for both yy products at a random point
    rng = rng_stream(seed)
    x, y = _sample_xy(problem, rng, scale=2.0)
    u, v = rng.standard_normal((2, problem.m))
    for product in (problem.hess_yy_f, problem.hess_yy_F):
        Hu, Hv = product(x, y, u), product(x, y, v)
        scale = max(1.0, np.linalg.norm(u) * np.linalg.norm(Hv),
                    np.linalg.norm(Hu) * np.linalg.norm(v))
        assert abs(np.dot(u, Hv) - np.dot(Hu, v)) <= 1e-12 * scale


def test_hyperclean_products_match_dense_hessian():
    # the dense blocks the products replace, assembled by the 5-operand einsum;
    # rounding is relative to the summed terms sum_i w_i |u_i|^2 |v|, since
    # the blocks cancel to far below that once the softmax saturates
    problem = ALL_PROBLEMS[-1]
    md = problem.metadata
    train, val = md["train"], md["val"]
    C, d1 = md["config"].num_classes, md["config"].feature_dim + 1
    rng = rng_stream(2)

    def dense(data, theta, weights):
        p = data.probs(theta)
        diag = np.einsum("i,ic,ij,ik->cjk", weights, p, data.aug, data.aug)
        h = -np.einsum("i,ic,ie,ij,ik->cjek", weights, p, p, data.aug, data.aug)
        idx = np.arange(C)
        h[idx, :, idx, :] += diag
        return h.reshape(problem.m, problem.m)

    for _ in range(20):
        x, y = _sample_xy(problem, rng, scale=2.0)
        theta, w = y.reshape(C, d1), _sigmoid(x)
        grads = np.einsum("ic,ij->icj", train.probs(theta) - train.onehot,
                          train.aug).reshape(problem.n, problem.m)
        v = rng.standard_normal(problem.m)
        for product, ref, data, weights in (
                (problem.hess_yy_f, dense(train, theta, w) @ v, train, w),
                (problem.hess_yy_F, dense(val, theta, np.ones(8)) @ v, val, np.ones(8)),
                (problem.hess_yx_f, (w * (1.0 - w) * grads.T).T @ v, train, w * (1.0 - w))):
            scale = np.dot(weights, (data.aug ** 2).sum(axis=1)) * np.linalg.norm(v)
            assert np.linalg.norm(product(x, y, v) - ref) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# counter-example
# ---------------------------------------------------------------------------

# every built-in problem; the counterexample is drawn at LL dimension 2n,
# lls_quadratic at m, the others at their fixed sizes
ROW_PROBLEMS = {
    "counterexample": lambda n, m, seed: make_counterexample(n),
    "lls": make_lls_quadratic,
    "remark1": lambda n, m, seed: make_remark1(),
    "remark1_regularized": lambda n, m, seed: make_remark1_regularized(0.05),
    "hyperclean": lambda n, m, seed: make_hypercleaning(SMALL_HYPERCLEAN)}


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(kind=st.sampled_from(sorted(ROW_PROBLEMS)), n=st.integers(1, 6),
       m=st.integers(1, 8), rows=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_counterexample_oracles_answer_row_by_row(kind, n, m, rows, seed):
    # each row of a call on (B, .) arrays is the 1-D call on that row, bit
    # for bit; F and f give a (B,) array.  Every built-in problem answers
    # so, and so do the references of x that it declares
    p = ROW_PROBLEMS[kind](n, m, seed)
    rng = rng_stream(seed)
    X = 2.0 * rng.standard_normal((rows, p.n))
    Y, V = 2.0 * rng.standard_normal((2, rows, p.m))
    shapes = {"F": (rows,), "f": (rows,), "grad_x_F": (rows, p.n),
              "grad_x_f": (rows, p.n), "hess_yx_f": (rows, p.n),
              "hess_yx_F": (rows, p.n), "y_star_of_x": (rows, p.m),
              "f_star_of_x": (rows,), "phi_star_of_x": (rows,),
              "grad_phi_of_x": (rows, p.n)}
    for name in (*ORACLES, *REFERENCES):
        if getattr(p, name) is None:
            continue
        args = (X, Y, V) if name.startswith("hess_") else \
            (X,) if name in REFERENCES else (X, Y)
        out = getattr(p, name)(*args)
        assert np.shape(out) == shapes.get(name, (rows, p.m)), name
        for b in range(rows):
            alone = getattr(p, name)(*(a[b] for a in args))
            np.testing.assert_array_equal(out[b], alone, err_msg=name)


def test_counterexample_global_optimum():
    p = make_counterexample(3)
    e = np.ones(3)
    assert p.F(e, np.concatenate([e, e])) == 0.0
    np.testing.assert_array_equal(p.x_opt, e)
    np.testing.assert_array_equal(p.y_opt, np.concatenate([e, e]))


def test_counterexample_f_star_scalar():
    p = make_counterexample(1)
    # minimize y^2/2 - y analytically
    assert p.f_star_of_x(np.array([1.0])) == pytest.approx(-0.5)


def test_counterexample_plain_descent_closed_form():
    p = make_counterexample(3)
    x = np.array([0.4, -0.2, 0.9])
    s_l, K = 0.3, 15
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=s_l)
    y_K, _ = run_inner(p, x, K, sched, mode="plain")
    a_K = 1.0 - (1.0 - s_l) ** K
    np.testing.assert_allclose(y_K[:3], a_K * x, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(y_K[3:], np.zeros(3))


def test_counterexample_f_independent_of_free_block():
    p = make_counterexample(2)
    x = np.array([0.5, -1.0])
    w = np.array([0.3, 0.1, 2.0, -4.0])
    w2 = w.copy()
    w2[2:] = [17.0, 3.0]
    assert p.f(x, w) == p.f(x, w2)


def _counterexample_closed_forms(n):
    """The counterexample's values and its y- and x-side F oracles on one
    point, written out half by half with np.dot and a float's ** 2: the
    reference for the one kernel that serves points and rows."""
    e = np.ones(n)

    def F(x, w):
        y, z = w[:n], w[n:]
        return np.dot(x - z, x - z) ** 2 + np.dot(y - e, y - e) ** 2

    def f(x, w):
        y = w[:n]
        return 0.5 * np.dot(y, y) - np.dot(x, y)

    def grad_x_F(x, w):
        d = x - w[n:]
        return 4.0 * np.dot(d, d) * d

    def grad_y_F(x, w):
        y, z = w[:n], w[n:]
        return np.concatenate([4.0 * np.dot(y - e, y - e) * (y - e),
                               4.0 * np.dot(x - z, x - z) * (z - x)])

    def hess_yy_F(x, w, v):
        dy, dz = w[:n] - e, w[n:] - x
        vy, vz = v[:n], v[n:]
        return 4.0 * np.concatenate(
            [np.dot(dy, dy) * vy + 2.0 * np.dot(dy, vy) * dy,
             np.dot(dz, dz) * vz + 2.0 * np.dot(dz, vz) * dz])

    def hess_yx_F(x, w, v):
        d, vz = x - w[n:], v[n:]
        return -8.0 * np.dot(d, vz) * d - 4.0 * np.dot(d, d) * vz

    return {"F": F, "f": f, "grad_x_F": grad_x_F, "grad_y_F": grad_y_F,
            "hess_yy_F": hess_yy_F, "hess_yx_F": hess_yx_F}


@pytest.mark.parametrize("n", [1, 3, 50, 137])
def test_counterexample_one_kernel_keeps_the_closed_forms_bits(n):
    # one body per oracle serves a point and (B, 2n) rows alike (F, grad_y_F
    # and hess_yy_F on one (..., 2, n) stack of both halves); each answer,
    # and each row, keeps the bits of the half-by-half np.dot closed form
    p = make_counterexample(n)
    reference = _counterexample_closed_forms(n)
    rng = rng_stream(n)
    for rows in (1, 7, 120):
        X = rng.standard_normal((rows, n))
        W, V = rng.standard_normal((2, rows, 2 * n))
        for name, want in reference.items():
            args = (X, W, V) if name.startswith("hess_") else (X, W)
            out = getattr(p, name)(*args)
            for b in range(rows):
                row = [a[b] for a in args]
                expected = np.asarray(want(*row)).tobytes()
                assert out[b].tobytes() == expected, (name, rows, b)
                alone = np.asarray(getattr(p, name)(*row))
                assert alone.tobytes() == expected, (name, b)


def test_float_power_squares_with_a_floats_bits():
    # the value kernels square through np.float_power, which calls libm pow
    # on each element as a float's ** 2 does; an array's ** 2 (a product)
    # rounds some of these doubles one ulp apart
    v = 10.0 ** rng_stream(0).uniform(-3.0, 3.0, 100_000)
    expected = np.array([float(t) ** 2 for t in v])
    np.testing.assert_array_equal(np.float_power(v, 2), expected)


def test_counterexample_rejects_bad_dimension():
    with pytest.raises(ContractError):
        make_counterexample(0)


# ---------------------------------------------------------------------------
# flat-direction problem and its closed forms
# ---------------------------------------------------------------------------

def test_remark1_global_optimum():
    p = make_remark1()
    assert p.x_opt[0] == 1.0
    np.testing.assert_array_equal(p.y_opt, [1.0, 1.0])
    assert p.phi_star_of_x(np.array([1.0])) == 0.0


def test_remark1_reachable_point_capped_at_half():
    for s_l in (0.05, 0.1, 0.5, 0.9):
        for K in (1, 5, 20, 200):
            _, x_K = remark1_plain_descent_limit(s_l, K)
            assert x_K <= 0.5


def test_remark1_closed_form_matches_brute_force_grid():
    a_K, x_K = remark1_plain_descent_limit(0.1, 20)
    assert a_K == pytest.approx(1.0 - 0.9 ** 20)

    def phi_K(xs):
        return 0.5 * xs ** 2 + 0.5 * (a_K * xs - 1.0) ** 2

    # value-level agreement: the analytic minimizer is minimal on the grid
    _, grid_val = grid_argmin(phi_K, (-100.0, 100.0), 10_000, vectorized=True)
    assert grid_val >= phi_K(np.array([x_K]))[0] - 1e-6


def test_remark1_regularized_changes_only_what_epsilon_touches():
    # F and its derivatives, f's x-side derivatives and the value function
    # f* answer as remark1's own; f* is still the minimum of f(x, .)
    base, p = make_remark1(), make_remark1_regularized(0.05)
    rng = rng_stream(3)
    for _ in range(4):
        x, y = _sample_xy(p, rng, scale=2.0)
        v = rng.standard_normal(2)
        for name in ("F", "grad_x_F", "grad_y_F", "grad_x_f"):
            assert np.array_equal(getattr(p, name)(x, y),
                                  getattr(base, name)(x, y)), name
        for name in ("hess_yx_f", "hess_yy_F", "hess_yx_F"):
            assert np.array_equal(getattr(p, name)(x, y, v),
                                  getattr(base, name)(x, y, v)), name
        assert p.f_star_of_x(x) == p.f(x, p.y_star_of_x(x))
    assert (p.L_F, p.L_f, p.F_lower_bound) == (1.0, 1.0, 0.0)


def test_remark1_regularized_moves_optimum_to_half():
    for eps in (0.1, 1e-3):
        p = make_remark1_regularized(eps)
        assert p.x_opt[0] == 0.5
        np.testing.assert_array_equal(p.y_star_of_x(np.array([0.5])), [0.5, 0.0])
        # brute force on the reduced objective agrees
        xg, _ = grid_argmin(lambda t: p.phi_star_of_x(np.array([t])),
                            (-2.0, 2.0), 4001)
        assert xg == pytest.approx(0.5, abs=1e-3)


# ---------------------------------------------------------------------------
# quadratic fixture
# ---------------------------------------------------------------------------

def test_lls_scalar_hand_value():
    p = lls_quadratic(A=2.0, B=1.0, b=[1.0], rho=0.0, x_radius=10.0)
    x = np.array([4.0])
    assert p.y_star_of_x(x)[0] == pytest.approx(2.0)
    # dphi = (dy*/dx)' (y* - b) = 0.5 * (2 - 1)
    assert p.grad_phi_of_x(x)[0] == pytest.approx(0.5)


def test_lls_decoupled_when_B_zero():
    p = lls_quadratic(A=np.eye(2), B=np.zeros((2, 1)), b=[1.0, -1.0], rho=0.3)
    for t in (-1.0, 0.0, 2.0):
        x = np.array([t])
        np.testing.assert_allclose(p.grad_phi_of_x(x), 0.3 * x)
        np.testing.assert_array_equal(p.y_star_of_x(x), [0.0, 0.0])


def test_lls_random_instance_stationarity_residual():
    p = make_lls_quadratic(3, 4, seed=9)
    rng = rng_stream(2)
    for _ in range(5):
        x = rng.standard_normal(3)
        resid = np.linalg.norm(p.grad_y_f(x, p.y_star_of_x(x)))
        assert resid <= 1e-10


def test_lls_reference_only_inside_the_box():
    # seed 0's minimizer of phi leaves X = [-2, 2]^5 (x_opt[4] = -2.107):
    # no run can reach it, so the problem declares no reference
    p = make_lls_quadratic(5, 10, seed=0)
    assert p.x_opt is None and p.y_opt is None
    # a feasible seed keeps the unconstrained minimizer, bit for bit
    p = make_lls_quadratic(5, 10, seed=12)
    x, y = np.zeros(5), np.zeros(10)
    B = -problems.product_rows(lambda v: p.hess_yx_f(x, y, v), 10)
    b = -p.grad_y_F(x, y)
    M = np.linalg.solve(p.metadata["A"], B)
    want = np.linalg.solve(M.T @ M + 0.1 * np.eye(5), M.T @ b)
    assert p.x_opt.tobytes() == want.tobytes()
    assert p.y_opt.tobytes() == (M @ want).tobytes()
    assert np.abs(p.x_opt).max() <= 2.0


@pytest.mark.parametrize(
    "problem", [*ALL_PROBLEMS, make_remark1_regularized(4.0)],
    ids=lambda p: p.name)
def test_declared_smoothness_constants_bound_the_hessians(problem):
    # L_f (and L_F where declared) bounds the spectral norm of the yy
    # Hessian at every sampled point; with eps = 4, grad_yy f = diag(1, 4)
    rng = rng_stream(5)
    for _ in range(6):
        x, y = _sample_xy(problem, rng, scale=2.0)
        for product, bound in ((problem.hess_yy_f, problem.L_f),
                               (problem.hess_yy_F, problem.L_F)):
            if bound is None:
                continue
            H = problems.product_rows(lambda v: product(x, y, v), problem.m)
            assert np.linalg.norm(H, 2) <= bound * (1 + 1e-12), product


def test_remark1_regularized_rejects_a_step_beyond_its_curvature():
    # grad_yy f = diag(1, 4): with s_l = 0.5, plain descent flips the sign
    # of the second coordinate forever, so the schedule is not admissible
    with pytest.raises(ContractError):
        AggregationSchedule(mu=0.5, s_u=0.5, s_l=0.5).require_admissible(
            make_remark1_regularized(4.0))


def test_lls_sigma_is_min_eigenvalue():
    p = make_lls_quadratic(2, 5, seed=4)
    A = p.metadata["A"]
    assert p.L_f == pytest.approx(np.linalg.eigvalsh(A)[-1], abs=1e-10)


# ---------------------------------------------------------------------------
# hyper-cleaning
# ---------------------------------------------------------------------------

def _hc_problem(frac=0.5, seed=0, **kw):
    cfg = HypercleanConfig(corruption_fraction=frac, seed=seed, **kw)
    return make_hypercleaning(cfg)


def test_hyperclean_weight_one_recovers_unweighted_loss():
    p = _hc_problem()
    rng = rng_stream(1)
    y = 0.3 * rng.standard_normal(p.m)
    x_one = 40.0 * np.ones(p.n)  # sigmoid ~ 1 to machine precision
    train = p.metadata["train"]
    unweighted = float(train.losses(y.reshape(3, 3)).sum())
    assert p.f(x_one, y) == pytest.approx(unweighted, rel=1e-12)


def test_hyperclean_masking_corrupted_gives_clean_subset_loss():
    p = _hc_problem()
    rng = rng_stream(2)
    y = 0.3 * rng.standard_normal(p.m)
    mask = p.metadata["corrupted_mask"]
    x = np.where(mask, -40.0, 40.0)
    train = p.metadata["train"]
    clean = float(train.losses(y.reshape(3, 3))[~mask].sum())
    assert p.f(x, y) == pytest.approx(clean, rel=1e-10)


def test_hyperclean_weight_gradient_formula():
    p = _hc_problem()
    rng = rng_stream(3)
    x = 0.5 * rng.standard_normal(p.n)
    y = 0.3 * rng.standard_normal(p.m)
    losses = p.metadata["train"].losses(y.reshape(3, 3))
    w = _sigmoid(x)
    np.testing.assert_allclose(p.grad_x_f(x, y), w * (1 - w) * losses,
                               rtol=1e-12)


@pytest.mark.parametrize("problem", [ALL_PROBLEMS[-1], _hc_problem(seed=1)],
                         ids=["n8", "toy"])
def test_hyperclean_gemm_gradients_match_per_sample_einsum(problem):
    # reference: the per-sample (N, C, d+1) gradient tensor the GEMMs replace;
    # rounding is relative to the summed terms sum_i w_i |g_i| (|v|)
    md = problem.metadata
    train, val = md["train"], md["val"]
    C, d1 = md["config"].num_classes, md["config"].feature_dim + 1
    rng = rng_stream(4)

    def per_sample(data, theta):
        return np.einsum("ic,ij->icj", data.probs(theta) - data.onehot,
                         data.aug)

    for _ in range(20):
        x, y = _sample_xy(problem, rng, scale=2.0)
        theta, w = y.reshape(C, d1), _sigmoid(x)
        v = rng.standard_normal(problem.m)
        g_train, g_val = per_sample(train, theta), per_sample(val, theta)
        n_train = np.linalg.norm(g_train, axis=(1, 2))
        n_val = np.linalg.norm(g_val, axis=(1, 2))
        for got, ref, scale in (
                (problem.grad_y_f(x, y),
                 np.einsum("i,icj->cj", w, g_train).ravel(), np.dot(w, n_train)),
                (problem.grad_y_F(x, y), g_val.sum(axis=0).ravel(), n_val.sum()),
                (problem.hess_yx_f(x, y, v),
                 w * (1.0 - w) * (g_train.reshape(problem.n, problem.m) @ v),
                 np.dot(w * (1.0 - w), n_train) * np.linalg.norm(v))):
            assert np.linalg.norm(got - ref) <= 1e-14 * scale


_HC_ORACLES = ("F", "f", "grad_x_F", "grad_y_F", "grad_y_f", "grad_x_f",
               "hess_yy_f", "hess_yx_f", "hess_yy_F", "hess_yx_F")


def test_hyperclean_oracles_match_a_fresh_problem_at_every_point():
    # the per-point cache is keyed on values: revisiting a point, and arrays
    # changed in place (same objects, new contents), give the bits of a
    # problem that has never seen a point
    cfg = HypercleanConfig(seed=1)
    problem = make_hypercleaning(cfg)
    rng = rng_stream(8)
    (x1, y1), (x2, y2), (x3, y3) = (_sample_xy(problem, rng) for _ in range(3))
    v = rng.standard_normal(problem.m)

    def visit(x, y):
        fresh = make_hypercleaning(cfg)
        for name in _HC_ORACLES:
            args = (x, y, v) if name.startswith("hess") else (x, y)
            got = getattr(problem, name)(*args)
            want = getattr(fresh, name)(*(a.copy() for a in args))
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name

    visit(x1, y1)
    visit(x2, y2)
    visit(x1, y1)
    y1[:] = y3  # same array, new contents
    visit(x1, y1)
    x1[:] = x3
    visit(x1, y1)


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ops=st.lists(st.sampled_from(["new", "repeat", "edit"]),
                    min_size=_MEMO_POINTS + 1, max_size=3 * _MEMO_POINTS))
def test_memoized_probs_equal_an_unmemoized_softmax_on_every_call(seed, ops):
    # repeats reach back past the memo's reach, and an edit changes the
    # contents of an array the memo has already seen
    data = _hc_problem(seed=1).metadata["train"]
    rng = rng_stream(seed)
    history = [rng.standard_normal((3, 3))]
    for op in ops:
        if op == "new":
            history.append(rng.standard_normal((3, 3)))
        elif op == "repeat":
            lo = max(0, len(history) - 2 * _MEMO_POINTS)
            history.append(history[rng.integers(lo, len(history))])
        else:
            history[-1][rng.integers(3), rng.integers(3)] += 1.0
        theta = history[-1]
        got = data.probs(theta)
        assert got.tobytes() == _softmax(data.logits(theta)).tobytes()
        with pytest.raises(ValueError):
            got[0, 0] = 0.0
    assert len(data.probs._values) <= _MEMO_POINTS


def test_memo_shared_between_threads_keeps_its_bound():
    # a miss evicts the oldest entry, a check-then-act on the shared dict;
    # a cheap fn and a short switch interval make an unguarded race show
    memo = problems._Memo(lambda a: 2.0 * a)
    args = [np.array([float(i)]) for i in range(4 * _MEMO_POINTS)]
    errors = []

    def worker(offset):
        try:
            for i in range(20000):
                arg = args[(7 * i + offset) % len(args)]
                assert memo(arg).tobytes() == (2.0 * arg).tobytes()
        except Exception as err:  # reported by the main thread below
            errors.append(err)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(memo._values) <= _MEMO_POINTS


def _pass_through_problem(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(problems, "_Memo", lambda fn: fn)
        return _hc_problem(seed=1)


# steps just under 0.8 / L_f and 0.8 / L_F of the seed-1 toy problem
_HC_SCHED = AggregationSchedule(mu=0.1, s_u=0.004, s_l=0.004)


@pytest.mark.parametrize("K", [5, 40, 80])  # 80 > _MEMO_POINTS evicts
@pytest.mark.parametrize("mode", ["bda", "plain"])
def test_memoized_hypergradients_equal_an_unmemoized_problem(monkeypatch,
                                                             mode, K):
    problem, plain = _hc_problem(seed=1), _pass_through_problem(monkeypatch)
    x = rng_stream(5).standard_normal(problem.n)
    got = hypergrad_reverse(problem, x, K, _HC_SCHED, mode=mode)
    want = hypergrad_reverse(plain, x, K, _HC_SCHED, mode=mode)
    assert got.gradient.tobytes() == want.gradient.tobytes()
    y_K = got.diagnostics["trace"].ys[-1]
    got, want = (hypergrad_implicit(p, x, y_K, cg_tol=1e-8)
                 for p in (problem, plain))
    assert got.gradient.tobytes() == want.gradient.tobytes()


@pytest.fixture
def softmax_calls(monkeypatch):
    calls = []

    def counted(logits):
        calls.append(1)
        return _softmax(logits)

    monkeypatch.setattr(problems, "_softmax", counted)
    return calls


@pytest.mark.parametrize("K", [5, 40])
@pytest.mark.parametrize("mode,per_step", [("bda", 2), ("plain", 1)])
def test_reverse_hypergradient_computes_each_softmax_once(softmax_calls,
                                                          mode, per_step, K):
    # forward: one softmax per split the step reads at each of y_0..y_{K-1},
    # then the val split at y_K; the backward pass reads them all back
    problem = _hc_problem(seed=1)
    x = rng_stream(5).standard_normal(problem.n)
    hypergrad_reverse(problem, x, K, _HC_SCHED, mode=mode)
    assert len(softmax_calls) == per_step * K + 1


def test_implicit_hypergradient_computes_two_softmaxes(softmax_calls):
    # grad_y_F reads the val split; every CG product and hess_yx_f the train split
    problem = _hc_problem(seed=1)
    rng = rng_stream(6)
    x, y = rng.standard_normal(problem.n), rng.standard_normal(problem.m)
    res = hypergrad_implicit(problem, x, y, cg_tol=1e-8)
    assert res.diagnostics["cg_iterations"] > 2
    assert len(softmax_calls) == 2


def test_hyperclean_batch_computes_no_more_softmaxes_than_its_solo_solves(
        softmax_calls):
    # B (K+1) = 123 points per split go through each memo, which keeps 64
    # per row of the batch: the backward pass and its x-side row call hit
    X = rng_stream(9).standard_normal((3, 30))
    cfg = dataclasses.replace(default_hyperclean_solver(_hc_problem(seed=1),
                                                        "bda"), K=40, T_max=10)
    records = solve_many(_hc_problem(seed=1), cfg, X)
    batch = len(softmax_calls)
    problem = _hc_problem(seed=1)
    solos = [solve(problem, cfg, x0=x0) for x0 in X]
    assert batch <= len(softmax_calls) - batch
    for record, solo in zip(records, solos):
        assert (record.status, record.T) == (solo.status, solo.T)
        assert record.xs.tobytes() == solo.xs.tobytes()
        assert record.y_final.tobytes() == solo.y_final.tobytes()
        for name, vals in solo.metrics.items():
            assert record.metrics[name].tobytes() == vals.tobytes(), name


@pytest.mark.parametrize("feature_dim", [2, 50])
def test_hyperclean_oracle_rows_keep_each_rows_bits(feature_dim):
    # each oracle is one kernel on a point or a stack; its stacked matmuls
    # give every row the bits of its 1-D call, where a wide
    # aug @ V.reshape(B*C, d+1).T loses them at d + 1 = 51
    problem = make_hypercleaning(HypercleanConfig(
        num_classes=3, feature_dim=feature_dim, n_train=57, seed=1,
        ul_ridge=0.5))
    rng = rng_stream(feature_dim)
    for rows in (1, 3, 40):
        X = rng.standard_normal((rows, problem.n))
        Y, V = rng.standard_normal((2, rows, problem.m))
        for name in _HC_ORACLES:
            args = (X, Y, V) if name.startswith("hess_") else (X, Y)
            out = getattr(problem, name)(*args)
            assert len(out) == rows, name
            for b in range(rows):
                alone = np.asarray(getattr(problem, name)(*(a[b]
                                                            for a in args)))
                assert out[b].shape == alone.shape, name
                assert out[b].tobytes() == alone.tobytes(), name


def test_hyperclean_optional_ul_ridge():
    base = _hc_problem(seed=4)
    ridged = make_hypercleaning(HypercleanConfig(corruption_fraction=0.5,
                                                 seed=4, ul_ridge=0.7))
    rng = rng_stream(0)
    x = rng.standard_normal(base.n)
    y = 0.2 * rng.standard_normal(base.m)
    assert ridged.F(x, y) == pytest.approx(base.F(x, y) + 0.35 * np.dot(x, x))
    np.testing.assert_allclose(ridged.grad_x_F(x, y), 0.7 * x)
    np.testing.assert_array_equal(base.grad_x_F(x, y), np.zeros(base.n))


def test_hyperclean_config_validation():
    with pytest.raises(ContractError):
        HypercleanConfig(corruption_fraction=1.0)
    with pytest.raises(ContractError):
        HypercleanConfig(n_train=0)
    with pytest.raises(ContractError):
        HypercleanConfig(num_classes=1)


def test_hyperclean_degenerate_split_raises():
    # tiny split with many classes: some class must be missing
    with pytest.raises(ContractError):
        make_hypercleaning(HypercleanConfig(num_classes=5, n_train=3,
                                            n_val=3, n_test=3,
                                            corruption_fraction=0.0, seed=0))


def test_make_problem_factory():
    assert make_problem("remark1").name == "remark1"
    assert make_problem("counterexample", n=2).n == 2
    with pytest.raises(ContractError):
        make_problem("nope")


def _sigmoid_masked(t):
    # reference: the boolean-mask form, one exp per sign
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    ez = np.exp(t[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bitwise_equals_masked_form():
    rng = rng_stream(21)
    t = np.concatenate([800.0 * rng.standard_normal(300_000),
                        rng.uniform(-3500.0, 3500.0, 100_000),
                        rng.standard_normal(100_000),
                        [0.0, -0.0, 745.0, -745.0, 3500.0, -3500.0]])
    # exp(-|t|) underflows to 0 past |t| ~ 745 in both forms, which is the
    # intended saturation; overflow, invalid and divide errors raise
    with np.errstate(all="raise", under="ignore"):
        got, want = _sigmoid(t), _sigmoid_masked(t)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    with np.errstate(all="raise"):
        mid = t[np.abs(t) < 700.0]
        np.testing.assert_array_equal(_sigmoid(mid).view(np.int64),
                                      _sigmoid_masked(mid).view(np.int64))


# ---------------------------------------------------------------------------
# package surface
# ---------------------------------------------------------------------------

def test_every_exported_name_resolves():
    import bda
    for name in bda.__all__:
        assert getattr(bda, name) is not None, name
    namespace = {}
    exec("from bda import *", namespace)
    assert set(bda.__all__) <= set(namespace)
