"""Built-in bi-level test problems with analytic derivatives and reference solutions.

Each factory returns a :class:`BilevelProblem` whose callables take the
upper-level point ``x`` and the lower-level point ``y`` as 1-D float arrays,
or as (B, n) / (B, m) arrays of stacked points answered row by row, by the
one kernel that answers a point.
Second derivatives are closed-form products with a vector (no dense Hessian);
known minimizers, value functions, and lower-level optimal values are attached
so that metric and verification code has exact references.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from .numerics import (BoxRegion, CapabilityError, ContractError, as_vector,
                       rng_stream, typed_value)

Array = np.ndarray
VecFn = Callable[[Array, Array], Array]
ProdFn = Callable[[Array, Array, Array], Array]


@dataclass(frozen=True)
class BilevelProblem:
    """Contract between a concrete problem and the solver stack.

    ``F`` / ``f`` are the upper- and lower-level objectives, ``n`` / ``m``
    their variable dimensions, and ``region_x`` / ``region_y`` the feasible
    boxes.  Optional fields carry second derivatives, smoothness constants,
    and analytic reference data; solvers raise :class:`CapabilityError` when
    a field they need is absent.

    ``hess_yy_f(x, y, v)`` returns (grad_yy f) v, of length m, and
    ``hess_yx_f(x, y, v)`` returns (grad_yx f)' v = grad_x <grad_y f, v>, of
    length n; ``hess_yy_F`` and ``hess_yx_F`` are the same products for F.

    The ten oracles also take (B, n) / (B, m) arrays, one point per row, and
    answer row by row: ``F`` and ``f`` a (B,) array, the rest (B, n) or
    (B, m).  So do the four references of x: ``y_star_of_x`` a (B, m)
    array, ``f_star_of_x`` and ``phi_star_of_x`` (B,), ``grad_phi_of_x``
    (B, n).  Each row has the bits of the 1-D call on that row.
    """

    name: str
    n: int
    m: int
    region_x: BoxRegion
    region_y: BoxRegion
    F: Callable[[Array, Array], float]
    f: Callable[[Array, Array], float]
    grad_x_F: VecFn
    grad_y_F: VecFn
    grad_y_f: VecFn
    grad_x_f: Optional[VecFn] = None
    hess_yy_f: Optional[ProdFn] = None
    hess_yx_f: Optional[ProdFn] = None
    hess_yy_F: Optional[ProdFn] = None
    hess_yx_F: Optional[ProdFn] = None
    L_F: Optional[float] = None
    L_f: Optional[float] = None
    F_lower_bound: Optional[float] = None
    # a point of the lower-level solution set S(x); the UL-optimal one when known
    y_star_of_x: Optional[Callable[[Array], Array]] = None
    f_star_of_x: Optional[Callable[[Array], float]] = None
    phi_star_of_x: Optional[Callable[[Array], float]] = None
    grad_phi_of_x: Optional[Callable[[Array], Array]] = None
    x_opt: Optional[Array] = None
    y_opt: Optional[Array] = None
    metadata: dict = field(default_factory=dict)

    def require(self, *fields: str) -> None:
        missing = [name for name in fields if getattr(self, name) is None]
        if missing:
            raise CapabilityError(
                f"problem '{self.name}' does not provide: {', '.join(missing)}")

    def check_point(self, x, y) -> tuple[Array, Array]:
        return (as_vector(x, dim=self.n, name="x"),
                as_vector(y, dim=self.m, name="y"))


def matvec(M, v):
    """M v for a vector v, or for each row of a (B, k) v as a (B, .) array,
    with M one matrix or a (B, ., k) stack of them.  The stacked matmul
    gives the bits of ``M @ v`` on a vector and on each row (einsum and
    ``v @ M.T`` do not)."""
    return np.matmul(M, v[..., None])[..., 0]


def _x0(x):
    """The first coordinate of a point, or of each (B, .) row."""
    return np.asarray(x, dtype=float)[..., 0]


def product_rows(product: Callable[[Array], Array], m: int,
                 rows: tuple = ()) -> Array:
    """Matrix of rows ``product(e_i)`` over the unit vectors of R^m (m calls):
    the symmetric m x m Hessian for a yy product, the m x n block for yx.
    With ``rows`` = (B,), each e_i is broadcast to B rows, for a product on
    B stacked points, and the result is (B, m, .), one matrix per point."""
    units = np.broadcast_to(np.eye(m), (*rows, m, m))
    return np.stack([product(units[..., i, :]) for i in range(m)], axis=-2)


# ---------------------------------------------------------------------------
# counter-example: quartic UL over a lower level whose solution set is a
# whole affine subspace (the free half of the LL variable never appears in f)
# ---------------------------------------------------------------------------

def make_counterexample(n: int, x_radius: float = 100.0,
                        y_radius: float = 3.0) -> BilevelProblem:
    """Coupled quartic/quadratic problem with a non-singleton LL solution set.

    The LL variable is the concatenation ``w = (y, z)`` of dimension ``2n``;
    the LL objective ignores ``z`` entirely, so S(x) = {(x, z) : z free}.
    Global optimum: x = y = z = all-ones, with UL value 0.

    ``y_radius`` bounds the LL box.  It is chosen well outside the iterates of
    standard runs (which live within about the unit cube) yet finite, so that
    diameter-based rate constants stay meaningful.
    """
    if n < 1:
        raise ContractError("make_counterexample: n must be >= 1")
    e = np.ones(n)

    def split(w):
        return w[..., :n], w[..., n:]

    def F(x, w):
        # float_power squares through libm pow, as a float's ** 2 does
        D = halves(x, w)
        return np.float_power(np.vecdot(D, D), 2).sum(axis=-1)

    def f(x, w):
        y, _ = split(w)
        return 0.5 * np.vecdot(y, y) - np.vecdot(x, y)

    def grad_x_F(x, w):
        _, z = split(w)
        return 4.0 * np.vecdot(x - z, x - z, keepdims=True) * (x - z)

    def halves(x, w):
        # (y - e, z - x) of a point or of (B, 2n) rows as one (..., 2, n)
        # stack, written in place (cheaper than np.stack), so that one
        # vecdot per inner product serves both halves
        D = np.empty((*w.shape[:-1], 2, n))
        np.subtract(w[..., :n], e, out=D[..., 0, :])
        np.subtract(w[..., n:], x, out=D[..., 1, :])
        return D

    def grad_y_F(x, w):
        D = halves(x, w)
        return (4.0 * np.vecdot(D, D, keepdims=True) * D).reshape(w.shape)

    def grad_y_f(x, w):
        y, _ = split(w)
        return np.concatenate([y - x, np.zeros(y.shape)], axis=-1)

    def grad_x_f(x, w):
        y, _ = split(w)
        return -y

    def hess_yy_F(x, w, v):
        D = halves(x, w)
        V = v.reshape(D.shape)
        dd, dv = (np.vecdot(D, U, keepdims=True) for U in (D, V))
        return (4.0 * (dd * V + 2.0 * dv * D)).reshape(w.shape)

    def hess_yx_F(x, w, v):
        _, z = split(w)
        _, vz = split(v)
        d = x - z
        return (-8.0 * np.vecdot(d, vz, keepdims=True) * d
                - 4.0 * np.vecdot(d, d, keepdims=True) * vz)

    def hess_yy_f(x, w, v):
        vy, _ = split(v)
        return np.concatenate([vy, np.zeros(vy.shape)], axis=-1)

    def hess_yx_f(x, w, v):
        vy, _ = split(v)
        return -vy

    def y_star_of_x(x):
        # the UL-optimal member of S(x): y = x with the free half set to x
        x = as_vector(x, dim=n, name="x", rows=True)
        return np.concatenate([x, x], axis=-1)

    def f_star_of_x(x):
        x = as_vector(x, dim=n, name="x", rows=True)
        return -0.5 * np.vecdot(x, x)

    def phi_star_of_x(x):
        d = as_vector(x, dim=n, name="x", rows=True) - e
        return np.float_power(np.vecdot(d, d), 2)

    def grad_phi_of_x(x):
        d = as_vector(x, dim=n, name="x", rows=True) - e
        return 4.0 * np.vecdot(d, d, keepdims=True) * d

    return BilevelProblem(
        name="counterexample", n=n, m=2 * n,
        region_x=BoxRegion.cube(n, -x_radius, x_radius),
        region_y=BoxRegion.cube(2 * n, -y_radius, y_radius),
        F=F, f=f,
        grad_x_F=grad_x_F, grad_y_F=grad_y_F, grad_y_f=grad_y_f,
        grad_x_f=grad_x_f,
        hess_yy_f=hess_yy_f, hess_yx_f=hess_yx_f,
        hess_yy_F=hess_yy_F, hess_yx_F=hess_yx_F,
        L_F=None,  # quartic UL: no global Lipschitz gradient constant
        L_f=1.0, F_lower_bound=0.0,
        y_star_of_x=y_star_of_x, f_star_of_x=f_star_of_x,
        phi_star_of_x=phi_star_of_x, grad_phi_of_x=grad_phi_of_x,
        x_opt=e.copy(), y_opt=np.concatenate([e, e]),
    )


# ---------------------------------------------------------------------------
# scalar-UL problem whose LL is strongly convex in one coordinate only;
# plain LL descent leaves the second coordinate untouched, which caps the
# reachable UL point at 1/2 although the true optimum sits at 1
# ---------------------------------------------------------------------------

def make_remark1() -> BilevelProblem:
    """Two-dimensional LL with a flat direction that plain descent never moves."""

    def F(x, y):
        return (0.5 * np.float_power(x[..., 0] - y[..., 1], 2)
                + 0.5 * np.float_power(y[..., 0] - 1.0, 2))

    def f(x, y):
        return 0.5 * np.float_power(y[..., 0], 2) - x[..., 0] * y[..., 0]

    def grad_x_F(x, y):
        return x - y[..., 1:]

    def grad_y_F(x, y):
        return np.stack([y[..., 0] - 1.0, y[..., 1] - x[..., 0]], axis=-1)

    def grad_y_f(x, y):
        return np.stack([y[..., 0] - x[..., 0], np.zeros_like(y[..., 1])],
                        axis=-1)

    def grad_x_f(x, y):
        return -y[..., :1]

    def hess_yy_F(x, y, v):
        return np.array(v, dtype=float)

    def hess_yx_F(x, y, v):
        return -v[..., 1:]

    def hess_yy_f(x, y, v):
        return np.stack([v[..., 0], np.zeros_like(v[..., 1])], axis=-1)

    def hess_yx_f(x, y, v):
        return -v[..., :1]

    def y_star_of_x(x):
        # UL-optimal member of S(x) = {(x, t) : t free}
        t = _x0(x)
        return np.stack([t, t], axis=-1)

    def f_star_of_x(x):
        return -0.5 * np.float_power(_x0(x), 2)

    def phi_star_of_x(x):
        return 0.5 * np.float_power(_x0(x) - 1.0, 2)

    def grad_phi_of_x(x):
        return _x0(x)[..., None] - 1.0

    return BilevelProblem(
        name="remark1", n=1, m=2,
        region_x=BoxRegion.cube(1, -100.0, 100.0),
        region_y=BoxRegion.whole_space(2),
        F=F, f=f,
        grad_x_F=grad_x_F, grad_y_F=grad_y_F, grad_y_f=grad_y_f,
        grad_x_f=grad_x_f,
        hess_yy_f=hess_yy_f, hess_yx_f=hess_yx_f,
        hess_yy_F=hess_yy_F, hess_yx_F=hess_yx_F,
        L_F=1.0, L_f=1.0, F_lower_bound=0.0,
        y_star_of_x=y_star_of_x, f_star_of_x=f_star_of_x,
        phi_star_of_x=phi_star_of_x, grad_phi_of_x=grad_phi_of_x,
        x_opt=np.array([1.0]), y_opt=np.array([1.0, 1.0]),
    )


def remark1_plain_descent_limit(s_l: float, K: int) -> tuple[float, float]:
    """Closed forms for the flat-direction problem under K plain LL steps:
    the contraction product a_K and the resulting best reachable UL point
    a_K / (1 + a_K**2)."""
    if not (0.0 < s_l < 1.0):
        raise ContractError("s_l must lie in (0, 1)")
    a = 1.0 - (1.0 - s_l) ** K
    return a, a / (1.0 + a * a)


def make_remark1_regularized(epsilon: float) -> BilevelProblem:
    """Variant with a small quadratic term on the flat LL coordinate.

    The regularized LL is strongly convex, but the bi-level optimum moves to
    x = 1/2, y = (1/2, 0) for every epsilon > 0: regularizing the flat
    direction does not restore the true solution even as epsilon vanishes.
    """
    if epsilon <= 0:
        raise ContractError("epsilon must be positive")

    def f(x, y):
        return (0.5 * np.float_power(y[..., 0], 2)
                + 0.5 * epsilon * np.float_power(y[..., 1], 2)
                - x[..., 0] * y[..., 0])

    def grad_y_f(x, y):
        return np.stack([y[..., 0] - x[..., 0], epsilon * y[..., 1]], axis=-1)

    def hess_yy_f(x, y, v):
        return np.stack([v[..., 0], epsilon * v[..., 1]], axis=-1)

    def y_star_of_x(x):
        t = _x0(x)
        return np.stack([t, np.zeros_like(t)], axis=-1)

    def phi_star_of_x(x):
        t = _x0(x)
        return 0.5 * np.float_power(t, 2) + 0.5 * np.float_power(t - 1.0, 2)

    def grad_phi_of_x(x):
        return 2.0 * _x0(x)[..., None] - 1.0

    # f(x, .) keeps remark1's minimum value -x^2/2, so f_star_of_x stays;
    # grad_yy f = diag(1, epsilon) has norm max(1, epsilon)
    return replace(
        make_remark1(), name=f"remark1_regularized(eps={epsilon:g})",
        f=f, grad_y_f=grad_y_f, hess_yy_f=hess_yy_f,
        L_f=float(max(1.0, epsilon)),
        y_star_of_x=y_star_of_x, phi_star_of_x=phi_star_of_x,
        grad_phi_of_x=grad_phi_of_x,
        x_opt=np.array([0.5]), y_opt=np.array([0.5, 0.0]),
    )


# ---------------------------------------------------------------------------
# strongly convex quadratic LL fixture: everything about it is closed-form,
# which makes it the workhorse for hypergradient cross-validation
# ---------------------------------------------------------------------------

def lls_quadratic(A, B, b, rho: float = 0.0,
                  x_radius: float = 2.0, y_radius: float | None = None,
                  name: str = "lls_quadratic") -> BilevelProblem:
    """f(x,y) = y'Ay/2 - (Bx)'y with A symmetric positive definite;
    F(x,y) = ||y - b||^2/2 + rho ||x||^2/2.  y*(x) = A^{-1}Bx exactly."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 0:
        B = B.reshape(1, 1)
    elif B.ndim == 1:
        B = B.reshape(-1, 1)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m, n = B.shape
    if A.shape != (m, m) or b.shape != (m,):
        raise ContractError("lls_quadratic: inconsistent A/B/b shapes")
    if not np.allclose(A, A.T):
        raise ContractError("lls_quadratic: A must be symmetric")
    eigvals = np.linalg.eigvalsh(A)
    if eigvals[0] <= 0:
        raise ContractError("lls_quadratic: A must be positive definite")
    L_f = float(eigvals[-1])
    M = np.linalg.solve(A, B)  # dy*/dx
    region_x = BoxRegion.cube(n, -x_radius, x_radius)
    # global x minimizer of phi(x) = ||Mx - b||^2/2 + rho ||x||^2/2; no
    # reference when it lies outside X, where no run can reach it
    x_opt = np.linalg.solve(M.T @ M + rho * np.eye(n), M.T @ b)
    if region_x.active_mask(x_opt).any():
        x_opt = None

    def F(x, y):
        return 0.5 * np.vecdot(y - b, y - b) + 0.5 * rho * np.vecdot(x, x)

    def f(x, y):
        return 0.5 * np.vecdot(y, matvec(A, y)) - np.vecdot(matvec(B, x), y)

    def grad_x_F(x, y):
        return rho * x

    def grad_y_F(x, y):
        return y - b

    def grad_y_f(x, y):
        return matvec(A, y) - matvec(B, x)

    def grad_x_f(x, y):
        return -matvec(B.T, y)

    def hess_yy_F(x, y, v):
        return np.array(v, dtype=float)

    def hess_yx_F(x, y, v):
        return np.zeros(np.shape(x))

    def hess_yy_f(x, y, v):
        return matvec(A, v)

    def hess_yx_f(x, y, v):
        return -matvec(B.T, v)

    def y_star_of_x(x):
        return matvec(M, as_vector(x, dim=n, name="x", rows=True))

    def f_star_of_x(x):
        x = as_vector(x, dim=n, name="x", rows=True)
        return -0.5 * np.vecdot(matvec(B, x), matvec(M, x))

    def phi_star_of_x(x):
        x = as_vector(x, dim=n, name="x", rows=True)
        r = matvec(M, x) - b
        return 0.5 * np.vecdot(r, r) + 0.5 * rho * np.vecdot(x, x)

    def grad_phi_of_x(x):
        x = as_vector(x, dim=n, name="x", rows=True)
        return rho * x + matvec(M.T, matvec(M, x) - b)

    region_y = (BoxRegion.whole_space(m) if y_radius is None
                else BoxRegion.cube(m, -y_radius, y_radius))
    return BilevelProblem(
        name=name, n=n, m=m,
        region_x=region_x, region_y=region_y,
        F=F, f=f,
        grad_x_F=grad_x_F, grad_y_F=grad_y_F, grad_y_f=grad_y_f,
        grad_x_f=grad_x_f,
        hess_yy_f=hess_yy_f, hess_yx_f=hess_yx_f,
        hess_yy_F=hess_yy_F, hess_yx_F=hess_yx_F,
        L_F=1.0, L_f=L_f, F_lower_bound=0.0,
        y_star_of_x=y_star_of_x, f_star_of_x=f_star_of_x,
        phi_star_of_x=phi_star_of_x, grad_phi_of_x=grad_phi_of_x,
        x_opt=x_opt, y_opt=None if x_opt is None else M @ x_opt,
        metadata={"A": A},
    )


def make_lls_quadratic(n: int, m: int, seed: int) -> BilevelProblem:
    """Random well-conditioned instance of :func:`lls_quadratic`."""
    if n < 1 or m < 1:
        raise ContractError("make_lls_quadratic: n, m must be >= 1")
    rng = rng_stream(seed)
    Q = rng.standard_normal((m, m))
    A = Q @ Q.T / m + 0.5 * np.eye(m)
    B = rng.standard_normal((m, n)) / np.sqrt(m)
    b = rng.standard_normal(m)
    return lls_quadratic(A, B, b, rho=0.1,
                         name=f"lls_quadratic(n={n},m={m},seed={seed})")


# ---------------------------------------------------------------------------
# toy data hyper-cleaning: per-sample training weights (through a sigmoid)
# are the UL variable, a linear softmax classifier is the LL variable
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypercleanConfig:
    num_classes: int = 3
    feature_dim: int = 2
    n_train: int = 30
    n_val: int = 30
    n_test: int = 30
    corruption_fraction: float = 0.5
    seed: int = 0
    ul_ridge: float = 0.0      # optional ridge on the sample weights in F

    def __post_init__(self):
        for f in fields(self):  # each field takes the JSON type of its default
            object.__setattr__(self, f.name, typed_value(
                f"hyperclean: {f.name}", getattr(self, f.name), type(f.default)))
        if self.n_train <= 0 or self.n_val <= 0 or self.n_test <= 0:
            raise ContractError("hyperclean: split sizes must be positive")
        if not (0.0 <= self.corruption_fraction < 1.0):
            raise ContractError("hyperclean: corruption_fraction must be in [0, 1)")
        if self.num_classes < 2 or self.feature_dim < 1:
            raise ContractError("hyperclean: need >= 2 classes and >= 1 feature")
        if self.ul_ridge < 0:
            raise ContractError("hyperclean: ul_ridge must be >= 0")
        if self.seed < 0:
            raise ContractError("hyperclean: seed must be >= 0")


def _sigmoid(t):
    # e = exp(-|t|) cannot overflow: 1/(1+e) for t >= 0, e/(1+e) below
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


_MEMO_POINTS = 64  # y_0..y_K of an inner run with K < 64 fit at once


class _Memo:
    """``fn(arg)`` remembered for the last ``_MEMO_POINTS`` arguments, so a
    backward pass reads the values its forward pass computed at each y_k.

    A 3-D ``arg`` is a stack of matrices, read one at a time; a miss in it
    keeps ``_MEMO_POINTS`` per matrix of that stack, and any other miss
    ``_MEMO_POINTS``.  The key is the shape and bytes of an argument, so a
    value key is never stale: an argument changed in place is a miss.  A
    miss evicts the oldest entries until the memo is under its bound.
    Cached arrays are read-only, so no caller can alter a later hit.
    """

    def __init__(self, fn):
        self._fn = fn
        self._values = {}  # insertion order is the eviction order
        self._lock = threading.Lock()  # a problem may be shared by threads

    def __call__(self, arg, bound=_MEMO_POINTS):
        arg = np.asarray(arg, dtype=float)
        if arg.ndim == 3:
            return np.stack([self(point, _MEMO_POINTS * len(arg))
                             for point in arg])
        key = (arg.shape, arg.tobytes())
        value = self._values.get(key)
        if value is None:
            value = self._fn(arg)
            value.flags.writeable = False
            with self._lock:
                while len(self._values) >= bound:
                    del self._values[next(iter(self._values))]
                self._values[key] = value
        return value


class _SoftmaxData:
    """Pre-augmented features, one-hot labels and memoized softmax
    probabilities ``probs(theta)`` for one split.  A (B, C, d+1) stack of
    thetas takes stacked matmuls, which keep each theta's bits (a wide
    A [theta_1' ... theta_B'] loses them at d + 1 = 51)."""

    def __init__(self, features: Array, labels: Array, num_classes: int):
        self.features = features
        self.labels = labels.astype(int)
        count = features.shape[0]
        self.samples = np.arange(count)
        self.aug = np.hstack([features, np.ones((count, 1))])  # bias column
        self.onehot = np.zeros((count, num_classes))
        self.onehot[self.samples, self.labels] = 1.0
        self.probs = _Memo(lambda theta: _softmax(self.logits(theta)))

    def logits(self, theta: Array) -> Array:
        return self.aug @ theta.mT

    def losses(self, theta: Array) -> Array:
        z = self.logits(theta)
        z = z - z.max(axis=-1, keepdims=True)
        logsumexp = np.log(np.exp(z).sum(axis=-1))
        return logsumexp - z[..., self.samples, self.labels]

    def grad(self, theta: Array, w=None) -> Array:
        """sum_i w_i grad of sample i's cross-entropy, as one product
        (w * (P - Y))' A, a (C, d+1) array per theta; ``w`` is a column of
        weights, and None means all ones (1.0 * r is exact)."""
        r = self.probs(theta) - self.onehot             # (N, C)
        return (r if w is None else w * r).mT @ self.aug

    def hess_vec(self, theta: Array, v: Array, w=None) -> Array:
        """sum_i w_i (diag(p_i) - p_i p_i') kron (u_i u_i') times v, shaped
        as v, with ``w`` as in ``grad``; O(N C (d+1)) work, no dense Hessian."""
        p = self.probs(theta)                            # (N, C)
        s = self.logits(v.reshape(theta.shape))          # (N, C): u_i' v_c
        r = p * (s - (p * s).sum(axis=-1, keepdims=True))
        return ((r if w is None else w * r).mT @ self.aug).reshape(v.shape)


def make_hypercleaning(cfg: HypercleanConfig) -> BilevelProblem:
    """Synthetic hyper-cleaning instance on Gaussian class blobs.

    LL: weighted softmax cross-entropy over the training split, weight of
    sample i being sigmoid(x_i).  UL: cross-entropy over the validation
    split, plus an optional ridge ul_ridge/2 * |x|^2 (zero by default).
    A ``corruption_fraction`` of training labels is reassigned to wrong
    classes; the corrupted mask is kept in ``metadata`` for scoring.
    """
    rng = rng_stream(cfg.seed)
    C, d = cfg.num_classes, cfg.feature_dim
    means = 3.0 * rng.standard_normal((C, d))
    total = cfg.n_train + cfg.n_val + cfg.n_test
    labels = rng.integers(0, C, size=total)
    for split_lo, split_hi in ((0, cfg.n_train),
                               (cfg.n_train, cfg.n_train + cfg.n_val),
                               (cfg.n_train + cfg.n_val, total)):
        # np.bincount, not np.unique, which imports numpy.ma on first call
        if np.bincount(labels[split_lo:split_hi], minlength=C).min() == 0:
            raise ContractError(
                "hyperclean: a class has zero samples in one split; "
                "use a different seed or larger splits")
    features = means[labels] + rng.standard_normal((total, d))

    tr = slice(0, cfg.n_train)
    va = slice(cfg.n_train, cfg.n_train + cfg.n_val)
    te = slice(cfg.n_train + cfg.n_val, total)
    train_labels = labels[tr].copy()
    n_corrupt = int(round(cfg.corruption_fraction * cfg.n_train))
    corrupt_idx = rng.choice(cfg.n_train, size=n_corrupt, replace=False)
    for i in corrupt_idx:
        wrong = [c for c in range(C) if c != train_labels[i]]
        train_labels[i] = wrong[rng.integers(0, C - 1)]
    corrupted_mask = np.zeros(cfg.n_train, dtype=bool)
    corrupted_mask[corrupt_idx] = True

    train = _SoftmaxData(features[tr], train_labels, C)
    val = _SoftmaxData(features[va], labels[va], C)
    test = _SoftmaxData(features[te], labels[te], C)

    n = cfg.n_train
    m = C * (d + 1)

    def unpack(y):  # a (C, d+1) theta per point
        return y.reshape(y.shape[:-1] + (C, d + 1))

    ridge = cfg.ul_ridge
    # the rows of f (a run's inner values) and of hess_yx_f (a reverse pass's
    # x-side call) repeat x once per point: they compute their own weights
    sigmoid = _Memo(_sigmoid)

    def F(x, y):
        out = val.losses(unpack(y)).sum(axis=-1)
        return out + 0.5 * ridge * np.vecdot(x, x) if ridge else out

    def f(x, y):
        return np.vecdot(_sigmoid(x), train.losses(unpack(y)))

    def grad_x_F(x, y):
        return ridge * x if ridge else np.zeros(np.shape(x))

    def grad_y_F(x, y):
        return val.grad(unpack(y)).reshape(y.shape)

    def grad_y_f(x, y):
        return train.grad(unpack(y), sigmoid(x)[..., None]).reshape(y.shape)

    def grad_x_f(x, y):
        w = sigmoid(x)
        return w * (1.0 - w) * train.losses(unpack(y))

    def hess_yy_F(x, y, v):
        return val.hess_vec(unpack(y), v)

    def hess_yx_F(x, y, v):
        return np.zeros(np.shape(x))

    def hess_yy_f(x, y, v):
        return train.hess_vec(unpack(y), v, sigmoid(x)[..., None])

    def hess_yx_f(x, y, v):
        # w_i (1 - w_i) <grad of sample i's cross-entropy, v>; the P of the
        # x-side rows are read one at a time, so they do not grow the memo
        theta = unpack(y)
        P = train.probs(theta) if theta.ndim == 2 else \
            np.stack([train.probs(point) for point in theta])
        w = _sigmoid(x)
        return w * (1.0 - w) * (
            (P - train.onehot) * train.logits(unpack(v))).sum(axis=-1)

    # global smoothness bounds: each per-sample Hessian is bounded by
    # |u_i|^2 / 2 in spectral norm and the sigmoid weights sit in (0, 1)
    train_row_sq = (train.aug ** 2).sum(axis=1)
    val_row_sq = (val.aug ** 2).sum(axis=1)
    L_f = float(0.5 * train_row_sq.sum())
    L_F = float(0.5 * val_row_sq.sum())

    return BilevelProblem(
        name="hyperclean", n=n, m=m,
        region_x=BoxRegion.whole_space(n),
        region_y=BoxRegion.cube(m, -100.0, 100.0),
        F=F, f=f,
        grad_x_F=grad_x_F, grad_y_F=grad_y_F,
        grad_y_f=grad_y_f, grad_x_f=grad_x_f,
        hess_yy_f=hess_yy_f, hess_yx_f=hess_yx_f,
        hess_yy_F=hess_yy_F, hess_yx_F=hess_yx_F,
        L_F=L_F, L_f=L_f, F_lower_bound=0.0,
        metadata={"config": cfg, "train": train, "val": val, "test": test,
                  "corrupted_mask": corrupted_mask},
    )


def hyperclean_dataset_rows(problem: BilevelProblem):
    """Rows (split, index, label, corrupted_flag, feature_0..feature_{d-1})
    of the ``dataset.csv`` the hyper-cleaning suite writes."""
    md = problem.metadata
    rows = []
    for split_name, data in (("train", md["train"]), ("val", md["val"]),
                             ("test", md["test"])):
        mask = md["corrupted_mask"] if split_name == "train" else None
        for i in range(data.features.shape[0]):
            flag = int(mask[i]) if mask is not None else 0
            rows.append((split_name, i, int(data.labels[i]), flag,
                         *data.features[i].tolist()))
    return rows


_FACTORIES = {
    "counterexample": make_counterexample,
    "remark1": make_remark1,
    "lls_quadratic": make_lls_quadratic,
    "hyperclean": lambda **kw: make_hypercleaning(HypercleanConfig(**kw)),
}


# the JSON type each factory parameter takes; hyperclean's own parameters
# are checked by HypercleanConfig
_PARAM_KINDS = {"n": int, "m": int, "seed": int,
                "x_radius": float, "y_radius": float}


def make_problem(name: str, **params) -> BilevelProblem:
    """Factory lookup used by the CLI config loader."""
    if name not in _FACTORIES:
        raise ContractError(f"unknown problem '{name}'; "
                            f"available: {sorted(_FACTORIES)}")
    params = {key: typed_value(f"{name}: {key}", value, _PARAM_KINDS[key])
              if key in _PARAM_KINDS else value
              for key, value in params.items()}
    try:
        return _FACTORIES[name](**params)
    except TypeError as err:
        raise ContractError(f"bad parameters for problem '{name}': {err}") from err
