import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bda.numerics import (BoxRegion, CapabilityError, ContractError,
                          NumericalError, as_vector, rng_stream)


def test_project_box_clamps_both_sides():
    region = BoxRegion.cube(2, -1.0, 1.0)
    np.testing.assert_array_equal(region.project([2.0, -3.0]), [1.0, -1.0])


def test_project_box_identity_on_interior():
    region = BoxRegion.cube(2, -1.0, 1.0)
    np.testing.assert_array_equal(region.project([0.5, 0.2]), [0.5, 0.2])


def test_project_box_dimension_mismatch():
    region = BoxRegion.cube(3, -1.0, 1.0)
    with pytest.raises(ContractError):
        region.project([0.1, 0.2])


def test_project_box_idempotent_exact():
    region = BoxRegion.cube(5, -2.0, 0.5)
    rng = rng_stream(42)
    for _ in range(50):
        v = 5.0 * rng.standard_normal(5)
        once = region.project(v)
        np.testing.assert_array_equal(region.project(once), once)


def test_project_box_nonexpansive_sampled():
    region = BoxRegion.cube(4, -1.0, 1.0)
    rng = rng_stream(7)
    for _ in range(200):
        u = 3.0 * rng.standard_normal(4)
        v = 3.0 * rng.standard_normal(4)
        pu, pv = region.project(u), region.project(v)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-15


@st.composite
def _box_and_points(draw):
    """A box with some sides free, and two finite points of its dimension."""
    dim = draw(st.integers(1, 6))
    vec = st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim).map(np.array)
    flags = st.lists(st.booleans(), min_size=dim, max_size=dim).map(np.array)
    a, b = draw(vec), draw(vec)
    region = BoxRegion(np.where(draw(flags), -np.inf, np.minimum(a, b)),
                       np.where(draw(flags), np.inf, np.maximum(a, b)))
    return region, draw(vec), draw(vec)


@settings(derandomize=True, deadline=None, database=None)
@given(case=_box_and_points())
def test_projection_properties(case):
    region, u, v = case
    pu, pv = region.project(u), region.project(v)
    np.testing.assert_array_equal(region.project(pu), pu)          # idempotent
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v)       # nonexpansive
    np.testing.assert_array_equal(region.active_mask(u), pu != u)


def _masked_project(region, v):
    """Reference projection: clamp only the bounded sides, by boolean masks
    on a copy."""
    out = v.copy()
    clip_lo, clip_hi = np.isfinite(region.lower), np.isfinite(region.upper)
    out[clip_lo] = np.maximum(out[clip_lo], region.lower[clip_lo])
    out[clip_hi] = np.minimum(out[clip_hi], region.upper[clip_hi])
    return out


@st.composite
def _box_and_edge_point(draw):
    """A box with some sides free and signed zeros among its bounds, and a
    point whose coordinates are each a lower bound, an upper bound, or a
    draw that favours +-0.0 and +-1.0; long enough for vectorized loops."""
    dim = draw(st.integers(1, 40))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                      st.floats(-1e6, 1e6))
    vec = st.lists(value, min_size=dim, max_size=dim).map(np.array)
    flags = st.lists(st.booleans(), min_size=dim, max_size=dim).map(np.array)
    a, b = draw(vec), draw(vec)
    lower, upper = np.minimum(a, b), np.maximum(a, b)
    region = BoxRegion(np.where(draw(flags), -np.inf, lower),
                       np.where(draw(flags), np.inf, upper))
    pick = draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim))
    return region, np.choose(pick, [lower, upper, draw(vec)])


_SIGNED_ZERO_BOX = BoxRegion(np.array([-0.0, 0.0, 0.0, -0.0]),
                             np.array([0.0, -0.0, np.inf, np.inf]))


@settings(derandomize=True, deadline=None, database=None)
@given(case=_box_and_edge_point())
@example(case=(_SIGNED_ZERO_BOX, np.array([0.0, -0.0, -0.0, 0.0])))
@example(case=(_SIGNED_ZERO_BOX, np.array([-0.0, 0.0, 0.0, -0.0])))
def test_project_bitwise_equals_masked_form(case):
    region, v = case
    got = region.project(v)
    assert got.tobytes() == _masked_project(region, v).tobytes()
    assert not np.shares_memory(got, v)


def test_partial_bounds_and_free_sides():
    region = BoxRegion(lower=np.array([0.0, -np.inf]),
                       upper=np.array([1.0, np.inf]))
    np.testing.assert_array_equal(region.project(np.array([-5.0, -5.0])),
                                  [0.0, -5.0])
    assert not region.is_bounded
    with pytest.raises(CapabilityError):
        region.diameter()
    with pytest.raises(CapabilityError):
        region.sample(rng_stream(0), 3)


def test_box_diameter_exact():
    assert BoxRegion.cube(2, -1.0, 1.0).diameter() == pytest.approx(2 * np.sqrt(2))


def test_active_mask():
    region = BoxRegion.cube(3, -1.0, 1.0)
    mask = region.active_mask(np.array([2.0, 0.0, -1.5]))
    np.testing.assert_array_equal(mask, [True, False, True])


def test_non_finite_rejected_at_boundaries():
    with pytest.raises(NumericalError):
        as_vector([1.0, np.nan])
    with pytest.raises(NumericalError):
        as_vector([np.inf, 0.0])
    with pytest.raises(NumericalError):
        BoxRegion(np.array([np.inf]), np.array([0.0]))
    with pytest.raises(NumericalError):
        BoxRegion(np.array([-np.inf]), np.array([-np.inf]))
    with pytest.raises(NumericalError):
        BoxRegion(np.array([0.0]), np.array([np.nan]))
    with pytest.raises(ContractError):
        BoxRegion.cube(2, 1.0, -1.0)


@pytest.mark.parametrize("bad", ["abc", [[1.0], [1.0, 2.0]], [1.0, "x"],
                                 {"a": 1.0}])
def test_as_vector_rejects_input_that_is_not_floats(bad):
    # numpy raises ValueError or TypeError, which no CLI exit code maps
    with pytest.raises(ContractError, match="point: not an array of floats"):
        as_vector(bad, name="point")


def test_rng_same_seed_identical():
    a = rng_stream(123).random(100)
    b = rng_stream(123).random(100)
    np.testing.assert_array_equal(a, b)


def test_rng_different_seeds_differ_quickly():
    a = rng_stream(1).random(10)
    b = rng_stream(2).random(10)
    assert not np.array_equal(a, b)


def test_rng_uniform_mean():
    draws = rng_stream(0).random(100_000)
    assert abs(draws.mean() - 0.5) < 0.01


def test_rng_negative_seed_is_contract_error():
    # numpy's PCG64 raised a bare ValueError, which the CLI let escape
    with pytest.raises(ContractError, match="seed must be >= 0"):
        rng_stream(-1)
