"""Dense vector validation, typed JSON settings, box regions, and RNG streams.

Every other module goes through these helpers so that non-finite values are
rejected at module boundaries and box projections behave identically
everywhere.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np


class ContractError(ValueError):
    """A caller violated an interface contract (shape, range, missing field)."""


class CapabilityError(RuntimeError):
    """The requested operation needs data the problem does not provide."""


class NumericalError(ArithmeticError):
    """A computation produced or received non-finite values, or failed to converge."""


def as_vector(v, dim: int | None = None, name: str = "vector",
              rows: bool = False) -> np.ndarray:
    """Validate and return ``v`` as a finite 1-D float64 array; with ``rows``,
    a 2-D array of such vectors, one per row, passes too."""
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError) as err:
        raise ContractError(f"{name}: not an array of floats ({err})") from None
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 and not (rows and arr.ndim == 2):
        raise ContractError(f"{name}: expected a 1-D array, got shape {arr.shape}")
    if dim is not None and arr.shape[-1] != dim:
        raise ContractError(f"{name}: expected dimension {dim}, got {arr.shape[-1]}")
    if not np.isfinite(arr).all():
        raise NumericalError(f"{name}: non-finite entries")
    return arr


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


def typed_value(name: str, value, kind: type, nullable: bool = False):
    """``value``, a setting read from JSON, checked to be of ``kind``.

    An int must be a JSON integer, a float a finite JSON number (an integer
    is converted), a str a string; null passes only when ``nullable``.  A
    bool or a numeric string is rejected, where int() or float() would
    misread it."""
    if value is None and nullable:
        return None
    if kind is float and type(value) in (int, float) and \
            abs(value) <= sys.float_info.max:  # no NaN, inf or 400-digit int
        return float(value)
    if type(value) is kind and kind is not float:
        return value
    raise ContractError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


def rng_stream(seed: int) -> np.random.Generator:
    """Deterministic random stream; identical seeds give identical draws on
    every platform (PCG64 is fully specified).  A seed must be >= 0."""
    seed = int(seed)
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class BoxRegion:
    """Per-coordinate interval constraints; a free side holds -inf / +inf."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ContractError("BoxRegion: bound arrays must share one 1-D shape")
        if not ((lo < np.inf).all() and (hi > -np.inf).all()):  # NaN fails too
            raise NumericalError("BoxRegion: a bound is NaN, a lower bound "
                                 "+inf or an upper bound -inf")
        if np.any(lo > hi):
            raise ContractError("BoxRegion: lower > upper on some coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def cube(cls, dim: int, lo: float, hi: float) -> "BoxRegion":
        return cls(np.full(dim, float(lo)), np.full(dim, float(hi)))

    @classmethod
    def whole_space(cls, dim: int) -> "BoxRegion":
        return cls(np.full(dim, -np.inf), np.full(dim, np.inf))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def is_bounded(self) -> bool:
        return bool(np.isfinite(self.lower).all() and np.isfinite(self.upper).all())

    def diameter(self) -> float:
        if not self.is_bounded:
            raise CapabilityError("diameter of an unbounded region")
        return float(np.linalg.norm(self.upper - self.lower))

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.clamp(as_vector(v, dim=self.dim, name="point", rows=True))

    def clamp(self, v: np.ndarray) -> np.ndarray:
        """``v`` clamped into the box, unchecked: the caller guarantees
        finite floats of length ``dim`` in the last axis."""
        return np.minimum(np.maximum(v, self.lower), self.upper)

    def active_mask(self, v: np.ndarray) -> np.ndarray:
        """Where projecting ``v`` (a point or (B, dim) rows) clamps it."""
        v = as_vector(v, dim=self.dim, name="point", rows=True)
        return (v < self.lower) | (v > self.upper)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform samples; requires a bounded region."""
        if not self.is_bounded:
            raise CapabilityError("cannot sample uniformly from an unbounded region")
        u = rng.random((count, self.dim))
        return self.lower + u * (self.upper - self.lower)

    def sample_corners(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Random corners of the box; sups of convex functions live here."""
        if not self.is_bounded:
            raise CapabilityError("cannot sample corners of an unbounded region")
        pick = rng.random((count, self.dim)) < 0.5
        return np.where(pick, self.lower, self.upper)
