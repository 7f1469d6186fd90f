"""Dense vector validation, box regions, and seeded RNG streams.

Every other module goes through these helpers so that non-finite values are
rejected at module boundaries and box projections behave identically
everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ContractError(ValueError):
    """A caller violated an interface contract (shape, range, missing field)."""


class CapabilityError(RuntimeError):
    """The requested operation needs data the problem does not provide."""


class NumericalError(ArithmeticError):
    """A computation produced or received non-finite values, or failed to converge."""


def as_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a finite 1-D float64 array."""
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError) as err:
        raise ContractError(f"{name}: not an array of floats ({err})") from None
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ContractError(f"{name}: expected a 1-D array, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ContractError(f"{name}: expected dimension {dim}, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise NumericalError(f"{name}: non-finite entries")
    return arr


def rng_stream(seed: int) -> np.random.Generator:
    """Deterministic random stream; identical seeds give identical draws on
    every platform (PCG64 is fully specified)."""
    return np.random.Generator(np.random.PCG64(int(seed)))


@dataclass(frozen=True)
class BoxRegion:
    """Per-coordinate interval constraints.

    Unbounded sides are flagged in ``lower_free`` / ``upper_free`` rather than
    stored as floating infinities, so vectors handled by the arithmetic stay
    finite.  The bound arrays hold 0.0 at free coordinates; those entries are
    never read.  Projection clamps against a private floor and ceiling that
    hold -inf / +inf on free sides, built once here.
    """

    lower: np.ndarray
    upper: np.ndarray
    lower_free: np.ndarray
    upper_free: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        lf = np.asarray(self.lower_free, dtype=bool)
        uf = np.asarray(self.upper_free, dtype=bool)
        if not (lo.shape == hi.shape == lf.shape == uf.shape) or lo.ndim != 1:
            raise ContractError("BoxRegion: bound arrays must share one 1-D shape")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise NumericalError("BoxRegion: bound values must be finite")
        both = ~lf & ~uf
        if np.any(lo[both] > hi[both]):
            raise ContractError("BoxRegion: lower > upper on some coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "lower_free", lf)
        object.__setattr__(self, "upper_free", uf)
        object.__setattr__(self, "_floor", np.where(lf, -np.inf, lo))
        object.__setattr__(self, "_ceil", np.where(uf, np.inf, hi))

    @classmethod
    def cube(cls, dim: int, lo: float, hi: float) -> "BoxRegion":
        return cls(np.full(dim, float(lo)), np.full(dim, float(hi)),
                   np.zeros(dim, bool), np.zeros(dim, bool))

    @classmethod
    def whole_space(cls, dim: int) -> "BoxRegion":
        return cls(np.zeros(dim), np.zeros(dim), np.ones(dim, bool), np.ones(dim, bool))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def is_bounded(self) -> bool:
        return not (self.lower_free.any() or self.upper_free.any())

    def diameter(self) -> float:
        if not self.is_bounded:
            raise CapabilityError("diameter of an unbounded region")
        return float(np.linalg.norm(self.upper - self.lower))

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.clamp(as_vector(v, dim=self.dim, name="point"))

    def clamp(self, v: np.ndarray) -> np.ndarray:
        """``v`` clamped into the box, unchecked: the caller guarantees a
        finite float vector of length ``dim``."""
        return np.minimum(np.maximum(v, self._floor), self._ceil)

    def active_mask(self, v: np.ndarray) -> np.ndarray:
        """Boolean mask of coordinates where projecting ``v`` clamps it."""
        v = as_vector(v, dim=self.dim, name="point")
        return (v < self._floor) | (v > self._ceil)

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
