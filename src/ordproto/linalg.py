"""Small dense-vector kernel: validation, normalization, cosine similarity
and a numerically safe softmax.

Each public function validates its own arguments: inputs must be non-empty,
finite 1-D float arrays, and directions must have norm above ``NORM_EPS``
(``_unit`` is ``normalize`` for an already validated array). The
row-batched kernels (the losses, ``prototypes.progression_scores``) validate
a whole matrix once at their boundary instead of calling these per row; the
per-vector functions here also serve as their scalar test oracles.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimMismatchError,
    EmptyInputError,
    NonFiniteError,
    ZeroVectorError,
)

NORM_EPS = 1e-12
# Norms this close to 1 are treated as exactly 1, which makes normalization
# idempotent (bit-identical on repeated application).
UNIT_TOL = 1e-13


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a validated 1-D float64 array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInputError(f"{name} must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return arr


def _unit(arr: np.ndarray, name: str) -> np.ndarray:
    """``normalize`` of a finite 1-D float64 array, without validating it."""
    n = math.sqrt(arr.dot(arr))  # np.linalg.norm's 1-D form
    if n <= NORM_EPS:
        raise ZeroVectorError(f"cannot normalize {name} with norm {n!r}")
    if abs(n - 1.0) <= UNIT_TOL:
        return arr
    return arr / n


def normalize(v, name: str = "vector") -> np.ndarray:
    """v / ||v||, returned unchanged when ||v|| is already 1 within UNIT_TOL."""
    return _unit(as_vector(v, name), name)


def _checked_pair(u, v) -> tuple[np.ndarray, np.ndarray, float, float]:
    uu = as_vector(u, "u")
    vv = as_vector(v, "v")
    if uu.shape != vv.shape:
        raise DimMismatchError(f"vector dims differ: {uu.size} vs {vv.size}")
    nu = float(np.linalg.norm(uu))
    nv = float(np.linalg.norm(vv))
    if nu <= NORM_EPS:
        raise ZeroVectorError("u has (near-)zero norm")
    if nv <= NORM_EPS:
        raise ZeroVectorError("v has (near-)zero norm")
    return uu, vv, nu, nv


def cosine_similarity(u, v) -> float:
    """cos(u, v) = u.v / (||u|| ||v||)."""
    uu, vv, nu, nv = _checked_pair(u, v)
    return float(uu @ vv) / (nu * nv)


def softmax(values) -> np.ndarray:
    """Softmax with max-subtraction; exact on ties (two equal inputs -> 0.5)."""
    arr = as_vector(values, "softmax input")
    shifted = arr - arr.max()
    e = np.exp(shifted)
    return e / e.sum()
