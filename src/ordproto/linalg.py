"""Shared vector tolerances and the unit-vector kernel.

Directions must have norm above ``NORM_EPS``. The row-batched kernels (the
losses, ``prototypes.progression_scores``) validate a whole matrix once at
their boundary; ``_unit`` normalizes one vector its caller has checked.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroVectorError

NORM_EPS = 1e-12
# Norms this close to 1 are treated as exactly 1, which makes normalization
# idempotent (bit-identical on repeated application).
UNIT_TOL = 1e-13


def _unit(arr: np.ndarray, name: str) -> np.ndarray:
    """v / ||v|| of a finite 1-D float64 array, unchanged when ||v|| is 1 within UNIT_TOL."""
    n = math.sqrt(arr.dot(arr))  # np.linalg.norm's 1-D form
    if n <= NORM_EPS:
        raise ZeroVectorError(f"cannot normalize {name} with norm {n!r}")
    if abs(n - 1.0) <= UNIT_TOL:
        return arr
    return arr / n
