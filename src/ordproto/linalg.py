"""Shared vector tolerances and the unit-row kernel.

Directions must have norm above ``NORM_EPS``. The row-batched kernels (the
losses, ``prototypes.progression_scores``) validate a whole matrix once at
their boundary; ``_unit`` normalizes rows whose norms its caller has
computed with ``_dot_norms`` and checked.
"""

from __future__ import annotations

import numpy as np

NORM_EPS = 1e-12
# Norms this close to 1 are treated as exactly 1, which makes normalization
# idempotent (bit-identical on repeated application).
UNIT_TOL = 1e-13


def _dot_norms(rows: np.ndarray) -> np.ndarray:
    """Norms of the rows (last axis) of an array: the bits of math.sqrt(row.dot(row))."""
    # A (1, d) @ (d, 1) matmul is one BLAS dot, as the 1-D .dot is.
    return np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])


def _unit(rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """rows / norms along the last axis; a row whose norm is 1 within UNIT_TOL stays as it is."""
    # x / 1.0 is x, so near-unit rows keep their bits; Python floats pick the few divisors fastest.
    divisors = [1.0 if -UNIT_TOL <= n - 1.0 <= UNIT_TOL else n for n in norms.ravel().tolist()]
    return rows / np.array(divisors).reshape(*norms.shape, 1)
