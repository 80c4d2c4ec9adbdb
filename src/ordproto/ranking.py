"""Hard descending ranks and an interpolated backward pass.

``rank`` assigns 1 to the largest entry; equal values are ordered by
position, earlier index first. The same operator solves
argmin_pi a.pi over permutation vectors pi (largest value takes the
smallest rank number). Because ranks are piecewise constant in the
input, the backward pass re-ranks at an input nudged along the upstream
gradient and divides the rank movement by the step size; the result is
a descent direction for any loss expressed on the rank vector.

``rank_rows`` and ``rank_backward_rows`` are the row-batched kernels the
losses call; they trust their (finite, 2-D) input. ``rank`` and
``blackbox_rank_backward`` validate one vector and run the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadConfigError, DimMismatchError
from .linalg import as_vector


@dataclass(frozen=True)
class BlackboxConfig:
    """Interpolation step size for the rank backward pass."""

    lambda_interp: float = 1.0

    def __post_init__(self):
        # An infinite step turns every rank gradient into NaN.
        if not (math.isfinite(self.lambda_interp) and self.lambda_interp > 0.0):
            raise BadConfigError(
                f"lambda_interp must be finite and positive, got {self.lambda_interp!r}"
            )


def rank_rows(a: np.ndarray) -> np.ndarray:
    """Descending competition rank of every row of a 2-D array.

    rank_rows(a)[r, i] = 1 + #{j : a[r, j] > a[r, i]} + #{j < i : a[r, j] = a[r, i]}.
    No validation: callers pass finite float rows.
    """
    # A stable sort of the negated row orders by value descending, then by
    # index ascending; the position in that order is the definition above.
    order = (-a).argsort(axis=1, kind="stable")
    return order.argsort(axis=1, kind="stable") + 1


def rank(a) -> np.ndarray:
    """Descending competition rank of one vector, earlier index winning ties."""
    arr = as_vector(a, "a")
    return rank_rows(arr[None, :])[0]


def rank_backward_rows(
    a: np.ndarray, ranks: np.ndarray, upstream: np.ndarray, cfg: BlackboxConfig
) -> np.ndarray:
    """Row-batched interpolated gradient; ``ranks`` must be ``rank_rows(a)``.

    Returns (rank_rows(a + lam*upstream) - ranks) / lam without validation.
    """
    lam = cfg.lambda_interp
    return (rank_rows(a + lam * upstream) - ranks) / lam


def blackbox_rank_backward(a, upstream, cfg: BlackboxConfig) -> np.ndarray:
    """Interpolated gradient of a rank-space loss with respect to ``a``.

    Shifts the input along the upstream gradient, re-ranks, and returns
    (rank(a + lam*upstream) - rank(a)) / lam. Zero upstream, or a step
    too small to cross any ranking boundary, yields a zero gradient.
    """
    arr = as_vector(a, "a")
    up = as_vector(upstream, "upstream")
    if arr.shape != up.shape:
        raise DimMismatchError(f"a and upstream dims differ: {arr.size} vs {up.size}")
    rows = arr[None, :]
    return rank_backward_rows(rows, rank_rows(rows), up[None, :], cfg)[0]
