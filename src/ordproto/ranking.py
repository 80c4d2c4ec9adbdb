"""Hard descending ranks and an interpolated backward pass.

``rank_rows`` assigns 1 to the largest entry of each row; equal values
are ordered by position, earlier index first. The same operator solves
argmin_pi a.pi over permutation vectors pi (largest value takes the
smallest rank number). Because ranks are piecewise constant in the
input, the backward pass re-ranks at an input nudged along the upstream
gradient and divides the rank movement by the step size; the result is
a descent direction for any loss expressed on the rank vector.

``rank_rows`` and ``rank_backward_rows`` rank and differentiate every row
(last axis) of an array at once, such as the (S, M, M) similarity rows of
a stack of seeds; they trust their (finite) input, which the training
loop validates at its entry.
"""

from __future__ import annotations

import numpy as np


def rank_rows(a: np.ndarray) -> np.ndarray:
    """Descending competition rank of every row (last axis) of an array.

    rank_rows(a)[r, i] = 1 + #{j : a[r, j] > a[r, i]} + #{j < i : a[r, j] = a[r, i]}.
    No validation: callers pass finite float rows.
    """
    # A stable sort of the negated row orders by value descending, then by
    # index ascending; the position in that order is the definition above.
    order = (-a).argsort(axis=-1, kind="stable")
    return order.argsort(axis=-1, kind="stable") + 1


def rank_backward_rows(
    a: np.ndarray, ranks: np.ndarray, upstream: np.ndarray, blackbox_lambda: float
) -> np.ndarray:
    """Row-batched interpolated gradient; ``ranks`` must be ``rank_rows(a)``.

    Returns (rank_rows(a + lam*upstream) - ranks) / lam, lam = ``blackbox_lambda``,
    without validation. Zero upstream, or a step too small to cross any
    ranking boundary, yields a zero gradient.
    """
    return (rank_rows(a + blackbox_lambda * upstream) - ranks) / blackbox_lambda
