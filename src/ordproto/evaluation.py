"""Binary metrics at the 0.5 threshold, rank statistics, and a one-sided
Mann-Whitney U test with an exact small-sample path.

The progressive outcome is the positive class throughout. AUC is the
probability that a positive outscores a negative, ties counting half,
computed through mid-ranks (identical to exhaustive pair counting).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import (
    DegenerateInputError,
    DimMismatchError,
    EmptyInputError,
    LabelOutOfRangeError,
    NonFiniteError,
    OneClassOnlyError,
    OutOfRangeError,
)
from .prototypes import PROGRESSIVE, STABLE

# Total sample size up to which the test enumerates the exact null.
EXACT_LIMIT = 12


def midranks(values) -> np.ndarray:
    """Ascending ranks with ties sharing their average rank.

    A tie group is a run of equal sorted values, so ``-0.0`` ties ``0.0``
    and every NaN is a group of its own. The group at sorted positions
    i..j gets ``0.5 * (i + j) + 1.0``, exact in float64.
    """
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], arr.size) - 1
    ranks = np.empty(arr.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def binary_metrics(scores, truths) -> dict:
    """acc/auc/f1/precision/recall at threshold 0.5, plus class counts.

    Scores are progression probabilities in [0, 1]; a score above 0.5
    predicts progressive, anything at or below it predicts stable.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truths, dtype=object)
    if s.ndim != 1 or s.size == 0:
        raise EmptyInputError("scores must be a non-empty 1-D array")
    if t.shape != s.shape:
        raise DimMismatchError("scores and truths must have equal length")
    if not np.all(np.isfinite(s)):
        raise NonFiniteError("scores contain NaN or Inf entries")
    if np.any(s < 0.0) or np.any(s > 1.0):
        raise OutOfRangeError("scores must lie in [0, 1]")
    bad = [v for v in t if v not in (STABLE, PROGRESSIVE)]
    if bad:
        raise LabelOutOfRangeError(f"unknown truth labels: {sorted(set(map(str, bad)))}")

    pos = t == PROGRESSIVE
    n_pos = int(pos.sum())
    n_neg = int(s.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnlyError("need both stable and progressive truths")

    pred_pos = s > 0.5
    tp = int(np.sum(pred_pos & pos))
    fp = int(np.sum(pred_pos & ~pos))
    fn = int(np.sum(~pred_pos & pos))
    tn = int(np.sum(~pred_pos & ~pos))
    acc = (tp + tn) / s.size
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn)
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0

    # Mid-rank form of pair counting: ties contribute exactly one half.
    ranks = midranks(s)
    auc = (float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    return {
        "acc": acc,
        "auc": auc,
        "f1": f1,
        "precision": precision,
        "recall": recall,
        "n_pos": n_pos,
        "n_neg": n_neg,
    }


def _u_statistic(rank_sum: float, n_a: int) -> float:
    return rank_sum - n_a * (n_a + 1) / 2.0


def mann_whitney_one_sided(a, b, method: str = "auto") -> float:
    """P-value for the alternative that ``a`` is stochastically greater.

    ``auto`` enumerates the exact permutation null through mid-ranks when
    the pooled size is at most 12, and otherwise uses the normal
    approximation with tie and continuity corrections. The exact and
    approximate paths can be forced for testing.
    """
    aa = np.asarray(a, dtype=np.float64)
    bb = np.asarray(b, dtype=np.float64)
    if aa.size == 0 or bb.size == 0:
        raise EmptyInputError("both samples must be non-empty")
    if not (np.all(np.isfinite(aa)) and np.all(np.isfinite(bb))):
        raise NonFiniteError("samples contain NaN or Inf entries")
    if method not in ("auto", "exact", "approx"):
        raise OutOfRangeError(f"unknown method {method!r}")
    n_a, n_b = aa.size, bb.size
    n = n_a + n_b
    pooled = np.concatenate([aa, bb])
    ranks = midranks(pooled)
    u_obs = _u_statistic(float(ranks[:n_a].sum()), n_a)

    if method == "exact" or (method == "auto" and n <= EXACT_LIMIT):
        # Mid-ranks are half-integers, so U values are exact in binary
        # floating point and >= comparisons need no tolerance.
        count = 0
        total = 0
        for chosen in combinations(range(n), n_a):
            total += 1
            u = _u_statistic(float(ranks[list(chosen)].sum()), n_a)
            if u >= u_obs:
                count += 1
        return count / total

    mean_u = n_a * n_b / 2.0
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(tie_counts**3 - tie_counts)) / (n * (n - 1))
    var_u = n_a * n_b / 12.0 * ((n + 1) - tie_term)
    if var_u <= 0.0:
        return 1.0  # everything tied: no evidence for the alternative
    z = (u_obs - mean_u - 0.5) / math.sqrt(var_u)
    p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return min(max(p, math.ulp(0.0)), 1.0)


def spearman(x, y) -> float:
    """Rank correlation: Pearson correlation of the mid-rank vectors."""
    xx = np.asarray(x, dtype=np.float64)
    yy = np.asarray(y, dtype=np.float64)
    if xx.ndim != 1 or xx.size < 2:
        raise EmptyInputError("need at least two observations")
    if xx.shape != yy.shape:
        raise DimMismatchError("x and y must have equal length")
    if not (np.all(np.isfinite(xx)) and np.all(np.isfinite(yy))):
        raise NonFiniteError("inputs contain NaN or Inf entries")
    if np.all(xx == xx[0]) or np.all(yy == yy[0]):
        raise DegenerateInputError("rank correlation of a constant vector is undefined")
    rx = midranks(xx)
    ry = midranks(yy)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))
