"""Ordinal training objectives and their gradients with respect to features.

Three structural terms act on a feature batch:

* instance-to-instance: per row, the rank vector of the feature cosine
  similarities must match the rank vector of the label similarities;
* instance-to-class: features stay close to their within-batch class mean;
* class-to-class: class means spread out (inverse weighted scatter) while
  their mutual cosine ranks match the ranks induced by the class indices.

Rank terms differentiate through the interpolated rank backward pass;
everything else has closed-form gradients, including the chain rule
through the batch class means.

Every function here trusts its input: finite float64 features and 1-based
int64 labels in 1..K. The training loop validates once at its entry
(``trainer.train``) and checks per iteration only what can change.
``hybrid_ordinal_loss`` is the one entry for the structural terms (one term
alone is the call with the other two switched off), and
``cross_entropy_loss`` the one for the classification loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ZeroVectorError
from .linalg import NORM_EPS
from .ranking import BlackboxConfig, rank_backward_rows, rank_rows

# Additive guard in the class-scatter denominator: coincident class means
# give a huge but finite value instead of a division by zero.
SPREAD_EPS = 1e-8


@dataclass(frozen=True)
class LocalPrototypes:
    """Within-batch class means and the batch rows that make them up."""

    means: np.ndarray  # (K, d); the row of a class absent from the batch is zero
    counts: np.ndarray  # (K,) int64
    overall: np.ndarray  # (d,) mean of all features
    members: np.ndarray  # (K, M) bool, row k marks the samples of class k + 1


@dataclass(frozen=True)
class LossBundle:
    """A scalar loss plus the gradients it produces.

    Structural losses fill ``feature_grads`` (one row per batch feature);
    the classification loss fills ``logit_grads``. A sum of terms lists
    the term values in ``terms``.
    """

    value: float
    feature_grads: np.ndarray | None = None
    logit_grads: np.ndarray | None = None
    terms: tuple[float, ...] = ()


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{what} contain NaN or Inf entries")


def label_similarity(y: np.ndarray) -> np.ndarray:
    """Pairwise similarity -(|y_i - y_j|) of a 1-D label array as a square matrix."""
    return -np.abs(y[:, None] - y[None, :])


def _unit_rows(vectors: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    norms = np.sqrt(np.add.reduce(vectors * vectors, axis=1))
    if np.logical_or.reduce(norms <= NORM_EPS):
        bad = int(np.argmin(norms))
        raise ZeroVectorError(f"{what} row {bad} has (near-)zero norm")
    return vectors / norms[:, None], norms


def local_prototypes(features: np.ndarray, labels: np.ndarray, k: int) -> LocalPrototypes:
    """Class means, class counts, and the overall mean of a batch."""
    # sum / n gives the bits of .mean(axis=0) without its Python wrappers.
    members = labels == np.arange(1, k + 1)[:, None]
    counts = np.add.reduce(members, axis=1)
    means = np.zeros((k, features.shape[1]))
    for c, n in enumerate(counts.tolist()):
        if n:
            means[c] = np.add.reduce(features[members[c]], axis=0) / n
    overall = np.add.reduce(features, axis=0) / features.shape[0]
    return LocalPrototypes(means, counts, overall, members)


def _rank_alignment(
    target_rows: np.ndarray, value_rows: np.ndarray, cfg: BlackboxConfig, scale: float
) -> tuple[float, np.ndarray]:
    """Mean squared rank gap between rows, and the gradient on value_rows.

    Returns (scale * sum_i ||rank(target_i) - rank(value_i)||^2, dL/dvalues).
    The upstream fed to the rank backward pass is the exact derivative
    2*scale*(rank(value_i) - rank(target_i)); the scale cannot be pulled
    out afterwards because the backward pass is not linear in upstream.
    Rank gaps are small integers, so the squared sum is exact.
    """
    value_ranks = rank_rows(value_rows)
    diff = (value_ranks - rank_rows(target_rows)).astype(np.float64)
    grads = rank_backward_rows(value_rows, value_ranks, (2.0 * scale) * diff, cfg)
    return scale * float(np.add.reduce(diff * diff, axis=None)), grads


def _cosine_rank_alignment(
    target_rows: np.ndarray, vectors: np.ndarray, what: str, cfg: BlackboxConfig, scale: float
) -> tuple[float, np.ndarray]:
    """Rank alignment of S[i,j] = cos(v_i, v_j) against target_rows.

    Returns the alignment value and dL/dvectors. Row i of S sees v_i as
    first argument, column i sees it as second; both routes collapse into
    W = G + G^T because cos is symmetric. Diagonal entries carry a zero
    gradient and are masked out.
    """
    units, norms = _unit_rows(vectors, what)
    cos = units @ units.T
    value, sim_grads = _rank_alignment(target_rows, cos, cfg, scale)
    w = sim_grads + sim_grads.T
    w.flat[:: w.shape[0] + 1] = 0.0  # the diagonal, as np.fill_diagonal sets it
    row_wc = np.add.reduce(w * cos, axis=1)
    return value, (w @ units - row_wc[:, None] * units) / norms[:, None]


def _ins2ins(features: np.ndarray, labels: np.ndarray, cfg: BlackboxConfig):
    """Per-instance rank alignment between label and feature similarities.

    value = (1/M) sum_i ||rank(S^y_i) - rank(S^z_i)||^2 with S^y from
    label distances and S^z the feature cosine matrix.
    """
    s_y = label_similarity(labels)
    return _cosine_rank_alignment(s_y, features, "features", cfg, 1.0 / labels.size)


def _ins2cls(features: np.ndarray, labels: np.ndarray, protos: LocalPrototypes):
    """Within-class compactness: (1/d) sum_k sum_{i in k} ||z_i - mu_k||^2.

    The gradient for a member of class k is (2/d)(z_i - mu_k); the chain
    rule through mu_k contributes nothing because within-class deviations
    sum to zero.
    """
    d = features.shape[1]
    diffs = features - protos.means[labels - 1]
    squares = diffs * diffs
    value = 0.0
    for c, n in enumerate(protos.counts.tolist()):
        if n:
            value += float(np.add.reduce(squares[protos.members[c]], axis=None)) / d
    return value, (2.0 / d) * diffs


def _cls2cls(
    labels: np.ndarray, protos: LocalPrototypes, s_pr: np.ndarray, cfg: BlackboxConfig, detach
):
    """Class-mean spread plus rank alignment of the class-mean similarities.

    value = d / (sum_k n_k ||mu_k - mu_bar||^2 + eps)
          + (1/K) sum_k ||rank(S^pr_k) - rank(S^mu_k)||^2

    where S^pr = ``s_pr`` comes from the class indices (1..K) and S^mu is the
    cosine matrix of the class means. Requires every class in the batch.
    With ``detach`` the first term is treated as constant with respect to
    the features; otherwise its gradient flows through both mu_k and
    mu_bar, which collapses to -d/(denom^2) * 2 (mu_{c(i)} - mu_bar) per
    instance because the count-weighted means telescope.
    """
    k, d = protos.means.shape
    disp = protos.means - protos.overall
    denom = float(np.add.reduce(protos.counts * np.add.reduce(disp * disp, axis=1))) + SPREAD_EPS
    align, dmu = _cosine_rank_alignment(s_pr, protos.means, "class means", cfg, 1.0 / k)
    labels0 = labels - 1
    grads = dmu[labels0] / protos.counts[labels0][:, None]
    if not detach:
        grads = grads + (-d / (denom * denom)) * 2.0 * disp[labels0]
    return d / denom + align, grads


def hybrid_ordinal_loss(
    features, labels, protos, s_pr, cfg, use_ins2ins, use_ins2cls, use_cls2cls, detach_spread
) -> LossBundle:
    """Sum of the enabled structural terms on a batch and its ``local_prototypes``.

    ``s_pr`` is the cls2cls target, ``label_similarity`` of 1..K; cls2cls
    needs every class in the batch. ``terms`` holds the (ins2ins, ins2cls,
    cls2cls) values, 0.0 for a disabled term. One term alone is the call
    with the other two switched off: its value is in ``terms`` and its
    gradient in ``feature_grads``.
    """
    grads = np.zeros(features.shape)
    terms = [0.0, 0.0, 0.0]
    if use_ins2ins:
        terms[0], part = _ins2ins(features, labels, cfg)
        grads += part
    if use_ins2cls:
        terms[1], part = _ins2cls(features, labels, protos)
        grads += part
    if use_cls2cls:
        terms[2], part = _cls2cls(labels, protos, s_pr, cfg, detach_spread)
        grads += part
    return LossBundle(sum(terms), feature_grads=grads, terms=tuple(terms))


def cross_entropy_loss(logits: np.ndarray, onehot: np.ndarray) -> LossBundle:
    """Mean cross entropy of softmax(logits) against the labels ``onehot`` marks.

    ``onehot`` is (M, K) bool with one True per row, at its label's column;
    logit_grads = (softmax(logits) - onehot) / M.
    """
    m = logits.shape[0]
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=1))
    log_probs = shifted - log_z[:, None]
    # sum / m gives the bits of np.mean; boolean indexing keeps row order.
    value = -float(np.add.reduce(log_probs[onehot]) / m)
    grads = np.exp(log_probs)
    grads[onehot] -= 1.0
    grads /= m
    return LossBundle(value, logit_grads=grads)
