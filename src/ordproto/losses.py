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

Every function here trusts its input: finite float64 features and tables
built from 1-based int64 labels in 1..K. The training loop validates once
at its entry (``trainer.train``) and checks per iteration only what can
change. ``hybrid_ordinal_loss`` is the one entry for the structural terms
(one term alone is the call with the other two switched off), and
``cross_entropy_loss`` the one for the classification loss.

The loop trains a stack of S seeds at once, so batches come with a leading
seed axis: features (S, M, d), logits (S, M, K). Every seed's batch holds
the same number of rows of each class (the stratified plans share their
class slots), which lets each per-class sum run over all seeds in one
call. Values come back per seed, and each seed gets the bits its own 2-D
batch would give: reductions run along the same axes in the same order,
and products are ``matmul`` on whole arrays. A check that fails raises for
the whole stack; the training loop replays a failing stack one seed at a
time to name the seed. Label-only work is done per epoch (``label_tables``)
or per run (the cls2cls target ranks), not per call; the class terms slice
each class's rows from one class-grouped gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ZeroVectorError
from .linalg import NORM_EPS
from .ranking import rank_backward_rows, rank_rows

# Additive guard in the class-scatter denominator: coincident class means
# give a huge but finite value instead of a division by zero.
SPREAD_EPS = 1e-8


@dataclass(frozen=True)
class LocalPrototypes:
    """Within-batch class means per seed, and where each batch row sits among them."""

    means: np.ndarray  # (S, K, d); the row of a class absent from the batch is zero
    counts: np.ndarray  # (K,) int64, the same in every seed's batch
    overall: np.ndarray  # (S, d) mean of all features
    grouped: np.ndarray  # (S, M) flat (seed, row) index of the rows, class by class
    seat: np.ndarray  # (S, M) flat (seed, class) index of each row's mean


def _require_finite(values: np.ndarray, what: str) -> None:
    """Raise if ``values`` holds a NaN or Inf."""
    if not np.logical_and.reduce(np.isfinite(values), axis=None):
        raise NonFiniteError(f"{what} contain NaN or Inf entries")


def label_similarity(y: np.ndarray) -> np.ndarray:
    """Pairwise similarity -(|y_i - y_j|) of label vectors (..., n) as (..., n, n) matrices."""
    return -np.abs(y[..., :, None] - y[..., None, :])


def _unit_rows(vectors: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows and row norms of (..., n, d) vectors; a (near-)zero or overflowing norm raises.

    The error names the position, within its n rows, of the smallest norm,
    or else of the first that overflows.
    """
    norms = np.sqrt(np.add.reduce(vectors * vectors, axis=-1))
    if np.logical_or.reduce((norms <= NORM_EPS) | (norms == np.inf), axis=None):
        if np.logical_or.reduce(norms <= NORM_EPS, axis=None):
            bad = int(np.argmin(norms)) % norms.shape[-1]
            raise ZeroVectorError(f"{what} row {bad} has (near-)zero norm")
        bad = int(np.argmax(norms)) % norms.shape[-1]
        raise NonFiniteError(f"{what} row {bad} has a norm that overflows")
    return vectors / norms[..., None], norms


def label_tables(labels: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """What the loss terms read from (..., S, M) labels in 1..K, one batched call per table.

    The class counts (K,), which every batch shares, then with the labels'
    leading axes: ``grouped`` and ``seat`` (see ``LocalPrototypes``; a class
    keeps its batch order), ins2ins target ranks and the one-hot label mask.
    """
    seeds, m = np.arange(labels.shape[-2])[:, None], labels.shape[-1]
    return (
        np.bincount(labels.reshape(-1, m)[0] - 1, minlength=k),
        labels.argsort(axis=-1, kind="stable") + m * seeds,
        labels - 1 + k * seeds,
        rank_rows(label_similarity(labels)),
        labels[..., None] == np.arange(1, k + 1),
    )


def local_prototypes(features, grouped, seat, counts) -> LocalPrototypes:
    """Class means, class counts, and the overall mean of each seed's batch.

    ``features`` is (S, M, d); ``grouped``, ``seat`` and ``counts`` are the
    batch's ``label_tables``.
    """
    s, m, d = features.shape
    rows = features.reshape(s * m, d).take(grouped, axis=0)
    means = np.zeros((s, counts.size, d))
    # A class's rows, seed by seed, in batch order: sum / n over them gives
    # the bits of .mean(axis=0) of each seed's rows, without its wrappers.
    start = 0
    for c, n in enumerate(counts.tolist()):
        means[:, c] = np.add.reduce(rows[:, start : start + n], axis=1)
        start += n
    means /= np.maximum(counts, 1)[:, None]  # an absent class's zero row stays zero
    overall = np.add.reduce(features, axis=1) / m
    return LocalPrototypes(means, counts, overall, grouped, seat)


def _rank_alignment(
    target_ranks: np.ndarray, value_rows: np.ndarray, step: float, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared rank gap between rows, and the gradient on value_rows.

    Returns (scale * sum_i ||target_ranks_i - rank(value_i)||^2, dL/dvalues)
    for (..., n, n) rows, one value per leading index; ``target_ranks``
    (``rank_rows`` of the targets) broadcasts against ``value_rows``; ``step``
    is ``blackbox_lambda``. The upstream fed to the rank backward pass is the
    exact derivative 2*scale*(rank(value_i) - target_ranks_i); the scale
    cannot be pulled out afterwards because the backward pass is not linear
    in upstream. Rank gaps are small integers, so the squared sum is exact.
    """
    value_ranks = rank_rows(value_rows)
    diff = (value_ranks - target_ranks).astype(np.float64)
    grads = rank_backward_rows(value_rows, value_ranks, (2.0 * scale) * diff, step)
    return scale * np.add.reduce(diff * diff, axis=(-2, -1)), grads


def _cosine_rank_alignment(
    target_ranks: np.ndarray, vectors: np.ndarray, what: str, step: float, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rank alignment of S[i,j] = cos(v_i, v_j) against target_ranks.

    Returns the alignment value and dL/dvectors for (..., n, d) vectors.
    Row i of S sees v_i as first argument, column i sees it as second;
    both routes collapse into W = G + G^T because cos is symmetric.
    Diagonal entries carry a zero gradient and are masked out.
    """
    units, norms = _unit_rows(vectors, what)
    cos = units @ units.swapaxes(-1, -2)
    value, sim_grads = _rank_alignment(target_ranks, cos, step, scale)
    w = sim_grads + sim_grads.swapaxes(-1, -2)
    n = w.shape[-1]
    w.reshape(-1, n * n)[:, :: n + 1] = 0.0  # each diagonal, as np.fill_diagonal sets it
    row_wc = np.add.reduce(w * cos, axis=-1)
    return value, (w @ units - row_wc[..., None] * units) / norms[..., None]


def _ins2ins(features: np.ndarray, ins_target: np.ndarray, step: float):
    """Per-instance rank alignment between label and feature similarities.

    value = (1/M) sum_i ||rank(S^y_i) - rank(S^z_i)||^2 with S^y from label
    distances (``ins_target`` is rank(S^y)) and S^z the feature cosine matrix.
    """
    return _cosine_rank_alignment(ins_target, features, "features", step, 1.0 / features.shape[-2])


def _ins2cls(features: np.ndarray, protos: LocalPrototypes):
    """Within-class compactness: (1/d) sum_k sum_{i in k} ||z_i - mu_k||^2.

    The gradient for a member of class k is (2/d)(z_i - mu_k); the chain rule
    through mu_k contributes nothing because within-class deviations sum to zero.
    """
    s, m, d = features.shape
    diffs = features - protos.means.reshape(-1, d).take(protos.seat, axis=0)
    # A class's squares, seed by seed, as one run in batch order.
    rows = (diffs * diffs).reshape(s * m, d).take(protos.grouped, axis=0).reshape(s, m * d)
    value, start = 0.0, 0
    for n in protos.counts.tolist():
        value = value + np.add.reduce(rows[:, start : start + n * d], axis=1) / d
        start += n * d
    return value, (2.0 / d) * diffs


def _cls2cls(protos: LocalPrototypes, cls_target, step: float, detach):
    """Class-mean spread plus rank alignment of the class-mean similarities.

    value = d / (sum_k n_k ||mu_k - mu_bar||^2 + eps)
          + (1/K) sum_k ||rank(S^pr_k) - rank(S^mu_k)||^2

    where S^pr comes from the class indices 1..K (``cls_target`` is rank(S^pr))
    and S^mu is the cosine matrix of the class means. Requires every class
    in the batch. With ``detach`` the first term is treated as constant with
    respect to the features; otherwise its gradient flows through both mu_k
    and mu_bar, which collapses to -d/(denom^2) * 2 (mu_k - mu_bar) for each
    row of class k because the count-weighted means telescope.
    """
    _, k, d = protos.means.shape
    disp = protos.means - protos.overall[:, None, :]
    denom = np.add.reduce(protos.counts * np.add.reduce(disp * disp, axis=-1), axis=-1)
    denom = denom + SPREAD_EPS
    align, dmu = _cosine_rank_alignment(cls_target, protos.means, "class means", step, 1.0 / k)
    per_class = dmu / protos.counts[:, None]
    if not detach:
        per_class = per_class + ((-d / (denom * denom)) * 2.0)[:, None, None] * disp
    return d / denom + align, per_class.reshape(-1, d).take(protos.seat, axis=0)


def hybrid_ordinal_loss(features, protos, ins_target, cls_target, config):
    """The enabled structural terms on each seed's batch and its ``local_prototypes``.

    ``features`` is (S, M, d); ``ins_target`` and ``cls_target`` are the
    ranks of the label and class-index similarities; ``config`` (the run's
    ``TrainConfig``) gives ``blackbox_lambda``, the term switches and
    ``detach_class_spread``. cls2cls needs every class in the batch. Returns
    the (3, S) (ins2ins, ins2cls, cls2cls) values, 0.0 for a disabled term,
    and the summed feature gradient; one term alone is the call with the
    other two switched off.
    """
    grads = np.zeros(features.shape)
    terms = np.zeros((3, features.shape[0]))
    step = config.blackbox_lambda
    if config.use_ins2ins:
        terms[0], part = _ins2ins(features, ins_target, step)
        grads += part
    if config.use_ins2cls:
        terms[1], part = _ins2cls(features, protos)
        grads += part
    if config.use_cls2cls:
        terms[2], part = _cls2cls(protos, cls_target, step, config.detach_class_spread)
        grads += part
    return terms, grads


def cross_entropy_loss(logits: np.ndarray, onehot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross entropy of softmax(logits) against the labels ``onehot`` marks, per seed.

    ``logits`` is (S, M, K) and ``onehot`` (S, M, K) bool with one True per
    row, at its label's column. Returns the (S,) values and the gradient on
    the logits, (softmax(logits) - onehot) / M.
    """
    s, m = logits.shape[:2]
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=-1))
    log_probs = shifted - log_z[..., None]
    # sum / m gives the bits of np.mean; boolean indexing keeps row order.
    value = -(np.add.reduce(log_probs[onehot].reshape(s, m), axis=1) / m)
    grads = np.exp(log_probs)
    grads -= onehot  # x - 1.0 at the label, x - 0.0 (x itself) elsewhere
    grads /= m
    return value, grads
