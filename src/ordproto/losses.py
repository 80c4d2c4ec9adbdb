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

The private kernels (``_local_prototypes``, ``_hybrid``, ``_cross_entropy``)
trust finite float64 features and 1-based int64 labels: the training loop
validates once and calls them; the public functions run the same kernels on
a validated ``FeatureBatch`` or validated arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBatchError,
    DimMismatchError,
    EmptyInputError,
    LabelOutOfRangeError,
    NonFiniteError,
    ZeroVectorError,
)
from .linalg import NORM_EPS
from .ranking import BlackboxConfig, rank_backward_rows, rank_rows

# Additive guard in the class-scatter denominator: coincident class means
# give a huge but finite value instead of a division by zero.
SPREAD_EPS = 1e-8


@dataclass(frozen=True)
class FeatureBatch:
    """A batch of feature vectors with 1-based class labels."""

    features: np.ndarray  # (M, d) float64
    labels: np.ndarray  # (M,) ints in 1..n_classes
    n_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] == 0 or feats.shape[1] == 0:
            raise EmptyInputError("features must be a non-empty (M, d) array")
        _require_finite(feats, "features")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise DimMismatchError("labels must be one per feature row")
        if self.n_classes < 2:
            raise LabelOutOfRangeError("need at least 2 classes")
        if labs.min() < 1 or labs.max() > self.n_classes:
            raise LabelOutOfRangeError(
                f"labels must lie in 1..{self.n_classes}, got range "
                f"[{labs.min()}, {labs.max()}]"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class LocalPrototypes:
    """Within-batch class means and the batch rows that make them up."""

    means: np.ndarray  # (K, d); the row of a class absent from the batch is zero
    counts: np.ndarray  # (K,) int64
    overall: np.ndarray  # (d,) mean of all features
    members: np.ndarray  # (K, M) bool, row k marks the samples of class k + 1

    @property
    def per_class(self) -> tuple:
        """Each class mean, None for a class absent from the batch."""
        return tuple(mu if n else None for mu, n in zip(self.means, self.counts))


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


def _label_similarity(y: np.ndarray) -> np.ndarray:
    return -np.abs(y[:, None] - y[None, :])


def label_similarity(labels) -> np.ndarray:
    """Pairwise similarity -(|y_i - y_j|) as a square matrix."""
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise EmptyInputError("labels must be a non-empty 1-D array")
    _require_finite(y, "labels")
    return _label_similarity(y)


def _unit_rows(vectors: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    norms = np.sqrt(np.add.reduce(vectors * vectors, axis=1))
    if np.logical_or.reduce(norms <= NORM_EPS):
        bad = int(np.argmin(norms))
        raise ZeroVectorError(f"{what} row {bad} has (near-)zero norm")
    return vectors / norms[:, None], norms


def _local_prototypes(features: np.ndarray, labels: np.ndarray, k: int) -> LocalPrototypes:
    # sum / n gives the bits of .mean(axis=0) without its Python wrappers.
    members = labels == np.arange(1, k + 1)[:, None]
    counts = np.add.reduce(members, axis=1)
    means = np.zeros((k, features.shape[1]))
    for c, n in enumerate(counts.tolist()):
        if n:
            means[c] = np.add.reduce(features[members[c]], axis=0) / n
    overall = np.add.reduce(features, axis=0) / features.shape[0]
    return LocalPrototypes(means, counts, overall, members)


def local_prototypes(batch: FeatureBatch) -> LocalPrototypes:
    """Class means, class counts, and the overall mean of a batch."""
    return _local_prototypes(batch.features, batch.labels, batch.n_classes)


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
    s_y = _label_similarity(labels)
    return _cosine_rank_alignment(s_y, features, "features", cfg, 1.0 / labels.size)


def ins2ins_loss(batch: FeatureBatch, cfg: BlackboxConfig) -> LossBundle:
    """Per-instance rank alignment between label and feature similarities.

    value = (1/M) sum_i ||rank(S^y_i) - rank(S^z_i)||^2 with S^y from
    label distances and S^z the feature cosine matrix.
    """
    value, grads = _ins2ins(batch.features, batch.labels, cfg)
    return LossBundle(value, feature_grads=grads)


def _ins2cls(features: np.ndarray, labels: np.ndarray, protos: LocalPrototypes):
    d = features.shape[1]
    diffs = features - protos.means[labels - 1]
    squares = diffs * diffs
    value = 0.0
    for c, n in enumerate(protos.counts.tolist()):
        if n:
            value += float(np.add.reduce(squares[protos.members[c]], axis=None)) / d
    return value, (2.0 / d) * diffs


def ins2cls_loss(batch: FeatureBatch, protos: LocalPrototypes) -> LossBundle:
    """Within-class compactness: (1/d) sum_k sum_{i in k} ||z_i - mu_k||^2.

    The gradient for a member of class k is (2/d)(z_i - mu_k); the chain
    rule through mu_k contributes nothing because within-class deviations
    sum to zero.
    """
    if protos.counts.size != batch.n_classes:
        raise DimMismatchError("prototypes were built for a different class count")
    value, grads = _ins2cls(batch.features, batch.labels, protos)
    return LossBundle(value, feature_grads=grads)


def _cls2cls(
    labels: np.ndarray, protos: LocalPrototypes, s_pr: np.ndarray, cfg: BlackboxConfig, detach
):
    k, d = protos.means.shape
    disp = protos.means - protos.overall
    denom = float(np.add.reduce(protos.counts * np.add.reduce(disp * disp, axis=1))) + SPREAD_EPS
    align, dmu = _cosine_rank_alignment(s_pr, protos.means, "class means", cfg, 1.0 / k)
    labels0 = labels - 1
    grads = dmu[labels0] / protos.counts[labels0][:, None]
    if not detach:
        grads = grads + (-d / (denom * denom)) * 2.0 * disp[labels0]
    return d / denom + align, grads


def _class_target(protos: LocalPrototypes) -> np.ndarray:
    """The cls2cls target, label_similarity(1..K); every class must be in the batch."""
    k = protos.counts.size
    if not protos.counts.all():
        missing = [c + 1 for c in range(k) if protos.counts[c] == 0]
        raise DegenerateBatchError(f"classes absent from batch: {missing}")
    return _label_similarity(np.arange(1, k + 1))


def cls2cls_loss(
    batch: FeatureBatch,
    protos: LocalPrototypes,
    cfg: BlackboxConfig,
    detach_spread: bool = False,
) -> LossBundle:
    """Class-mean spread plus rank alignment of the class-mean similarities.

    value = d / (sum_k n_k ||mu_k - mu_bar||^2 + eps)
          + (1/K) sum_k ||rank(S^pr_k) - rank(S^mu_k)||^2

    where S^pr comes from the class indices (1..K) and S^mu is the cosine
    matrix of the class means. Requires every class in the batch. With
    ``detach_spread`` the first term is treated as constant with respect
    to the features; otherwise its gradient flows through both mu_k and
    mu_bar, which collapses to -d/(denom^2) * 2 (mu_{c(i)} - mu_bar) per
    instance because the count-weighted means telescope.
    """
    s_pr = _class_target(protos)
    value, grads = _cls2cls(batch.labels, protos, s_pr, cfg, detach_spread)
    return LossBundle(value, feature_grads=grads)


def _hybrid(
    features, labels, protos, s_pr, cfg, use_ins2ins, use_ins2cls, use_cls2cls, detach_spread
) -> LossBundle:
    """``hybrid_ordinal_loss`` on trusted arrays; ``s_pr`` is the cls2cls target."""
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


def hybrid_ordinal_loss(
    batch: FeatureBatch,
    cfg: BlackboxConfig,
    *,
    use_ins2ins: bool = True,
    use_ins2cls: bool = True,
    use_cls2cls: bool = True,
    detach_spread: bool = False,
    protos: LocalPrototypes | None = None,
) -> LossBundle:
    """Sum of the enabled structural terms (all three by default).

    ``terms`` holds the (ins2ins, ins2cls, cls2cls) values, 0.0 for a
    disabled term.
    """
    if protos is None:
        protos = local_prototypes(batch)
    elif use_ins2cls and protos.counts.size != batch.n_classes:
        raise DimMismatchError("prototypes were built for a different class count")
    s_pr = _class_target(protos) if use_cls2cls else None
    return _hybrid(
        batch.features, batch.labels, protos, s_pr, cfg,
        use_ins2ins, use_ins2cls, use_cls2cls, detach_spread,
    )
def _cross_entropy(logits: np.ndarray, onehot: np.ndarray) -> LossBundle:
    """Cross entropy of finite logits; ``onehot`` (M, K) marks each row's label."""
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


def cross_entropy_loss(logits, labels) -> LossBundle:
    """Mean cross entropy of softmax(logits) against 1-based labels.

    logit_grads = (softmax(logits) - onehot(labels)) / M.
    """
    lg = np.asarray(logits, dtype=np.float64)
    labs = np.asarray(labels, dtype=np.int64)
    if lg.ndim != 2 or lg.shape[0] == 0:
        raise EmptyInputError("logits must be a non-empty (M, K) array")
    _require_finite(lg, "logits")
    if labs.ndim != 1 or labs.shape[0] != lg.shape[0]:
        raise DimMismatchError("labels must be one per logit row")
    k = lg.shape[1]
    if labs.min() < 1 or labs.max() > k:
        raise LabelOutOfRangeError(f"labels must lie in 1..{k}")
    return _cross_entropy(lg, labs[:, None] == np.arange(1, k + 1))


def total_loss(ce: LossBundle, hyb: LossBundle, lambda_hyb: float) -> LossBundle:
    """ce + lambda_hyb * hyb: CE's logit gradients, lambda_hyb times hyb's feature gradients."""
    lam = float(lambda_hyb)
    return LossBundle(
        ce.value + lam * hyb.value,
        feature_grads=lam * hyb.feature_grads,
        logit_grads=ce.logit_grads,
    )
