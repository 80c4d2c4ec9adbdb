"""Test shorthands for the loss and encoder functions, which trust their input.

``Batch`` carries a feature batch with its 1-based labels and class count;
``tables_of`` builds its ``label_tables``, ``hybrid`` fills in what the
training loop passes (the batch prototypes, the target ranks, every term
on by default), ``cross_entropy`` builds the one-hot label mask from
labels, and ``flat_backward`` returns the gradient in a new flat buffer.
The loss functions take a leading seed axis; these shorthands call them
with one seed and return that seed's prototypes and bundles in their
one-batch shapes, with float values.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ordproto.encoder import backward, buffer
from ordproto.losses import (
    LocalPrototypes,
    LossBundle,
    cross_entropy_loss,
    hybrid_ordinal_loss,
    label_similarity,
    label_tables,
    local_prototypes,
)
from ordproto.ranking import rank_rows


class Batch(NamedTuple):
    features: np.ndarray  # (M, d) float64
    labels: np.ndarray  # (M,) int64 in 1..n_classes
    n_classes: int

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def tables_of(batch: Batch) -> tuple[np.ndarray, ...]:
    """The batch's ``label_tables``, for a stack of one seed."""
    return label_tables(batch.labels[None], batch.n_classes)


def protos_of(batch: Batch) -> LocalPrototypes:
    counts, grouped, seat, _, _ = tables_of(batch)
    stacked = local_prototypes(batch.features[None], grouped, seat, counts)
    return LocalPrototypes(
        stacked.means[0], stacked.counts, stacked.overall[0], stacked.grouped[0], stacked.seat[0]
    )


def _stacked(protos: LocalPrototypes) -> LocalPrototypes:
    return LocalPrototypes(
        protos.means[None], protos.counts, protos.overall[None], protos.grouped[None],
        protos.seat[None],
    )


def hybrid(
    batch: Batch,
    cfg,
    *,
    use_ins2ins=True,
    use_ins2cls=True,
    use_cls2cls=True,
    detach_spread=False,
    protos=None,
):
    """``hybrid_ordinal_loss`` on a batch, as the training loop calls it."""
    cls_target = rank_rows(label_similarity(np.arange(1.0, batch.n_classes + 1)))
    _, _, _, ins_target, _ = tables_of(batch)
    out = hybrid_ordinal_loss(
        batch.features[None],
        _stacked(protos_of(batch) if protos is None else protos),
        ins_target,
        cls_target,
        cfg,
        use_ins2ins,
        use_ins2cls,
        use_cls2cls,
        detach_spread,
    )
    terms = tuple(float(t) for t in out.terms[:, 0])
    return LossBundle(float(out.value[0]), feature_grads=out.feature_grads[0], terms=terms)


def cross_entropy(logits, labels):
    """``cross_entropy_loss`` against 1-based labels."""
    onehot = labels[:, None] == np.arange(1, logits.shape[1] + 1)
    out = cross_entropy_loss(logits[None], onehot[None])
    return LossBundle(float(out.value[0]), logit_grads=out.logit_grads[0])


def flat_backward(enc, head, cache, d_features=None, d_logits=None) -> np.ndarray:
    """``backward`` into a new buffer; returns the flat gradient."""
    flat, views = buffer(enc, head)
    backward(enc, head, cache, d_features, d_logits, views)
    return flat
