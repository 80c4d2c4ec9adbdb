"""Test shorthands for the loss and encoder functions, which trust their input.

``Batch`` carries a feature batch with its 1-based labels and class count;
``hybrid`` fills in what the training loop passes (the batch prototypes,
the cls2cls target, every term on by default), ``cross_entropy`` builds
the one-hot label mask from labels, and ``flat_backward`` returns the
gradient in a new flat buffer.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ordproto.encoder import backward, buffer
from ordproto.losses import (
    cross_entropy_loss,
    hybrid_ordinal_loss,
    label_similarity,
    local_prototypes,
)


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


def protos_of(batch: Batch):
    return local_prototypes(batch.features, batch.labels, batch.n_classes)


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
    s_pr = label_similarity(np.arange(1.0, batch.n_classes + 1))
    return hybrid_ordinal_loss(
        batch.features,
        batch.labels,
        protos_of(batch) if protos is None else protos,
        s_pr,
        cfg,
        use_ins2ins,
        use_ins2cls,
        use_cls2cls,
        detach_spread,
    )


def cross_entropy(logits, labels):
    """``cross_entropy_loss`` against 1-based labels."""
    return cross_entropy_loss(logits, labels[:, None] == np.arange(1, logits.shape[1] + 1))


def flat_backward(enc, head, cache, d_features=None, d_logits=None) -> np.ndarray:
    """``backward`` into a new buffer; returns the flat gradient."""
    flat, views = buffer(enc, head)
    backward(enc, head, cache, d_features, d_logits, views)
    return flat
