"""Scalar test oracles: the simple code the package's kernels are checked against.

Each function here is either a brute-force definition (the permutation
rank, the pairwise cosine matrix) or the earlier per-array form of a
kernel that now works on whole buffers (per-layer backward, per-array
Adam). None of it runs in training or scoring.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from ordproto.errors import EmptyInputError, NonFiniteError, ZeroVectorError
from ordproto.linalg import NORM_EPS, as_vector, cosine_similarity

# Factorial enumeration stays tractable up to 8! = 40320 candidates.
ORACLE_MAX_N = 8


def rank_argmin_oracle(a) -> np.ndarray:
    """Brute-force rank: the permutation minimizing a.pi.

    Ties between objective values resolve to the lexicographically
    smallest permutation, which coincides with earlier-index tie
    breaking in ``rank``.
    """
    arr = as_vector(a, "a")
    n = arr.size
    assert n <= ORACLE_MAX_N, f"oracle limited to n <= {ORACLE_MAX_N}, got {n}"
    best_pi = None
    best_obj = np.inf
    # permutations() yields lexicographic order, so strict < keeps the
    # lexicographically smallest minimizer.
    for pi in permutations(range(1, n + 1)):
        obj = 0.0
        for x, p in zip(arr, pi):
            obj += x * p
        if obj < best_obj:
            best_obj = obj
            best_pi = pi
    return np.asarray(best_pi, dtype=np.int64)


def cosine_similarity_grad(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of cos(u, v) with respect to u and v.

    d/du cos = v/(||u|| ||v||) - cos(u, v) * u/||u||^2, symmetrically for v.
    """
    c = cosine_similarity(u, v)  # validates both vectors
    uu, vv = as_vector(u, "u"), as_vector(v, "v")
    nu, nv = float(np.linalg.norm(uu)), float(np.linalg.norm(vv))
    grad_u = vv / (nu * nv) - c * uu / (nu * nu)
    grad_v = uu / (nu * nv) - c * vv / (nv * nv)
    return grad_u, grad_v


def neg_abs_distance(a: float, b: float) -> float:
    """Similarity of two scalar labels: -(|a - b|). Larger means closer."""
    return -abs(float(a) - float(b))


def feature_similarity(features) -> np.ndarray:
    """Pairwise cosine similarity of the rows of ``features``.

    Normalizes rows exactly as the losses do, so it is a bit-for-bit
    oracle for their cosine matrix.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise EmptyInputError("features must be a non-empty (M, d) array")
    if not np.all(np.isfinite(feats)):
        raise NonFiniteError("features contain NaN or Inf entries")
    norms = np.linalg.norm(feats, axis=1)
    if np.any(norms <= NORM_EPS):
        raise ZeroVectorError(f"features row {int(np.argmin(norms))} has (near-)zero norm")
    units = feats / norms[:, None]
    return units @ units.T


def param_arrays(enc, head) -> list[np.ndarray]:
    """Every parameter array in buffer-layout order (the arrays, not copies)."""
    out = [a for layer in enc.layers for a in (layer.weight, layer.bias)]
    return out + [head.weight, head.bias]


def flat_params(enc, head) -> np.ndarray:
    """A flat copy of every parameter in buffer-layout order."""
    return np.concatenate([a.ravel() for a in param_arrays(enc, head)])


def split_like(flat: np.ndarray, arrays) -> list[np.ndarray]:
    """Cut a flat vector into pieces shaped like ``arrays``."""
    ends = np.cumsum([a.size for a in arrays])
    return [flat[end - a.size : end].reshape(a.shape) for a, end in zip(arrays, ends)]


def per_layer_backward(enc, head, cache, d_features=None, d_logits=None) -> list[np.ndarray]:
    """The per-layer backward pass: one gradient array per parameter array."""
    m = cache.features.shape[0]
    if d_logits is not None:
        head_w = cache.features.T @ d_logits
        head_b = d_logits.sum(axis=0)
        dh = d_logits @ head.weight.T
    else:
        head_w = np.zeros_like(head.weight)
        head_b = np.zeros_like(head.bias)
        dh = np.zeros((m, enc.feature_dim))
    if d_features is not None:
        dh = dh + d_features
    layer_grads = [None] * len(enc.layers)
    for i in range(len(enc.layers) - 1, -1, -1):
        layer = enc.layers[i]
        da = dh * (cache.preacts[i] > 0.0) if layer.activation == "relu" else dh
        layer_grads[i] = (cache.inputs[i].T @ da, da.sum(axis=0))
        dh = da @ layer.weight.T
    return [g for pair in layer_grads for g in pair] + [head_w, head_b]


class PerArrayAdam:
    """Bias-corrected Adam as a Python loop over separate parameter arrays."""

    def __init__(
        self, params, beta1=0.5, beta2=0.999, base_lr=2e-4, lr_decay=0.95, epsilon=1e-8
    ):
        self.params = params
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.base_lr, self.lr_decay = base_lr, lr_decay

    def step(self, grads, epoch: int) -> None:
        lr = self.base_lr * self.lr_decay**epoch
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v, strict=True):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)
