"""Scalar test oracles: the simple code the package's kernels are checked against.

Each function here is either a brute-force definition (the permutation
rank, the pairwise cosine matrix, the one-vector cosine and softmax the
batched scoring kernel replaced) or the earlier per-array form of a
kernel that now works on whole buffers (per-layer backward, per-array
Adam, Adam with temporaries, the per-class loss terms, batch planning by
list slicing, the EMA step checked on whole arrays, the per-row CSV
loader, the inference kernels that recomputed each anchor norm and made
three arrays per layer), or the one-seed
training loop those forms make up (``reference_train``). None of it runs
in training or scoring.
"""

from __future__ import annotations

import csv
import math
from itertools import permutations

import numpy as np

from kernels import Loss
from ordproto.data import NO_FINE_LABEL, SyntheticOrdinalDataset
from ordproto.encoder import _as_batch, forward, init_adam, init_params
from ordproto.errors import (
    BadConfigError,
    DatasetIOError,
    DatasetParseError,
    DegenerateInputError,
    DimMismatchError,
    EmptyInputError,
    NonFiniteError,
    OrdprotoError,
    TrainingError,
    UntrainedStoreError,
    ZeroVectorError,
)
from ordproto.linalg import NORM_EPS, UNIT_TOL, _dot_norms
from ordproto.losses import SPREAD_EPS, LocalPrototypes
from ordproto.prototypes import PROGRESSIVE, STABLE, GlobalPrototypeStore, _refuse_bad_rows
from ordproto.ranking import rank_backward_rows, rank_rows

# Factorial enumeration stays tractable up to 8! = 40320 candidates.
ORACLE_MAX_N = 8


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a validated 1-D float64 array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInputError(f"{name} must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return arr


def _checked_pair(u, v) -> tuple[np.ndarray, np.ndarray, float, float]:
    uu = as_vector(u, "u")
    vv = as_vector(v, "v")
    if uu.shape != vv.shape:
        raise DimMismatchError(f"vector dims differ: {uu.size} vs {vv.size}")
    nu = float(np.linalg.norm(uu))
    nv = float(np.linalg.norm(vv))
    if nu <= NORM_EPS:
        raise ZeroVectorError("u has (near-)zero norm")
    if nv <= NORM_EPS:
        raise ZeroVectorError("v has (near-)zero norm")
    return uu, vv, nu, nv


def cosine_similarity(u, v) -> float:
    """cos(u, v) = u.v / (||u|| ||v||)."""
    uu, vv, nu, nv = _checked_pair(u, v)
    return float(uu @ vv) / (nu * nv)


def softmax(values) -> np.ndarray:
    """Softmax with max-subtraction; exact on ties (two equal inputs -> 0.5)."""
    arr = as_vector(values, "softmax input")
    shifted = arr - arr.max()
    e = np.exp(shifted)
    return e / e.sum()


def rank_argmin_oracle(a) -> np.ndarray:
    """Brute-force rank: the permutation minimizing a.pi.

    Ties between objective values resolve to the lexicographically
    smallest permutation, which coincides with earlier-index tie
    breaking in ``rank_rows``.
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
        hidden = i < len(enc.layers) - 1  # ReLU on hidden layers, identity on the last
        da = dh * (cache.preacts[i] > 0.0) if hidden else dh
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


def reference_adam_step(state, grads, lr: float) -> None:
    """One Adam step as five whole-buffer expressions, each making its own temporaries."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grads
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * (grads * grads)
    state.params -= lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + state.epsilon)


def reference_stratified_batches(labels, batch_size: int, seed, n_classes: int) -> list:
    """Stratified batches built by walking every batch and class, slicing pools in Python."""
    labs = np.asarray(labels, dtype=np.int64)
    if labs.size == 0:
        raise EmptyInputError("labels are empty")
    if batch_size < n_classes:
        raise BadConfigError(f"batch size {batch_size} cannot hold all {n_classes} classes")
    counts = np.array([(labs == c).sum() for c in range(1, n_classes + 1)])
    if np.any(counts == 0):
        missing = [c + 1 for c in range(n_classes) if counts[c] == 0]
        raise DegenerateInputError(f"classes absent from dataset: {missing}")

    quota = batch_size * counts / counts.sum()
    slots = np.maximum(np.floor(quota).astype(np.int64), 1)
    frac = quota - np.floor(quota)
    by_frac = sorted(range(n_classes), key=lambda c: (-frac[c], c))
    i = 0
    while slots.sum() < batch_size:
        slots[by_frac[i % n_classes]] += 1
        i += 1
    while slots.sum() > batch_size:
        slots[max(range(n_classes), key=lambda c: (slots[c], -c))] -= 1

    rng = np.random.default_rng(seed)
    pools = [rng.permutation(np.flatnonzero(labs == c + 1)) for c in range(n_classes)]
    positions = [0] * n_classes
    n_batches = int(max(math.ceil(counts[c] / slots[c]) for c in range(n_classes)))

    batches = []
    for _ in range(n_batches):
        chosen: list[np.ndarray] = []
        for c in range(n_classes):
            need = int(slots[c])
            taken: list[np.ndarray] = []
            while need > 0:
                pool, pos = pools[c], positions[c]
                grab = min(need, pool.size - pos)
                taken.append(pool[pos : pos + grab])
                positions[c] = pos + grab
                need -= grab
                if positions[c] == pool.size:
                    pools[c] = rng.permutation(pool)
                    positions[c] = 0
            chosen.append(np.concatenate(taken))
        batch = np.concatenate(chosen)
        batches.append(batch[rng.permutation(batch.size)])
    return batches


def reference_local_prototypes(features, labels, k: int) -> LocalPrototypes:
    """Class means of a batch, one boolean mask and ``.mean`` per class.

    ``grouped`` lists the batch rows class by class, in batch order within
    a class, and ``seat`` is each row's 0-based class: the one-seed tables.
    """
    members = np.stack([labels == c for c in range(1, k + 1)])
    counts = np.zeros(k, dtype=np.int64)
    means = np.zeros((k, features.shape[1]))
    for c in range(k):
        counts[c] = int(members[c].sum())
        if counts[c]:
            means[c] = features[members[c]].mean(axis=0)
    grouped = np.concatenate([np.flatnonzero(row) for row in members])
    return LocalPrototypes(means, counts, features.mean(axis=0), grouped, labels - 1)


def _reference_cosine_alignment(target_rows, vectors, what, step, scale):
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms <= NORM_EPS):
        raise ZeroVectorError(f"{what} row {int(np.argmin(norms))} has (near-)zero norm")
    units = vectors / norms[:, None]
    cos = units @ units.T
    value_ranks = rank_rows(cos)
    diff = (value_ranks - rank_rows(target_rows)).astype(np.float64)
    sim_grads = rank_backward_rows(cos, value_ranks, (2.0 * scale) * diff, step)
    w = sim_grads + sim_grads.T
    np.fill_diagonal(w, 0.0)
    row_wc = np.sum(w * cos, axis=1)
    grads = (w @ units - row_wc[:, None] * units) / norms[:, None]
    return scale * float(np.sum(diff * diff)), grads


def reference_hybrid_ordinal_loss(
    features, labels, protos, step, *, use_ins2ins, use_ins2cls, use_cls2cls, detach_spread
) -> Loss:
    """The structural terms in their per-class form: masks, np.stack, np.sum."""
    d, k = features.shape[1], protos.counts.size
    terms = [0.0, 0.0, 0.0]
    parts = []
    if use_ins2ins:
        y = labels.astype(np.float64)
        s_y = -np.abs(y[:, None] - y[None, :])
        terms[0], g = _reference_cosine_alignment(s_y, features, "features", step, 1.0 / y.size)
        parts.append(g)
    if use_ins2cls:
        g = np.zeros_like(features)
        for c in range(1, k + 1):
            if not protos.counts[c - 1]:
                continue
            mu = protos.means[c - 1]
            members = labels == c
            diffs = features[members] - mu
            terms[1] += float(np.sum(diffs * diffs)) / d
            g[members] = (2.0 / d) * diffs
        parts.append(g)
    if use_cls2cls:
        mus = protos.means
        disp = mus - protos.overall
        denom = float(np.sum(protos.counts * np.sum(disp * disp, axis=1))) + SPREAD_EPS
        classes = np.arange(1, k + 1, dtype=np.float64)
        s_pr = -np.abs(classes[:, None] - classes[None, :])
        align, dmu = _reference_cosine_alignment(s_pr, mus, "class means", step, 1.0 / k)
        labels0 = labels - 1
        g = dmu[labels0] / protos.counts[labels0][:, None]
        if not detach_spread:
            g = g + (-d / (denom * denom)) * 2.0 * disp[labels0]
        terms[2] = d / denom + align
        parts.append(g)
    grads = np.zeros_like(features)
    for g in parts:
        grads += g
    return Loss(sum(terms), feature_grads=grads, terms=tuple(terms))


def reference_cross_entropy_loss(logits, labels) -> Loss:
    """Mean cross entropy, picking each row's label by (row, label - 1) index pairs."""
    if not np.all(np.isfinite(logits)):
        raise NonFiniteError("logits contain NaN or Inf entries")
    m = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=1))[:, None]
    rows = np.arange(m)
    value = -float(np.mean(log_probs[rows, labels - 1]))
    grads = np.exp(log_probs)
    grads[rows, labels - 1] -= 1.0
    grads /= m
    return Loss(value, logit_grads=grads)


def reference_normalize(v, name: str) -> np.ndarray:
    """v / ||v|| through np.linalg.norm, unchanged when ||v|| is 1 within UNIT_TOL."""
    arr = as_vector(v, name)
    n = float(np.linalg.norm(arr))
    if n <= NORM_EPS:
        raise ZeroVectorError(f"cannot normalize {name} with norm {n!r}")
    if abs(n - 1.0) <= UNIT_TOL:
        return arr
    return arr / n


def reference_ema_update(store, mu_low, mu_high) -> None:
    """The EMA anchor step, validating and normalizing one vector at a time."""
    means = (as_vector(mu_low, "mu_low"), as_vector(mu_high, "mu_high"))
    for row, mu in enumerate(means):
        mu_hat = reference_normalize(mu, "class mean")
        p = store.anchors[row]
        if float(np.linalg.norm(p)) <= NORM_EPS:
            store.anchors[row] = mu_hat
            continue
        p_hat = reference_normalize(p, "anchor")
        delta = mu_hat - p_hat
        store.anchors[row] = p_hat + (1.0 - store.sigma) * delta if delta.any() else p_hat


def reference_stacked_ema_update(anchors, means, sigma: float) -> np.ndarray:
    """The stacked EMA step as whole-array numpy: every check on the (S, 4) norm array.

    ``anchors`` and ``means`` are (S, 2, d), low before high. Per seed four
    rows (the low and high means, then the low and high anchors) are
    normalized at once, with ``np.where`` picking each divisor; the first
    seed with a bad row raises through ``_refuse_bad_rows``. Returns the
    new anchors.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    if means.shape != anchors.shape or anchors.shape[-2] != 2:
        raise DimMismatchError(f"class means must have shape {anchors.shape}")
    d = anchors.shape[-1]
    v = np.stack((means[..., 0, :], means[..., 1, :], anchors[..., 0, :], anchors[..., 1, :]))
    v = np.moveaxis(v, 0, -2).reshape(-1, 4, d)
    norms = _dot_norms(v)
    if not np.logical_and.reduce((norms > NORM_EPS) & (norms < math.inf), axis=None):
        _refuse_bad_rows(np.logical_and.reduce(np.isfinite(v), axis=2), norms[:, :2])
        boot = norms[:, 2:] <= NORM_EPS
        v[:, 2:][boot] = v[:, :2][boot]
        norms[:, 2:][boot] = norms[:, :2][boot]
    units = v / np.where(np.abs(norms - 1.0) <= UNIT_TOL, 1.0, norms)[..., None]
    mu_hat, p_hat = units[:, :2], units[:, 2:]
    delta = mu_hat - p_hat
    new = p_hat + (1.0 - sigma) * delta
    moved = np.logical_or.reduce(delta, axis=2)
    if not np.logical_and.reduce(moved, axis=None):
        new[~moved] = p_hat[~moved]
    return new.reshape(anchors.shape)


def reference_encode(enc, x) -> np.ndarray:
    """Feature vectors only (no logits, no cache kept)."""
    h = _as_batch(x, enc.input_dim)
    for i, layer in enumerate(enc.layers):
        a = h @ layer.weight + layer.bias
        h = np.maximum(a, 0.0) if i < len(enc.layers) - 1 else a
    return h


def reference_is_trained(store: GlobalPrototypeStore) -> bool:
    """True once both anchors have left their zero initialization."""
    return all(float(np.linalg.norm(anchor)) > NORM_EPS for anchor in store.anchors)


def _row_cosines(f: np.ndarray, norms: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """cos(f[r], anchor) for every row; ``norms`` are the row norms of ``f``.

    Row-wise reductions (not a matrix product), so a row's value does not
    depend on which other rows share the call. No validation.
    """
    return np.sum(f * anchor, axis=1) / (norms * float(np.linalg.norm(anchor)))


def reference_anchor_cosines(features, store: GlobalPrototypeStore):
    """Cosines of every row of an ``(n, dim)`` matrix to the (low, high) anchors.

    Validates once per call: the store is trained, the shape is ``(n, dim)``,
    every row's norm is finite (so are its values) and none is (near-)zero.
    """
    if not reference_is_trained(store):
        raise UntrainedStoreError("prototype store has not been updated yet")
    # C order keeps each row's reduction order fixed whatever the input layout.
    f = np.ascontiguousarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] != store.dim:
        raise DimMismatchError(f"features must have shape (n, {store.dim}), got {f.shape}")
    with np.errstate(over="ignore"):  # finite entries whose squares overflow
        norms = np.sqrt(np.sum(f * f, axis=1))
    finite = np.isfinite(norms)
    if not finite.all():
        row = int(np.argmin(finite))
        fault = "contains NaN or Inf entries"
        if np.isfinite(f[row]).all():
            fault = "has a norm that overflows"
        raise NonFiniteError(f"features row {row} {fault}")
    zero = norms <= NORM_EPS
    if zero.any():
        raise ZeroVectorError(f"features row {int(np.argmax(zero))} has (near-)zero norm")
    return tuple(_row_cosines(f, norms, anchor) for anchor in store.anchors)


def reference_kfold_split(labels, k: int, seed) -> np.ndarray:
    """Stratified fold ids through np.unique and one Python assignment per sample."""
    labs = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    fold_of = np.zeros(labs.size, dtype=np.int64)
    offset = 0
    for c in np.unique(labs):
        idx = rng.permutation(np.flatnonzero(labs == c))
        for pos, i in enumerate(idx):
            fold_of[i] = 1 + (offset + pos) % k
        offset = (offset + idx.size) % k
    return fold_of


def reference_load_dataset(path) -> SyntheticOrdinalDataset:
    """The per-row CSV loader ``load_dataset`` replaced: ``csv`` and one ``int``/``float`` per field."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetParseError("dataset file is empty", line=1) from None
            rows = list(reader)
    except OSError as exc:
        raise DatasetIOError(f"cannot read dataset: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"dataset is not valid UTF-8: {exc}") from exc

    fixed = ["id", "coarse_label", "fine_label", "latent_t"]
    for col in fixed:
        if col not in header:
            raise DatasetParseError(f"missing required column {col!r}", line=1)
    if header[: len(fixed)] != fixed:
        raise DatasetParseError(f"columns must start with {fixed}", line=1)
    dim = len(header) - len(fixed)
    if dim < 1:
        raise DatasetParseError("missing required column 'x0'", line=1)
    expected_x = [f"x{j}" for j in range(dim)]
    if header[len(fixed) :] != expected_x:
        raise DatasetParseError(
            f"feature columns must be x0..x{dim - 1} in order", line=1
        )

    n = len(rows)
    if n == 0:
        raise DatasetParseError("dataset has a header but no samples", line=2)
    x = np.empty((n, dim), dtype=np.float64)
    coarse = np.empty(n, dtype=np.int64)
    latent = np.empty(n, dtype=np.float64)
    fine = np.empty(n, dtype=object)
    for r, row in enumerate(rows):
        line = r + 2  # 1-based, after the header
        if len(row) != len(header):
            raise DatasetParseError(
                f"expected {len(header)} fields, found {len(row)}", line=line
            )
        try:
            ident = int(row[0])
            coarse[r] = int(row[1])
            latent[r] = float(row[3])
            x[r] = [float(v) for v in row[4:]]
        except ValueError as exc:
            raise DatasetParseError(str(exc), line=line) from exc
        if ident != r:
            raise DatasetParseError(f"ids must be 0..N-1 in order, got {ident}", line=line)
        if coarse[r] < 1:
            raise DatasetParseError(f"coarse_label must be >= 1, got {coarse[r]}", line=line)
        if row[2] not in (NO_FINE_LABEL, STABLE, PROGRESSIVE):
            raise DatasetParseError(f"bad fine_label {row[2]!r}", line=line)
        fine[r] = row[2]
    # float() accepts "nan" and "inf"; one vectorized pass finds the first such row.
    bad_t = ~np.isfinite(latent)
    bad_x = ~np.isfinite(x)
    bad = bad_t | bad_x.any(axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        col = "latent_t" if bad_t[r] else f"x{int(np.argmax(bad_x[r]))}"
        raise DatasetParseError(f"{col} must be finite", line=r + 2)
    return SyntheticOrdinalDataset(x, coarse, latent, fine)


def reference_train(config, data, seed: int):
    """The one-seed training loop, every batch checked again, every term in its per-class form.

    Each epoch plans with ``reference_stratified_batches``; each iteration
    runs ``forward`` on one 2-D batch and its own finiteness check on the
    features, the reference prototypes, loss terms and cross entropy above,
    the concatenated per-layer gradients, ``reference_adam_step`` and
    ``reference_ema_update``. Returns the history values, the Adam state and
    the prototype store.
    """
    enc, head = init_params(config.dims, config.n_classes, seed)
    adam = init_adam(
        enc,
        head,
        beta1=config.adam_beta1,
        beta2=config.adam_beta2,
        epsilon=config.adam_epsilon,
    )
    store = GlobalPrototypeStore(
        np.zeros((2, config.feature_dim)), config.anchor_classes, config.ema_sigma
    )
    k = config.n_classes
    per_epoch = len(reference_stratified_batches(data.labels, config.batch_size, [seed, 0], k))
    total_iters = config.epochs * per_epoch
    span = config.lambda_end - config.lambda_start
    lo_cls, hi_cls = config.anchor_classes
    rows = []
    iteration = 0
    for epoch in range(config.epochs):
        lr = config.base_lr * config.lr_decay**epoch
        for idx in reference_stratified_batches(data.labels, config.batch_size, [seed, epoch], k):
            iteration += 1
            if config.lambda_per_epoch:
                position = epoch / max(config.epochs - 1, 1)
            else:
                position = (iteration - 1) / max(total_iters - 1, 1)
            lam = config.lambda_start + span * position
            try:
                cache = forward(enc, head, data.x[idx])
                if not np.all(np.isfinite(cache.features)):
                    raise NonFiniteError("features contain NaN or Inf entries")
                labels = data.labels[idx]
                protos = reference_local_prototypes(cache.features, labels, k)
                hyb = reference_hybrid_ordinal_loss(
                    cache.features,
                    labels,
                    protos,
                    config.blackbox_lambda,
                    use_ins2ins=config.use_ins2ins,
                    use_ins2cls=config.use_ins2cls,
                    use_cls2cls=config.use_cls2cls,
                    detach_spread=config.detach_class_spread,
                )
                ce = reference_cross_entropy_loss(cache.logits, labels)
                total = ce.value + lam * hyb.value
                pieces = per_layer_backward(
                    enc, head, cache, lam * hyb.feature_grads, ce.logit_grads
                )
                reference_adam_step(adam, np.concatenate([g.ravel() for g in pieces]), lr)
                reference_ema_update(store, protos.means[lo_cls - 1], protos.means[hi_cls - 1])
            except OrdprotoError as exc:
                raise TrainingError(f"iteration {iteration}: {exc}", iteration) from exc
            rows.append((iteration, epoch, lr, lam, total, ce.value, *hyb.terms))
    return np.array(rows, dtype=np.float64), adam, store
