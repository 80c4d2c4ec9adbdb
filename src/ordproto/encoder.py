"""A small MLP encoder with an explicit backward pass and Adam updates.

No autograd framework: the forward pass caches layer inputs and
pre-activations, and ``backward`` replays them in reverse. The linear
head that produces class logits is kept separate from the encoder body
so feature-space losses and the classification loss can inject their
gradients at different points.

Adam works on one flat float64 buffer that holds every parameter in a
fixed layout: each layer's weight (row-major) and bias in layer order,
then the head's weight and bias. ``init_adam`` moves the parameters into
that buffer and leaves the ``Layer`` and ``HeadParams`` fields as views
into it; ``backward`` returns its gradient in the same layout. The
training loop calls ``_forward`` and ``_backward``, the trusting kernels
behind ``forward`` and ``backward``, with one gradient buffer per run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimsError,
    DatasetIOError,
    DatasetParseError,
    DimMismatchError,
    NonFiniteError,
)

ACTIVATIONS = ("relu", "identity")


@dataclass
class Layer:
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise BadDimsError(f"unknown activation {self.activation!r}")


@dataclass
class EncoderParams:
    layers: list[Layer]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.layers[-1].weight.shape[1]


@dataclass
class HeadParams:
    weight: np.ndarray  # (feature_dim, n_classes)
    bias: np.ndarray  # (n_classes,)


def init_params(dims, n_classes: int, seed: int) -> tuple[EncoderParams, HeadParams]:
    """He-style init: weights ~ N(0, 2/fan_in), biases zero, ReLU hidden
    layers, identity on the final feature layer. Deterministic per seed."""
    dims = [int(d) for d in dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise BadDimsError(f"need at least [input, feature] positive dims, got {dims}")
    if n_classes < 2:
        raise BadDimsError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        act = "identity" if i == len(dims) - 2 else "relu"
        weight = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        layers.append(Layer(weight, np.zeros(fan_out), act))
    head = HeadParams(
        rng.normal(0.0, math.sqrt(2.0 / dims[-1]), size=(dims[-1], n_classes)),
        np.zeros(n_classes),
    )
    return EncoderParams(layers), head


@dataclass
class ForwardCache:
    inputs: list[np.ndarray]  # input to each layer, (M, fan_in)
    preacts: list[np.ndarray]  # pre-activation of each layer, (M, fan_out)
    features: np.ndarray  # (M, feature_dim)
    logits: np.ndarray  # (M, n_classes)


def _as_batch(x, input_dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != input_dim:
        raise DimMismatchError(f"inputs must have {input_dim} columns, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("inputs contain NaN or Inf entries")
    return arr


def _forward(enc: EncoderParams, head: HeadParams, h: np.ndarray) -> ForwardCache:
    """Forward kernel without validation: ``h`` is a finite (M, input_dim) float64 array."""
    n = len(enc.layers)
    inputs, preacts = [None] * n, [None] * n
    for i, layer in enumerate(enc.layers):
        inputs[i] = h
        a = h @ layer.weight + layer.bias
        preacts[i] = a
        h = np.maximum(a, 0.0) if layer.activation == "relu" else a
    logits = h @ head.weight + head.bias
    return ForwardCache(inputs, preacts, h, logits)


def forward(enc: EncoderParams, head: HeadParams, x) -> ForwardCache:
    return _forward(enc, head, _as_batch(x, enc.input_dim))


def encode(enc: EncoderParams, x) -> np.ndarray:
    """Feature vectors only (no logits, no cache kept)."""
    h = _as_batch(x, enc.input_dim)
    for layer in enc.layers:
        a = h @ layer.weight + layer.bias
        h = np.maximum(a, 0.0) if layer.activation == "relu" else a
    return h


def _buffer(enc: EncoderParams, head: HeadParams) -> tuple[np.ndarray, list[np.ndarray]]:
    """An uninitialized flat buffer in the parameter layout, and one view per array."""
    arrays = [a for layer in enc.layers for a in (layer.weight, layer.bias)]
    arrays += [head.weight, head.bias]
    flat = np.empty(sum(a.size for a in arrays))
    ends = np.cumsum([a.size for a in arrays])
    return flat, [flat[end - a.size : end].reshape(a.shape) for a, end in zip(arrays, ends)]


def _backward(
    enc: EncoderParams,
    head: HeadParams,
    cache: ForwardCache,
    d_features: np.ndarray | None,
    d_logits: np.ndarray | None,
    grads: list[np.ndarray],
) -> None:
    """Backward kernel without validation: writes every gradient into ``grads``.

    ``grads`` are the per-array views of one flat buffer (``_buffer``).
    The first layer's input gradient is not computed; nothing reads it.
    """
    if d_logits is not None:
        np.matmul(cache.features.T, d_logits, out=grads[-2])
        np.add.reduce(d_logits, axis=0, out=grads[-1])
        dh = d_logits @ head.weight.T
    else:
        grads[-2][...] = 0.0
        grads[-1][...] = 0.0
        dh = np.zeros(cache.features.shape)
    if d_features is not None:
        dh = dh + d_features
    for i in range(len(enc.layers) - 1, -1, -1):
        layer = enc.layers[i]
        da = dh * (cache.preacts[i] > 0.0) if layer.activation == "relu" else dh
        np.matmul(cache.inputs[i].T, da, out=grads[2 * i])
        np.add.reduce(da, axis=0, out=grads[2 * i + 1])
        if i:
            dh = da @ layer.weight.T


def backward(
    enc: EncoderParams,
    head: HeadParams,
    cache: ForwardCache,
    d_features: np.ndarray | None = None,
    d_logits: np.ndarray | None = None,
) -> np.ndarray:
    """Reverse-mode pass from feature- and/or logit-space gradients.

    Feature gradients from structural losses and logit gradients from the
    classification loss merge where the head branches off the features.
    Returns one flat gradient vector in the parameter-buffer layout.
    """
    if d_logits is not None:
        d_logits = np.asarray(d_logits, dtype=np.float64)
        if d_logits.shape != cache.logits.shape:
            raise DimMismatchError(
                f"d_logits shape {d_logits.shape} != logits shape {cache.logits.shape}"
            )
    if d_features is not None:
        d_features = np.asarray(d_features, dtype=np.float64)
        if d_features.shape != cache.features.shape:
            raise DimMismatchError(
                f"d_features shape {d_features.shape} != features shape {cache.features.shape}"
            )
    flat, views = _buffer(enc, head)
    _backward(enc, head, cache, d_features, d_logits, views)
    return flat


@dataclass
class AdamState:
    """Bias-corrected Adam with per-epoch exponential learning-rate decay.

    ``params``, ``m`` and ``v`` are flat buffers in the same layout. The
    layer and head fields view ``params`` only in the process that called
    ``init_adam``; a pickled copy (a pooled run's result) keeps the values.
    """

    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.5
    beta2: float = 0.999
    base_lr: float = 2e-4
    lr_decay: float = 0.95
    epsilon: float = 1e-8


def init_adam(
    enc: EncoderParams,
    head: HeadParams,
    beta1: float = 0.5,
    beta2: float = 0.999,
    base_lr: float = 2e-4,
    lr_decay: float = 0.95,
    epsilon: float = 1e-8,
) -> AdamState:
    """Zeroed Adam state over a new buffer holding every parameter.

    The parameters of ``enc`` and ``head`` are copied into the buffer and
    their fields rebound as views into it, so ``adam_step`` updates them.
    """
    params, views = _buffer(enc, head)
    for owner, weight, bias in zip([*enc.layers, head], views[::2], views[1::2]):
        weight[...], bias[...] = owner.weight, owner.bias
        owner.weight, owner.bias = weight, bias
    return AdamState(
        params=params,
        m=np.zeros_like(params),
        v=np.zeros_like(params),
        beta1=beta1,
        beta2=beta2,
        base_lr=base_lr,
        lr_decay=lr_decay,
        epsilon=epsilon,
    )


def learning_rate(state: AdamState, epoch: int) -> float:
    """base_lr * lr_decay**epoch (epochs counted from 0)."""
    return state.base_lr * state.lr_decay**epoch


def adam_step(state: AdamState, grads: np.ndarray, epoch: int) -> None:
    """One in-place Adam update of the whole parameter buffer."""
    if grads.shape != state.params.shape:
        raise DimMismatchError(
            f"gradient shape {grads.shape} != parameter buffer shape {state.params.shape}"
        )
    lr = learning_rate(state, epoch)
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grads
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * (grads * grads)
    state.params -= lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + state.epsilon)


def save_checkpoint(
    enc: EncoderParams, head: HeadParams, path, seed: int, epoch: int
) -> None:
    """JSON checkpoint: dims, seed, epoch, flattened parameter arrays."""
    dims = [enc.input_dim] + [layer.weight.shape[1] for layer in enc.layers]
    payload = {
        "dims": dims,
        "n_classes": int(head.weight.shape[1]),
        "seed": int(seed),
        "epoch": int(epoch),
        "layers": [
            {
                "activation": layer.activation,
                "weight": [float(x) for x in layer.weight.ravel()],
                "bias": [float(x) for x in layer.bias],
            }
            for layer in enc.layers
        ],
        "head": {
            "weight": [float(x) for x in head.weight.ravel()],
            "bias": [float(x) for x in head.bias],
        },
    }
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise DatasetIOError(f"cannot write checkpoint: {exc}") from exc


def load_checkpoint(path) -> tuple[EncoderParams, HeadParams, dict]:
    """Rebuild (encoder, head) from a checkpoint; returns metadata too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DatasetIOError(f"cannot read checkpoint: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetParseError(f"checkpoint is not valid JSON: {exc}") from exc
    try:
        dims = [int(d) for d in payload["dims"]]
        n_classes = int(payload["n_classes"])
        layers = []
        for spec, fan_in, fan_out in zip(payload["layers"], dims[:-1], dims[1:]):
            weight = np.asarray(spec["weight"], dtype=np.float64).reshape(fan_in, fan_out)
            bias = np.asarray(spec["bias"], dtype=np.float64)
            if bias.shape != (fan_out,):
                raise ValueError(f"bias shape {bias.shape} != ({fan_out},)")
            layers.append(Layer(weight, bias, str(spec["activation"])))
        if len(layers) != len(dims) - 1:
            raise ValueError("layer count does not match dims")
        head_w = np.asarray(payload["head"]["weight"], dtype=np.float64).reshape(
            dims[-1], n_classes
        )
        head_b = np.asarray(payload["head"]["bias"], dtype=np.float64)
        meta = {"seed": int(payload["seed"]), "epoch": int(payload["epoch"]), "dims": dims}
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetParseError(f"malformed checkpoint payload: {exc}") from exc
    return EncoderParams(layers), HeadParams(head_w, head_b), meta
