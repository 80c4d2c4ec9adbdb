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
into it; ``backward`` writes its gradient into a buffer of the same
layout (``buffer``), which the training loop allocates once per run.

The training loop trains S seeds at once: ``stack_params`` puts their
parameters on a leading seed axis, so every array gains a first axis of
length S and the buffers are (S, P), one C-ordered row per seed.
``forward``, ``backward``, ``buffer``, ``init_adam`` and ``adam_step`` work
on plain and stacked parameters alike; every product is a ``matmul`` on
whole arrays, which gives each seed the bits of its own 2-D product.
``forward`` and ``backward`` trust their input (the loop validates once);
``encode``, the inference entry, validates its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._files import read_json, write_json
from .errors import BadConfigError, DatasetParseError, DimMismatchError, NonFiniteError

ACTIVATIONS = ("relu", "identity")


@dataclass
class Layer:
    weight: np.ndarray  # (fan_in, fan_out), or (S, fan_in, fan_out) in a seed stack
    bias: np.ndarray  # (fan_out,), or (S, fan_out)
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise BadConfigError(f"unknown activation {self.activation!r}")


@dataclass
class EncoderParams:
    layers: list[Layer]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[-2]

    @property
    def feature_dim(self) -> int:
        return self.layers[-1].weight.shape[-1]


@dataclass
class HeadParams:
    weight: np.ndarray  # (feature_dim, n_classes), or (S, feature_dim, n_classes)
    bias: np.ndarray  # (n_classes,), or (S, n_classes)


def init_params(dims, n_classes: int, seed: int) -> tuple[EncoderParams, HeadParams]:
    """He-style init: weights ~ N(0, 2/fan_in), biases zero, ReLU hidden
    layers, identity on the final feature layer. Deterministic per seed."""
    dims = [int(d) for d in dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise BadConfigError(f"need at least [input, feature] positive dims, got {dims}")
    if n_classes < 2:
        raise BadConfigError("need at least 2 classes")
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


def stack_params(pairs) -> tuple[EncoderParams, HeadParams]:
    """S seeds' ``(encoder, head)`` pairs of one shape, as one pair of (S, ...) arrays."""
    encs, heads = zip(*pairs)
    layers = [
        Layer(
            np.stack([enc.layers[i].weight for enc in encs]),
            np.stack([enc.layers[i].bias for enc in encs]),
            layer.activation,
        )
        for i, layer in enumerate(encs[0].layers)
    ]
    head = HeadParams(np.stack([h.weight for h in heads]), np.stack([h.bias for h in heads]))
    return EncoderParams(layers), head


def seed_params(enc: EncoderParams, head: HeadParams, row: int):
    """Seed ``row`` of stacked parameters, as views."""
    layers = [Layer(layer.weight[row], layer.bias[row], layer.activation) for layer in enc.layers]
    return EncoderParams(layers), HeadParams(head.weight[row], head.bias[row])


@dataclass
class ForwardCache:
    # Shapes of one batch; a seed stack puts S in front of each.
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


def forward(enc: EncoderParams, head: HeadParams, h: np.ndarray) -> ForwardCache:
    """Forward pass without validation.

    ``h`` is a finite C-ordered float64 array, (M, input_dim), or
    (S, M, input_dim) for stacked parameters.
    """
    n = len(enc.layers)
    inputs, preacts = [None] * n, [None] * n
    for i, layer in enumerate(enc.layers):
        inputs[i] = h
        a = h @ layer.weight + layer.bias[..., None, :]
        preacts[i] = a
        h = np.maximum(a, 0.0) if layer.activation == "relu" else a
    logits = h @ head.weight + head.bias[..., None, :]
    return ForwardCache(inputs, preacts, h, logits)


def encode(enc: EncoderParams, x) -> np.ndarray:
    """Feature vectors only (no logits, no cache kept)."""
    h = _as_batch(x, enc.input_dim)
    for layer in enc.layers:
        a = h @ layer.weight + layer.bias
        h = np.maximum(a, 0.0) if layer.activation == "relu" else a
    return h


def buffer(enc: EncoderParams, head: HeadParams) -> tuple[np.ndarray, list[np.ndarray]]:
    """An uninitialized flat buffer in the parameter layout, and one view per array.

    Stacked parameters get an (S, P) buffer, one row per seed, and (S, ...) views.
    """
    arrays = [a for layer in enc.layers for a in (layer.weight, layer.bias)]
    arrays += [head.weight, head.bias]
    lead = head.bias.shape[:-1]
    shapes = [a.shape[len(lead) :] for a in arrays]
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.empty((*lead, sum(sizes)))
    ends = np.cumsum(sizes)
    return flat, [
        flat[..., end - size : end].reshape(*lead, *shape)
        for shape, size, end in zip(shapes, sizes, ends)
    ]


def backward(
    enc: EncoderParams,
    head: HeadParams,
    cache: ForwardCache,
    d_features: np.ndarray | None,
    d_logits: np.ndarray | None,
    grads: list[np.ndarray],
) -> None:
    """Reverse-mode pass from feature- and/or logit-space gradients, without validation.

    Feature gradients from structural losses and logit gradients from the
    classification loss merge where the head branches off the features.
    Every gradient is written into ``grads``, the per-array views of one
    flat buffer (``buffer``). The first layer's input gradient is not
    computed; nothing reads it. Stacked parameters take stacked gradients;
    the batch axis is always the second-to-last.
    """
    if d_logits is not None:
        np.matmul(cache.features.swapaxes(-1, -2), d_logits, out=grads[-2])
        np.add.reduce(d_logits, axis=-2, out=grads[-1])
        dh = d_logits @ head.weight.swapaxes(-1, -2)
    else:
        grads[-2][...] = 0.0
        grads[-1][...] = 0.0
        dh = np.zeros(cache.features.shape)
    if d_features is not None:
        dh = dh + d_features
    for i in range(len(enc.layers) - 1, -1, -1):
        layer = enc.layers[i]
        da = dh * (cache.preacts[i] > 0.0) if layer.activation == "relu" else dh
        np.matmul(cache.inputs[i].swapaxes(-1, -2), da, out=grads[2 * i])
        np.add.reduce(da, axis=-2, out=grads[2 * i + 1])
        if i:
            dh = da @ layer.weight.swapaxes(-1, -2)


@dataclass
class AdamState:
    """Bias-corrected Adam; the caller passes each step's learning rate.

    ``params``, ``m`` and ``v`` are flat buffers in the same layout, (P,)
    or (S, P) for a seed stack. The layer and head fields view ``params``
    only in the process that called ``init_adam``; a pickled copy (a pooled
    run's result) keeps the values. ``scratch`` holds the two buffers
    ``adam_step`` computes in, made by its first call.
    """

    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def row(self, row: int) -> "AdamState":
        """Seed ``row`` of a stacked state: views of its buffers, without scratch."""
        return AdamState(
            self.params[row], self.m[row], self.v[row], self.step,
            self.beta1, self.beta2, self.epsilon,
        )


def init_adam(
    enc: EncoderParams,
    head: HeadParams,
    beta1: float = 0.5,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> AdamState:
    """Zeroed Adam state over a new buffer holding every parameter.

    The parameters of ``enc`` and ``head`` are copied into the buffer and
    their fields rebound as views into it, so ``adam_step`` updates them.
    """
    params, views = buffer(enc, head)
    for owner, weight, bias in zip([*enc.layers, head], views[::2], views[1::2]):
        weight[...], bias[...] = owner.weight, owner.bias
        owner.weight, owner.bias = weight, bias
    return AdamState(
        params=params,
        m=np.zeros_like(params),
        v=np.zeros_like(params),
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
    )


def adam_step(state: AdamState, grads: np.ndarray, lr: float) -> None:
    """One in-place Adam update of the whole parameter buffer at learning rate ``lr``."""
    if grads.shape != state.params.shape:
        raise DimMismatchError(
            f"gradient shape {grads.shape} != parameter buffer shape {state.params.shape}"
        )
    if state.scratch is None:
        state.scratch = (np.empty_like(state.params), np.empty_like(state.params))
    a, b = state.scratch
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    m, v = state.m, state.v
    # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*(g*g);
    # params -= lr*(m/bc1) / (sqrt(v/bc2) + eps): the same IEEE operations in
    # the same order as the expressions, written into the scratch buffers.
    m *= state.beta1
    np.multiply(1.0 - state.beta1, grads, out=a)
    m += a
    v *= state.beta2
    np.square(grads, out=a)
    np.multiply(1.0 - state.beta2, a, out=a)
    v += a
    np.divide(m, bc1, out=a)
    np.multiply(lr, a, out=a)
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += state.epsilon
    np.divide(a, b, out=a)
    state.params -= a


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
    write_json(path, "checkpoint", payload)


def load_checkpoint(path) -> tuple[EncoderParams, HeadParams, dict]:
    """Rebuild (encoder, head) from a checkpoint; returns metadata too."""
    payload = read_json(path, "checkpoint")
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
