"""A small MLP encoder with an explicit backward pass and Adam updates.

No autograd framework: the forward pass caches layer inputs and
pre-activations, and ``backward`` replays them in reverse. The linear
head that produces class logits is one more ``Layer``, the network's
last, kept apart from the encoder body so feature-space losses and the
classification loss can inject their gradients at different points.

Adam works on one flat float64 buffer that holds every parameter in a
fixed layout: each layer's weight (row-major) and bias in layer order,
the head last. ``init_adam`` moves the parameters into that buffer and
leaves every ``Layer``'s fields as views into it; ``backward`` writes its
gradient into a buffer of the same layout (``buffer``), which the
training loop allocates once per run.

The training loop trains S seeds at once: ``stack_params`` puts their
parameters on a leading seed axis, so every array gains a first axis of
length S and the buffers are (S, P), one C-ordered row per seed.
``forward``, ``backward``, ``buffer``, ``init_adam`` and ``adam_step`` work
on plain and stacked parameters alike; every product is a ``matmul`` on
whole arrays, which gives each seed the bits of its own 2-D product.
``init_params``, ``forward``, ``backward``, ``init_adam`` and ``adam_step``
trust their input (the training loop's entry validates once); ``encode``,
the inference entry, validates its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._files import json_numbers, read_json, write_json
from .errors import DatasetParseError, DimMismatchError, NonFiniteError

# Rows per block of a long ``encode`` call; its last block may hold one more.
# A block holds two hidden layers at once (1 MB at 1,024 x 64). On the 8,000-row
# cohort (shared 2-core x86_64 host, numpy 2.4.6, OpenBLAS SkylakeX core, best
# of 60 calls), blocks of 128 and 256 rows encoded in 2.9-3.1 ms, 512 to 2,048
# in 2.2-2.7 and the whole cohort at once in 3.6-3.7; a load, score and evaluate
# pass made 3,750 minor page faults at 128 rows, 3,870 at 1,024, 4,760-5,010 at
# 2,048 and 6,410-6,430 whole. At 1,024 the 600-row default dataset is one block.
ENCODE_BLOCK_ROWS = 1024


@dataclass
class Layer:
    """One linear layer; ReLU follows every encoder layer but the last, never the head."""

    weight: np.ndarray  # (fan_in, fan_out), or (S, fan_in, fan_out) in a seed stack
    bias: np.ndarray  # (fan_out,), or (S, fan_out)


@dataclass
class EncoderParams:
    layers: list[Layer]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[-2]

    @property
    def feature_dim(self) -> int:
        return self.layers[-1].weight.shape[-1]


def _split(layers: list[Layer]) -> tuple[EncoderParams, Layer]:
    """``(encoder, head)`` from every layer of the network, the head last."""
    return EncoderParams(layers[:-1]), layers[-1]


def init_params(dims, n_classes: int, seed: int) -> tuple[EncoderParams, Layer]:
    """He-style init: weights ~ N(0, 2/fan_in), biases zero. Deterministic per seed.
    ``TrainConfig`` has checked ``dims`` (2+ positive ints) and ``n_classes`` (2+)."""
    rng = np.random.default_rng(seed)
    widths = [*dims, n_classes]
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weight = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        layers.append(Layer(weight, np.zeros(fan_out)))
    return _split(layers)


def stack_params(pairs) -> tuple[EncoderParams, Layer]:
    """S seeds' ``(encoder, head)`` pairs of one shape, as one pair of (S, ...) arrays."""
    nets = [[*enc.layers, head] for enc, head in pairs]
    return _split(
        [
            Layer(np.stack([net[i].weight for net in nets]), np.stack([net[i].bias for net in nets]))
            for i in range(len(nets[0]))
        ]
    )


def seed_params(enc: EncoderParams, head: Layer, row: int) -> tuple[EncoderParams, Layer]:
    """Seed ``row`` of stacked parameters, as views."""
    return _split([Layer(layer.weight[row], layer.bias[row]) for layer in (*enc.layers, head)])


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
    if not np.isfinite(arr).all():
        raise NonFiniteError("inputs contain NaN or Inf entries")
    return arr


def forward(enc: EncoderParams, head: Layer, h: np.ndarray) -> ForwardCache:
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
        h = np.maximum(a, 0.0) if i < n - 1 else a
    logits = h @ head.weight + head.bias[..., None, :]
    return ForwardCache(inputs, preacts, h, logits)


def encode(enc: EncoderParams, x) -> np.ndarray:
    """Feature vectors only (no logits, no cache kept), with ``forward``'s bits.

    Validates once. A call of more than ``ENCODE_BLOCK_ROWS`` + 1 rows runs
    the layers on blocks of that many rows from row 0, the last of 2 to one
    more rows (one row would be a matrix-vector product, which rounds
    differently), each block's features written into one preallocated output.
    """
    h = _as_batch(x, enc.input_dim)
    n = h.shape[0]
    if n <= ENCODE_BLOCK_ROWS + 1:
        return _encode_rows(enc.layers, h)
    out = np.empty((n, enc.feature_dim))
    bounds = [*range(0, n - 1, ENCODE_BLOCK_ROWS), n]
    for lo, hi in zip(bounds, bounds[1:]):
        _encode_rows(enc.layers, h[lo:hi], out[lo:hi])
    return out


def _encode_rows(layers: list[Layer], h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``encode``'s layers on validated rows: one array per layer, the last into ``out``.

    Each layer is the matmul, with the bias and ReLU applied in place.
    """
    *hidden, final = layers
    for layer in hidden:
        h = h @ layer.weight
        h += layer.bias
        np.maximum(h, 0.0, out=h)
    h = np.matmul(h, final.weight, out=out)
    h += final.bias
    return h


def buffer(enc: EncoderParams, head: Layer) -> tuple[np.ndarray, list[np.ndarray]]:
    """An uninitialized flat buffer in the parameter layout, and one view per array.

    Stacked parameters get an (S, P) buffer, one row per seed, and (S, ...) views.
    """
    arrays = [a for layer in (*enc.layers, head) for a in (layer.weight, layer.bias)]
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
    head: Layer,
    cache: ForwardCache,
    d_features: np.ndarray,
    d_logits: np.ndarray,
    grads: list[np.ndarray],
) -> None:
    """Reverse-mode pass from feature- and logit-space gradients, without validation.

    Feature gradients from structural losses and logit gradients from the
    classification loss merge where the head branches off the features.
    Every gradient is written into ``grads``, the per-array views of one
    flat buffer (``buffer``). The first layer's input gradient is not
    computed; nothing reads it. Stacked parameters take stacked gradients;
    the batch axis is always the second-to-last.
    """
    np.matmul(cache.features.swapaxes(-1, -2), d_logits, out=grads[-2])
    np.add.reduce(d_logits, axis=-2, out=grads[-1])
    dh = d_logits @ head.weight.swapaxes(-1, -2) + d_features
    last = len(enc.layers) - 1
    for i in range(last, -1, -1):
        layer = enc.layers[i]
        da = dh * (cache.preacts[i] > 0.0) if i < last else dh
        np.matmul(cache.inputs[i].swapaxes(-1, -2), da, out=grads[2 * i])
        np.add.reduce(da, axis=-2, out=grads[2 * i + 1])
        if i:
            dh = da @ layer.weight.swapaxes(-1, -2)


@dataclass
class AdamState:
    """Bias-corrected Adam; the caller passes each step's learning rate.

    ``params``, ``m`` and ``v`` are flat buffers in the same layout, (P,)
    or (S, P) for a seed stack; the layer and head fields view ``params``.
    ``scratch`` holds the two buffers ``adam_step`` computes in, made by
    its first call.
    """

    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    beta1: float
    beta2: float
    epsilon: float
    step: int = 0
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)


def init_adam(
    enc: EncoderParams, head: Layer, beta1: float, beta2: float, epsilon: float
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
    """One in-place Adam update of the whole parameter buffer at learning rate ``lr``.

    ``grads`` has the buffer's layout: ``backward`` wrote it into a
    ``buffer`` of the parameters ``init_adam`` laid out.
    """
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
    # x / 1.0 is x: a correction that has rounded to 1.0 skips its divide.
    np.multiply(lr, np.divide(m, bc1, out=a) if bc1 != 1.0 else m, out=a)
    np.sqrt(np.divide(v, bc2, out=b) if bc2 != 1.0 else v, out=b)
    b += state.epsilon
    np.divide(a, b, out=a)
    state.params -= a


def save_checkpoint(enc: EncoderParams, head: Layer, path, seed: int, epoch: int) -> None:
    """JSON checkpoint: dims, seed, epoch, per layer its activation and flat arrays."""
    dims = [enc.input_dim] + [layer.weight.shape[1] for layer in enc.layers]
    payload = {
        "dims": dims,
        "n_classes": int(head.weight.shape[1]),
        "seed": int(seed),
        "epoch": int(epoch),
        "layers": [
            {
                "activation": _activation(i, len(enc.layers)),
                "weight": layer.weight.ravel().tolist(),
                "bias": layer.bias.tolist(),
            }
            for i, layer in enumerate(enc.layers)
        ],
        "head": {"weight": head.weight.ravel().tolist(), "bias": head.bias.tolist()},
    }
    write_json(path, "checkpoint", payload)


def _activation(i: int, n_layers: int) -> str:
    """The checkpoint's name for layer ``i``'s activation: ReLU on all but the last."""
    return "identity" if i == n_layers - 1 else "relu"


def _flat_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A flat list of finite JSON numbers as an array of ``shape``; else ValueError."""
    arr = json_numbers(values, what)
    if arr.shape != (math.prod(shape),) or not np.isfinite(arr).all():
        raise ValueError(f"{what} must be {math.prod(shape)} finite floats, has shape {arr.shape}")
    return arr.reshape(shape)


def load_checkpoint(path) -> tuple[EncoderParams, Layer, dict]:
    """Rebuild (encoder, head) from a checkpoint; returns metadata too.

    Any payload ``save_checkpoint`` cannot write (dims, layer count, array
    sizes, a non-finite entry, an activation other than ReLU on the hidden
    layers and identity on the last, a count that is not a JSON integer, an
    entry that is not a JSON number) raises ``DatasetParseError``.
    """
    payload = read_json(path, "checkpoint")
    try:
        dims = json_numbers(payload["dims"], "dims", integers=True).tolist()
        ints = [payload["n_classes"], payload["seed"], payload["epoch"]]
        n_classes, seed, epoch = json_numbers(ints, "n_classes/seed/epoch", integers=True).tolist()
        if len(dims) < 2 or min(*dims, n_classes) < 1:
            raise ValueError(f"need 2+ positive dims and classes, got {dims}, {n_classes}")
        specs = payload["layers"]
        if len(specs) != len(dims) - 1:
            raise ValueError(f"{len(specs)} layers for dims {dims}")
        layers = []
        for i, (spec, shape) in enumerate(zip(specs, zip(dims[:-1], dims[1:]))):
            if spec["activation"] != _activation(i, len(specs)):
                raise ValueError(f"layer {i} activation must be {_activation(i, len(specs))!r}")
            weight = _flat_array(spec["weight"], shape, f"layer {i} weight")
            bias = _flat_array(spec["bias"], shape[1:], f"layer {i} bias")
            layers.append(Layer(weight, bias))
        head = Layer(
            _flat_array(payload["head"]["weight"], (dims[-1], n_classes), "head weight"),
            _flat_array(payload["head"]["bias"], (n_classes,), "head bias"),
        )
        meta = {"seed": seed, "epoch": epoch, "dims": dims}
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetParseError(f"malformed checkpoint payload: {exc}") from exc
    return EncoderParams(layers), head, meta
