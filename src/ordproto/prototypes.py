"""Global anchor prototypes: EMA tracking and prototype-comparison inference.

The store keeps one direction per anchor class (the low and high ends of
the ordinal scale). Each training batch nudges them toward the normalized
batch class means; at inference a query is scored by a two-way softmax
over its cosine similarities to the two anchors. Scores above 0.5 read as
the progressive outcome, everything else as stable. ``progression_scores``
scores all rows of a feature matrix in one validated, row-batched call.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from ._files import json_numbers, read_json, write_json
from .errors import (
    BadConfigError,
    DatasetParseError,
    DimMismatchError,
    NonFiniteError,
    UntrainedStoreError,
    ZeroVectorError,
)
from .linalg import NORM_EPS, _dot_norms, _unit

STABLE = "stable"
PROGRESSIVE = "progressive"

# Rows per block of an anchor_cosines call: a block's products are (rows,
# dim) arrays, 256 KB each at 1,024 x 32, made one at a time. On the
# 8,000-row cohort (shared 2-core x86_64 host) blocks of 1,024 and 2,048 rows
# took 1.6-1.7 ms, 256 rows 2.5 and the whole cohort as one block 1.8-1.9.
# At 1,024 the 600-row default dataset is one block.
COSINE_BLOCK_ROWS = 1024


@dataclass
class GlobalPrototypeStore:
    """EMA-tracked anchor directions for the two ends of the label scale.

    ``anchors`` is a (2, dim) float64 array, the low anchor's row first,
    kept as a C-ordered copy. A trained anchor is never zero, but it is not
    unit norm either (the EMA is a convex combination of unit vectors).
    ``anchor_classes`` is a tuple of two distinct integers >= 1 (numpy's
    too, not bools), kept as Python ints. ``sigma`` is a real number
    strictly inside (0, 1), not a bool, kept as a Python float.
    """

    anchors: np.ndarray
    anchor_classes: tuple[int, int]
    sigma: float

    def __post_init__(self):
        # C order: a strided row's dot product would sum in another order.
        try:
            self.anchors = np.array(self.anchors, dtype=np.float64, order="C")
        except ValueError as exc:  # rows of different lengths, say
            raise DimMismatchError(f"anchors must have shape (2, dim >= 1): {exc}") from exc
        shape = self.anchors.shape
        if len(shape) != 2 or shape[0] != 2 or shape[1] < 1:
            raise DimMismatchError(f"anchors must have shape (2, dim >= 1), got {shape}")
        sigma = self.sigma
        if isinstance(sigma, bool) or not isinstance(sigma, numbers.Real) or not 0.0 < sigma < 1.0:
            raise BadConfigError(f"sigma must be a real number inside (0, 1), got {sigma!r}")
        self.sigma = float(sigma)
        classes = self.anchor_classes
        if not (
            isinstance(classes, tuple)
            and len(classes) == 2
            and all(isinstance(c, numbers.Integral) and not isinstance(c, bool) for c in classes)
            and min(classes) >= 1
            and classes[0] != classes[1]
        ):
            raise BadConfigError(
                f"anchor classes must be two distinct integers >= 1, got {classes!r}"
            )
        self.anchor_classes = tuple(map(int, classes))

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]


def is_trained(store: GlobalPrototypeStore) -> bool:
    """True when neither anchor is (near-)zero."""
    return all(n > NORM_EPS for n in _dot_norms(store.anchors).tolist())


def _refuse_bad_rows(finite: np.ndarray, mean_norms: np.ndarray) -> None:
    """Raise for the first seed whose means or anchors ``ema_update`` must refuse.

    ``finite`` (S, 4) marks finite low mean, high mean, low anchor and high
    anchor; ``mean_norms`` (S, 2) holds the means' norms. Each seed's
    checks run in the order of its own update: both means finite, then
    per anchor its mean's norm and the anchor itself.
    """
    for ok, norms in zip(finite.tolist(), mean_norms.tolist()):
        for j, name in enumerate(("mu_low", "mu_high")):
            if not ok[j]:
                raise NonFiniteError(f"{name} contains NaN or Inf entries")
        for j, norm in enumerate(norms):
            if norm <= NORM_EPS:
                raise ZeroVectorError(f"cannot normalize class mean with norm {norm!r}")
            # An anchor with NaN or Inf entries; a finite one whose norm
            # overflows moves as any other.
            if not ok[2 + j]:
                raise NonFiniteError("anchor contains NaN or Inf entries")


def ema_update(anchors: np.ndarray, means: np.ndarray, sigma: float) -> np.ndarray:
    """The anchors moved toward the normalized batch class means, as a new array.

    ``anchors`` and ``means`` are float64 arrays of one shape, (2, dim) or
    (S, 2, dim) for a stack of seeds, the low row before the high one; each
    seed moves its own anchors, and the shape is trusted (the training loop
    passes its class means). A zero anchor is bootstrapped to its
    normalized mean. A NaN, Inf or zero-norm row raises for the first seed
    it belongs to, with that seed's own message.
    """
    # Per seed four rows: the low and high means, then the low and high anchors.
    v = np.concatenate((means, anchors), axis=-2).reshape(-1, 4, anchors.shape[-1])
    norms = _dot_norms(v)
    # The usual step passes one test of the 4 S norms, as Python floats: finite rows (NaN or
    # Inf make the sum non-finite; an overflow costs the slow path), nonzero means, trained anchors.
    flat = norms.ravel().tolist()
    if not (math.isfinite(sum(flat)) and min(flat) > NORM_EPS):
        _refuse_bad_rows(np.logical_and.reduce(np.isfinite(v), axis=2), norms[:, :2])
        # Bootstrap: a zero anchor adopts its normalized mean, as an anchor
        # equal to its mean, which stays where it is.
        boot = norms[:, 2:] <= NORM_EPS
        v[:, 2:][boot] = v[:, :2][boot]
        norms[:, 2:][boot] = norms[:, :2][boot]
    units = _unit(v, norms)
    mu_hat, p_hat = units[:, :2], units[:, 2:]
    delta = mu_hat - p_hat
    # Same value as sigma*p_hat + (1-sigma)*mu_hat, but exact when delta=0;
    # an exact fixed point keeps p_hat as it is.
    stepped = p_hat + (1.0 - sigma) * delta
    moved = np.logical_or.reduce(delta, axis=2)
    if not all(moved.ravel().tolist()):
        stepped[~moved] = p_hat[~moved]
    return stepped.reshape(anchors.shape)


def anchor_cosines(features, store: GlobalPrototypeStore) -> tuple[np.ndarray, np.ndarray]:
    """Cosines of every row of an ``(n, dim)`` matrix to the (low, high) anchors.

    Validates once per call: the store is trained, the shape is ``(n, dim)``,
    every row's norm is finite (so are its values) and none is (near-)zero;
    a bad row is named by its index in the call. Row-wise reductions over
    blocks of ``COSINE_BLOCK_ROWS`` rows, not matrix products: a row's value
    does not depend on the other rows of the call, and a call holds a few
    ``(n,)`` arrays and one block's products beside its input.
    """
    n_low, n_high = _dot_norms(store.anchors).tolist()
    if not (n_low > NORM_EPS and n_high > NORM_EPS):
        raise UntrainedStoreError("prototype store has not been updated yet")
    # C order keeps each row's reduction order fixed whatever the input layout.
    f = np.ascontiguousarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] != store.dim:
        raise DimMismatchError(f"features must have shape (n, {store.dim}), got {f.shape}")
    # Entries within this bound keep every squared norm below half of float64's
    # largest value; a call with a larger entry, an Inf or a NaN checks the norms.
    bound = math.sqrt(sys.float_info.max / (2 * store.dim))
    if (
        np.maximum.reduce(f, axis=None, initial=0.0) <= bound
        and np.minimum.reduce(f, axis=None, initial=0.0) >= -bound
    ):
        squares, low, high = _row_sums(f, store.anchors)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            squares, low, high = _row_sums(f, store.anchors)
        finite = np.isfinite(squares)
        if not finite.all():
            row = int(np.argmin(finite))
            fault = "contains NaN or Inf entries"
            if np.isfinite(f[row]).all():
                fault = "has a norm that overflows"
            raise NonFiniteError(f"features row {row} {fault}")
    norms = np.sqrt(squares, out=squares)
    zero = norms <= NORM_EPS
    if zero.any():
        raise ZeroVectorError(f"features row {int(np.argmax(zero))} has (near-)zero norm")
    np.divide(low, norms * n_low, out=low)
    np.divide(high, norms * n_high, out=high)
    return low, high


def _row_sums(f: np.ndarray, anchors: np.ndarray) -> tuple:
    """Per row of ``f``: its squared norm and its dot products with the low and high anchor.

    Row-wise products and ``np.add.reduce`` over blocks of ``COSINE_BLOCK_ROWS``
    rows, so a row's sums do not depend on its block.
    """
    n = f.shape[0]
    if n > COSINE_BLOCK_ROWS:
        starts = range(0, n, COSINE_BLOCK_ROWS)
        blocks = [_row_sums(f[lo : lo + COSINE_BLOCK_ROWS], anchors) for lo in starts]
        return tuple(np.concatenate(sums) for sums in zip(*blocks))
    a_low, a_high = anchors
    squares = np.add.reduce(f * f, axis=1)
    return squares, np.add.reduce(f * a_low, axis=1), np.add.reduce(f * a_high, axis=1)


def progression_scores(features, store: GlobalPrototypeStore) -> np.ndarray:
    """Two-way softmax over anchor cosines, the high-anchor share, per row.

    Invariant to positive rescaling of a row and of either anchor. A row
    equidistant from both anchors scores exactly 0.5: the softmax subtracts
    the larger cosine first.
    """
    return _softmax_high(*anchor_cosines(features, store))


def _softmax_high(c_low: np.ndarray, c_high: np.ndarray) -> np.ndarray:
    """The high-anchor share of a two-way softmax over anchor cosines. No validation."""
    top = np.maximum(c_high, c_low)
    e_high = np.exp(c_high - top)
    e_low = np.exp(c_low - top)
    return e_high / (e_high + e_low)


def store_to_dict(store: GlobalPrototypeStore) -> dict:
    low, high = store.anchors.tolist()
    return {
        "dim": store.dim,
        "sigma": store.sigma,
        "anchor_classes": list(store.anchor_classes),
        "anchor_low": low,
        "anchor_high": high,
    }


def store_from_dict(payload: dict) -> GlobalPrototypeStore:
    """Rebuild a store; any invalid payload (say, a float ``dim``) raises ``DatasetParseError``."""
    try:
        (dim,) = json_numbers([payload["dim"]], "dim", integers=True).tolist()
        (sigma,) = json_numbers([payload["sigma"]], "sigma").tolist()
        anchor_classes = json_numbers(payload["anchor_classes"], "anchor_classes", integers=True)
        anchors = [json_numbers(payload[name], name) for name in ("anchor_low", "anchor_high")]
        if any(a.shape != (dim,) for a in anchors):
            raise DimMismatchError(f"anchor_low and anchor_high must hold dim = {dim} numbers")
        store = GlobalPrototypeStore(anchors, tuple(anchor_classes.tolist()), sigma)
    except (KeyError, TypeError, ValueError, BadConfigError, DimMismatchError) as exc:
        raise DatasetParseError(f"malformed prototype store payload: {exc}") from exc
    if not np.isfinite(store.anchors).all():
        raise DatasetParseError("prototype store anchors contain NaN or Inf entries")
    # Finite entries can still square to Inf (1e308, say); scoring then divides by an Inf norm.
    with np.errstate(over="ignore"):
        norms = _dot_norms(store.anchors)
    if not np.isfinite(norms).all():
        raise DatasetParseError(f"prototype store anchor norms overflow: {norms.tolist()}")
    return store


def save_store(store: GlobalPrototypeStore, path) -> None:
    write_json(path, "prototype store", store_to_dict(store))


def load_store(path) -> GlobalPrototypeStore:
    return store_from_dict(read_json(path, "prototype store"))
