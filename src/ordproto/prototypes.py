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
from dataclasses import dataclass, field

import numpy as np

from ._files import read_json, write_json
from .errors import (
    BadConfigError,
    DatasetParseError,
    DimMismatchError,
    NonFiniteError,
    UntrainedStoreError,
    ZeroVectorError,
    in_row,
)
from .linalg import NORM_EPS, _dot_norms, _unit

STABLE = "stable"
PROGRESSIVE = "progressive"


@dataclass
class GlobalPrototypeStore:
    """EMA-tracked anchor directions for the two ends of the label scale.

    Anchors start as zero vectors and are bootstrapped by the first update.
    After the first update they are never zero again, but they are not
    unit norm either (the EMA is a convex combination of unit vectors).
    The training loop keeps the anchors of a stack of S seeds in one store
    by giving it (S, dim) anchors, one row per seed; the constructor and a
    saved store take one seed's (dim,) vectors.
    """

    dim: int
    anchor_classes: tuple[int, int]  # no default: TrainConfig owns the (1, K) default
    sigma: float = 0.9
    anchor_low: np.ndarray = field(default=None)  # type: ignore[assignment]
    anchor_high: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.dim < 1:
            raise BadConfigError("store dim must be >= 1")
        if not 0.0 < self.sigma < 1.0:
            raise BadConfigError(f"sigma must lie strictly inside (0, 1), got {self.sigma}")
        lo, hi = self.anchor_classes
        if lo == hi:
            raise BadConfigError("anchor classes must be distinct")
        for name in ("anchor_low", "anchor_high"):
            v = getattr(self, name)
            if v is None:
                v = np.zeros(self.dim, dtype=np.float64)
            else:
                v = np.asarray(v, dtype=np.float64)
                if v.shape != (self.dim,):
                    raise DimMismatchError(f"{name} must have shape ({self.dim},)")
            setattr(self, name, v)


def is_trained(store: GlobalPrototypeStore) -> bool:
    """True once both anchors have left their zero initialization."""
    return (
        float(np.linalg.norm(store.anchor_low)) > NORM_EPS
        and float(np.linalg.norm(store.anchor_high)) > NORM_EPS
    )


def _refuse_bad_rows(finite: np.ndarray, mean_norms: np.ndarray) -> None:
    """Raise for the first seed whose means or anchors ``ema_update`` must refuse.

    ``finite`` (S, 4) marks finite low mean, high mean, low anchor and high
    anchor; ``mean_norms`` (S, 2) holds the means' norms. Each seed's
    checks run in the order of its own update: both means finite, then
    per anchor its mean's norm and the anchor itself.
    """
    for row, (ok, norms) in enumerate(zip(finite.tolist(), mean_norms.tolist())):
        for j, name in enumerate(("mu_low", "mu_high")):
            if not ok[j]:
                raise in_row(NonFiniteError(f"{name} contains NaN or Inf entries"), row)
        for j, norm in enumerate(norms):
            if norm <= NORM_EPS:
                message = f"cannot normalize class mean with norm {norm!r}"
                raise in_row(ZeroVectorError(message), row)
            # An anchor with NaN or Inf entries; a finite one whose norm
            # overflows moves as any other.
            if not ok[2 + j]:
                raise in_row(NonFiniteError("anchor contains NaN or Inf entries"), row)


def ema_update(store: GlobalPrototypeStore, mu_low, mu_high) -> GlobalPrototypeStore:
    """Move both anchors toward the normalized batch class means (in place).

    The means have the anchors' shape: (dim,), or (S, dim) for a stack of
    seeds, where each row moves its own seed's anchors. A bad row raises
    for the first seed it belongs to, with that seed's own message; the
    store changes only once every row has passed.
    """
    lo = np.asarray(mu_low, dtype=np.float64)
    hi = np.asarray(mu_high, dtype=np.float64)
    shape = store.anchor_low.shape
    if lo.shape != shape or hi.shape != shape:
        raise DimMismatchError(f"class means must have shape {shape}")
    d = store.dim
    # Per seed four rows: the low and high means, then the low and high anchors.
    v = np.concatenate((lo, hi, store.anchor_low, store.anchor_high), axis=-1).reshape(-1, 4, d)
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
    anchors = p_hat + (1.0 - store.sigma) * delta
    moved = np.logical_or.reduce(delta, axis=2)
    if not all(moved.ravel().tolist()):
        anchors[~moved] = p_hat[~moved]
    anchors = anchors.reshape(*shape[:-1], 2, d)
    store.anchor_low, store.anchor_high = anchors[..., 0, :], anchors[..., 1, :]
    return store


def _row_cosines(f: np.ndarray, norms: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """cos(f[r], anchor) for every row; ``norms`` are the row norms of ``f``.

    Row-wise reductions (not a matrix product), so a row's value does not
    depend on which other rows share the call. No validation.
    """
    return np.sum(f * anchor, axis=1) / (norms * float(np.linalg.norm(anchor)))


def anchor_cosines(features, store: GlobalPrototypeStore) -> tuple[np.ndarray, np.ndarray]:
    """Cosines of every row of an ``(n, dim)`` matrix to the (low, high) anchors.

    Validates once per call: the store is trained, the shape is ``(n, dim)``,
    every value is finite and no row has a (near-)zero norm.
    """
    if not is_trained(store):
        raise UntrainedStoreError("prototype store has not been updated yet")
    # C order keeps each row's reduction order fixed whatever the input layout.
    f = np.ascontiguousarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] != store.dim:
        raise DimMismatchError(f"features must have shape (n, {store.dim}), got {f.shape}")
    finite = np.isfinite(f).all(axis=1)
    if not finite.all():
        raise NonFiniteError(f"features row {int(np.argmin(finite))} contains NaN or Inf entries")
    norms = np.sqrt(np.sum(f * f, axis=1))
    zero = norms <= NORM_EPS
    if zero.any():
        raise ZeroVectorError(f"features row {int(np.argmax(zero))} has (near-)zero norm")
    return _row_cosines(f, norms, store.anchor_low), _row_cosines(f, norms, store.anchor_high)


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
    return {
        "dim": store.dim,
        "sigma": store.sigma,
        "anchor_classes": list(store.anchor_classes),
        "anchor_low": [float(x) for x in store.anchor_low],
        "anchor_high": [float(x) for x in store.anchor_high],
    }


def store_from_dict(payload: dict) -> GlobalPrototypeStore:
    """Rebuild a store; any invalid payload raises ``DatasetParseError``."""
    try:
        store = GlobalPrototypeStore(
            dim=int(payload["dim"]),
            sigma=float(payload["sigma"]),
            anchor_classes=tuple(int(c) for c in payload["anchor_classes"]),
            anchor_low=np.asarray(payload["anchor_low"], dtype=np.float64),
            anchor_high=np.asarray(payload["anchor_high"], dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError, BadConfigError, DimMismatchError) as exc:
        raise DatasetParseError(f"malformed prototype store payload: {exc}") from exc
    if not (np.isfinite(store.anchor_low).all() and np.isfinite(store.anchor_high).all()):
        raise DatasetParseError("prototype store anchors contain NaN or Inf entries")
    return store


def save_store(store: GlobalPrototypeStore, path) -> None:
    write_json(path, "prototype store", store_to_dict(store))


def load_store(path) -> GlobalPrototypeStore:
    return store_from_dict(read_json(path, "prototype store"))
