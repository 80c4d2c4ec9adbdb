"""Global anchor prototypes: EMA tracking and prototype-comparison inference.

The store keeps one direction per anchor class (the low and high ends of
the ordinal scale). Each training batch nudges them toward the normalized
batch class means; at inference a query is scored by a two-way softmax
over its cosine similarities to the two anchors. Scores above 0.5 read as
the progressive outcome, everything else as stable. ``progression_scores``
scores all rows of a feature matrix in one validated, row-batched call;
``predict_progression`` is its one-vector wrapper.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadConfigError,
    DatasetIOError,
    DatasetParseError,
    DimMismatchError,
    NonFiniteError,
    OutOfRangeError,
    UntrainedStoreError,
    ZeroVectorError,
)
from .linalg import NORM_EPS, _unit, as_vector

STABLE = "stable"
PROGRESSIVE = "progressive"


@dataclass
class GlobalPrototypeStore:
    """EMA-tracked anchor directions for the two ends of the label scale.

    Anchors start as zero vectors and are bootstrapped by the first update.
    After the first update they are never zero again, but they are not
    unit norm either (the EMA is a convex combination of unit vectors).
    """

    dim: int
    sigma: float = 0.9
    anchor_classes: tuple[int, int] = (1, 3)
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


def _advance(p: np.ndarray, mu: np.ndarray, sigma: float) -> np.ndarray:
    """One EMA step of anchor ``p`` toward the direction of a finite class mean."""
    mu_hat = _unit(mu, "class mean")
    n_p = math.sqrt(p.dot(p))
    if n_p <= NORM_EPS:
        return mu_hat.copy()  # bootstrap: adopt the normalized mean
    # NaN or Inf entries make the norm non-finite, and so can an overflow.
    if not n_p < math.inf and not np.isfinite(p).all():
        raise NonFiniteError("anchor contains NaN or Inf entries")
    p_hat = _unit(p, "anchor")
    delta = mu_hat - p_hat
    if not delta.any():
        return p_hat  # exact fixed point, skip the arithmetic entirely
    # Same value as sigma*p_hat + (1-sigma)*mu_hat, but exact when delta=0.
    return p_hat + (1.0 - sigma) * delta


def ema_update(store: GlobalPrototypeStore, mu_low, mu_high) -> GlobalPrototypeStore:
    """Move both anchors toward the normalized batch class means (in place)."""
    lo = np.asarray(mu_low, dtype=np.float64)
    hi = np.asarray(mu_high, dtype=np.float64)
    if lo.shape != (store.dim,) or hi.shape != (store.dim,):
        raise DimMismatchError(f"class means must have shape ({store.dim},)")
    finite = np.isfinite((lo, hi)).all(axis=1)
    if not finite.all():
        name = "mu_low" if not finite[0] else "mu_high"
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    store.anchor_low = _advance(store.anchor_low, lo, store.sigma)
    store.anchor_high = _advance(store.anchor_high, hi, store.sigma)
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
    the larger cosine first, as ``linalg.softmax`` does.
    """
    c_low, c_high = anchor_cosines(features, store)
    top = np.maximum(c_high, c_low)
    e_high = np.exp(c_high - top)
    e_low = np.exp(c_low - top)
    return e_high / (e_high + e_low)


def predict_progression(query, store: GlobalPrototypeStore) -> float:
    """progression_scores of one query vector."""
    q = as_vector(query, "query")
    return float(progression_scores(q[None, :], store)[0])


def classify(prob: float) -> str:
    """Map a progression score to its label: > 0.5 progressive, else stable."""
    p = float(prob)
    if not 0.0 <= p <= 1.0:
        raise OutOfRangeError(f"probability must lie in [0, 1], got {p}")
    return PROGRESSIVE if p > 0.5 else STABLE


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
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(store_to_dict(store), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise DatasetIOError(f"cannot write prototype store: {exc}") from exc


def load_store(path) -> GlobalPrototypeStore:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DatasetIOError(f"cannot read prototype store: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetParseError(f"prototype store is not valid JSON: {exc}") from exc
    return store_from_dict(payload)
