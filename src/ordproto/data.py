"""Synthetic ordinal progression data, stratified batching, and CSV I/O.

Each sample sits at a latent position t in [0, 1]. Its input is a fixed
smooth trajectory through input space evaluated at t plus isotropic
Gaussian noise; its coarse label is the band of [0, 1] containing t.
Classes strictly between the first and last band are "middle" classes and
additionally carry a held-out fine label: progressive when t is at or
beyond the progression cut, stable otherwise. Training code only ever
sees a ``TrainingSet`` view, which physically lacks t and the fine label.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from ._files import write_artifact
from .errors import (
    BadConfigError,
    DatasetIOError,
    DatasetParseError,
    DegenerateInputError,
    EmptyInputError,
)
from .prototypes import PROGRESSIVE, STABLE

NO_FINE_LABEL = ""


@dataclass(frozen=True)
class GenConfig:
    """Generator settings; band edges are the K-1 interior boundaries."""

    n_classes: int = 3
    class_counts: tuple[int, ...] = (130, 270, 200)
    input_dim: int = 16
    noise_sigma: float = 0.15
    band_edges: tuple[float, ...] = (1.0 / 3.0, 2.0 / 3.0)
    progression_cut: float | None = None  # default: midpoint of the middle bands

    def __post_init__(self):
        if self.n_classes < 3:
            raise BadConfigError("need at least 3 ordered classes")
        if len(self.class_counts) != self.n_classes:
            raise BadConfigError("class_counts must list one count per class")
        if any(c < 1 for c in self.class_counts):
            raise BadConfigError("every class count must be >= 1")
        if self.input_dim < 1:
            raise BadConfigError("input_dim must be >= 1")
        if self.noise_sigma < 0:
            raise BadConfigError("noise_sigma must be >= 0")
        edges = tuple(float(e) for e in self.band_edges)
        if len(edges) != self.n_classes - 1:
            raise BadConfigError("band_edges must hold n_classes - 1 interior boundaries")
        if any(not 0.0 < e < 1.0 for e in edges) or any(
            b <= a for a, b in zip(edges, edges[1:])
        ):
            raise BadConfigError("band_edges must be strictly increasing inside (0, 1)")
        object.__setattr__(self, "band_edges", edges)
        lo, hi = self.middle_region
        if self.progression_cut is not None and not lo <= self.progression_cut < hi:
            raise BadConfigError(
                f"progression_cut must lie in the middle bands [{lo}, {hi})"
            )

    @property
    def bands(self) -> list[tuple[float, float]]:
        edges = (0.0, *self.band_edges, 1.0)
        return list(zip(edges[:-1], edges[1:]))

    @property
    def middle_classes(self) -> tuple[int, ...]:
        return tuple(range(2, self.n_classes))

    @property
    def middle_region(self) -> tuple[float, float]:
        return self.band_edges[0], self.band_edges[-1]

    def resolved_cut(self) -> float:
        if self.progression_cut is not None:
            return float(self.progression_cut)
        lo, hi = self.middle_region
        return 0.5 * (lo + hi)


def _sinusoid_frequencies(dim: int) -> list[float]:
    """Distinct frequencies for the dim-1 sinusoidal coordinates.

    Two groups: slow coordinates (f in [0.25, 0.45]) that drift monotonically
    across the whole progression, and faster ones (f in [0.50, 0.56]) that
    crest at the last band boundary and decline beyond it, the way saturating
    biomarkers plateau and reverse late in a progression.
    """
    n_sin = dim - 1
    n_fast = min(n_sin // 3, 5)
    n_slow = n_sin - n_fast
    freqs = [0.25 + 0.20 * i / max(n_slow - 1, 1) for i in range(n_slow)]
    freqs += [0.50 + 0.06 * i / max(n_fast - 1, 1) for i in range(n_fast)]
    return freqs


def _trajectory(t: np.ndarray, dim: int) -> np.ndarray:
    """Fixed smooth curve through input space: a linear ramp on the first
    coordinate, sinusoids at distinct frequencies on the rest. Every
    sinusoid is phased to peak at t = 2/3, so all coordinates rise through
    the middle of the progression and saturate toward the top band."""
    out = np.empty((t.size, dim), dtype=np.float64)
    out[:, 0] = 1.6 * (t - 0.5)
    for j, freq in enumerate(_sinusoid_frequencies(dim), start=1):
        phase = 0.5 * math.pi - 4.0 * math.pi * freq / 3.0
        out[:, j] = np.sin(2.0 * math.pi * freq * t + phase)
    return out


@dataclass(frozen=True)
class TrainingSet:
    """What the trainer is allowed to see: inputs and coarse labels only."""

    x: np.ndarray  # (N, d)
    labels: np.ndarray  # (N,) ints in 1..K; K is the training config's n_classes

    @property
    def size(self) -> int:
        return self.x.shape[0]

    @property
    def input_dim(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class SyntheticOrdinalDataset:
    x: np.ndarray  # (N, d)
    coarse: np.ndarray  # (N,) ints >= 1
    latent_t: np.ndarray  # (N,) floats in [0, 1]
    fine: np.ndarray  # (N,) "", "stable", or "progressive"
    config: GenConfig | None = None
    seed: int | None = None

    @property
    def size(self) -> int:
        return self.x.shape[0]

    @property
    def input_dim(self) -> int:
        return self.x.shape[1]

    def middle_mask(self) -> np.ndarray:
        return self.fine != NO_FINE_LABEL

    def training_view(self) -> TrainingSet:
        return TrainingSet(self.x, self.coarse)

    def subset(self, mask_or_indices) -> "SyntheticOrdinalDataset":
        idx = np.asarray(mask_or_indices)
        return replace(
            self,
            x=self.x[idx],
            coarse=self.coarse[idx],
            latent_t=self.latent_t[idx],
            fine=self.fine[idx],
        )


def generate(config: GenConfig, seed: int) -> SyntheticOrdinalDataset:
    """Draw per-class latent positions uniformly inside each band, then
    embed them on the trajectory with additive Gaussian noise."""
    rng = np.random.default_rng(seed)
    t_parts, label_parts = [], []
    for cls, ((lo, hi), count) in enumerate(zip(config.bands, config.class_counts), start=1):
        t_parts.append(rng.uniform(lo, hi, size=count))
        label_parts.append(np.full(count, cls, dtype=np.int64))
    t = np.concatenate(t_parts)
    coarse = np.concatenate(label_parts)
    x = _trajectory(t, config.input_dim)
    if config.noise_sigma > 0:
        x = x + config.noise_sigma * rng.standard_normal(x.shape)
    cut = config.resolved_cut()
    middle = set(config.middle_classes)
    fine = np.array(
        [
            (PROGRESSIVE if ti >= cut else STABLE) if ci in middle else NO_FINE_LABEL
            for ci, ti in zip(coarse, t)
        ],
        dtype=object,
    )
    return SyntheticOrdinalDataset(x, coarse, t, fine, config, seed)


def classes_present(labels: np.ndarray) -> np.ndarray:
    """The distinct values of an int64 label array, ascending.

    What ``np.unique`` returns, from one sort: it neither imports numpy.ma
    into the process (+1.5 MB peak RSS in a pooled seed sweep) nor sizes
    anything by the label range, as ``np.bincount`` would.
    """
    ordered = np.sort(labels)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def stratified_batches(labels, batch_size: int, seed, n_classes: int) -> np.ndarray:
    """Index batches in which every class appears at least once, one row per batch.

    Slots per batch are allotted proportionally to class frequency
    (largest-remainder rounding, at least one slot per class), so batch
    composition mirrors the cohort. Each class cycles through its own
    shuffled pool (reshuffled on wraparound), so over one epoch every
    sample appears at least once and per-sample appearance counts within a
    class differ by at most one. Each batch is the class slots in class
    order, shuffled.
    """
    labs = np.asarray(labels, dtype=np.int64)
    if labs.size == 0:
        raise EmptyInputError("labels are empty")
    if batch_size < n_classes:
        raise BadConfigError(
            f"batch size {batch_size} cannot hold all {n_classes} classes"
        )
    members = [np.flatnonzero(labs == c) for c in range(1, n_classes + 1)]
    counts = np.array([m.size for m in members])
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
    n_batches = int(np.max(-(-counts // slots)))

    # Class c draws slots[c] samples per batch from its pool and reshuffles
    # the pool each time it runs out, even at the end of a batch: during
    # batch b that happens once per multiple of counts[c] passed between
    # b * slots[c] and (b + 1) * slots[c] draws. The generator sees the
    # same calls in the same order as a walk through the batches would make.
    rng = np.random.default_rng(seed)
    pools = [[rng.permutation(m)] for m in members]
    drawn = slots * np.arange(n_batches + 1)[:, None]
    runs_out = np.diff(drawn // counts, axis=0).tolist()
    orders = np.empty((n_batches, batch_size), dtype=np.int64)
    for b in range(n_batches):
        for c, times in enumerate(runs_out[b]):
            for _ in range(times):
                pools[c].append(rng.permutation(pools[c][-1]))
        orders[b] = rng.permutation(batch_size)
    # Row b of a class's drawn stream holds its slots in batch b.
    chosen = np.concatenate(
        [
            np.concatenate(pool)[: n_batches * k].reshape(n_batches, k)
            for pool, k in zip(pools, slots.tolist())
        ],
        axis=1,
    )
    return chosen[np.arange(n_batches)[:, None], orders]


def kfold_split(labels, k: int, seed) -> np.ndarray:
    """Stratified fold ids in 1..k, one per sample.

    Each class is shuffled and dealt round-robin, with the starting fold
    rotating between classes so fold sizes stay balanced; per-fold class
    counts differ from an even split by at most one sample.
    """
    labs = np.asarray(labels, dtype=np.int64)
    if labs.size == 0:
        raise EmptyInputError("labels are empty")
    if k < 2:
        raise BadConfigError(f"need k >= 2 folds, got {k}")
    rng = np.random.default_rng(seed)
    fold_of = np.zeros(labs.size, dtype=np.int64)
    offset = 0
    for c in classes_present(labs):
        idx = rng.permutation(np.flatnonzero(labs == c))
        if idx.size < k:
            raise BadConfigError(f"class {c} has {idx.size} samples, fewer than k={k}")
        fold_of[idx] = 1 + (offset + np.arange(idx.size)) % k
        offset = (offset + idx.size) % k
    return fold_of


def save_dataset(ds: SyntheticOrdinalDataset, path) -> None:
    """CSV with header id,coarse_label,fine_label,latent_t,x0..x{d-1}.

    Floats are written with repr, so a load reproduces every field
    exactly. Decimal points only, no grouping.
    """
    header = ["id", "coarse_label", "fine_label", "latent_t"] + [
        f"x{j}" for j in range(ds.input_dim)
    ]

    def rows(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(ds.size):
            writer.writerow(
                [i, int(ds.coarse[i]), ds.fine[i], repr(float(ds.latent_t[i]))]
                + [repr(float(v)) for v in ds.x[i]]
            )

    write_artifact(path, "dataset", rows)


def load_dataset(path) -> SyntheticOrdinalDataset:
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
