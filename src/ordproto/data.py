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
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._files import CSV_BLOCK_ROWS, write_csv
from .config import GenConfig
from .errors import (
    BadConfigError,
    DatasetIOError,
    DatasetParseError,
    EmptyInputError,
)
from .prototypes import PROGRESSIVE, STABLE

NO_FINE_LABEL = ""
_FIXED_COLUMNS = ["id", "coarse_label", "fine_label", "latent_t"]  # then x0..x{d-1}


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
    embed them on the trajectory with additive Gaussian noise.

    A ``noise_sigma`` whose noise overflows raises ``BadConfigError``, under
    any warning filter.
    """
    if seed < 0:
        raise BadConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    t_parts, label_parts = [], []
    for cls, ((lo, hi), count) in enumerate(zip(config.bands, config.class_counts), start=1):
        t_parts.append(rng.uniform(lo, hi, size=count))
        label_parts.append(np.full(count, cls, dtype=np.int64))
    t = np.concatenate(t_parts)
    coarse = np.concatenate(label_parts)
    x = _trajectory(t, config.input_dim)
    if config.noise_sigma > 0:
        with np.errstate(over="ignore"):
            x = x + config.noise_sigma * rng.standard_normal(x.shape)
        if not np.isfinite(x).all():
            raise BadConfigError(
                f"noise_sigma must keep the generated inputs finite, got {config.noise_sigma!r}"
            )
    middle = (coarse > 1) & (coarse < config.n_classes)
    split = np.where(t >= config.resolved_cut(), PROGRESSIVE, STABLE)
    fine = np.where(middle, split, NO_FINE_LABEL).astype(object)
    return SyntheticOrdinalDataset(x, coarse, t, fine)


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

    Trusts its caller: every class 1..``n_classes`` occurs in ``labels``
    and ``batch_size`` is at least ``n_classes`` (the training loop's entry
    checks both).
    """
    labs = np.asarray(labels, dtype=np.int64)
    members = [np.flatnonzero(labs == c) for c in range(1, n_classes + 1)]
    counts = np.array([m.size for m in members])

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
    exactly. Decimal points only, no grouping. A value that breaks a rule of
    ``_faults``, which ``load_dataset`` would refuse, raises ``BadConfigError``
    naming its row and column, before any write; so do an ``x`` that is not
    a 2-D float array, a ``latent_t`` that holds no floats, a coarse-label
    column that is not an integer array and label or ``latent_t`` columns
    that are not 1-D with one entry per row.
    """
    if ds.x.ndim != 2 or ds.x.dtype.kind != "f":
        raise BadConfigError(
            f"x must be a 2-D float array, got shape {ds.x.shape} dtype {ds.x.dtype}"
        )
    if ds.latent_t.dtype.kind != "f":
        raise BadConfigError(f"latent_t must hold floats, got dtype {ds.latent_t.dtype}")
    if not np.issubdtype(ds.coarse.dtype, np.integer):
        raise BadConfigError(f"coarse_label must hold integers, got dtype {ds.coarse.dtype}")
    shapes = [ds.coarse.shape, ds.fine.shape, ds.latent_t.shape]
    if shapes != [(ds.size,)] * 3:
        raise BadConfigError(
            f"coarse_label, fine_label and latent_t must have shape ({ds.size},) as x has "
            f"{ds.size} rows, got {shapes}"
        )
    header = _FIXED_COLUMNS + [f"x{j}" for j in range(ds.input_dim)]
    columns = [ds.coarse, ds.fine, ds.latent_t, ds.x]
    bad = np.column_stack(_faults(*columns))
    if bad.any():
        r, c = divmod(int(np.argmax(bad)), bad.shape[1])  # the first bad row, its first bad column
        got = [*columns[:3], *ds.x.T][c].tolist()[r]
        rule = ("must be >= 1", f"must be '', {STABLE!r} or {PROGRESSIVE!r}", "must be finite")
        raise BadConfigError(f"{header[c + 1]} of row {r} {rule[min(c, 2)]}, got {got!r}")
    write_csv(path, "dataset", header, [np.arange(ds.size), *columns])


def load_dataset(path) -> SyntheticOrdinalDataset:
    """Read a dataset CSV in the format ``save_dataset`` writes.

    The body is parsed by one ``np.loadtxt`` call (``_bulk_columns``). When
    that parse is in any doubt, or its columns break a label rule of
    ``_faults``, the per-row loop (``_row_columns``) parses the same lines
    again; it alone words the errors, so every message and line number is
    the same on either path. A non-finite value is refused after every
    line parses, from the ``_faults`` of the columns either path gives.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DatasetIOError(f"cannot read dataset: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"dataset is not valid UTF-8: {exc}") from exc
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetParseError("dataset file is empty", line=1) from None
    except csv.Error as exc:  # a field longer than csv's limit
        raise DatasetParseError(str(exc), line=1) from None

    for col in _FIXED_COLUMNS:
        if col not in header:
            raise DatasetParseError(f"missing required column {col!r}", line=1)
    if header[: len(_FIXED_COLUMNS)] != _FIXED_COLUMNS:
        raise DatasetParseError(f"columns must start with {_FIXED_COLUMNS}", line=1)
    dim = len(header) - len(_FIXED_COLUMNS)
    if dim < 1:
        raise DatasetParseError("missing required column 'x0'", line=1)
    expected_x = [f"x{j}" for j in range(dim)]
    if header[len(_FIXED_COLUMNS) :] != expected_x:
        raise DatasetParseError(
            f"feature columns must be x0..x{dim - 1} in order", line=1
        )

    columns = _bulk_columns(lines, dim)
    faults = None if columns is None else _faults(*columns)
    if faults is None or faults[0].any() or faults[1].any():
        rows = []
        try:
            rows.extend(reader)
        except csv.Error as exc:
            if rows:
                _row_columns(rows, len(header))  # an earlier row's error comes first
            raise DatasetParseError(str(exc), line=len(rows) + 2) from None
        columns = _row_columns(rows, len(header))
        faults = _faults(*columns)
    # float() accepts "nan" and "inf"; they are refused only after every line parses.
    bad = np.column_stack(faults[2:])  # latent_t, x0, x1, ...
    if bad.any():
        r, c = divmod(int(np.argmax(bad)), bad.shape[1])
        raise DatasetParseError(f"{header[c + 3]} must be finite", line=r + 2)
    coarse, fine, latent, x = columns
    return SyntheticOrdinalDataset(x, coarse, latent, fine)


def _faults(coarse, fine, latent_t, x) -> list:
    """Flags where a value breaks the dataset's rules, per column but the id, in header order.

    A coarse label is >= 1, a fine label ``""``, ``"stable"`` or ``"progressive"``,
    ``latent_t`` and ``x`` finite. Takes one row or whole columns alike.
    """
    odd = (fine != NO_FINE_LABEL) & (fine != STABLE) & (fine != PROGRESSIVE)
    return [coarse < 1, odd, ~np.isfinite(latent_t), ~np.isfinite(x)]


def _bulk_columns(lines: list[str], dim: int):
    """coarse, fine, latent_t and x from one ``np.loadtxt`` call on the body, or None.

    Returns None, and leaves the file to ``_row_columns``, whenever the
    result might differ from that loop's: for a body with no lines; for
    text that ``csv`` and ``loadtxt`` may split differently (a quote, a
    carriage return outside a CRLF, or a NUL, which the ``U`` dtype drops
    from the end of a field); when ``loadtxt`` raises or warns (some numpy
    versions read ``1.0`` as an integer with only a DeprecationWarning);
    and unless every line became a row (``loadtxt`` skips blank lines) with
    its index as its id.
    """
    n = len(lines) - 1
    if n == 0 or not _plain(lines):
        return None
    row = np.dtype(
        [("id", "i8"), ("coarse", "i8"), ("fine", "U12"), ("latent_t", "f8"), ("x", "f8", (dim,))]
    )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                lines[1:], dtype=row, delimiter=",", comments=None, quotechar=None, ndmin=1
            )
    except (ValueError, OverflowError, Warning):
        return None
    # Ids 0..n-1 also mean that no line was skipped.
    if not np.array_equal(table["id"], np.arange(n)):
        return None
    coarse, latent, x = (np.ascontiguousarray(table[k]) for k in ("coarse", "latent_t", "x"))
    return coarse, table["fine"].astype(object), latent, x


def _plain(lines: list[str]) -> bool:
    """Whether ``csv`` and ``loadtxt`` split ``lines`` alike: no quote, no NUL, no lone CR.

    Joins ``CSV_BLOCK_ROWS`` lines at a time, so the file's text is never
    held twice. A line ends at a CR or LF, so no CRLF spans two lines.
    """
    for lo in range(0, len(lines), CSV_BLOCK_ROWS):
        text = "".join(lines[lo : lo + CSV_BLOCK_ROWS])
        if '"' in text or "\x00" in text:
            return False
        if "\r" in text and text.count("\r") != text.count("\r\n"):
            return False
    return True


def _row_columns(rows: list[list[str]], n_fields: int):
    """coarse, fine, latent_t and x from the ``csv`` rows of the body, one row at a time.

    Raises the dataset's first error but a non-finite value, with its line number.
    """
    n = len(rows)
    if n == 0:
        raise DatasetParseError("dataset has a header but no samples", line=2)
    x = np.empty((n, n_fields - 4), dtype=np.float64)
    coarse = np.empty(n, dtype=np.int64)
    latent = np.empty(n, dtype=np.float64)
    fine = np.empty(n, dtype=object)
    for r, row in enumerate(rows):
        line = r + 2  # 1-based, after the header
        if len(row) != n_fields:
            raise DatasetParseError(
                f"expected {n_fields} fields, found {len(row)}", line=line
            )
        try:
            ident = int(row[0])
            coarse[r] = int(row[1])
            latent[r] = float(row[3])
            x[r] = [float(v) for v in row[4:]]
        except ValueError as exc:
            raise DatasetParseError(str(exc), line=line) from exc
        except OverflowError:
            raise DatasetParseError(
                f"coarse_label must fit in int64, got {int(row[1])}", line=line
            ) from None
        if ident != r:
            raise DatasetParseError(f"ids must be 0..N-1 in order, got {ident}", line=line)
        low, odd, _, _ = _faults(coarse[r], row[2], latent[r], x[r])  # finiteness waits
        if low:
            raise DatasetParseError(f"coarse_label must be >= 1, got {coarse[r]}", line=line)
        if odd:
            raise DatasetParseError(f"bad fine_label {row[2]!r}", line=line)
        fine[r] = row[2]
    return coarse, fine, latent, x
