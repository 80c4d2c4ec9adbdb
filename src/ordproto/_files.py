"""Artifact I/O: all-or-nothing writes, CSV tables, JSON reads, JSON numbers.

An OSError in a read or a write raises DatasetIOError."""

from __future__ import annotations

import json
import os
import shutil
import threading
from pathlib import Path

import numpy as np

from .errors import DatasetIOError, DatasetParseError


def write_artifact(path, what: str, write) -> None:
    """Write ``path`` with ``write(fh)``, all or nothing.

    The text goes to ``<name>.tmp`` in the target's directory and replaces
    the target only once complete, so a write that fails part-way leaves
    the target as it was and no temp file.
    """
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise DatasetIOError(f"cannot write {what}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)  # already gone after a successful replace


# Rows formatted per write. A block's floats and row strings are alive at
# once, so this sets the writer's extra memory: at 128 rows each table here
# peaks below what the per-row csv.writer loops held (they kept a whole
# table's floats). Blocks of 64 to 1,024 rows wrote the 8,000-row cohort
# equally fast; 1,024-row blocks raised train's peak RSS by 0.5 MB.
CSV_BLOCK_ROWS = 128

# Cells (rows times CSV columns) from which write_csv formats a table, and
# load_dataset parses a dataset, in two processes (_fork_halves). On a shared
# 2-core x86_64 host a fork and wait of a 40 MB process took about 3 ms. A
# split write of 20-column float tables broke even at 10,000-12,000 cells, a
# split read of 20-column datasets at 30,000-40,000 (medians of 25
# interleaved calls per size; the read at 160,000 cells: 86 ms serial, 62 ms
# split). At 25,000 the default 600-row dataset (12,000 cells) and its
# embeddings (21,600) are written and read serially; the 8,000-row cohort
# (160,000) and the history of a 60-epoch run (48,600) are split.
CSV_SPLIT_CELLS = 25_000


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_rows(fh, columns, start: int, stop: int) -> None:
    """Write rows ``[start, stop)`` of the table, one block of rows per write."""
    for lo in range(start, stop, CSV_BLOCK_ROWS):
        hi = min(lo + CSV_BLOCK_ROWS, stop)
        fields = []
        for column in columns:
            block = column[lo:hi]
            text = repr if block.dtype.kind == "f" else str
            if block.ndim == 2:
                fields.extend(map(text, feature) for feature in block.T.tolist())
            else:
                fields.append(map(text, block.tolist()))
        fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _fork_halves(cells: int, child, parent):
    """Run ``child()`` in a forked process while this process runs ``parent()``.

    Returns None at once, having run neither, unless the work is worth a
    second process: ``cells`` is at least ``CSV_SPLIT_CELLS``, the process
    has two usable cores, the platform can fork and no other Python thread
    runs. Otherwise returns ``parent()``'s result and the child's exit
    status: 0 when ``child()`` returned, 1 when it raised. The child always
    leaves through ``os._exit`` and is waited for on every path, also when
    ``parent()`` raises.
    """
    if not (
        cells >= CSV_SPLIT_CELLS
        and _usable_cores() > 1
        and hasattr(os, "fork")
        # A fork beside a live thread can deadlock the child on a lock that
        # thread held. This check keeps out threads started by `threading`
        # only. The OpenBLAS pool numpy starts is native, and OpenBLAS shuts
        # it down across a fork itself (its pthread_atfork handler). Python
        # 3.12 counts OS threads, so it may warn (DeprecationWarning) here;
        # when that warning is made an error, CPython drops it and forks.
        and threading.active_count() == 1
    ):
        return None
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            child()
            status = 0
        finally:
            os._exit(status)
    try:
        result = parent()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return result, status


def write_csv(path, what: str, header, columns) -> None:
    """Write a CSV table from its columns, all or nothing (``write_artifact``).

    Each column is an array with one entry per row; a 2-D array gives one
    CSV column per feature. Columns of unequal length raise ``ValueError``
    before anything is written. Float entries are written with ``repr`` of
    their ``tolist()`` value, every other entry with ``str``. Nothing is
    quoted, so no header name or entry may hold a comma, a quote or a line
    break; for such tables the text is what ``csv.writer`` would write.
    Rows go out one block of ``CSV_BLOCK_ROWS`` at a time.

    A table of at least ``CSV_SPLIT_CELLS`` cells is formatted on two cores
    (``_fork_halves``): a forked child writes the rows from a block boundary
    near the middle to a side file while this process writes the rows
    before it, then the side file is appended. The bytes are the same
    either way. If the child fails, ``DatasetIOError`` is raised and neither
    the target nor a temp or side file is left.
    """
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError(f"{what} columns must have equal lengths, got {[len(c) for c in columns]}")
    cells = n * sum(column.shape[1] if column.ndim == 2 else 1 for column in columns)

    def write(fh):
        fh.write(",".join(header) + "\n")
        split = round(n / 2 / CSV_BLOCK_ROWS) * CSV_BLOCK_ROWS
        side = Path(path).with_name(Path(path).name + ".tail.tmp")
        try:
            halves = _fork_halves(
                cells,
                lambda: _write_side(side, columns, split, n),
                lambda: _write_rows(fh, columns, 0, split),
            )
            if halves is None:
                _write_rows(fh, columns, 0, n)
                return
            if halves[1] != 0:
                raise DatasetIOError(
                    f"cannot write {what}: the process writing rows {split}-{n} "
                    f"exited with status {halves[1]}"
                )
            fh.flush()
            with open(side, "rb") as tail:
                shutil.copyfileobj(tail, fh.buffer)
        finally:
            side.unlink(missing_ok=True)

    write_artifact(path, what, write)


def _write_side(side: Path, columns, start: int, stop: int) -> None:
    """Write rows ``[start, stop)`` of the table to the file ``side``."""
    with open(side, "w", encoding="utf-8", newline="") as fh:
        _write_rows(fh, columns, start, stop)


def write_json(path, what: str, payload) -> None:
    def dump(fh):
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    write_artifact(path, what, dump)


def read_json(path, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DatasetIOError(f"cannot read {what}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatasetParseError(f"{what} is not valid JSON: {exc}") from exc


def json_numbers(values, what: str, integers: bool = False) -> np.ndarray:
    """A flat list of JSON numbers as a float64 array, or of JSON integers as int64.

    Any other entry (string, bool, null, list, object), a float among
    ``integers`` or an integer out of range raises ``ValueError``. The entry
    types are checked as one set: one C-level pass, not a Python loop.
    """
    allowed = {int} if integers else {int, float}
    if not (isinstance(values, list) and set(map(type, values)) <= allowed):
        raise ValueError(f"{what} must be a list of JSON {'integers' if integers else 'numbers'}")
    try:
        return np.array(values, dtype=np.int64 if integers else np.float64)
    except OverflowError as exc:
        raise ValueError(f"{what} is out of range: {exc}") from None
