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

# Cells (rows times CSV columns) from which write_csv formats a table in two
# processes. On a shared 2-core x86_64 host a fork and wait of a 40 MB process
# took about 3 ms, and a split write of 20-column float tables broke even at
# 10,000-12,000 cells (median of 25 interleaved writes per size). At 25,000
# the default 600-row dataset (12,000 cells) and its embeddings (21,600) are
# written serially; the 8,000-row cohort (160,000) and the history of a
# 60-epoch run (48,600) are split.
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
    when the process has them, can fork and runs no other thread: a forked
    child writes the rows from a block boundary near the middle to a side
    file while this process writes the rows before it, then the side file
    is appended. The bytes are the same either way. The child is always
    waited for; if it fails, ``DatasetIOError`` is raised and neither the
    target nor a temp or side file is left.
    """
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError(f"{what} columns must have equal lengths, got {[len(c) for c in columns]}")
    cells = n * sum(column.shape[1] if column.ndim == 2 else 1 for column in columns)
    two_cores = (
        cells >= CSV_SPLIT_CELLS
        and _usable_cores() > 1
        and hasattr(os, "fork")
        and threading.active_count() == 1  # a fork beside live threads can deadlock the child
    )

    def write(fh):
        fh.write(",".join(header) + "\n")
        if not two_cores:
            _write_rows(fh, columns, 0, n)
            return
        split = round(n / 2 / CSV_BLOCK_ROWS) * CSV_BLOCK_ROWS
        side = Path(path).with_name(Path(path).name + ".tail.tmp")
        try:
            pid = os.fork()
            if pid == 0:
                _write_tail(side, columns, split, n)  # never returns
            try:
                _write_rows(fh, columns, 0, split)
            finally:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status != 0:
                raise DatasetIOError(
                    f"cannot write {what}: the process writing rows {split}-{n} "
                    f"exited with status {status}"
                )
            fh.flush()
            with open(side, "rb") as tail:
                shutil.copyfileobj(tail, fh.buffer)
        finally:
            side.unlink(missing_ok=True)

    write_artifact(path, what, write)


def _write_tail(side: Path, columns, start: int, stop: int) -> None:
    """In a forked child: write rows ``[start, stop)`` to ``side`` and exit, 0 on success."""
    status = 1
    try:
        with open(side, "w", encoding="utf-8", newline="") as fh:
            _write_rows(fh, columns, start, stop)
        status = 0
    finally:
        os._exit(status)


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
