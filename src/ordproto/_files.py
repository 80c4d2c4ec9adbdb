"""Artifact I/O (all-or-nothing writes, CSV tables, JSON reads, JSON numbers) and ``_fork_map``.

An OSError in a read or a write raises DatasetIOError."""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import tempfile
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
# load_dataset parses a dataset, in two processes (_fork_map). On a shared
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


def _split_pays(cells: int) -> bool:
    """Whether a CSV table of ``cells`` cells is worth two processes: the one test of that."""
    return cells >= CSV_SPLIT_CELLS and _usable_cores() > 1


def _fork_map(tasks) -> list:
    """``[task() for task in tasks]``, each task after the first in a forked child.

    This process runs ``tasks[0]`` while each other task runs in its own
    child, which pickles its return value, or its exception, into an
    unlinked temporary file opened before the fork and leaves through
    ``os._exit``. Every child is reaped, also when ``tasks[0]`` raises,
    before any result is read. The first exception in task order is
    raised; a child that exits without a result raises ``ChildProcessError``
    naming its exit status. One task, a platform without ``fork`` or a live
    ``threading`` thread runs the plain loop.
    """
    if not (
        len(tasks) > 1
        and hasattr(os, "fork")
        # A fork beside a live thread can deadlock the child on a lock that
        # thread held. This check keeps out threads started by `threading`
        # only. The OpenBLAS pool numpy starts is native, and OpenBLAS shuts
        # it down across a fork itself (its pthread_atfork handler). Python
        # 3.12 counts OS threads, so it may warn (DeprecationWarning) here;
        # when that warning is made an error, CPython drops it and forks.
        and threading.active_count() == 1
    ):
        return [task() for task in tasks]
    with contextlib.ExitStack() as files:
        children = []
        try:
            for task in tasks[1:]:
                out = files.enter_context(tempfile.TemporaryFile())
                pid = os.fork()
                if pid == 0:  # the child: status 0 only once its outcome is written
                    try:
                        pickle.dump(_outcome(task), out, pickle.HIGHEST_PROTOCOL)
                        out.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
                children.append((pid, out))
            outcomes = [_outcome(tasks[0])]
        finally:
            statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
        for (pid, out), status in zip(children, statuses):
            out.seek(0)
            error = f"forked process {pid} exited with status {status} and no result"
            outcomes.append(pickle.load(out) if status == 0 else (False, ChildProcessError(error)))
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _outcome(task) -> tuple:
    """``(True, task())``, or ``(False, exception)`` when ``task()`` raises."""
    try:
        return True, task()
    except Exception as exc:
        return False, exc


def write_csv(path, what: str, header, columns) -> None:
    """Write a CSV table from its columns, all or nothing (``write_artifact``).

    Each column is an array with one entry per row; a 2-D array gives one
    CSV column per feature. Columns of unequal length raise ``ValueError``
    before anything is written. Float entries are written with ``repr`` of
    their ``tolist()`` value, every other entry with ``str``. Nothing is
    quoted, so no header name or entry may hold a comma, a quote or a line
    break; for such tables the text is what ``csv.writer`` would write.
    Rows go out one block of ``CSV_BLOCK_ROWS`` at a time.

    A table worth two processes (``_split_pays``) is formatted by two
    (``_fork_map``): a forked child formats the rows from a block boundary
    near the middle and returns their UTF-8 text, while this process writes
    the rows before it; then that text is written after them. The bytes are
    the same either way. If the child fails, ``DatasetIOError`` is raised
    and neither the target nor a temp file is left.
    """
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError(f"{what} columns must have equal lengths, got {[len(c) for c in columns]}")
    cells = n * sum(column.shape[1] if column.ndim == 2 else 1 for column in columns)
    split = round(n / 2 / CSV_BLOCK_ROWS) * CSV_BLOCK_ROWS

    def tail() -> bytes:
        text = io.StringIO()
        try:
            _write_rows(text, columns, split, n)
        except Exception as exc:
            raise DatasetIOError(
                f"cannot write {what}: the process writing rows {split}-{n} failed: {exc}"
            ) from None
        return text.getvalue().encode()  # as fh encodes

    def write(fh):
        fh.write(",".join(header) + "\n")
        if not _split_pays(cells):
            _write_rows(fh, columns, 0, n)
            return
        _, text = _fork_map([lambda: _write_rows(fh, columns, 0, split), tail])
        fh.flush()
        fh.buffer.write(text)

    write_artifact(path, what, write)


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
