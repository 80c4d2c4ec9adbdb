"""Artifact I/O: all-or-nothing writes, CSV tables, JSON reads, JSON numbers.

An OSError in a read or a write raises DatasetIOError."""

from __future__ import annotations

import json
import os
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


def write_csv(path, what: str, header, columns) -> None:
    """Write a CSV table from its columns, all or nothing (``write_artifact``).

    Each column is an array with one entry per row; a 2-D array gives one
    CSV column per feature. Float entries are written with ``repr`` of
    their ``tolist()`` value, every other entry with ``str``. Nothing is
    quoted, so no header name or entry may hold a comma, a quote or a line
    break; for such tables the text is what ``csv.writer`` would write.
    Rows go out one block of ``CSV_BLOCK_ROWS`` at a time.
    """
    n = len(columns[0])

    def write(fh):
        fh.write(",".join(header) + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            fields = []
            for column in columns:
                block = column[start : start + CSV_BLOCK_ROWS]
                text = repr if block.dtype.kind == "f" else str
                if block.ndim == 2:
                    fields.extend(map(text, feature) for feature in block.T.tolist())
                else:
                    fields.append(map(text, block.tolist()))
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")

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
