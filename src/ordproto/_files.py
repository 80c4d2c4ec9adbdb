"""Artifact I/O: all-or-nothing writes, JSON reads (OSError as DatasetIOError), JSON numbers."""

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
