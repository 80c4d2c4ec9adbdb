"""Artifact writes are all or nothing; CSV tables are written in blocks of rows,
large ones by two processes."""

from __future__ import annotations

import csv
import io
import os
import threading

import numpy as np
import pytest

from ordproto import _files
from ordproto._files import CSV_BLOCK_ROWS, CSV_SPLIT_CELLS, write_artifact, write_csv
from ordproto.cli import _write_json
from ordproto.data import GenConfig, generate, save_dataset
from ordproto.errors import DatasetIOError


def test_failed_write_leaves_neither_target_nor_temp_file(tmp_path):
    def half_then_fail(fh):
        fh.write("{")
        raise OSError("disk full")

    with pytest.raises(DatasetIOError, match="^cannot write thing: disk full$"):
        write_artifact(tmp_path / "out.json", "thing", half_then_fail)
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_the_previous_file(tmp_path):
    target = tmp_path / "metrics.json"
    target.write_text("previous\n")
    with pytest.raises(TypeError):
        _write_json({"acc": object()}, target)  # json.dump fails part-way
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]
    assert target.read_text() == "previous\n"


def test_write_replaces_the_target(tmp_path):
    target = tmp_path / "metrics.json"
    target.write_text("previous\n")
    _write_json({"acc": 0.5}, target)
    assert target.read_text() == '{\n  "acc": 0.5\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]


def _csv_writer_text(header, columns) -> str:
    """The text ``csv.writer`` gives the same table, one row at a time."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for i in range(len(columns[0])):
        row = []
        for column in columns:
            values = column[i].tolist() if column.ndim == 2 else column[i : i + 1].tolist()
            row += [repr(v) if isinstance(v, float) else v for v in values]
        writer.writerow(row)
    return fh.getvalue()


# The table of test_csv_table_matches_csv_writer has 9 CSV columns.
SPLIT_ROWS = CSV_SPLIT_CELLS // 9 + CSV_BLOCK_ROWS + 5


@pytest.mark.parametrize(
    "rows", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 5, SPLIT_ROWS]
)
def test_csv_table_matches_csv_writer(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(_files, "_usable_cores", lambda: 2)  # the last size splits on any host
    rng = np.random.default_rng(rows)
    labels = np.array(["", "stable", "progressive"], dtype=object)
    columns = [
        np.arange(rows),
        rng.integers(-5, 5, rows),
        labels[rng.integers(0, 3, rows)],
        rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows),
        rng.standard_normal((rows, 3)),
        rng.integers(0, 9, (rows, 2)),
    ]
    header = ["id", "k", "label", "t", "x0", "x1", "x2", "n0", "n1"]
    write_csv(tmp_path / "table.csv", "table", header, columns)
    with open(tmp_path / "table.csv", encoding="utf-8", newline="") as fh:
        assert fh.read() == _csv_writer_text(header, columns)
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _record_row_ranges(monkeypatch, fail=lambda start: False) -> list:
    """Make ``_write_rows`` record each row range this process writes, and raise where ``fail``."""
    calls = []
    write_rows = _files._write_rows

    def recorded(fh, columns, start, stop):
        calls.append((start, stop))
        if fail(start):
            raise RuntimeError(f"rows from {start} failed")
        write_rows(fh, columns, start, stop)

    monkeypatch.setattr(_files, "_write_rows", recorded)
    return calls


def test_large_cohort_has_the_same_bytes_on_one_core_and_on_two(tmp_path, monkeypatch):
    cohort = generate(GenConfig(class_counts=(2000, 4000, 2000)), seed=5)
    texts = []
    for cores in (1, 2):
        monkeypatch.setattr(_files, "_usable_cores", lambda: cores)
        calls = _record_row_ranges(monkeypatch)
        save_dataset(cohort, tmp_path / "cohort.csv")
        texts.append((tmp_path / "cohort.csv").read_bytes())
        split = 31 * CSV_BLOCK_ROWS  # the block boundary nearest 4,000
        assert calls == ([(0, 8000)] if cores == 1 else [(0, split)])
    assert texts[0] == texts[1]
    assert [p.name for p in tmp_path.iterdir()] == ["cohort.csv"]
    assert _no_child_left()


@pytest.mark.parametrize("reason", ["few-cells", "one-core", "live-thread"])
def test_small_tables_one_core_and_live_threads_write_serially(tmp_path, monkeypatch, reason):
    rows = CSV_SPLIT_CELLS // 2 - (reason == "few-cells")  # 2 columns: just below or at the split
    columns = [np.arange(rows), np.zeros((rows, 1))]
    monkeypatch.setattr(_files, "_usable_cores", lambda: 1 if reason == "one-core" else 2)
    calls = _record_row_ranges(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if reason == "live-thread":
        thread.start()
    try:
        write_csv(tmp_path / "t.csv", "table", ["id", "x0"], columns)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()
    assert calls == [(0, rows)]
    assert (tmp_path / "t.csv").read_text().count("\n") == rows + 1


@pytest.mark.parametrize("half", ["child", "parent"])
def test_failed_half_leaves_no_file_and_no_child(tmp_path, monkeypatch, half):
    # The child writes the rows from the split on; the parent the rows before it.
    monkeypatch.setattr(_files, "_usable_cores", lambda: 2)
    rows = CSV_SPLIT_CELLS
    _record_row_ranges(monkeypatch, fail=lambda start: (start > 0) == (half == "child"))
    (tmp_path / "t.csv").write_text("previous\n")
    error = DatasetIOError if half == "child" else RuntimeError
    message = "^cannot write table: the process writing rows" if half == "child" else "^rows from 0"
    with pytest.raises(error, match=message):
        write_csv(tmp_path / "t.csv", "table", ["id", "x0"], [np.arange(rows), np.zeros(rows)])
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert (tmp_path / "t.csv").read_text() == "previous\n"
    assert _no_child_left()


def test_columns_of_unequal_length_are_refused_before_any_write(tmp_path):
    with pytest.raises(ValueError, match=r"^table columns must have equal lengths, got \[3, 2\]$"):
        write_csv(tmp_path / "t.csv", "table", ["a", "b"], [np.arange(3), np.arange(2)])
    assert list(tmp_path.iterdir()) == []
