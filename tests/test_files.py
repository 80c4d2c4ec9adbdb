"""Artifact writes are all or nothing; CSV tables are written in blocks of rows."""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest

from ordproto._files import CSV_BLOCK_ROWS, write_artifact, write_csv
from ordproto.cli import _write_json
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


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 5])
def test_csv_table_matches_csv_writer(tmp_path, rows):
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
