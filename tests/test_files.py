"""Artifact writes are all or nothing."""

from __future__ import annotations

import pytest

from ordproto._files import write_artifact
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
