"""Artifact writes are all or nothing; CSV tables are written in blocks of rows,
large ones by two processes; the fork map runs tasks in forked children."""

from __future__ import annotations

import csv
import functools
import io
import os
import signal
import threading
import time

import numpy as np
import pytest

from ordproto import _files
from ordproto._files import CSV_BLOCK_ROWS, CSV_SPLIT_CELLS, _fork_map, write_artifact, write_csv
from ordproto.cli import _write_json
from ordproto.data import GenConfig, generate, save_dataset
from ordproto.errors import DatasetIOError, TrainingError


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
    # Beside a live thread the fork map runs both halves in turn, here.
    split = 49 * CSV_BLOCK_ROWS  # the block boundary nearest 6,250
    assert calls == ([(0, split), (split, rows)] if reason == "live-thread" else [(0, rows)])
    assert (tmp_path / "t.csv").read_text().count("\n") == rows + 1


@pytest.mark.parametrize("half", ["child", "killed-child", "parent"])
def test_failed_half_leaves_no_file_and_no_child(tmp_path, monkeypatch, half):
    # The child formats the rows from the split on; the parent writes the rows before it.
    monkeypatch.setattr(_files, "_usable_cores", lambda: 2)
    rows = CSV_SPLIT_CELLS
    parent = os.getpid()

    def fail(start):
        if half == "killed-child" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return (start > 0) == (half != "parent")

    _record_row_ranges(monkeypatch, fail)
    (tmp_path / "t.csv").write_text("previous\n")
    error, message = {
        "child": (DatasetIOError, "^cannot write table: the process writing rows 12544-25000"),
        "killed-child": (DatasetIOError, r"^cannot write table: forked process \d+ exited with"),
        "parent": (RuntimeError, "^rows from 0"),
    }[half]
    with pytest.raises(error, match=message):
        write_csv(tmp_path / "t.csv", "table", ["id", "x0"], [np.arange(rows), np.zeros(rows)])
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert (tmp_path / "t.csv").read_text() == "previous\n"
    assert _no_child_left()


def test_columns_of_unequal_length_are_refused_before_any_write(tmp_path):
    with pytest.raises(ValueError, match=r"^table columns must have equal lengths, got \[3, 2\]$"):
        write_csv(tmp_path / "t.csv", "table", ["a", "b"], [np.arange(3), np.arange(2)])
    assert list(tmp_path.iterdir()) == []


def _task(i: int, fails: bool = False):
    if fails:
        raise ValueError(f"task {i} failed")
    return i, os.getpid(), np.arange(i * 50_000, dtype=np.float64)


def test_fork_map_returns_values_in_task_order():
    threads = threading.enumerate()
    got = _fork_map([functools.partial(_task, i) for i in range(4)])
    assert [i for i, _, _ in got] == [0, 1, 2, 3]
    pids = [pid for _, pid, _ in got]
    assert pids[0] == os.getpid() and len(set(pids)) == 4  # the first task runs here
    for i, _, values in got:
        assert np.array_equal(values, np.arange(i * 50_000, dtype=np.float64))
    assert _fork_map([]) == []
    assert threading.enumerate() == threads  # no thread was started
    assert _no_child_left()


@pytest.mark.parametrize(
    "failing, first",
    [({0, 2}, 0), ({3, 1, 2}, 1), ({3}, 3)],
    ids=["this-process-wins", "first-child-wins", "last-child"],
)
def test_fork_map_raises_the_first_exception_in_task_order(failing, first):
    tasks = [functools.partial(_task, i, i in failing) for i in range(4)]
    with pytest.raises(ValueError, match=f"^task {first} failed$"):
        _fork_map(tasks)
    assert _no_child_left()


def test_fork_map_reaps_every_child_before_raising(tmp_path):
    def slow_child():
        time.sleep(0.2)
        (tmp_path / "done").touch()

    def fail():
        raise ValueError("this process failed")

    with pytest.raises(ValueError, match="^this process failed$"):
        _fork_map([fail, slow_child])
    assert (tmp_path / "done").exists()
    assert _no_child_left()


def test_fork_map_child_error_keeps_its_message_and_iteration():
    def diverge():
        raise TrainingError("iteration 7: logits contain NaN or Inf entries", 7)

    with pytest.raises(TrainingError) as raised:
        _fork_map([lambda: None, diverge])
    assert type(raised.value) is TrainingError
    assert str(raised.value) == "iteration 7: logits contain NaN or Inf entries"
    assert raised.value.iteration == 7
    assert _no_child_left()


@pytest.mark.parametrize("end, status", [("killed", -9), ("unpicklable", 1)])
def test_child_without_a_result_raises_child_process_error(end, status):
    parent = os.getpid()

    def child():
        if os.getpid() != parent:
            if end == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return threading.Lock()  # pickle refuses a lock
        return None

    with pytest.raises(ChildProcessError, match=rf"exited with status {status} and no result$"):
        _fork_map([lambda: None, child])
    assert _no_child_left()


def test_live_thread_runs_the_plain_loop():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        pids = _fork_map([os.getpid] * 3)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert pids == [os.getpid()] * 3
