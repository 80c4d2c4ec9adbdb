"""Tests for the benchmark's own code: span arithmetic, name restoration,
absent probes, and a tiny-size run of every workload."""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import layers, run, workloads  # noqa: E402
from perfbench.tracer import Probe, Summary, Tracer, instrument  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = workloads.Sizes(
    train_counts=(10, 20, 14),
    heldout_counts=(6, 14, 10),
    cohort_counts=(10, 24, 10),
    epochs=1,
    sweep_seeds=2,
    query_batch=16,
    checkpoint_epochs=1,
)


def _bindings() -> dict:
    """Every name the ordproto modules and their classes bind, with its object."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "ordproto" or name.startswith("ordproto.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for cls in [v for v in out.values() if isinstance(v, type)]:
        for attr, value in vars(cls).items():
            out[(f"{cls.__module__}.{cls.__qualname__}", attr)] = value
    return out


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]; a second root c [11, 12]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0, 11.0, 12.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.operation("root"):
        with tracer.span("a"):
            with tracer.span("a1"):
                pass
        with tracer.span("b"):
            pass
    with tracer.operation("c"):
        pass
    summary = Summary(tracer)
    expect = {"root": (10.0, 3.0), "a": (3.0, 2.0), "a1": (1.0, 1.0), "b": (4.0, 4.0), "c": (1.0, 1.0)}
    for name, (busy, self_s) in expect.items():
        stats = summary.get(name)
        assert stats.calls == 1
        assert stats.busy_s == busy and stats.self_s == self_s, name
    assert summary.nested_busy("a1", "a") == 1.0
    assert summary.nested_busy("a1", "root") == 0.0  # grandchildren do not count
    assert list(tracer.parents) == [-1, 0, 1, 0, -1]
    assert list(tracer.traces) == [1, 1, 1, 1, 2]
    assert summary.get("missing").calls == 0


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    """A two-module package: ``b`` imports ``f`` from ``a`` by name."""
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import f\n")
    (pkg / "a.py").write_text(
        "def f(x):\n    return x + 1\n\n\nclass K:\n    def m(self):\n        return f(1)\n"
    )
    (pkg / "b.py").write_text("from .a import f\n\n\ndef g(x):\n    return 2 * f(x)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.b

    yield fakepkg
    for name in [n for n in sys.modules if n == "fakepkg" or n.startswith("fakepkg.")]:
        del sys.modules[name]


def test_instrument_swaps_importer_names_and_restores_them_when_the_body_raises(fakepkg):
    a, b = fakepkg.a, fakepkg.b
    f, m = a.f, vars(a.K)["m"]
    probes = (
        Probe("a.f", "a", "f"),
        Probe("a.K.m", "a", "K.m"),
        Probe("a.rank_rows", "a", "rank_rows"),  # renamed away by a later refactor
        Probe("c.h", "c", "h"),  # module gone
    )
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with instrument(tracer, probes, package="fakepkg") as absent:
            assert absent == ["a.rank_rows", "c.h"]
            assert a.f is not f and b.f is not f and fakepkg.f is not f
            assert b.g(1) == 4 and a.K().m() == 2
            raise RuntimeError("workload failed")
    assert a.f is f and b.f is f and fakepkg.f is f and vars(a.K)["m"] is m
    summary = Summary(tracer)
    assert summary.get("a.f").calls == 2 and summary.get("a.K.m").calls == 1
    assert summary.nested_busy("a.f", "a.K.m") > 0


def test_layer_metrics_read_zero_for_layers_without_calls():
    metrics = layers.layer_metrics(Summary(Tracer()), passes=1, overhead_s=0.0, untraced_wall_s=1.0)
    assert [name for name, _, _ in layers.CATALOGUE] == list(metrics)
    assert all(entry["value"] == 0 for entry in metrics.values())


def test_catalogue_matches_benchmark_json():
    listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert listed == layers.CATALOGUE
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_checks_flag_a_changed_output():
    checks = workloads.Checks()
    assert checks.same("digest", "abc")
    assert checks.same("digest", "abc")
    assert not checks.same("digest", "abd")
    assert len(checks.failures) == 1


def test_host_speed_leaves_its_samples_out_and_restores_the_timer(monkeypatch):
    monkeypatch.setattr(workloads, "SAMPLE_PERIOD_S", 60.0)  # no timer sample inside the test
    host = workloads.HostSpeed()
    handler = signal.getsignal(signal.SIGALRM)
    with host.sampling():
        assert signal.getsignal(signal.SIGALRM) != handler
        t0, wall0 = host.clock(), time.perf_counter()
        for _ in range(3):
            host._sample()
        assert host.clock() - t0 < (time.perf_counter() - wall0) / 2
        samples = list(host.samples)
        assert host.scale() == pytest.approx(workloads.REFERENCE_S * (len(samples) + 1) / (sum(samples) + host.samples[0]))
        assert len(host.samples) == 1
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_of_each_workload(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    before = _bindings()
    plain, _ = run.run(name, seed=3, seconds=0.01, trace=False, workdir=tmp_path / "w", sizes=TINY)
    traced, report = run.run(name, seed=3, seconds=0.01, trace=True, workdir=tmp_path / "w", sizes=TINY)
    after = _bindings()
    assert all(after[key] is before[key] for key in before)

    assert plain["correct"] and traced["correct"], report["failures"]
    assert plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for key in ("setup_s", "wall_s", "work_per_s", "peak_rss_mb"):
        assert plain["metrics"][key]["value"] > 0
    assert all(math.isfinite(m["value"]) for m in plain["metrics"].values())
    assert all(math.isfinite(m["value"]) for m in traced["metrics"].values())
    assert traced["metrics"]["trace.spans"]["value"] > 0
    assert (tmp_path / f"trace-{name}.npz").is_file()


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("tests", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_full", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
