"""Call tracing from outside the traced package.

For a traced run, every name a package module binds to a probed object is
swapped for a timing wrapper and restored afterwards, so the package's own
source stays untouched. A span records its name, start, end, parent span
and trace id; spans stay in memory until the run ends. Count-only probes
record calls without spans, for functions that run hundreds of thousands
of times per pass. The tracer assumes a single thread: parents come from
one call stack.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

NO_PARENT = -1


class Tracer:
    """Spans and counters of one run, kept in memory as flat arrays."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []  # span name of each name id
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.traces = array("q")
        self.counts: Counter = Counter()
        self.trace_id = 0
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.traces.append(self.trace_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())  # last, so the bookkeeping stays outside the span
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def operation(self, name: str):
        """A root span that starts a new trace id (one CLI call or query batch)."""
        self.trace_id += 1
        with self.span(name):
            yield

    def save(self, path) -> None:
        """Write the spans as parallel arrays (``.npz``) plus the counters."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            trace=np.frombuffer(self.traces, dtype=np.int64),
            counter_names=np.array(sorted(self.counts), dtype=str),
            counter_values=np.array([self.counts[k] for k in sorted(self.counts)]),
        )


@contextmanager
def untraced(name: str):
    """Stand-in for ``Tracer.operation`` when tracing is off."""
    yield


@dataclass(frozen=True)
class Probe:
    """One probed object: ``attr`` inside ``package.module``.

    ``attr`` may be ``Class.method``; then only the class attribute is
    swapped. ``observe(tracer, result)`` runs after each call and may add
    counters derived from the result.
    """

    name: str
    module: str
    attr: str
    count_only: bool = False
    observe: Callable[[Tracer, object], None] | None = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


def _resolve(package: str, module: str, path: str):
    try:
        obj = importlib.import_module(f"{package}.{module}")
    except ImportError:
        return None
    for part in path.split("."):
        try:
            obj = vars(obj).get(part)
        except TypeError:
            return None
        if obj is None:
            return None
    return obj


def _wrap(fn, probe: Probe, tracer: Tracer):
    name = probe.name
    if probe.count_only:
        counts = tracer.counts

        @functools.wraps(fn, updated=())
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    observe = probe.observe
    name_id = tracer.name_id(name)

    @functools.wraps(fn, updated=())
    def timed(*args, **kwargs):
        idx = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if observe is not None:
            observe(tracer, result)
        return result

    return timed


@contextmanager
def instrument(tracer: Tracer, probes, package: str = "ordproto"):
    """Swap each probed object for a wrapper everywhere the package binds it.

    Yields the targets of probes whose object no longer exists; they keep
    zero calls instead of failing the run. Every swapped name is restored
    on exit, also when the body raises.
    """
    importlib.import_module(package)
    targets = [(probe, _resolve(package, probe.module, probe.attr)) for probe in probes]
    modules = [
        mod
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == package or mod_name.startswith(package + "."))
    ]
    absent = [probe.target for probe, target in targets if target is None]
    patched: list[tuple[object, str, object]] = []
    try:
        for probe, target in targets:
            if target is None:
                continue
            wrapper = _wrap(target, probe, tracer)
            owner_path, _, leaf = probe.attr.rpartition(".")
            if owner_path:
                owner = _resolve(package, probe.module, owner_path)
                patched.append((owner, leaf, target))
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        yield absent
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


@dataclass
class SpanStats:
    """Totals over every span of one name."""

    calls: int
    busy_s: float  # sum of span durations
    self_s: float  # busy_s minus the time direct child spans cover
    durations: np.ndarray


class Summary:
    """Per-name span statistics of a tracer."""

    def __init__(self, tracer: Tracer):
        self.counts = tracer.counts
        start = np.frombuffer(tracer.starts, dtype=np.float64)
        dur = np.frombuffer(tracer.ends, dtype=np.float64) - start
        parent = np.frombuffer(tracer.parents, dtype=np.int64)
        nested = parent != NO_PARENT
        covered = np.zeros(dur.size)
        np.add.at(covered, parent[nested], dur[nested])
        self_t = dur - covered
        ids = np.frombuffer(tracer.name_ids, dtype=np.int32)
        n_names = len(tracer.names)
        calls = np.bincount(ids, minlength=n_names)
        busy = np.bincount(ids, weights=dur, minlength=n_names)
        own = np.bincount(ids, weights=self_t, minlength=n_names)
        by_name = np.split(dur[np.argsort(ids, kind="stable")], np.cumsum(calls)[:-1])
        self.stats: dict[str, SpanStats] = {
            name: SpanStats(int(calls[i]), float(busy[i]), float(own[i]), by_name[i])
            for i, name in enumerate(tracer.names)
            if calls[i]
        }
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self._name_id = ids
        self._dur = dur
        self._parent = parent

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats(0, 0.0, 0.0, np.zeros(0)))

    def nested_busy(self, child: str, parent: str) -> float:
        """Summed duration of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self._ids or parent not in self._ids:
            return 0.0
        mask = (self._name_id == self._ids[child]) & (self._parent != NO_PARENT)
        inside = self._name_id[self._parent[mask]] == self._ids[parent]
        return float(self._dur[mask][inside].sum())
