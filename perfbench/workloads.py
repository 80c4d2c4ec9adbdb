"""The benchmark workloads: set-up from a seed, one timed pass, output checks.

Every ordproto call goes through the module attribute (``encoder.encode``,
not an imported name) so that a traced pass sees the benchmark's own calls.

- ``train_full``: ``ordproto train`` with the full hybrid loss, one seed and
  the default 60 epochs on the default cohort. Ranking and the structural losses do most of the
  work, in many tiny per-row calls.
- ``sweep_ce_only``: ``ordproto train --ablate ce-only`` over five seeds
  on the same cohort. Ranking and the structural losses do no work; Adam,
  the EMA update, CE and forward/backward dominate, and the serial seed
  loop shows.
- ``score_cohort``: load a large cohort CSV, a checkpoint and a store, score
  the cohort in fixed-size query batches, then one ``evaluate_on``. No
  training layer does work; prototypes and linalg are used read-only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ordproto import cli, data, encoder, prototypes, trainer
from ordproto.errors import OrdprotoError

QUALITY_KEYS = ("acc", "auc", "spearman_ordinality")

# On a shared host the speed of one core changes by 10-30% within seconds,
# and a fixed interpreter-plus-small-numpy kernel slows down by about the
# same factor as the workloads. HostSpeed runs that kernel every
# SAMPLE_PERIOD_S during timed intervals (from a timer signal) and at their
# ends; an interval is multiplied by REFERENCE_S over the mean kernel time
# sampled in it, so times read as seconds on a host where the kernel takes
# REFERENCE_S. The samples' own time is left out of every interval.
REFERENCE_S = 0.02
SAMPLE_PERIOD_S = 0.5


def reference_s() -> float:
    """Time of one run of a fixed kernel that uses no ordproto code."""
    a = np.arange(64, dtype=np.float64)
    t0 = time.perf_counter()
    for i in range(3000):
        b = a * 1.0001 + i
        float(b @ a)
        {j: 2 * j for j in range(10)}
    return time.perf_counter() - t0


class HostSpeed:
    """A clock without the kernel samples, and the host scale of each interval."""

    def __init__(self):
        self.spent_s = 0.0  # time taken by samples so far
        self.samples: list[float] = []
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent_s

    def _sample(self, *_signal) -> None:
        if self._busy:  # a timer signal during a sample
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.samples.append(reference_s())
            self.spent_s += time.perf_counter() - t0
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample during the body; the first interval starts on entry."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        self.samples = []
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """End the current interval, start the next one, and return the ended one's scale."""
        self._sample()
        samples, self.samples = self.samples, self.samples[-1:]
        return REFERENCE_S / (sum(samples) / len(samples))


HOST = HostSpeed()
clock = HOST.clock


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests shrink them."""

    train_counts: tuple[int, ...] = (130, 270, 200)  # GenConfig(): 90 batches/epoch at batch 8
    heldout_counts: tuple[int, ...] = (40, 80, 80)  # the acceptance test's held-out shape
    epochs: int = 60  # TrainConfig() default: 5400 iterations per seed
    sweep_seeds: int = 5  # as many as TrainConfig().seeds, like the acceptance seed sweeps
    # score_cohort: 125 query batches per pass, enough for a p99. ordproto has
    # no caller that scores in batches, so the batch size is the benchmark's.
    cohort_counts: tuple[int, ...] = (2000, 4000, 2000)
    query_batch: int = 64
    # The set-up model of score_cohort. Scoring cost depends on the network's
    # shapes, not on how long it was trained, and set-up runs five times.
    checkpoint_epochs: int = 6


@dataclass
class Pass:
    """One timed repetition of a workload."""

    wall_s: float
    work: int  # training iterations summed over seeds, or rows scored
    work_s: float  # the time over which that work was done
    attempted: int
    failed: int
    batch_s: list[float] = field(default_factory=list)
    quality: dict = field(default_factory=dict)


class Checks:
    """Output checks; a failed one is recorded and fails its operation."""

    def __init__(self):
        self.failures: list[str] = []
        self._reference: dict[str, object] = {}

    def require(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return bool(ok)

    def same(self, key: str, value) -> bool:
        """``value`` must equal the first value recorded under ``key``."""
        ref = self._reference.setdefault(key, value)
        return self.require(ref == value, f"{key} differs from the first pass: {value!r} != {ref!r}")


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)]


def _gen(counts) -> data.GenConfig:
    return data.GenConfig(class_counts=tuple(counts))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TrainWorkload:
    """Repeated ``ordproto train`` CLI calls on one generated cohort."""

    def __init__(self, name: str, ablate: str, n_seeds: int, sizes: Sizes):
        self.name = name
        self.ablate = ablate
        self.n_seeds = n_seeds
        self.sizes = sizes
        self.dir: Path | None = None

    def setup(self, workdir: Path, seed: int) -> None:
        data_seed, eval_seed, *model_seeds = _seeds(seed, 2 + self.n_seeds)
        workdir.mkdir(parents=True, exist_ok=True)
        data.save_dataset(data.generate(_gen(self.sizes.train_counts), data_seed), workdir / "train.csv")
        data.save_dataset(data.generate(_gen(self.sizes.heldout_counts), eval_seed), workdir / "heldout.csv")
        (workdir / "train.cfg").write_text(
            f"epochs = {self.sizes.epochs}\nseeds = {', '.join(map(str, model_seeds))}\n",
            encoding="utf-8",
        )
        self.dir = workdir

    def run_pass(self, checks: Checks, operation) -> Pass:
        out = self.dir / "run"
        shutil.rmtree(out, ignore_errors=True)
        argv = [
            "train", "--config", str(self.dir / "train.cfg"), "--data", str(self.dir / "train.csv"),
            "--eval-data", str(self.dir / "heldout.csv"), "--out", str(out), "--ablate", self.ablate,
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = clock()
        with operation("cli.train"), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        wall = clock() - t0
        if not checks.require(code == 0, f"train exited {code}: {stderr.getvalue().strip()}"):
            return Pass(wall, 0, wall, 1, 1)
        history = (out / "history.csv").read_text(encoding="utf-8").splitlines()
        summary = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        quality = {k: summary["mean"][k] for k in QUALITY_KEYS}
        ok = checks.same("history.csv sha256", _sha256(out / "history.csv"))
        ok &= checks.same("store.json sha256", _sha256(out / "store.json"))
        ok &= checks.same("held-out quality", quality)
        return Pass(wall, (len(history) - 1) * self.n_seeds, wall, 1, 0 if ok else 1, quality=quality)

    def finish(self, checks: Checks) -> tuple[int, int]:
        """Checks after the last pass, as (attempted, failed); none here."""
        return 0, 0


class ScoreWorkload:
    """Load a cohort and saved artifacts, score in query batches, evaluate once."""

    name = "score_cohort"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        self.dir: Path | None = None
        self._first: tuple | None = None  # (inputs, encoder, store, features, scores) of pass 1

    def setup(self, workdir: Path, seed: int) -> None:
        cohort_seed, train_seed, model_seed = _seeds(seed, 3)
        workdir.mkdir(parents=True, exist_ok=True)
        data.save_dataset(data.generate(_gen(self.sizes.cohort_counts), cohort_seed), workdir / "cohort.csv")
        config = trainer.ablation_config(
            trainer.TrainConfig(epochs=self.sizes.checkpoint_epochs, seeds=(model_seed,)), "ce-only"
        )
        cohort = data.generate(_gen(self.sizes.train_counts), train_seed).training_view()
        result = trainer.train(config, cohort, model_seed)
        encoder.save_checkpoint(
            result.encoder, result.head, workdir / "checkpoint.json", model_seed, config.epochs
        )
        prototypes.save_store(result.store, workdir / "store.json")
        self.dir = workdir

    def run_pass(self, checks: Checks, operation) -> Pass:
        attempted = failed = 0
        features, scores, batch_s = [], [], []
        quality: dict = {}
        t0 = clock()
        enc, _head, _meta = encoder.load_checkpoint(self.dir / "checkpoint.json")
        store = prototypes.load_store(self.dir / "store.json")
        with operation("bench.load"):
            cohort = data.load_dataset(self.dir / "cohort.csv")
        step = self.sizes.query_batch
        for lo in range(0, cohort.size, step):
            attempted += 1
            tb = clock()
            try:
                with operation("bench.query_batch"):
                    z = encoder.encode(enc, cohort.x[lo : lo + step])
                    s = prototypes.progression_scores(z, store)
            except OrdprotoError as exc:
                failed += 1
                checks.require(False, f"query batch at row {lo} raised {exc!r}")
                continue
            batch_s.append(clock() - tb)
            features.append(z)
            scores.append(s)
        attempted += 1
        try:
            with operation("bench.evaluate"):
                metrics = trainer.evaluate_on(enc, store, cohort)
            quality = {k: metrics[k] for k in QUALITY_KEYS}
        except OrdprotoError as exc:
            failed += 1
            checks.require(False, f"evaluate_on raised {exc!r}")
        wall = clock() - t0

        if failed:
            return Pass(wall, 0, sum(batch_s), attempted, failed, batch_s, quality)
        z_all, s_all = np.concatenate(features), np.concatenate(scores)
        ok = checks.require(
            s_all.shape == (cohort.size,) and bool(np.all((s_all >= 0.0) & (s_all <= 1.0))),
            "a progression score lies outside [0, 1]",
        )
        ok &= checks.same("batched scores sha256", hashlib.sha256(s_all.tobytes()).hexdigest())
        ok &= checks.same("cohort quality", quality)
        if self._first is None:
            self._first = (cohort.x, enc, store, z_all, s_all)
        return Pass(wall, cohort.size, sum(batch_s), attempted, 0 if ok else 1, batch_s, quality)

    def finish(self, checks: Checks) -> tuple[int, int]:
        """Batched scoring must equal one whole-cohort call: one more operation."""
        if self._first is None:
            return 0, 0
        x, enc, store, z_batched, s_batched = self._first
        ok = checks.require(
            np.array_equal(prototypes.progression_scores(z_batched, store), s_batched),
            "batched scores differ from one whole-cohort progression_scores call",
        )
        # Different row blockings may round differently inside the matrix product.
        ok &= checks.require(
            np.allclose(encoder.encode(enc, x), z_batched, rtol=1e-12, atol=1e-12),
            "batched features differ from one whole-cohort encode call",
        )
        return 1, 0 if ok else 1


def make(name: str, sizes: Sizes = Sizes()):
    if name == "train_full":
        return TrainWorkload(name, "full", 1, sizes)
    if name == "sweep_ce_only":
        return TrainWorkload(name, "ce-only", sizes.sweep_seeds, sizes)
    if name == "score_cohort":
        return ScoreWorkload(sizes)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train_full", "sweep_ce_only", "score_cohort")
