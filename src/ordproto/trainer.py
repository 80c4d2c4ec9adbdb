"""Training loop: per-batch loss assembly, Adam updates, EMA anchor updates.

Each iteration forwards a stratified batch, builds the enabled loss terms
on the resulting features, combines them with the scheduled structural
weight, applies one Adam step, and then lets the anchor prototypes track
the batch class means. Runs are deterministic given (config, data, seed),
so the runs of a seed sweep or a k-fold split are independent jobs; they
run in a pool of forked worker processes, one per usable core, and come
back in job order.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .data import SyntheticOrdinalDataset, TrainingSet, kfold_split, stratified_batches
from .encoder import (
    AdamState,
    EncoderParams,
    HeadParams,
    _backward,
    _buffer,
    _forward,
    adam_step,
    encode,
    init_adam,
    init_params,
    learning_rate,
)
from .errors import (
    BadConfigError,
    DatasetIOError,
    DegenerateBatchError,
    DimMismatchError,
    EmptyInputError,
    NonFiniteError,
    OrdprotoError,
    OutOfRangeError,
    TrainingError,
)
from .evaluation import binary_metrics, spearman
from .losses import (
    _cross_entropy,
    _hybrid,
    _local_prototypes,
    _require_finite,
    label_similarity,
    total_loss,
)
from .prototypes import GlobalPrototypeStore, anchor_cosines, ema_update, progression_scores
from .ranking import BlackboxConfig

METRIC_KEYS = ("acc", "auc", "f1", "precision", "recall", "spearman_ordinality")


@dataclass(frozen=True)
class TrainConfig:
    n_classes: int = 3
    input_dim: int = 16
    hidden_dims: tuple[int, ...] = (64, 64)
    feature_dim: int = 32
    epochs: int = 60
    batch_size: int = 8
    base_lr: float = 2e-4
    lr_decay: float = 0.95
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    ema_sigma: float = 0.9
    lambda_start: float = 0.0
    lambda_end: float = 1.0
    lambda_per_epoch: bool = False
    blackbox_lambda: float = 1.0
    use_ins2ins: bool = True
    use_ins2cls: bool = True
    use_cls2cls: bool = True
    detach_class_spread: bool = False
    anchor_classes: tuple[int, int] = (1, 3)
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        object.__setattr__(self, "anchor_classes", tuple(int(c) for c in self.anchor_classes))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.n_classes < 2:
            raise BadConfigError("n_classes must be >= 2")
        if self.input_dim < 1 or self.feature_dim < 1 or any(d < 1 for d in self.hidden_dims):
            raise BadConfigError("all layer dims must be >= 1")
        if self.epochs < 1:
            raise BadConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise BadConfigError("batch_size must be >= 1")
        if not 0.0 < self.ema_sigma < 1.0:
            raise BadConfigError("ema_sigma must lie strictly inside (0, 1)")
        if not 0.0 <= self.lambda_start <= self.lambda_end <= 1.0:
            raise BadConfigError("need 0 <= lambda_start <= lambda_end <= 1")
        for name in ("base_lr", "lr_decay", "adam_epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise BadConfigError(f"{name} must be finite and positive, got {value!r}")
        try:
            BlackboxConfig(self.blackbox_lambda)
        except BadConfigError as exc:
            raise BadConfigError(f"blackbox_lambda: {exc}") from None
        for name in ("adam_beta1", "adam_beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise BadConfigError(f"{name} must lie in [0, 1), got {value!r}")
        if not self.seeds:
            raise BadConfigError("seeds must be non-empty")
        lo, hi = self.anchor_classes
        if lo == hi or not (1 <= lo <= self.n_classes and 1 <= hi <= self.n_classes):
            raise BadConfigError(
                f"anchor_classes must be two distinct classes in 1..{self.n_classes}"
            )

    @property
    def dims(self) -> list[int]:
        return [self.input_dim, *self.hidden_dims, self.feature_dim]


def lambda_schedule(iteration: int, total_iters: int) -> float:
    """Linear ramp position iteration / total_iters, validated to [0, 1]."""
    if total_iters < 1:
        raise OutOfRangeError(f"total_iters must be >= 1, got {total_iters}")
    if not 0 <= iteration <= total_iters:
        raise OutOfRangeError(f"iteration {iteration} outside 0..{total_iters}")
    return iteration / total_iters


HISTORY_COLUMNS = (
    "iteration",
    "epoch",
    "lr",
    "lambda",
    "loss_total",
    "loss_ce",
    "loss_i2i",
    "loss_i2c",
    "loss_c2c",
)


@dataclass
class IterationRecord:
    iteration: int
    epoch: int
    lr: float
    lam: float
    loss_total: float
    loss_ce: float
    loss_i2i: float
    loss_i2c: float
    loss_c2c: float

    def row(self) -> list:
        return [
            self.iteration,
            self.epoch,
            repr(self.lr),
            repr(self.lam),
            repr(self.loss_total),
            repr(self.loss_ce),
            repr(self.loss_i2i),
            repr(self.loss_i2c),
            repr(self.loss_c2c),
        ]


def _record(values: list[float]) -> IterationRecord:
    iteration, epoch, *rest = values
    return IterationRecord(int(iteration), int(epoch), *rest)


@dataclass
class TrainHistory:
    """One row per iteration in a float64 array whose columns are HISTORY_COLUMNS.

    Iteration and epoch counts are exact in float64; every other column
    holds the float the loop produced, so ``repr`` gives the same text.
    """

    values: np.ndarray

    @property
    def rows(self) -> list[IterationRecord]:
        return [_record(v) for v in self.values.tolist()]

    def write_csv(self, path) -> None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(HISTORY_COLUMNS)
                for v in self.values:
                    writer.writerow(_record(v.tolist()).row())
        except OSError as exc:
            raise DatasetIOError(f"cannot write history: {exc}") from exc


@dataclass
class TrainResult:
    encoder: EncoderParams
    head: HeadParams
    store: GlobalPrototypeStore
    history: TrainHistory
    adam: AdamState
    seed: int


def train(config: TrainConfig, data: TrainingSet, seed: int) -> TrainResult:
    """Run the full loop on a coarse-labeled training set.

    Inputs and labels are validated once, here; the loop runs the trusting
    kernels behind the public loss and encoder functions and checks per
    iteration only what changes: finite features and logits, nonzero norms.
    """
    if data.input_dim != config.input_dim:
        raise BadConfigError(
            f"config input_dim {config.input_dim} != data input_dim {data.input_dim}"
        )
    present = np.unique(data.labels)
    expected = np.arange(1, config.n_classes + 1)
    if present.size != config.n_classes or np.any(present != expected):
        raise DegenerateBatchError(
            f"training data must contain every class 1..{config.n_classes}, found {present}"
        )
    # C order and float64 once, so every batch gather is a plain row copy.
    x = np.ascontiguousarray(data.x, dtype=np.float64)
    labels = np.asarray(data.labels, dtype=np.int64)
    if labels.shape != (x.shape[0],):
        raise DimMismatchError(f"need one label per input row, got {labels.shape[0]} labels")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise NonFiniteError(f"inputs row {int(np.argmin(finite))} contains NaN or Inf entries")

    enc, head = init_params(config.dims, config.n_classes, seed)
    adam = init_adam(
        enc,
        head,
        beta1=config.adam_beta1,
        beta2=config.adam_beta2,
        base_lr=config.base_lr,
        lr_decay=config.lr_decay,
        epsilon=config.adam_epsilon,
    )
    store = GlobalPrototypeStore(
        dim=config.feature_dim,
        sigma=config.ema_sigma,
        anchor_classes=config.anchor_classes,
    )
    bb = BlackboxConfig(config.blackbox_lambda)
    s_pr = label_similarity(np.arange(1, config.n_classes + 1))
    switches = (
        config.use_ins2ins, config.use_ins2cls, config.use_cls2cls, config.detach_class_spread
    )
    grads, grad_views = _buffer(enc, head)

    # The batch plan depends only on class counts, so every epoch has the
    # same number of iterations and the schedule length is known up front.
    # Every batch holds every class, so cls2cls needs no per-batch check.
    plan = stratified_batches(labels, config.batch_size, [seed, 0], config.n_classes)
    total_iters = config.epochs * len(plan)
    history = np.empty((total_iters, len(HISTORY_COLUMNS)), dtype=np.float64)
    span = config.lambda_end - config.lambda_start
    lo_cls, hi_cls = config.anchor_classes

    iteration = 0
    for epoch in range(config.epochs):
        if epoch:
            plan = stratified_batches(labels, config.batch_size, [seed, epoch], config.n_classes)
        lr = learning_rate(adam, epoch)
        for idx in plan:
            iteration += 1
            if config.lambda_per_epoch:
                ramp = lambda_schedule(epoch, max(config.epochs - 1, 1))
            else:
                ramp = lambda_schedule(iteration - 1, max(total_iters - 1, 1))
            lam = config.lambda_start + span * ramp
            try:
                cache = _forward(enc, head, x[idx])
                _require_finite(cache.features, "features")
                batch_labels = labels[idx]
                protos = _local_prototypes(cache.features, batch_labels, config.n_classes)
                hyb = _hybrid(cache.features, batch_labels, protos, s_pr, bb, *switches)
                _require_finite(cache.logits, "logits")
                ce = _cross_entropy(cache.logits, protos.members.T)
                combined = total_loss(ce, hyb, lam)

                _backward(
                    enc, head, cache, combined.feature_grads, combined.logit_grads, grad_views
                )
                adam_step(adam, grads, epoch)
                ema_update(store, protos.means[lo_cls - 1], protos.means[hi_cls - 1])
            except OrdprotoError as exc:
                raise TrainingError(f"iteration {iteration}: {exc}", iteration) from exc

            history[iteration - 1] = (
                iteration, epoch, lr, lam, combined.value, ce.value, *hyb.terms
            )
    return TrainResult(enc, head, store, TrainHistory(history), adam, seed)


def evaluate_on(
    enc: EncoderParams, store: GlobalPrototypeStore, dataset: SyntheticOrdinalDataset
) -> dict:
    """Middle-class fine-split metrics plus the ordinality diagnostic.

    Binary metrics come from progression scores on the samples that carry
    a fine label; the Spearman diagnostic correlates cos(z, anchor_high)
    with the latent position over the whole dataset.
    """
    mask = dataset.middle_mask()
    if not mask.any():
        raise EmptyInputError("dataset has no middle-class samples to evaluate")
    z_all = encode(enc, dataset.x)
    metrics = binary_metrics(progression_scores(z_all[mask], store), dataset.fine[mask])
    _, cos_high = anchor_cosines(z_all, store)
    metrics["spearman_ordinality"] = spearman(cos_high, dataset.latent_t)
    return metrics


def _mean_std(rows: list[dict]) -> tuple[dict, dict]:
    mean, std = {}, {}
    for key in METRIC_KEYS:
        vals = np.array([r[key] for r in rows], dtype=np.float64)
        mean[key] = float(vals.mean())
        std[key] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
    return mean, std


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_in_order(job, jobs: list[tuple]) -> list:
    """``[job(*args) for args in jobs]``, in a process pool when that can help.

    The pool has one forked worker per usable core, at most one per job.
    Results come back in job order, and a failure re-raises in the caller
    as the serial loop would raise it: the first failing job in order wins
    and the jobs not yet started are cancelled. One job, one usable core
    or a platform without ``fork`` runs the plain loop.
    """
    workers = min(len(jobs), _usable_cores())
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, named explicitly: spawn and forkserver re-import the
        # caller's main module, which breaks scripts without a main guard.
        if "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                futures = [pool.submit(job, *args) for args in jobs]
                return [f.result() for f in futures]
            finally:
                pool.shutdown(cancel_futures=True)
    return [job(*args) for args in jobs]


def _train_and_evaluate(
    config: TrainConfig, view: TrainingSet, eval_ds: SyntheticOrdinalDataset, seed: int
) -> tuple[TrainResult, dict]:
    result = train(config, view, seed)
    return result, evaluate_on(result.encoder, result.store, eval_ds)


@dataclass
class SeedSweepResult:
    summary: dict
    results: list[TrainResult]


def run_seeds(
    config: TrainConfig,
    dataset: SyntheticOrdinalDataset,
    eval_dataset: SyntheticOrdinalDataset | None = None,
) -> SeedSweepResult:
    """Train once per configured seed and evaluate each run.

    Evaluation uses ``eval_dataset`` when given, otherwise the training
    dataset's own fine split (those labels are invisible to the trainer).
    """
    eval_ds = eval_dataset if eval_dataset is not None else dataset
    view = dataset.training_view()
    runs = _map_in_order(
        _train_and_evaluate, [(config, view, eval_ds, seed) for seed in config.seeds]
    )
    rows = [{"seed": seed, **metrics} for seed, (_, metrics) in zip(config.seeds, runs)]
    mean, std = _mean_std(rows)
    summary = {"per_seed": rows, "mean": mean, "std": std}
    return SeedSweepResult(summary, [result for result, _ in runs])


def cross_validate(config: TrainConfig, dataset: SyntheticOrdinalDataset, k: int) -> dict:
    """Stratified k-fold: train on k-1 folds, score the held-out fold.

    Every fold trains with the first configured seed; folds are
    independent, so the per-fold spread plays the role the seed spread
    plays in a single-split run.
    """
    seed = config.seeds[0]
    folds = kfold_split(dataset.coarse, k, seed)
    jobs = [
        (config, dataset.subset(folds != f).training_view(), dataset.subset(folds == f), seed)
        for f in range(1, k + 1)
    ]
    runs = _map_in_order(_train_and_evaluate, jobs)
    rows = [{"fold": f, **metrics} for f, (_, metrics) in enumerate(runs, start=1)]
    mean, std = _mean_std(rows)
    return {"folds": rows, "mean": mean, "std": std}


def ablation_config(config: TrainConfig, variant: str) -> TrainConfig:
    """Switch loss components by cumulative variant name."""
    variants = {
        "ce-only": (False, False, False),
        "ins2ins": (True, False, False),
        "ins2cls": (True, True, False),
        "full": (True, True, True),
    }
    if variant not in variants:
        raise BadConfigError(f"unknown ablation variant {variant!r}")
    i2i, i2c, c2c = variants[variant]
    return replace(config, use_ins2ins=i2i, use_ins2cls=i2c, use_cls2cls=c2c)
