"""Training loop: per-batch loss assembly, Adam updates, EMA anchor updates.

Each iteration forwards a stratified batch, builds the enabled loss terms
on the resulting features, combines them with the scheduled structural
weight, applies one Adam step, and then lets the anchor prototypes track
the batch class means. Runs are deterministic given (config, data, seed).

One loop trains a stack of S seeds at once: every array gains a leading
seed axis, so each step makes one set of numpy calls for all S seeds, and
each seed gets the bits its own run would. ``train`` is the loop with one
seed. A seed sweep splits its seeds into one contiguous stack per usable
core; the folds of a k-fold split train on different data, one job each.
The jobs run in a pool of forked worker processes and come back in order.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from ._files import write_artifact
from .data import (
    SyntheticOrdinalDataset,
    TrainingSet,
    classes_present,
    kfold_split,
    stratified_batches,
)
from .encoder import (
    AdamState,
    EncoderParams,
    HeadParams,
    adam_step,
    backward,
    buffer,
    encode,
    forward,
    init_adam,
    init_params,
    seed_params,
    stack_params,
)
from .errors import (
    BadConfigError,
    DimMismatchError,
    EmptyInputError,
    NonFiniteError,
    OrdprotoError,
    TrainingError,
    in_row,
)
from .evaluation import binary_metrics, spearman
from .losses import (
    _require_finite,
    cross_entropy_loss,
    hybrid_ordinal_loss,
    label_similarity,
    label_tables,
    local_prototypes,
)
from .prototypes import GlobalPrototypeStore, _softmax_high, anchor_cosines, ema_update
from .ranking import BlackboxConfig, rank_rows

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
    anchor_classes: tuple[int, int] | None = None  # None: (1, n_classes), the two ends
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)

    def __post_init__(self):
        anchors = (1, self.n_classes) if self.anchor_classes is None else self.anchor_classes
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        object.__setattr__(self, "anchor_classes", tuple(int(c) for c in anchors))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.n_classes < 2:
            raise BadConfigError("n_classes must be >= 2")
        if self.input_dim < 1 or self.feature_dim < 1 or any(d < 1 for d in self.hidden_dims):
            raise BadConfigError("all layer dims must be >= 1")
        if self.epochs < 1:
            raise BadConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise BadConfigError("batch_size must be >= 1")
        if self.batch_size < self.n_classes:
            raise BadConfigError(
                f"batch size {self.batch_size} cannot hold all {self.n_classes} classes"
            )
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


def check_data_fits(config: TrainConfig, data: TrainingSet) -> None:
    """Reject training data the config cannot train on, as ``BadConfigError``.

    In order: the input width must be ``config.input_dim``, the largest
    label must be ``config.n_classes``, and every class 1..K must occur.
    """
    if data.input_dim != config.input_dim:
        raise BadConfigError(
            f"config input_dim {config.input_dim} != data input_dim {data.input_dim}"
        )
    labels = np.asarray(data.labels, dtype=np.int64)
    top = int(labels.max(initial=0))
    if top != config.n_classes:
        raise BadConfigError(f"config classes {config.n_classes} != data classes {top}")
    present = classes_present(labels)
    if present[0] != 1 or present.size != config.n_classes:
        raise BadConfigError(
            f"training data must contain every class 1..{config.n_classes}, found {present}"
        )


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
class TrainHistory:
    """One row per iteration in a float64 array whose columns are HISTORY_COLUMNS.

    Iteration and epoch counts are exact in float64; every other column
    holds the float the loop produced, so ``repr`` gives the same text.
    """

    values: np.ndarray

    def write_csv(self, path) -> None:
        def rows(fh):
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(HISTORY_COLUMNS)
            for row in self.values:
                iteration, epoch, *floats = row.tolist()
                writer.writerow([int(iteration), int(epoch), *map(repr, floats)])

        write_artifact(path, "history", rows)


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

    Inputs and labels are validated once, here (``check_data_fits``, then
    shape and finiteness); the loop runs the loss and encoder functions,
    which trust their input, and checks per iteration only what changes:
    finite features and logits, nonzero norms.
    """
    return _train_stack(config, data, (seed,))[0]


def _train_stack(
    config: TrainConfig, data: TrainingSet, seeds: tuple[int, ...]
) -> list[TrainResult]:
    """``[train(config, data, seed) for seed in seeds]``, as one stack; the same errors.

    A failing seed raises its own ``TrainingError`` at its own iteration,
    and the first failing seed in seed order wins, as in the serial loop.
    The seeds after a failing one cannot change that outcome, so they
    leave the stack with it; the ones before it train again without it,
    and may fail themselves, later than it did.
    """
    check_data_fits(config, data)
    # C order and float64 once, so every batch gather is a plain row copy.
    x = np.ascontiguousarray(data.x, dtype=np.float64)
    labels = np.asarray(data.labels, dtype=np.int64)
    if labels.shape != (x.shape[0],):
        raise DimMismatchError(f"need one label per input row, got {labels.shape[0]} labels")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise NonFiniteError(f"inputs row {int(np.argmin(finite))} contains NaN or Inf entries")
    failure = None
    while seeds:
        try:
            results = _stacked_loop(config, x, labels, seeds)
            break
        except TrainingError as exc:
            failure, seeds = exc, seeds[: exc.stack_row]
    if failure is not None:
        raise failure
    return results


def _plan(config: TrainConfig, labels: np.ndarray, seeds, epoch: int) -> np.ndarray:
    """One epoch's (batches, S, M) index plan: each seed's batches, stacked per batch."""
    return np.stack(
        [
            stratified_batches(labels, config.batch_size, [seed, epoch], config.n_classes)
            for seed in seeds
        ],
        axis=1,
    )


def _stacked_loop(
    config: TrainConfig, x: np.ndarray, labels: np.ndarray, seeds: tuple[int, ...]
) -> list[TrainResult]:
    """The training loop over validated inputs, every seed of ``seeds`` at once.

    Parameters, Adam moments and gradients are (S, P) buffers, anchors
    (S, d) and the history (S, iterations, 9). A failing check raises a
    ``TrainingError`` whose ``stack_row`` is the first seed it failed on.
    """
    enc, head = stack_params([init_params(config.dims, config.n_classes, s) for s in seeds])
    adam = init_adam(
        enc, head, beta1=config.adam_beta1, beta2=config.adam_beta2, epsilon=config.adam_epsilon
    )
    store = GlobalPrototypeStore(
        dim=config.feature_dim,
        sigma=config.ema_sigma,
        anchor_classes=config.anchor_classes,
    )
    # One anchor row per seed; the constructor takes one seed's vectors.
    store.anchor_low = np.zeros((len(seeds), config.feature_dim))
    store.anchor_high = np.zeros((len(seeds), config.feature_dim))
    bb = BlackboxConfig(config.blackbox_lambda)
    cls_target = rank_rows(label_similarity(np.arange(1.0, config.n_classes + 1)))
    switches = (
        config.use_ins2ins, config.use_ins2cls, config.use_cls2cls, config.detach_class_spread
    )
    grads, grad_views = buffer(enc, head)

    # The batch plan depends only on class counts, so every epoch has the
    # same number of iterations and the schedule length is known up front.
    # Every batch holds every class, so cls2cls needs no per-batch check,
    # and every seed's batch b has the same class slots.
    plan = _plan(config, labels, seeds, 0)
    total_iters = config.epochs * len(plan)
    # Per iteration: (iteration, epoch, lr, lambda), and each seed's CE and
    # structural terms; the history is assembled from them after the run.
    schedule = []
    ce_values = np.empty((total_iters, len(seeds)))
    term_values = np.empty((total_iters, 3, len(seeds)))
    # λ ramps linearly from lambda_start to lambda_end over the run's
    # iterations (or epochs), reaching lambda_end on the last one.
    span = config.lambda_end - config.lambda_start
    ramp_steps = max((config.epochs if config.lambda_per_epoch else total_iters) - 1, 1)
    lo_cls, hi_cls = config.anchor_classes

    iteration = 0
    for epoch in range(config.epochs):
        if epoch:
            plan = _plan(config, labels, seeds, epoch)
        lr = config.base_lr * config.lr_decay**epoch
        counts, *tables = label_tables(labels[plan], config.n_classes)
        for xb, grouped, seat, ins_target, onehot in zip(x[plan], *tables):
            iteration += 1
            step = epoch if config.lambda_per_epoch else iteration - 1
            lam = config.lambda_start + span * (step / ramp_steps)
            try:
                cache = forward(enc, head, xb)
                _require_finite(cache.features, "features")
                protos = local_prototypes(cache.features, grouped, seat, counts)
                hyb = hybrid_ordinal_loss(
                    cache.features, protos, ins_target, cls_target, bb, *switches
                )
                _require_finite(cache.logits, "logits")
                ce = cross_entropy_loss(cache.logits, onehot)

                backward(enc, head, cache, lam * hyb.feature_grads, ce.logit_grads, grad_views)
                adam_step(adam, grads, lr)
                ema_update(store, protos.means[:, lo_cls - 1], protos.means[:, hi_cls - 1])
            except OrdprotoError as exc:
                error = TrainingError(f"iteration {iteration}: {exc}", iteration)
                raise in_row(error, exc.stack_row) from exc
            schedule.append((iteration, epoch, lr, lam))
            ce_values[iteration - 1] = ce.value
            term_values[iteration - 1] = hyb.terms

    # The loop's own float operations, over all iterations at once:
    # loss_total = ce + lambda * (ins2ins + ins2cls + cls2cls).
    history = np.empty((len(seeds), total_iters, len(HISTORY_COLUMNS)), dtype=np.float64)
    history[:, :, :4] = schedule
    hyb_values = term_values[:, 0] + term_values[:, 1] + term_values[:, 2]
    history[:, :, 4] = (ce_values + history[0, :, 3:4] * hyb_values).T
    history[:, :, 5] = ce_values.T
    history[:, :, 6:] = term_values.transpose(2, 0, 1)
    return [
        TrainResult(
            *seed_params(enc, head, row),
            GlobalPrototypeStore(
                dim=store.dim,
                sigma=store.sigma,
                anchor_classes=store.anchor_classes,
                anchor_low=store.anchor_low[row],
                anchor_high=store.anchor_high[row],
            ),
            TrainHistory(history[row]),
            adam.row(row),
            seed,
        )
        for row, seed in enumerate(seeds)
    ]


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
    # One cosine pass over the whole cohort; cosines are row-wise, so the
    # middle rows score exactly as progression_scores(z_all[mask]) would.
    cos_low, cos_high = anchor_cosines(encode(enc, dataset.x), store)
    metrics = binary_metrics(_softmax_high(cos_low[mask], cos_high[mask]), dataset.fine[mask])
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
    config: TrainConfig, view: TrainingSet, eval_ds: SyntheticOrdinalDataset, seeds
) -> list[tuple[TrainResult, dict]]:
    """Train a stack of seeds, then evaluate each run."""
    return [
        (result, evaluate_on(result.encoder, result.store, eval_ds))
        for result in _train_stack(config, view, seeds)
    ]


def _stacks(seeds: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """``seeds`` in ``n`` contiguous stacks, sizes differing by at most one, larger first."""
    size, extra = divmod(len(seeds), n)
    bounds = [i * size + min(i, extra) for i in range(n + 1)]
    return [seeds[a:b] for a, b in zip(bounds, bounds[1:])]


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

    The seeds train as one stack per usable core (at most one per seed),
    each a contiguous run of ``config.seeds``; with one core they all train
    as one stack in this process. Evaluation uses ``eval_dataset`` when
    given, otherwise the training dataset's own fine split (those labels
    are invisible to the trainer).
    """
    eval_ds = eval_dataset if eval_dataset is not None else dataset
    view = dataset.training_view()
    stacks = _stacks(config.seeds, min(len(config.seeds), _usable_cores()))
    jobs = [(config, view, eval_ds, stack) for stack in stacks]
    runs = [run for stack_runs in _map_in_order(_train_and_evaluate, jobs) for run in stack_runs]
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
        (config, dataset.subset(folds != f).training_view(), dataset.subset(folds == f), (seed,))
        for f in range(1, k + 1)
    ]
    runs = _map_in_order(_train_and_evaluate, jobs)
    rows = [{"fold": f, **metrics} for f, [(_, metrics)] in enumerate(runs, start=1)]
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
