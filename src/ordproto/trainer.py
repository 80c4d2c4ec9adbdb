"""Training loop: per-batch loss assembly, Adam updates, EMA anchor updates.

Each iteration forwards a stratified batch, builds the enabled loss terms
on the resulting features, combines them with the scheduled structural
weight, applies one Adam step, and then lets the anchor prototypes track
the batch class means. Runs are deterministic given (config, data, seed).

One loop trains a stack of S seeds at once: every array gains a leading
seed axis, so each step makes one set of numpy calls for all S seeds, and
each seed gets the bits its own run would. ``train`` is the loop with one
seed. A seed sweep splits its seeds into one contiguous stack per usable
core, and a k-fold split its folds into one contiguous group per usable
core. Each stack or group trains in its own forked child while this process
waits (``_per_core``); results come back in order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from ._files import _fork_map, _usable_cores, write_csv
from .config import TrainConfig
from .data import (
    SyntheticOrdinalDataset,
    TrainingSet,
    classes_present,
    kfold_split,
    stratified_batches,
)
from .encoder import (
    EncoderParams,
    Layer,
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
from .ranking import rank_rows

METRIC_KEYS = ("acc", "auc", "f1", "precision", "recall", "spearman_ordinality")

# Cumulative ablation variants: the (use_ins2ins, use_ins2cls, use_cls2cls) switches of each.
ABLATION_VARIANTS = {
    "ce-only": (False, False, False),
    "ins2ins": (True, False, False),
    "ins2cls": (True, True, False),
    "full": (True, True, True),
}


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
        counts = self.values[:, :2].astype(np.int64)  # iteration and epoch
        write_csv(path, "history", HISTORY_COLUMNS, [counts, self.values[:, 2:]])


@dataclass
class TrainResult:
    encoder: EncoderParams
    head: Layer
    store: GlobalPrototypeStore
    history: TrainHistory
    seed: int


def train(config: TrainConfig, data: TrainingSet, seed: int) -> TrainResult:
    """Run the full loop on a coarse-labeled training set.

    Inputs and labels are validated once, here (``check_data_fits``, then
    shape and finiteness); the loop runs the loss and encoder functions,
    which trust their input, and checks per iteration only what changes:
    finite features and logits, nonzero and finite norms.
    """
    return _train_stack(config, data, (seed,))[0]


def _train_stack(
    config: TrainConfig, data: TrainingSet, seeds: tuple[int, ...]
) -> list[TrainResult]:
    """``[train(config, data, seed) for seed in seeds]``, as one stack; the same errors.

    A stack of several seeds that fails trains its seeds again one at a
    time, in seed order, so the first failing seed raises its own
    ``TrainingError``, as in the serial loop. A passing stack runs once; a
    failing one pays at most one more one-seed run per seed.
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in cli.main
        try:
            return _stacked_loop(config, x, labels, seeds)
        except TrainingError:
            if len(seeds) == 1:
                raise
        return [result for seed in seeds for result in _stacked_loop(config, x, labels, (seed,))]


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

    Parameters, Adam moments and gradients are (S, P) buffers, the low and
    high anchors (S, 2, d) and the history (S, iterations, 9). A failing
    check raises a ``TrainingError`` for the whole stack.
    """
    enc, head = stack_params([init_params(config.dims, config.n_classes, s) for s in seeds])
    adam = init_adam(
        enc, head, beta1=config.adam_beta1, beta2=config.adam_beta2, epsilon=config.adam_epsilon
    )
    anchors = np.zeros((len(seeds), 2, config.feature_dim))
    cls_target = rank_rows(label_similarity(np.arange(1.0, config.n_classes + 1)))
    grads, grad_views = buffer(enc, head)

    # The batch plan depends only on class counts, so every epoch has the
    # same number of iterations and the history length is known up front.
    # Every batch holds every class, so cls2cls needs no per-batch check,
    # and every seed's batch b has the same class slots.
    plan = _plan(config, labels, seeds, 0)
    total_iters = config.epochs * len(plan)
    # Each iteration writes its row of every seed's history as it runs;
    # loss_total is filled in after the run.
    history = np.empty((len(seeds), total_iters, len(HISTORY_COLUMNS)))
    # λ ramps linearly from lambda_start to lambda_end over the run's
    # iterations (or epochs), reaching lambda_end on the last one.
    span = config.lambda_end - config.lambda_start
    ramp_steps = max((config.epochs if config.lambda_per_epoch else total_iters) - 1, 1)
    ends = np.array(config.anchor_classes) - 1  # the anchor classes' rows of the class means

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
                terms, feature_grads = hybrid_ordinal_loss(
                    cache.features, protos, ins_target, cls_target, config
                )
                _require_finite(cache.logits, "logits")
                ce, logit_grads = cross_entropy_loss(cache.logits, onehot)

                backward(enc, head, cache, lam * feature_grads, logit_grads, grad_views)
                adam_step(adam, grads, lr)
                anchors = ema_update(anchors, protos.means[:, ends], config.ema_sigma)
            except OrdprotoError as exc:
                raise TrainingError(f"iteration {iteration}: {exc}", iteration) from exc
            history[:, iteration - 1, :4] = iteration, epoch, lr, lam
            history[:, iteration - 1, 5] = ce
            history[:, iteration - 1, 6:] = terms.T

    # The loop's own float operations, over every row at once:
    # loss_total = ce + lambda * (ins2ins + ins2cls + cls2cls).
    h = history
    h[:, :, 4] = h[:, :, 5] + h[:, :, 3] * (h[:, :, 6] + h[:, :, 7] + h[:, :, 8])
    return [
        TrainResult(
            *seed_params(enc, head, row),
            GlobalPrototypeStore(anchors[row], config.anchor_classes, config.ema_sigma),
            TrainHistory(history[row]),
            seed,
        )
        for row, seed in enumerate(seeds)
    ]


def _middle_rows(dataset: SyntheticOrdinalDataset) -> np.ndarray:
    """The mask of the rows that carry a fine label; ``EmptyInputError`` if there are none."""
    mask = dataset.middle_mask()
    if not mask.any():
        raise EmptyInputError("dataset has no middle-class samples to evaluate")
    return mask


def evaluate_on(
    enc: EncoderParams, store: GlobalPrototypeStore, dataset: SyntheticOrdinalDataset
) -> dict:
    """Middle-class fine-split metrics plus the ordinality diagnostic.

    Binary metrics come from progression scores on the samples that carry
    a fine label; the Spearman diagnostic correlates cos(z, anchor_high)
    with the latent position over the whole dataset.
    """
    mask = _middle_rows(dataset)
    # One cosine pass over the whole cohort; cosines are row-wise, so the
    # middle rows score exactly as progression_scores(z_all[mask]) would.
    # encode and anchor_cosines work in row blocks: beside the features this
    # holds one block's arrays, never a hidden layer of the whole cohort.
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


def _per_core(items: tuple, work) -> list:
    """``work(items)``, for a ``work`` that returns one result per item, split over the cores.

    One contiguous group of ``items`` per usable core (at most one per item)
    goes to ``work`` in its own forked child while this process, holding no
    training buffers, waits; a lone group runs here. Results keep their order.
    """
    groups = _stacks(items, min(len(items), _usable_cores()))
    tasks = [functools.partial(work, group) for group in groups]
    # ``list``, the first task, is this process's: it returns [] at once.
    results = [tasks[0]()] if len(tasks) == 1 else _fork_map([list, *tasks])[1:]
    return [result for group_results in results for result in group_results]


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
    are invisible to the trainer). An evaluation set the runs cannot score
    raises before any seed trains.
    """
    eval_ds = eval_dataset if eval_dataset is not None else dataset
    if eval_dataset is not None and eval_dataset.input_dim != config.input_dim:
        raise BadConfigError(
            f"config input_dim {config.input_dim} != eval data input_dim {eval_dataset.input_dim}"
        )
    _middle_rows(eval_ds)
    view = dataset.training_view()
    runs = _per_core(config.seeds, functools.partial(_train_and_evaluate, config, view, eval_ds))
    rows = [{"seed": seed, **metrics} for seed, (_, metrics) in zip(config.seeds, runs)]
    mean, std = _mean_std(rows)
    summary = {"per_seed": rows, "mean": mean, "std": std}
    return SeedSweepResult(summary, [result for result, _ in runs])


def cross_validate(config: TrainConfig, dataset: SyntheticOrdinalDataset, k: int) -> dict:
    """Stratified k-fold: train on k-1 folds, score the held-out fold.

    Every fold trains with the first configured seed; folds are
    independent, so the per-fold spread plays the role the seed spread
    plays in a single-split run. The folds train in one contiguous group
    per usable core (at most one per fold), each group in fold order up to
    its first failure, so the first failing fold raises as in a serial loop.
    """
    seed = config.seeds[0]
    folds = kfold_split(dataset.coarse, k, seed)

    def fold_metrics(f: int) -> dict:
        result = train(config, dataset.subset(folds != f).training_view(), seed)
        return evaluate_on(result.encoder, result.store, dataset.subset(folds == f))

    metrics = _per_core(tuple(range(1, k + 1)), lambda group: [fold_metrics(f) for f in group])
    rows = [{"fold": f, **m} for f, m in enumerate(metrics, start=1)]
    mean, std = _mean_std(rows)
    return {"folds": rows, "mean": mean, "std": std}


def ablation_config(config: TrainConfig, variant: str) -> TrainConfig:
    """Switch loss components by cumulative variant name (``ABLATION_VARIANTS``)."""
    if variant not in ABLATION_VARIANTS:
        raise BadConfigError(f"unknown ablation variant {variant!r}")
    i2i, i2c, c2c = ABLATION_VARIANTS[variant]
    return replace(config, use_ins2ins=i2i, use_ins2cls=i2c, use_cls2cls=c2c)
