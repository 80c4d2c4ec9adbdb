"""Seeds trained as one stack: each seed's run, its errors and the sweep split.

``trainer._train_stack`` runs the training loop over S seeds at once, every
array with a leading seed axis. Each seed must come out bit for bit as
``oracles.reference_train`` (the one-seed loop with the per-class loss
forms) makes it, whatever the stack around it, and a stack must fail the
way the serial loop over its seeds fails.
"""

from __future__ import annotations

import concurrent.futures

import numpy as np
import pytest

from oracles import flat_params, reference_adam_step, reference_local_prototypes, reference_train
from ordproto import trainer
from ordproto.data import GenConfig, generate
from ordproto.encoder import AdamState, adam_step
from ordproto.errors import NonFiniteError, TrainingError
from ordproto.losses import label_similarity, label_tables
from ordproto.ranking import rank_rows
from ordproto.trainer import TrainConfig, ablation_config, evaluate_on, run_seeds, train

TINY_GEN = GenConfig(class_counts=(12, 18, 14), input_dim=6, noise_sigma=0.1)
TINY_TRAIN = TrainConfig(
    input_dim=6, hidden_dims=(8,), feature_dim=4, epochs=2, batch_size=6, seeds=(1, 2)
)
K4_GEN = GenConfig(
    n_classes=4, class_counts=(9, 14, 12, 10), input_dim=6, band_edges=(0.25, 0.5, 0.75)
)
K4_TRAIN = TrainConfig(
    n_classes=4, input_dim=6, hidden_dims=(8,), feature_dim=4, epochs=2, batch_size=7,
    anchor_classes=(2, 3),
)


def with_fields(config: TrainConfig, **fields) -> TrainConfig:
    return TrainConfig(**{**config.__dict__, **fields})


VARIANTS = {
    **{name: lambda cfg, name=name: ablation_config(cfg, name)
       for name in ("ce-only", "ins2ins", "ins2cls", "full")},
    "detach-spread": lambda cfg: with_fields(cfg, detach_class_spread=True),
    "per-epoch-lambda": lambda cfg: with_fields(cfg, lambda_per_epoch=True),
}


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate(TINY_GEN, 60)


def assert_equals_reference(result, config, view) -> None:
    history, adam, store = reference_train(config, view, result.seed)
    assert np.array_equal(result.history.values, history)
    for name in ("params", "m", "v"):
        assert np.array_equal(getattr(result.adam, name), getattr(adam, name)), name
    assert result.adam.step == adam.step
    assert np.array_equal(flat_params(result.encoder, result.head), result.adam.params)
    assert np.array_equal(result.store.anchor_low, store.anchor_low)
    assert np.array_equal(result.store.anchor_high, store.anchor_high)


class TestStackEqualsReference:
    @pytest.mark.parametrize("seeds", [(1,), (1, 2), (3, 1, 2), (1, 2, 3, 4, 5), (1, 1)])
    def test_stack_sizes(self, tiny_dataset, seeds):
        view = tiny_dataset.training_view()
        results = trainer._train_stack(TINY_TRAIN, view, seeds)
        assert [r.seed for r in results] == list(seeds)
        for result in results:
            assert_equals_reference(result, TINY_TRAIN, view)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_variants(self, tiny_dataset, variant):
        cfg = VARIANTS[variant](TINY_TRAIN)
        view = tiny_dataset.training_view()
        for result in trainer._train_stack(cfg, view, (2, 5, 6)):
            assert_equals_reference(result, cfg, view)

    def test_four_classes_middle_anchors(self):
        view = generate(K4_GEN, 61).training_view()
        for result in trainer._train_stack(K4_TRAIN, view, (1, 2, 3)):
            assert_equals_reference(result, K4_TRAIN, view)

    def test_default_shape(self):
        cfg = TrainConfig(epochs=1)
        view = generate(GenConfig(), 0).training_view()
        for result in trainer._train_stack(cfg, view, (1, 2)):
            assert_equals_reference(result, cfg, view)


@pytest.mark.parametrize("epoch", [0, 1])
def test_epoch_tables_equal_the_per_batch_tables(epoch):
    # One batched call per table over every batch of an epoch's plan: a
    # 3-seed stack on the 4-class cohort, checked batch by batch and seed by
    # seed against the tables one batch's labels give.
    labels = np.asarray(generate(K4_GEN, 61).training_view().labels, dtype=np.int64)
    plan_labels = labels[trainer._plan(K4_TRAIN, labels, (1, 2, 3), epoch)]
    batches, seeds, m = plan_labels.shape
    counts, grouped, seat, ins_target, onehot = label_tables(plan_labels, 4)
    assert ins_target.shape == (batches, seeds, m, m) and onehot.shape == (batches, seeds, m, 4)
    for b in range(batches):
        for row in range(seeds):
            y = plan_labels[b, row]
            assert counts.tolist() == [int(np.sum(y == c)) for c in range(1, 5)]
            assert np.array_equal(ins_target[b, row], rank_rows(label_similarity(y)))
            assert np.array_equal(onehot[b, row], y[:, None] == np.arange(1, 5))
            want = reference_local_prototypes(np.zeros((m, 1)), y, 4)
            assert np.array_equal(grouped[b, row], want.grouped + row * m)
            assert np.array_equal(seat[b, row], want.seat + row * 4)


def test_adam_step_keeps_the_bits_of_the_expressions():
    rng = np.random.default_rng(80)
    for shape in ((7427,), (3, 7427)):
        params = rng.standard_normal(shape)
        ours = AdamState(params.copy(), np.zeros(shape), np.zeros(shape))
        theirs = AdamState(params.copy(), np.zeros(shape), np.zeros(shape))
        for step in range(5):
            grads = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 2)
            adam_step(ours, grads, 2e-4 * 0.95**step)
            reference_adam_step(theirs, grads, 2e-4 * 0.95**step)
            for name in ("params", "m", "v"):
                assert np.array_equal(getattr(ours, name), getattr(theirs, name))


@pytest.fixture
def nan_features(monkeypatch):
    """Make chosen seeds' features NaN at chosen iterations, in any stack.

    ``fail_at`` maps a seed to the iteration its features turn NaN. A
    stack's epoch-0 plan marks a new run: it names the seeds of the stack,
    in row order, and restarts the iteration count.
    """
    fail_at: dict[int, int] = {}
    run = {"seeds": (), "iteration": 0}
    real_plan, real_forward = trainer._plan, trainer.forward

    def plan(config, labels, seeds, epoch):
        if epoch == 0:
            run.update(seeds=tuple(seeds), iteration=0)
        return real_plan(config, labels, seeds, epoch)

    def forward(enc, head, h):
        cache = real_forward(enc, head, h)
        run["iteration"] += 1
        for row, seed in enumerate(run["seeds"]):
            if fail_at.get(seed) == run["iteration"]:
                cache.features[row, 0, 0] = np.nan
        return cache

    monkeypatch.setattr(trainer, "_plan", plan)
    monkeypatch.setattr(trainer, "forward", forward)
    return fail_at


class TestStackErrors:
    @pytest.mark.parametrize(
        "failures, failing_seed",
        [({3: 2, 1: 9}, 1), ({2: 4}, 2), ({3: 3}, 3), ({2: 7, 3: 1}, 2)],
    )
    def test_first_failing_seed_in_seed_order_raises(
        self, tiny_dataset, nan_features, failures, failing_seed
    ):
        view = tiny_dataset.training_view()
        nan_features.update(failures)
        with pytest.raises(TrainingError) as serial:
            train(TINY_TRAIN, view, failing_seed)
        with pytest.raises(TrainingError) as stacked:
            trainer._train_stack(TINY_TRAIN, view, (1, 2, 3))
        assert str(stacked.value) == str(serial.value)
        assert str(stacked.value) == (
            f"iteration {failures[failing_seed]}: features contain NaN or Inf entries"
        )
        assert stacked.value.iteration == serial.value.iteration
        assert isinstance(stacked.value.__cause__, NonFiniteError)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("seeds", [(7,), (2, 7, 5), (7, 1)])
    def test_seed_failing_on_its_own(self, tiny_dataset, variant, seeds):
        # On this cohort seed 7 gives a zero feature row (and so a zero class
        # mean) in its first batch; its stack mates train cleanly.
        cfg = VARIANTS[variant](TINY_TRAIN)
        view = tiny_dataset.training_view()
        with pytest.raises(TrainingError) as serial:
            reference_train(cfg, view, 7)
        with pytest.raises(TrainingError) as stacked:
            trainer._train_stack(cfg, view, seeds)
        assert str(stacked.value) == str(serial.value)
        assert stacked.value.iteration == serial.value.iteration == 1
        assert type(stacked.value.__cause__) is type(serial.value.__cause__)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the expected overflow
    def test_diverging_stack_fails_as_its_first_seed(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(trainer, "_usable_cores", lambda: 1)
        cfg = with_fields(TINY_TRAIN, base_lr=1e300, seeds=(1, 2, 3))
        with pytest.raises(TrainingError) as stacked:
            run_seeds(cfg, tiny_dataset)
        with pytest.raises(TrainingError) as serial:
            train(cfg, tiny_dataset.training_view(), 1)
        assert str(stacked.value) == str(serial.value)
        assert stacked.value.iteration == serial.value.iteration


class TestSweepStacks:
    def test_contiguous_stacks_larger_first(self):
        assert trainer._stacks((1, 2, 3, 4, 5), 2) == [(1, 2, 3), (4, 5)]
        assert trainer._stacks((1, 2, 3), 2) == [(1, 2), (3,)]
        assert trainer._stacks((9, 8, 7), 3) == [(9,), (8,), (7,)]
        assert trainer._stacks((4, 4), 1) == [(4, 4)]

    def test_one_core_stacks_every_seed_in_this_process(self, tiny_dataset, monkeypatch):
        stacks = []
        real_train_stack = trainer._train_stack

        def recording(config, data, seeds):
            stacks.append(seeds)
            return real_train_stack(config, data, seeds)

        def no_pool(*args, **kwargs):
            raise AssertionError("one usable core must not start a pool")

        monkeypatch.setattr(trainer, "_usable_cores", lambda: 1)
        monkeypatch.setattr(trainer, "_train_stack", recording)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = with_fields(TINY_TRAIN, seeds=(1, 2, 3))
        holdout = generate(TINY_GEN, 61)
        sweep = run_seeds(cfg, tiny_dataset, eval_dataset=holdout)
        assert stacks == [(1, 2, 3)]

        view = tiny_dataset.training_view()
        for seed, row, result in zip(cfg.seeds, sweep.summary["per_seed"], sweep.results):
            serial = train(cfg, view, seed)
            assert np.array_equal(result.history.values, serial.history.values)
            assert np.array_equal(result.adam.params, serial.adam.params)
            assert np.array_equal(result.store.anchor_high, serial.store.anchor_high)
            assert row == {"seed": seed, **evaluate_on(serial.encoder, serial.store, holdout)}
