"""The training step: bit identity with the reference loop, error paths, call budget.

``trainer.train`` validates its inputs once and runs the trusting loss and
encoder functions per iteration; ``oracles.reference_train`` spells the same
loop with the per-class loss forms and per-layer gradients. They must agree
bit for bit, and fail the same way.
"""

from __future__ import annotations

import cProfile
import pstats

import numpy as np
import pytest

from kernels import Batch, cross_entropy, hybrid, protos_of
from oracles import (
    reference_cross_entropy_loss,
    reference_hybrid_ordinal_loss,
    reference_local_prototypes,
    reference_train,
)
from ordproto import trainer
from ordproto.data import GenConfig, TrainingSet, generate
from ordproto.errors import DimMismatchError, NonFiniteError, TrainingError, ZeroVectorError
from ordproto.losses import label_tables, local_prototypes
from ordproto.ranking import BlackboxConfig
from ordproto.trainer import TrainConfig, ablation_config, train

TINY_GEN = GenConfig(class_counts=(12, 18, 14), input_dim=6, noise_sigma=0.1)
TINY_TRAIN = TrainConfig(
    input_dim=6, hidden_dims=(8,), feature_dim=4, epochs=2, batch_size=6, seeds=(1, 2)
)

VARIANTS = {
    **{name: lambda cfg, name=name: ablation_config(cfg, name)
       for name in ("ce-only", "ins2ins", "ins2cls", "full")},
    "detach-spread": lambda cfg: TrainConfig(**{**cfg.__dict__, "detach_class_spread": True}),
    "per-epoch-lambda": lambda cfg: TrainConfig(**{**cfg.__dict__, "lambda_per_epoch": True}),
}


@pytest.fixture(scope="module")
def default_view():
    return generate(GenConfig(), 0).training_view()


@pytest.fixture(scope="module")
def tiny_view():
    return generate(TINY_GEN, 60).training_view()


def assert_same_run(result, reference) -> None:
    history, adam, store = reference
    assert np.array_equal(result.history.values, history)
    for name in ("params", "m", "v"):
        assert np.array_equal(getattr(result.adam, name), getattr(adam, name)), name
    assert result.adam.step == adam.step
    assert np.array_equal(result.store.anchor_low, store.anchor_low)
    assert np.array_equal(result.store.anchor_high, store.anchor_high)


def random_batches(seed: int):
    """Shuffled batches of 3 classes with unequal counts, some with a class missing."""
    rng = np.random.default_rng(seed)
    for m, d in ((8, 32), (6, 4), (13, 5)):
        labels = rng.permutation(np.resize([1, 2, 3, 2, 3, 3], m))
        yield Batch(rng.standard_normal((m, d)) * rng.uniform(0.1, 10.0), labels, 3)
    yield Batch(rng.standard_normal((5, 3)), np.array([1, 3, 3, 1, 3]), 3)


class TestKernelsMatchReference:
    def test_local_prototypes(self):
        rng = np.random.default_rng(70)
        absent = 0
        for batch in random_batches(71):
            got = protos_of(batch)
            want = reference_local_prototypes(*batch)
            assert np.array_equal(got.means, want.means)
            assert np.array_equal(got.counts, want.counts)
            assert np.array_equal(got.overall, want.overall)
            assert np.array_equal(got.grouped, want.grouped)
            assert np.array_equal(got.seat, want.seat)
            # A stack of three seeds, each with its own features and its own
            # order of the batch's labels, from one class-grouped gather.
            m, k = batch.size, batch.n_classes
            labels = np.stack([batch.labels, *(rng.permutation(batch.labels) for _ in range(2))])
            feats = np.stack([batch.features, *rng.standard_normal((2, m, batch.dim))])
            counts, grouped, seat, _, _ = label_tables(labels, k)
            stacked = local_prototypes(feats, grouped, seat, counts)
            assert np.array_equal(stacked.counts, want.counts)
            for row in range(3):
                seed_want = reference_local_prototypes(feats[row], labels[row], k)
                assert np.array_equal(stacked.means[row], seed_want.means)
                assert np.array_equal(stacked.overall[row], seed_want.overall)
                assert np.array_equal(stacked.grouped[row], seed_want.grouped + row * m)
                assert np.array_equal(stacked.seat[row], seed_want.seat + row * k)
            # An absent class keeps a zero mean row in every seed.
            assert not stacked.means[:, counts == 0].any()
            absent += int((counts == 0).any())
        assert absent

    @pytest.mark.parametrize("detach", [False, True])
    def test_hybrid_ordinal_loss(self, detach):
        cfg = BlackboxConfig(0.7)
        for batch in random_batches(72):
            full = bool(reference_local_prototypes(*batch).counts.all())
            switches = dict(
                use_ins2ins=True, use_ins2cls=True, use_cls2cls=full, detach_spread=detach
            )
            got = hybrid(batch, cfg, **switches)
            want = reference_hybrid_ordinal_loss(
                batch.features, batch.labels, reference_local_prototypes(*batch), cfg, **switches
            )
            assert got.value == want.value and got.terms == want.terms
            assert np.array_equal(got.feature_grads, want.feature_grads)

    def test_cross_entropy_loss(self):
        rng = np.random.default_rng(73)
        for m, k in ((8, 3), (1, 2), (7, 5)):
            logits = rng.standard_normal((m, k)) * 5.0
            labels = rng.integers(1, k + 1, size=m)
            got = cross_entropy(logits, labels)
            want = reference_cross_entropy_loss(logits, labels)
            assert got.value == want.value
            assert np.array_equal(got.logit_grads, want.logit_grads)


class TestBitIdentity:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_default_shape_two_epochs(self, default_view, variant):
        cfg = VARIANTS[variant](TrainConfig(epochs=2, seeds=(1,)))
        assert_same_run(train(cfg, default_view, 1), reference_train(cfg, default_view, 1))

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_tiny_shape_two_epochs(self, tiny_view, variant):
        cfg = VARIANTS[variant](TINY_TRAIN)
        assert_same_run(train(cfg, tiny_view, 2), reference_train(cfg, tiny_view, 2))


class TestErrorPaths:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_fails_before_the_first_iteration(self, tiny_view, monkeypatch, bad):
        x = tiny_view.x.copy()
        x[5, 2] = bad
        x[9, 0] = bad
        calls = []
        monkeypatch.setattr(trainer, "forward", lambda *args: calls.append(args))
        with pytest.raises(NonFiniteError, match="inputs row 5 "):
            train(TINY_TRAIN, TrainingSet(x, tiny_view.labels), seed=1)
        assert calls == []

    def test_label_count_mismatch_fails_before_the_first_iteration(self, tiny_view):
        short = TrainingSet(tiny_view.x, tiny_view.labels[:-1])
        with pytest.raises(DimMismatchError, match="need one label per input row"):
            train(TINY_TRAIN, short, seed=1)

    def test_non_finite_logits_are_a_training_error(self, tiny_view, monkeypatch):
        # Finite features can still overflow the head; the loop checks the
        # logits before cross entropy uses them.
        real_forward = trainer.forward

        def overflowing(*args):
            cache = real_forward(*args)
            cache.logits[0, 0] = np.inf
            return cache

        monkeypatch.setattr(trainer, "forward", overflowing)
        with pytest.raises(TrainingError) as err:
            train(TINY_TRAIN, tiny_view, seed=1)
        assert str(err.value) == "iteration 1: logits contain NaN or Inf entries"
        assert isinstance(err.value.__cause__, NonFiniteError)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the expected overflow
    @pytest.mark.parametrize("seed", [1, 2])
    def test_diverging_run_keeps_iteration_and_message(self, tiny_view, seed):
        cfg = TrainConfig(**{**TINY_TRAIN.__dict__, "base_lr": 1e300})
        with pytest.raises(TrainingError) as lean:
            train(cfg, tiny_view, seed)
        with pytest.raises(TrainingError) as reference:
            reference_train(cfg, tiny_view, seed)
        assert str(lean.value) == str(reference.value)
        assert lean.value.iteration == reference.value.iteration
        # The text the loop gave before it validated at its boundary.
        assert str(lean.value) == "iteration 2: features contain NaN or Inf entries"
        assert isinstance(lean.value.__cause__, NonFiniteError)

    @pytest.mark.parametrize(
        ("switches", "message"),
        [
            ((False, False, False), "iteration 1: cannot normalize class mean with norm 0.0"),
            ((False, False, True), "iteration 1: class means row 0 has (near-)zero norm"),
            ((True, True, True), "iteration 1: features row 0 has (near-)zero norm"),
        ],
    )
    def test_zero_norm_is_a_training_error(self, tiny_view, switches, message):
        # Zero inputs through zero-bias layers give zero features, so every
        # class mean has norm 0: the EMA step or cls2cls must refuse it.
        i2i, i2c, c2c = switches
        cfg = TrainConfig(
            **{**TINY_TRAIN.__dict__, "use_ins2ins": i2i, "use_ins2cls": i2c, "use_cls2cls": c2c}
        )
        zeros = TrainingSet(np.zeros_like(tiny_view.x), tiny_view.labels)
        with pytest.raises(TrainingError) as lean:
            train(cfg, zeros, seed=1)
        with pytest.raises(TrainingError) as reference:
            reference_train(cfg, zeros, 1)
        assert str(lean.value) == str(reference.value) == message
        assert lean.value.iteration == 1
        assert isinstance(lean.value.__cause__, ZeroVectorError)


def test_call_budget(default_view):
    # cProfile counts every Python-level call, numpy's Python wrappers
    # included. Measured with numpy 2.4.6 on Python 3.11: about 119 calls
    # per iteration for a 1-epoch default run (the loop that re-validated
    # every batch made about 530); the bound, 5% above that, leaves no room
    # for a validating layer or a per-batch label table per iteration. The
    # first run in a process also pays numpy's lazy imports, so one run goes
    # first.
    train(TrainConfig(epochs=1, seeds=(1,)), default_view, 1)
    profile = cProfile.Profile()
    profile.enable()
    result = train(TrainConfig(epochs=1, seeds=(1,)), default_view, 1)
    profile.disable()
    per_iteration = pstats.Stats(profile).total_calls / len(result.history.values)
    assert per_iteration <= 125
