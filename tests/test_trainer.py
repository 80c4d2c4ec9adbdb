"""Training loop: schedules, determinism, seed sweeps, ablations, evaluation."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from kernels import cross_entropy, flat_backward
from oracles import flat_params
from ordproto import trainer
from ordproto.data import GenConfig, TrainingSet, generate, kfold_split, stratified_batches
from ordproto.encoder import adam_step, forward, init_adam, init_params
from ordproto.errors import BadConfigError, EmptyInputError, TrainingError
from ordproto.trainer import (
    HISTORY_COLUMNS,
    METRIC_KEYS,
    TrainConfig,
    _mean_std,
    ablation_config,
    check_data_fits,
    cross_validate,
    evaluate_on,
    run_seeds,
    train,
)

TINY_GEN = GenConfig(class_counts=(12, 18, 14), input_dim=6, noise_sigma=0.1)
TINY_TRAIN = TrainConfig(
    n_classes=3,
    input_dim=6,
    hidden_dims=(8,),
    feature_dim=4,
    epochs=2,
    batch_size=6,
    seeds=(1, 2),
)


def history_columns(history) -> dict:
    """Each HISTORY_COLUMNS column of a history, as a list."""
    return dict(zip(HISTORY_COLUMNS, history.values.T.tolist()))


def config_with(**overrides) -> TrainConfig:
    fields = dict(TINY_TRAIN.__dict__)
    fields.update(overrides)
    return TrainConfig(**fields)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate(TINY_GEN, seed=60)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.dims == [16, 64, 64, 32]
        assert cfg.seeds == (1, 2, 3, 4, 5)
        assert cfg.anchor_classes == (1, 3)
        assert (cfg.lambda_start, cfg.lambda_end) == (0.0, 1.0)

    def test_validation(self):
        for kw in (
            {"n_classes": 1},
            {"feature_dim": 0},
            {"hidden_dims": (8, 0)},
            {"epochs": 0},
            {"batch_size": 0},
            {"ema_sigma": 1.0},
            {"lambda_start": 0.8, "lambda_end": 0.4},
            {"lambda_end": 1.5},
            {"blackbox_lambda": 0.0},
            {"blackbox_lambda": float("inf")},
            {"blackbox_lambda": float("nan")},
            {"seeds": ()},
            {"anchor_classes": (2, 2)},
            {"anchor_classes": (0, 3)},
            {"anchor_classes": (1, 4)},
        ):
            with pytest.raises(BadConfigError):
                TrainConfig(**kw)

    def test_no_hidden_layers_allowed(self):
        cfg = TrainConfig(hidden_dims=())
        assert cfg.dims == [16, 32]

    def test_anchor_default_is_both_ends(self):
        assert TrainConfig(n_classes=4).anchor_classes == (1, 4)
        assert TrainConfig(n_classes=4, anchor_classes=(2, 3)).anchor_classes == (2, 3)

    def test_batch_must_hold_every_class(self):
        with pytest.raises(BadConfigError, match="batch size 2 cannot hold all 3 classes"):
            TrainConfig(batch_size=2)
        assert TrainConfig(n_classes=4, batch_size=4).batch_size == 4


class TestCheckDataFits:
    """The one check of training data against the config, CLI texts in CLI order."""

    @pytest.mark.parametrize(
        "overrides, keep, message",
        [
            ({"input_dim": 7}, None, "config input_dim 7 != data input_dim 6"),
            ({"n_classes": 4}, None, "config classes 4 != data classes 3"),
            ({"n_classes": 2, "anchor_classes": None}, None, "config classes 2 != data classes 3"),
            ({}, 2, "training data must contain every class 1..3, found [1 3]"),
            ({}, 1, "training data must contain every class 1..3, found [2 3]"),
        ],
        ids=["input-dim", "more-classes", "fewer-classes", "no-class-2", "no-class-1"],
    )
    def test_rejects(self, tiny_dataset, overrides, keep, message):
        data = tiny_dataset
        if keep is not None:
            data = data.subset(data.coarse != keep)
        with pytest.raises(BadConfigError) as err:
            check_data_fits(config_with(**overrides), data.training_view())
        assert str(err.value) == message

    def test_labels_below_one_and_empty_labels(self, tiny_dataset):
        view = tiny_dataset.training_view()
        labels = view.labels.copy()
        labels[0] = 0
        with pytest.raises(BadConfigError, match=r"found \[0 1 2 3\]"):
            check_data_fits(TINY_TRAIN, TrainingSet(view.x, labels))
        with pytest.raises(BadConfigError, match="config classes 3 != data classes 0"):
            check_data_fits(TINY_TRAIN, TrainingSet(view.x[:0], view.labels[:0]))

    def test_labels_far_below_one(self, tiny_dataset):
        # A class scan sized by the label range would need 2**62 bins; such
        # a label is a config error, not a crash.
        view = tiny_dataset.training_view()
        labels = view.labels.copy()
        low = labels[3] = -(2**62)
        with pytest.raises(BadConfigError, match=r"every class 1\.\.3, found \[") as err:
            check_data_fits(TINY_TRAIN, TrainingSet(view.x, labels))
        assert str(low) in str(err.value)
        with pytest.raises(BadConfigError):
            train(TINY_TRAIN, TrainingSet(view.x, labels), seed=1)


class TestTrainLoop:
    def test_deterministic_per_seed(self, tiny_dataset):
        view = tiny_dataset.training_view()
        a = train(TINY_TRAIN, view, seed=1)
        b = train(TINY_TRAIN, view, seed=1)
        assert np.array_equal(a.adam.params, b.adam.params)
        assert np.array_equal(flat_params(a.encoder, a.head), a.adam.params)
        assert np.array_equal(a.store.anchor_low, b.store.anchor_low)
        assert np.array_equal(a.store.anchor_high, b.store.anchor_high)
        assert a.history.values.tobytes() == b.history.values.tobytes()
        c = train(TINY_TRAIN, view, seed=2)
        assert not np.array_equal(
            a.encoder.layers[0].weight, c.encoder.layers[0].weight
        )

    def test_history_bookkeeping(self, tiny_dataset):
        result = train(TINY_TRAIN, tiny_dataset.training_view(), seed=1)
        col = history_columns(result.history)
        # counts (12, 18, 14) at batch size 6 give slots (2, 2, 2), so the
        # 18-sample class sets 9 batches per epoch.
        assert len(result.history.values) == 18
        assert col["iteration"] == list(range(1, 19))
        assert col["epoch"] == [0] * 9 + [1] * 9
        lams = col["lambda"]
        assert lams[0] == 0.0 and lams[-1] == 1.0
        assert all(b >= a for a, b in zip(lams, lams[1:]))
        for lr, epoch in zip(col["lr"], col["epoch"]):
            assert lr == pytest.approx(2e-4 * 0.95**epoch, rel=1e-12)
        names = ("loss_total", "loss_ce", "lambda", "loss_i2i", "loss_i2c", "loss_c2c")
        for total, ce, lam, i2i, i2c, c2c in zip(*(col[name] for name in names)):
            assert total == pytest.approx(ce + lam * (i2i + i2c + c2c), rel=1e-9)
            assert i2i >= 0.0 and i2c >= 0.0 and c2c >= 0.0

    def test_lambda_ramps_linearly(self, tiny_dataset):
        # 18 iterations: lambda goes from lambda_start to lambda_end in 17 equal steps.
        cfg = config_with(lambda_start=0.2, lambda_end=0.6)
        col = history_columns(train(cfg, tiny_dataset.training_view(), seed=1).history)
        assert col["lambda"] == [0.2 + (0.6 - 0.2) * (i / 17) for i in range(18)]
        assert col["lambda"][0] == 0.2 and col["lambda"][-1] == pytest.approx(0.6, abs=1e-15)

    def test_learning_rate_decays_per_epoch(self, tiny_dataset):
        cfg = ablation_config(config_with(epochs=15), "ce-only")
        col = history_columns(train(cfg, tiny_dataset.training_view(), seed=1).history)
        assert col["lr"] == [2e-4 * 0.95 ** int(epoch) for epoch in col["epoch"]]
        assert col["lr"][-1] == pytest.approx(9.7535e-5, rel=1e-4)

    def test_per_epoch_lambda_ramp(self, tiny_dataset):
        cfg = config_with(lambda_per_epoch=True, epochs=3)
        result = train(cfg, tiny_dataset.training_view(), seed=1)
        by_epoch = {}
        col = history_columns(result.history)
        for epoch, lam in zip(col["epoch"], col["lambda"]):
            by_epoch.setdefault(epoch, set()).add(lam)
        assert by_epoch[0] == {0.0}
        assert by_epoch[1] == {0.5}
        assert by_epoch[2] == {1.0}

    def test_ce_only_run_matches_plain_ce_loop(self, tiny_dataset):
        # With all structural terms switched off the loop must reduce to
        # ordinary cross-entropy training; an independently written loop
        # over the same batch plan reproduces it parameter-for-parameter.
        cfg = ablation_config(TINY_TRAIN, "ce-only")
        view = tiny_dataset.training_view()
        result = train(cfg, view, seed=3)

        enc, head = init_params(cfg.dims, cfg.n_classes, seed=3)
        adam = init_adam(
            enc,
            head,
            beta1=cfg.adam_beta1,
            beta2=cfg.adam_beta2,
            epsilon=cfg.adam_epsilon,
        )
        for epoch in range(cfg.epochs):
            for idx in stratified_batches(view.labels, cfg.batch_size, [3, epoch], 3):
                cache = forward(enc, head, view.x[idx])
                ce = cross_entropy(cache.logits, view.labels[idx])
                grads = flat_backward(enc, head, cache, d_logits=ce.logit_grads)
                adam_step(adam, grads, cfg.base_lr * cfg.lr_decay**epoch)

        assert np.array_equal(flat_params(result.encoder, result.head), flat_params(enc, head))
        col = history_columns(result.history)
        assert col["loss_total"] == col["loss_ce"]
        for name in ("loss_i2i", "loss_i2c", "loss_c2c"):
            assert col[name] == [0.0] * len(col[name])

    def test_classification_loss_improves(self, tiny_dataset):
        # Judged on the ce-only variant: with the structural ramp active the
        # late-epoch objective deliberately trades cross entropy away.
        cfg = ablation_config(config_with(epochs=8, base_lr=2e-3), "ce-only")
        result = train(cfg, tiny_dataset.training_view(), seed=1)
        loss_ce = history_columns(result.history)["loss_ce"]
        first = np.mean(loss_ce[:9])
        last = np.mean(loss_ce[-9:])
        assert last < first

    def test_store_tracks_feature_geometry(self, tiny_dataset):
        result = train(TINY_TRAIN, tiny_dataset.training_view(), seed=1)
        assert result.store.dim == 4
        assert float(np.linalg.norm(result.store.anchor_low)) > 1e-6
        assert float(np.linalg.norm(result.store.anchor_high)) > 1e-6

    def test_input_validation(self, tiny_dataset):
        view = tiny_dataset.training_view()
        with pytest.raises(BadConfigError):
            train(config_with(input_dim=7), view, seed=1)
        missing = tiny_dataset.subset(tiny_dataset.coarse != 2).training_view()
        with pytest.raises(BadConfigError):
            train(TINY_TRAIN, missing, seed=1)

    def test_history_csv(self, tiny_dataset, tmp_path):
        result = train(TINY_TRAIN, tiny_dataset.training_view(), seed=1)
        path = tmp_path / "history.csv"
        result.history.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(HISTORY_COLUMNS)
        assert len(lines) == 1 + len(result.history.values)
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"
        assert float(first[4]) == history_columns(result.history)["loss_total"][0]


class TestEvaluateOn:
    def test_metric_keys_and_ranges(self, tiny_dataset):
        result = train(TINY_TRAIN, tiny_dataset.training_view(), seed=1)
        metrics = evaluate_on(result.encoder, result.store, tiny_dataset)
        for key in METRIC_KEYS:
            assert key in metrics
        for key in ("acc", "auc", "f1", "precision", "recall"):
            assert 0.0 <= metrics[key] <= 1.0
        assert -1.0 <= metrics["spearman_ordinality"] <= 1.0
        assert metrics["n_pos"] + metrics["n_neg"] == 18

    def test_requires_middle_samples(self, tiny_dataset):
        result = train(TINY_TRAIN, tiny_dataset.training_view(), seed=1)
        ends_only = tiny_dataset.subset(~tiny_dataset.middle_mask())
        with pytest.raises(EmptyInputError):
            evaluate_on(result.encoder, result.store, ends_only)


class TestRunSeeds:
    def test_summary_shape(self, tiny_dataset):
        sweep = run_seeds(TINY_TRAIN, tiny_dataset)
        rows = sweep.summary["per_seed"]
        assert [r["seed"] for r in rows] == [1, 2]
        assert len(sweep.results) == 2
        assert sweep.results[0].seed == 1
        for key in METRIC_KEYS:
            vals = [r[key] for r in rows]
            assert sweep.summary["mean"][key] == pytest.approx(np.mean(vals), abs=1e-12)
            assert sweep.summary["std"][key] == pytest.approx(
                np.std(vals, ddof=1), abs=1e-12
            )

    def test_single_seed_reports_zero_std(self, tiny_dataset):
        sweep = run_seeds(config_with(seeds=(4,)), tiny_dataset)
        assert all(v == 0.0 for v in sweep.summary["std"].values())

    def test_duplicate_seeds_collapse_spread(self, tiny_dataset):
        sweep = run_seeds(config_with(seeds=(1, 1)), tiny_dataset)
        rows = sweep.summary["per_seed"]
        for key in METRIC_KEYS:
            assert rows[0][key] == rows[1][key]
            assert sweep.summary["std"][key] == 0.0

    def test_separate_eval_dataset(self, tiny_dataset):
        holdout = generate(TINY_GEN, seed=61)
        sweep = run_seeds(config_with(seeds=(1,)), tiny_dataset, eval_dataset=holdout)
        direct = train(TINY_TRAIN, tiny_dataset.training_view(), seed=1)
        expected = evaluate_on(direct.encoder, direct.store, holdout)
        row = sweep.summary["per_seed"][0]
        for key in METRIC_KEYS:
            assert row[key] == expected[key]


def assert_same_run(a, b):
    assert np.array_equal(a.history.values, b.history.values)
    assert np.array_equal(flat_params(a.encoder, a.head), flat_params(b.encoder, b.head))
    for name in ("params", "m", "v"):
        assert np.array_equal(getattr(a.adam, name), getattr(b.adam, name))
    assert a.adam.step == b.adam.step
    assert np.array_equal(a.store.anchor_low, b.store.anchor_low)
    assert np.array_equal(a.store.anchor_high, b.store.anchor_high)
    assert a.seed == b.seed


class TestSeedPool:
    """The pooled sweeps return exactly what a plain serial loop returns."""

    @pytest.fixture
    def two_cores(self, monkeypatch):
        # Forces the pool path even on a one-core runner.
        monkeypatch.setattr(trainer, "_usable_cores", lambda: 2)

    def test_run_seeds_equals_serial_loop(self, tiny_dataset, two_cores):
        cfg = config_with(seeds=(1, 2, 3))
        holdout = generate(TINY_GEN, seed=61)
        sweep = run_seeds(cfg, tiny_dataset, eval_dataset=holdout)

        view = tiny_dataset.training_view()
        results = [train(cfg, view, seed) for seed in cfg.seeds]
        rows = [
            {"seed": r.seed, **evaluate_on(r.encoder, r.store, holdout)} for r in results
        ]
        mean, std = _mean_std(rows)
        assert sweep.summary == {"per_seed": rows, "mean": mean, "std": std}
        for pooled, serial in zip(sweep.results, results, strict=True):
            assert_same_run(pooled, serial)

    def test_cross_validate_equals_serial_loop(self, tiny_dataset, two_cores):
        cfg = config_with(seeds=(5,))
        out = cross_validate(cfg, tiny_dataset, k=2)

        folds = kfold_split(tiny_dataset.coarse, 2, 5)
        rows = []
        for f in (1, 2):
            result = train(cfg, tiny_dataset.subset(folds != f).training_view(), 5)
            metrics = evaluate_on(result.encoder, result.store, tiny_dataset.subset(folds == f))
            rows.append({"fold": f, **metrics})
        mean, std = _mean_std(rows)
        assert out == {"folds": rows, "mean": mean, "std": std}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the expected overflow
    def test_first_failing_seed_raises(self, tiny_dataset, two_cores):
        # The worker's error crosses with its type, message and iteration.
        cfg = config_with(base_lr=1e300)
        with pytest.raises(TrainingError) as pooled:
            run_seeds(cfg, tiny_dataset)
        with pytest.raises(TrainingError) as serial:
            train(cfg, tiny_dataset.training_view(), seed=1)
        assert str(pooled.value) == str(serial.value)
        assert pooled.value.iteration == serial.value.iteration

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
    )
    def test_worker_count_is_bounded(self, tiny_dataset, monkeypatch):
        import concurrent.futures

        seen = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(trainer, "_usable_cores", lambda: 2)
        run_seeds(config_with(seeds=(1, 2, 3)), tiny_dataset)
        monkeypatch.setattr(trainer, "_usable_cores", lambda: 8)
        run_seeds(config_with(seeds=(1, 2, 3)), tiny_dataset)
        run_seeds(config_with(seeds=(1,)), tiny_dataset)
        assert seen == [2, 3]


class TestCrossValidate:
    def test_fold_structure(self, tiny_dataset):
        out = cross_validate(config_with(seeds=(1,)), tiny_dataset, k=2)
        assert [r["fold"] for r in out["folds"]] == [1, 2]
        for key in METRIC_KEYS:
            vals = [r[key] for r in out["folds"]]
            assert out["mean"][key] == pytest.approx(np.mean(vals), abs=1e-12)


class TestAblationConfig:
    def test_variant_switches(self):
        base = TrainConfig()
        expected = {
            "ce-only": (False, False, False),
            "ins2ins": (True, False, False),
            "ins2cls": (True, True, False),
            "full": (True, True, True),
        }
        for name, (i2i, i2c, c2c) in expected.items():
            cfg = ablation_config(base, name)
            assert (cfg.use_ins2ins, cfg.use_ins2cls, cfg.use_cls2cls) == (i2i, i2c, c2c)
            assert cfg.epochs == base.epochs

    def test_unknown_variant(self):
        with pytest.raises(BadConfigError):
            ablation_config(TrainConfig(), "everything")
