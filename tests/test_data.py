"""Synthetic ordinal cohort generator, batching, folds, and CSV round trips."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import reference_kfold_split
from ordproto.data import (
    NO_FINE_LABEL,
    GenConfig,
    TrainingSet,
    generate,
    kfold_split,
    load_dataset,
    save_dataset,
    stratified_batches,
)
from ordproto.errors import (
    BadConfigError,
    DatasetIOError,
    DatasetParseError,
    DegenerateInputError,
    EmptyInputError,
)
from ordproto.prototypes import PROGRESSIVE, STABLE


class TestGenConfig:
    def test_default_geometry(self):
        cfg = GenConfig()
        assert cfg.bands == [(0.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0), (2.0 / 3.0, 1.0)]
        assert cfg.middle_classes == (2,)
        assert cfg.middle_region == (1.0 / 3.0, 2.0 / 3.0)
        assert cfg.resolved_cut() == pytest.approx(0.5, abs=1e-12)

    def test_four_class_geometry(self):
        cfg = GenConfig(
            n_classes=4, class_counts=(5, 5, 5, 5), band_edges=(0.25, 0.5, 0.75)
        )
        assert cfg.middle_classes == (2, 3)
        assert cfg.middle_region == (0.25, 0.75)
        assert cfg.resolved_cut() == 0.5

    def test_explicit_cut(self):
        cfg = GenConfig(progression_cut=0.4)
        assert cfg.resolved_cut() == 0.4

    def test_validation(self):
        with pytest.raises(BadConfigError):
            GenConfig(n_classes=2, class_counts=(5, 5), band_edges=(0.5,))
        with pytest.raises(BadConfigError):
            GenConfig(class_counts=(5, 5))
        with pytest.raises(BadConfigError):
            GenConfig(class_counts=(5, 0, 5))
        with pytest.raises(BadConfigError):
            GenConfig(input_dim=0)
        with pytest.raises(BadConfigError):
            GenConfig(noise_sigma=-0.1)
        with pytest.raises(BadConfigError):
            GenConfig(band_edges=(0.5, 0.4))
        with pytest.raises(BadConfigError):
            GenConfig(band_edges=(0.0, 0.5))
        with pytest.raises(BadConfigError):
            GenConfig(progression_cut=0.9)  # outside the middle bands
        with pytest.raises(BadConfigError):
            GenConfig(progression_cut=2.0 / 3.0)  # half-open on the right


class TestGenerate:
    def test_shapes_counts_and_band_containment(self):
        cfg = GenConfig()
        ds = generate(cfg, seed=7)
        assert ds.size == 600 and ds.input_dim == 16
        assert ds.seed == 7 and ds.config is cfg
        for cls, (lo, hi), count in zip((1, 2, 3), cfg.bands, cfg.class_counts):
            mask = ds.coarse == cls
            assert int(mask.sum()) == count
            assert np.all((ds.latent_t[mask] >= lo) & (ds.latent_t[mask] < hi))

    def test_deterministic_per_seed(self):
        a, b = generate(GenConfig(), 11), generate(GenConfig(), 11)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.latent_t, b.latent_t)
        assert np.array_equal(a.fine, b.fine)
        c = generate(GenConfig(), 12)
        assert not np.array_equal(a.x, c.x)

    def test_fine_labels_follow_the_cut(self):
        cfg = GenConfig(progression_cut=0.45)
        ds = generate(cfg, seed=3)
        for cls in (1, 3):
            assert np.all(ds.fine[ds.coarse == cls] == NO_FINE_LABEL)
        middle = ds.coarse == 2
        expected = np.where(ds.latent_t[middle] >= 0.45, PROGRESSIVE, STABLE)
        assert np.array_equal(ds.fine[middle].astype(str), expected)
        assert np.array_equal(ds.middle_mask(), middle)

    def test_four_class_middle_spans_two_classes(self):
        cfg = GenConfig(
            n_classes=4, class_counts=(8, 9, 10, 11), band_edges=(0.25, 0.5, 0.75)
        )
        ds = generate(cfg, seed=5)
        assert np.array_equal(ds.middle_mask(), (ds.coarse == 2) | (ds.coarse == 3))
        assert np.all(ds.fine[ds.coarse == 2].astype(str) == STABLE)  # t < 0.5 in band 2
        assert np.all(ds.fine[ds.coarse == 3].astype(str) == PROGRESSIVE)

    def test_noiseless_samples_lie_on_the_curve(self):
        ds = generate(GenConfig(noise_sigma=0.0), seed=9)
        assert np.array_equal(ds.x[:, 0], 1.6 * (ds.latent_t - 0.5))
        assert np.all(np.abs(ds.x[:, 1:]) <= 1.0)
        order = np.argsort(ds.latent_t)
        assert np.all(np.diff(ds.x[order, 0]) >= 0.0)

    def test_noise_perturbs_inputs_but_not_latents(self):
        clean = generate(GenConfig(noise_sigma=0.0), seed=4)
        noisy = generate(GenConfig(noise_sigma=0.15), seed=4)
        assert np.array_equal(clean.latent_t, noisy.latent_t)
        assert not np.array_equal(clean.x, noisy.x)
        # Class-conditional means still separate cleanly along the ramp.
        means = [noisy.x[noisy.coarse == c, 0].mean() for c in (1, 2, 3)]
        assert means[1] - means[0] >= 0.2 and means[2] - means[1] >= 0.2

    def test_views_and_subsets(self):
        ds = generate(GenConfig(), seed=2)
        view = ds.training_view()
        assert isinstance(view, TrainingSet)
        assert view.x is ds.x and np.array_equal(view.labels, ds.coarse)
        assert view.size == 600 and view.input_dim == 16
        assert not hasattr(view, "latent_t") and not hasattr(view, "fine")

        middle = ds.subset(ds.middle_mask())
        assert middle.size == 270 and np.all(middle.coarse == 2)
        picked = ds.subset([5, 0, 2])
        assert np.array_equal(picked.x, ds.x[[5, 0, 2]])
        assert np.array_equal(picked.latent_t, ds.latent_t[[5, 0, 2]])


class TestStratifiedBatches:
    def test_default_cohort_composition(self):
        labels = np.concatenate([np.full(130, 1), np.full(270, 2), np.full(200, 3)])
        batches = stratified_batches(labels, batch_size=8, seed=0, n_classes=3)
        # Largest-remainder slots for counts (130, 270, 200) at size 8 are
        # (2, 3, 3), and the 270-sample class pins the epoch at 90 batches.
        assert len(batches) == 90
        for batch in batches:
            assert batch.size == 8
            got = [int((labels[batch] == c).sum()) for c in (1, 2, 3)]
            assert got == [2, 3, 3]

    def test_appearance_counts_within_one(self):
        labels = np.concatenate([np.full(130, 1), np.full(270, 2), np.full(200, 3)])
        batches = stratified_batches(labels, batch_size=8, seed=1, n_classes=3)
        seen = np.bincount(np.concatenate(batches), minlength=600)
        assert np.all(seen >= 1)
        for c in (1, 2, 3):
            per_class = seen[np.flatnonzero(labels == c)]
            assert per_class.max() - per_class.min() <= 1
        # The limiting class is drawn exactly once per batch slot.
        assert np.all(seen[np.flatnonzero(labels == 2)] == 1)

    def test_floor_bump_then_trim(self):
        # Tiny classes force the at-least-one floor to overshoot the batch
        # size; the trim takes slots back from the most generous class.
        labels = np.concatenate([np.full(1, 1), np.full(1, 2), np.full(98, 3)])
        batches = stratified_batches(labels, batch_size=3, seed=3, n_classes=3)
        assert len(batches) == 98
        for batch in batches:
            assert sorted(labels[batch].tolist()) == [1, 2, 3]

    def test_deterministic_per_seed(self):
        labels = np.concatenate([np.full(9, 1), np.full(14, 2), np.full(11, 3)])
        a = stratified_batches(labels, 6, seed=[5, 2], n_classes=3)
        b = stratified_batches(labels, 6, seed=[5, 2], n_classes=3)
        assert len(a) == len(b)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = stratified_batches(labels, 6, seed=[5, 3], n_classes=3)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_random_cohorts_always_covered(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            counts = rng.integers(1, 41, size=k)
            bs = int(rng.integers(k, 13))
            labels = np.repeat(np.arange(1, k + 1), counts)
            batches = stratified_batches(labels, bs, seed=int(rng.integers(1 << 30)), n_classes=k)
            comps = {tuple(int((labels[b] == c).sum()) for c in range(1, k + 1)) for b in batches}
            assert len(comps) == 1  # fixed slot allocation across the epoch
            slots = comps.pop()
            assert sum(slots) == bs and min(slots) >= 1
            assert len(batches) == max(-(-int(c) // s) for c, s in zip(counts, slots))
            seen = np.bincount(np.concatenate(batches), minlength=labels.size)
            assert np.all(seen >= 1)
            for c in range(1, k + 1):
                per_class = seen[np.flatnonzero(labels == c)]
                assert per_class.max() - per_class.min() <= 1

    def test_validation(self):
        with pytest.raises(EmptyInputError):
            stratified_batches(np.array([], dtype=int), 4, seed=0, n_classes=3)
        with pytest.raises(BadConfigError):
            stratified_batches(np.array([1, 2, 3]), 2, seed=0, n_classes=3)
        with pytest.raises(DegenerateInputError):
            stratified_batches(np.array([1, 1, 3]), 4, seed=0, n_classes=3)


class TestKFold:
    def test_balanced_two_class_split(self):
        labels = np.concatenate([np.full(10, 1), np.full(10, 2)])
        folds = kfold_split(labels, k=5, seed=0)
        assert folds.shape == (20,)
        assert set(folds.tolist()) == {1, 2, 3, 4, 5}
        for f in range(1, 6):
            assert int((folds == f).sum()) == 4
            for c in (1, 2):
                assert int(((folds == f) & (labels == c)).sum()) == 2

    def test_uneven_classes_stay_within_one(self):
        labels = np.concatenate([np.full(7, 1), np.full(5, 2)])
        folds = kfold_split(labels, k=3, seed=1)
        assert np.bincount(folds, minlength=4)[1:].tolist() == [4, 4, 4]
        for c in (1, 2):
            per_fold = [int(((folds == f) & (labels == c)).sum()) for f in (1, 2, 3)]
            assert max(per_fold) - min(per_fold) <= 1

    def test_deterministic(self):
        labels = np.concatenate([np.full(8, 1), np.full(9, 2), np.full(7, 3)])
        assert np.array_equal(kfold_split(labels, 4, seed=2), kfold_split(labels, 4, seed=2))

    def test_validation(self):
        labels = np.concatenate([np.full(4, 1), np.full(2, 2)])
        with pytest.raises(BadConfigError):
            kfold_split(labels, k=1, seed=0)
        with pytest.raises(BadConfigError):
            kfold_split(labels, k=3, seed=0)  # class 2 has only 2 samples
        with pytest.raises(EmptyInputError):
            kfold_split(np.array([], dtype=int), k=2, seed=0)

    def test_matches_the_per_sample_loop(self):
        rng = np.random.default_rng(14)
        label_sets = [
            np.repeat([1, 2, 3], [10, 10, 10]),
            np.repeat([1, 2, 3], [7, 12, 5]),
            rng.permutation(np.repeat([1, 2, 3, 4], [9, 6, 11, 8])),
            rng.permutation(np.repeat([2, 5, 9], [6, 8, 7])),  # gaps, no class 1
            rng.permutation(np.repeat([-1, 0, 3], [5, 6, 5])),
        ]
        for labels in label_sets:
            for k in (2, 3, 5):
                for seed in (0, 1, [7, 3]):
                    got = kfold_split(labels, k, seed)
                    assert np.array_equal(got, reference_kfold_split(labels, k, seed))

    def test_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on first use; crossval's parent process
        # should not pay for it.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from ordproto.data import kfold_split\n"
            "before = 'numpy.ma' in sys.modules\n"
            "kfold_split(np.repeat([1, 2, 3], [7, 9, 5]), 3, 0)\n"
            "print(before, 'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == ["False", "False"]


class TestCsvRoundTrip:
    def test_round_trip_is_exact(self, tmp_path):
        ds = generate(GenConfig(class_counts=(6, 8, 7), input_dim=5), seed=13)
        path = tmp_path / "cohort.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.coarse, ds.coarse)
        assert np.array_equal(back.latent_t, ds.latent_t)
        assert np.array_equal(back.fine.astype(str), ds.fine.astype(str))
        assert back.config is None and back.seed is None
        first = path.read_text().splitlines()[0]
        assert first == "id,coarse_label,fine_label,latent_t," + ",".join(
            f"x{j}" for j in range(5)
        )

    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        header = "id,coarse_label,fine_label,latent_t,x0,x1"
        good = "0,1,,0.25,1.0,2.0"
        cases = [
            ([], 1, "empty"),
            (["id,coarse_label,latent_t,x0"], 1, "missing required column"),
            (["coarse_label,id,fine_label,latent_t,x0"], 1, "must start with"),
            (["id,coarse_label,fine_label,latent_t"], 1, "x0"),
            (["id,coarse_label,fine_label,latent_t,x1,x0"], 1, "in order"),
            ([header], 2, "no samples"),
            ([header, good, "1,2,stable,0.5,3.0"], 3, "fields"),
            ([header, good, "7,2,stable,0.5,3.0,4.0"], 3, "ids must be"),
            ([header, "0,zero,,0.25,1.0,2.0"], 2, "invalid literal"),
            ([header, "0,0,,0.25,1.0,2.0"], 2, ">= 1"),
            ([header, good, "1,2,unknown,0.5,3.0,4.0"], 3, "fine_label"),
            ([header, good, "1,2,stable,nan,3.0,4.0"], 3, "latent_t must be finite"),
            ([header, good, "1,2,stable,0.5,3.0,-inf"], 3, "x1 must be finite"),
            ([header, "0,1,,0.25,NaN,inf"], 2, "x0 must be finite"),
        ]
        for lines, line, fragment in cases:
            with pytest.raises(DatasetParseError) as err:
                load_dataset(self._write(tmp_path, lines))
            assert err.value.line == line
            assert fragment in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetIOError):
            load_dataset(tmp_path / "nope.csv")
