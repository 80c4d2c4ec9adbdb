"""Synthetic ordinal cohort generator, batching, folds, and CSV round trips."""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    reference_kfold_split,
    reference_load_dataset,
    reference_stratified_batches,
)
from ordproto import _files, data
from ordproto.data import (
    NO_FINE_LABEL,
    GenConfig,
    TrainingSet,
    classes_present,
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
    EmptyInputError,
    OrdprotoError,
)
from ordproto.prototypes import PROGRESSIVE, STABLE
from test_files import _no_child_left


class TestGenConfig:
    def test_default_geometry(self):
        cfg = GenConfig()
        assert cfg.bands == [(0.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0), (2.0 / 3.0, 1.0)]
        assert cfg.middle_region == (1.0 / 3.0, 2.0 / 3.0)
        assert cfg.resolved_cut() == pytest.approx(0.5, abs=1e-12)

    def test_four_class_geometry(self):
        cfg = GenConfig(
            n_classes=4, class_counts=(5, 5, 5, 5), band_edges=(0.25, 0.5, 0.75)
        )
        assert cfg.middle_region == (0.25, 0.75)
        assert cfg.resolved_cut() == 0.5

    def test_explicit_cut(self):
        cfg = GenConfig(progression_cut=0.4)
        assert cfg.resolved_cut() == 0.4

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"class_counts": (10.5, 20, 30)}, "class_counts must hold integers"),
            ({"class_counts": (10, True, 30)}, "class_counts must hold integers"),
            ({"input_dim": 2.5}, "input_dim must be an integer, got 2.5"),
            ({"n_classes": "3"}, "n_classes must be an integer, got '3'"),
            ({"n_classes": 3.0}, "n_classes must be an integer, got 3.0"),
            ({"noise_sigma": "0.1"}, "noise_sigma must be a real number"),
            ({"noise_sigma": True}, "noise_sigma must be a real number"),
            ({"progression_cut": "0.5"}, "progression_cut must be a real number"),
            ({"band_edges": ("0.3", "0.6")}, "band_edges must hold real numbers"),
            ({"band_edges": 0.5}, "band_edges must hold real numbers"),
        ],
    )
    def test_wrongly_typed_fields_are_refused(self, kw, message):
        with pytest.raises(BadConfigError, match=f"^{message}"):
            GenConfig(**kw)

    def test_numpy_numbers_are_taken_as_python_numbers(self):
        cfg = GenConfig(class_counts=np.array([5, 6, 7]), band_edges=np.array([0.25, 0.5]))
        assert cfg.class_counts == (5, 6, 7) and cfg.band_edges == (0.25, 0.5)
        assert all(type(v) is int for v in cfg.class_counts)
        assert all(type(v) is float for v in cfg.band_edges)

    def test_validation(self):
        with pytest.raises(BadConfigError):
            GenConfig(n_classes=2, class_counts=(5, 5), band_edges=(0.5,))
        with pytest.raises(BadConfigError):
            GenConfig(class_counts=(5, 5))
        with pytest.raises(BadConfigError):
            GenConfig(class_counts=(5, 0, 5))
        with pytest.raises(BadConfigError):
            GenConfig(input_dim=0)
        for sigma in (-0.1, math.nan, math.inf):
            with pytest.raises(BadConfigError, match="noise_sigma must be finite and >= 0"):
                GenConfig(noise_sigma=sigma)
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

    @pytest.mark.parametrize(
        "cfg",
        [
            GenConfig(class_counts=(2000, 3000, 3000)),
            GenConfig(n_classes=4, class_counts=(40, 50, 60, 30), band_edges=(0.25, 0.5, 0.75)),
            GenConfig(
                n_classes=4,
                class_counts=(40, 50, 60, 30),
                band_edges=(0.25, 0.5, 0.75),
                progression_cut=0.4,
            ),
        ],
        ids=["8000-rows", "four-class", "four-class-cut-inside-band-2"],
    )
    def test_fine_labels_equal_the_per_row_comprehension(self, cfg):
        ds = generate(cfg, seed=21)
        cut, middle = cfg.resolved_cut(), set(range(2, cfg.n_classes))
        want = [
            (PROGRESSIVE if ti >= cut else STABLE) if ci in middle else NO_FINE_LABEL
            for ci, ti in zip(ds.coarse, ds.latent_t)
        ]
        assert ds.fine.dtype == object and ds.fine.shape == (len(want),)
        assert ds.fine.tolist() == want
        assert {type(f) for f in ds.fine.tolist()} == {str}

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

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_noise_that_overflows_is_config_error(self, action):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(BadConfigError) as err:
                generate(GenConfig(noise_sigma=1e308), 3)
            # Noise that is large but finite still gives a cohort.
            assert np.isfinite(generate(GenConfig(noise_sigma=1e300), 3).x).all()
        assert str(err.value) == "noise_sigma must keep the generated inputs finite, got 1e+308"

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

    def test_matches_the_per_class_walk(self):
        # Slot arithmetic must make the walk's generator calls in the walk's
        # order, so every batch of every epoch is the same.
        rng = np.random.default_rng(41)
        label_sets = [
            (np.repeat([1, 2, 3], [130, 270, 200]), 3),
            (np.repeat([1, 2, 3], [12, 18, 14]), 3),
            (rng.permutation(np.repeat([1, 2, 3], [1, 1, 98])), 3),
            (rng.permutation(np.repeat([1, 2, 3, 4], [9, 14, 12, 10])), 4),
            (rng.permutation(np.repeat([1, 2], [2, 3])), 2),  # pools wrap within a batch
        ]
        for labels, k in label_sets:
            for batch_size in (3, 8, 13):
                if batch_size < k:
                    continue
                for seed in range(20):
                    key = [seed, seed % 3]
                    got = stratified_batches(labels, batch_size, key, k)
                    want = reference_stratified_batches(labels, batch_size, key, k)
                    assert got.shape == (len(want), batch_size)
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))


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

    def test_labels_far_apart(self):
        # Sizing anything by the label range would need 2**62 bins here.
        labels = np.array([1] * 5 + [2**62] * 5)
        folds = kfold_split(labels, 2, 0)
        assert np.array_equal(folds, reference_kfold_split(labels, 2, 0))
        assert np.bincount(folds).tolist() == [0, 5, 5]

    def test_classes_present_is_unique(self):
        rng = np.random.default_rng(15)
        extremes = np.array([-(2**62), -(10**9), 2**62, 2**63 - 1, -(2**63)])
        for size in (1, 2, 7, 40):
            labels = rng.choice(np.concatenate([extremes, np.arange(-3, 4)]), size=size)
            assert np.array_equal(classes_present(labels), np.unique(labels))
        assert classes_present(np.array([], dtype=np.int64)).size == 0

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
        first = path.read_text().splitlines()[0]
        assert first == "id,coarse_label,fine_label,latent_t," + ",".join(
            f"x{j}" for j in range(5)
        )

    @pytest.mark.parametrize(
        "column, value, message",
        [
            *[
                pytest.param("fine", v, "fine_label of row 5 must be '', 'stable' or", id=str(v))
                for v in ("a,b", "Stable", None, 1.0)
            ],
            pytest.param("x", np.nan, "x3 of row 5 must be finite, got nan", id="nan-x"),
            pytest.param(
                "latent_t", np.inf, "latent_t of row 5 must be finite, got inf", id="inf-latent-t"
            ),
            pytest.param("coarse", 0, "coarse_label of row 5 must be >= 1, got 0", id="coarse-0"),
            pytest.param(
                "coarse+x", (0, np.nan), "coarse_label of row 5 must be >= 1, got 0",
                id="coarse-0-and-nan-x",
            ),
            pytest.param(
                "coarse", 2.0, "coarse_label must hold integers, got dtype float64", id="float-coarse"
            ),
            # A function replaces the whole column with what it returns.
            *[
                pytest.param(
                    column,
                    lambda v: v[:-1],
                    r"coarse_label, fine_label and latent_t must have shape \(\d+,\) as x has",
                    id=f"short-{column}",
                )
                for column in ("x", "coarse", "fine", "latent_t")
            ],
            pytest.param(
                "latent_t", lambda t: t[:, None], "coarse_label, fine_label and", id="2-d-latent-t"
            ),
            pytest.param(
                "x", lambda x: x[:, 0], r"x must be a 2-D float array, got shape \(10,\)", id="1-d-x"
            ),
            pytest.param(
                "x",
                lambda x: x.astype(np.int64),
                r"x must be a 2-D float array, got shape \(10, 16\) dtype int64",
                id="int-x",
            ),
            pytest.param(
                "latent_t",
                lambda t: t.astype(str),
                "latent_t must hold floats, got dtype <U",
                id="str-latent-t",
            ),
        ],
    )
    def test_unwritable_fine_label_is_refused_before_any_write(
        self, tmp_path, column, value, message
    ):
        # Any value load_dataset would refuse, not only a fine label, and any
        # column of the wrong shape or kind. Rows 5 and 7 are edited (in x,
        # column x3); the first is named. A value of another type retypes its
        # column: 2.0 makes the coarse labels floats. "a+b" edits two columns,
        # one value each.
        ds = generate(GenConfig(class_counts=(3, 4, 3)), seed=2)
        edits = {}
        for name, v in zip(column.split("+"), value if "+" in column else [value]):
            values = getattr(ds, name)
            if callable(v):
                values = v(values)
            else:
                values = values.astype(np.result_type(values, np.asarray(v)))
                values[([5, 7], 3) if name == "x" else [5, 7]] = v
            edits[name] = values
        with pytest.raises(BadConfigError, match=f"^{message}"):
            save_dataset(replace(ds, **edits), tmp_path / "cohort.csv")
        assert list(tmp_path.iterdir()) == []

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
            ([header, good, "1,99999999999999999999,,0.5,3.0,4.0"], 3, "fit in int64"),
            ([header, good, "1,-99999999999999999999,,0.5,3.0,4.0"], 3, "fit in int64"),
            ([header, good, "1,2,unknown,0.5,3.0,4.0"], 3, "fine_label"),
            ([header, good, "1,2,stable,nan,3.0,4.0"], 3, "latent_t must be finite"),
            ([header, good, "1,2,stable,0.5,3.0,-inf"], 3, "x1 must be finite"),
            ([header, "0,1,,0.25,NaN,inf"], 2, "x0 must be finite"),
            # Fields over csv's 131072-character limit; the quote keeps the body on the csv path.
            ([header[:-2] + f'"x1{"0" * 200_000}"'], 1, "field larger than field limit"),
            ([header, good, f'1,2,"",0.5,3.0,{"4" * 200_000}'], 3, "field larger than field limit"),
            ([header, "0,0,,0.25,1.0,2.0", f'1,2,"",0.5,3.0,{"4" * 200_000}'], 2, ">= 1"),
        ]
        for lines, line, fragment in cases:
            with pytest.raises(DatasetParseError) as err:
                load_dataset(self._write(tmp_path, lines))
            assert err.value.line == line
            assert fragment in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetIOError):
            load_dataset(tmp_path / "nope.csv")


def _saved_text(tmp_path, ds) -> str:
    path = tmp_path / "saved.csv"
    save_dataset(ds, path)
    return path.read_text()


@pytest.fixture(scope="module")
def saved_texts(tmp_path_factory):
    """save_dataset's text at input widths 1 and 16, of one row and of 70 rows."""
    tmp = tmp_path_factory.mktemp("saved")
    rng = np.random.default_rng(19)
    texts = {}
    for dim in (1, 16):
        ds = generate(GenConfig(class_counts=(20, 30, 20), input_dim=dim), seed=dim)
        for rows in (1, ds.size):
            texts[dim, rows] = _saved_text(tmp, ds.subset(rng.permutation(ds.size)[:rows]))
    return texts


HEADER = "id,coarse_label,fine_label,latent_t,x0,x1"
ROWS = (
    "0,1,,0.25,1.0,2.0",
    "1,2,stable,0.5,3.0,-4e-3",
    "2,2,progressive,0.625,5.5,6.0",
    "3,3,,0.875,7.0,8.0",
)


def _csv(*rows) -> str:
    return "\n".join([HEADER, *rows]) + "\n"


def _with(i: int, row: str) -> str:
    """The ROWS file with row i replaced."""
    return _csv(*ROWS[:i], row, *ROWS[i + 1 :])


def _set_field(text: str, line: int, column: int, value: str) -> str:
    """``text`` with one comma-separated field replaced; the header is line 0."""
    lines = text.split("\n")
    fields = lines[line].split(",")
    fields[column] = value
    lines[line] = ",".join(fields)
    return "\n".join(lines)


_PLAIN_ROWS = [f"{i},1,,0.5,1.0,2.0" for i in range(200)]

# name -> file text, or a function of the saved_texts fixture giving it.
CORPUS = {
    "saved-d1-one-row": lambda saved: saved[1, 1],
    "saved-d1-many-rows": lambda saved: saved[1, 70],
    "saved-d16-one-row": lambda saved: saved[16, 1],
    "saved-d16-many-rows": lambda saved: saved[16, 70],
    "crlf": lambda saved: saved[16, 70].replace("\n", "\r\n"),
    "lone-cr": lambda saved: saved[16, 70].replace("\n", "\r"),
    "lone-cr-in-a-field": _with(1, "1,2,stable,0.5\r,3.0,4.0"),
    "no-final-newline": lambda saved: saved[16, 70][:-1],
    # The quote, NUL and CR checks join a block of lines at a time; each of
    # these faults sits in the second block only.
    "quote-past-the-first-block": _csv(*_PLAIN_ROWS, '200,2,"stable",0.5,1.0,2.0'),
    "nul-past-the-first-block": _csv(*_PLAIN_ROWS, "200,2,stable\x00,0.5,1.0,2.0"),
    "lone-cr-past-the-first-block": _csv(*_PLAIN_ROWS, "200,2,stable,0.5\r,1.0,2.0"),
    "plain": _csv(*ROWS),
    "blank-line-in-the-middle": _csv(ROWS[0], "", *ROWS[1:]),
    "blank-line-at-the-end": _csv(*ROWS) + "\n",
    "whitespace-line": _csv(ROWS[0], "   ", *ROWS[1:]),
    "hash-prefixed-row": _with(2, "#" + ROWS[2]),
    "quoted-fields": _csv('"0","1","","0.25","1.0","2.0"', '1,"2","stable",0.5,3.0,4.0'),
    "quoted-comma": _with(1, '1,2,"stable,x",0.5,3.0,4.0'),
    "quoted-newline": _with(1, '1,2,"sta\nble",0.5,3.0,4.0'),
    "quoted-header": _csv(*ROWS).replace("fine_label", '"fine_label"', 1),
    "spaces-around-numbers": _csv(" 0 , 1 ,, 0.25 , 1.0 ,2.0 ", *ROWS[1:]),
    "space-before-fine-label": _with(1, "1,2, stable,0.5,3.0,4.0"),
    "tab-after-fine-label": _with(1, "1,2,stable\t,0.5,3.0,4.0"),
    "form-feed-and-nbsp-around-floats": _with(1, "1,2,stable,0.5\x0c,\xa03.0,4.0"),
    "nul-fine-label": _with(0, "0,1,\x00,0.25,1.0,2.0"),
    "trailing-nul-fine-label": _with(1, "1,2,stable\x00,0.5,3.0,4.0"),
    "long-fine-label": _with(2, "2,2,progressiveXYZ,0.625,5.5,6.0"),
    "float-id": _with(1, "1.0,2,stable,0.5,3.0,4.0"),
    "float-coarse-label": _with(1, "1,2.0,stable,0.5,3.0,4.0"),
    "plus-signs": _with(1, "+1,+2,stable,+0.5,+3.0,4.0"),
    "leading-zeros": _with(1, "01,002,stable,00.5,3.0,4.0"),
    "underscore-id": _csv(*(f"{i},1,,0.5,1.0,2.0" for i in range(10)), "1_0,2,stable,0.5,1.0,2.0"),
    "underscore-float": _with(1, "1,2,stable,0.2_5,3.0,4.0"),
    "non-ascii-digits": _with(1, "\u0661,\u0662,stable,\u0660.\u0665,3.0,4.0"),
    "long-float-literal": _with(1, "1,2,stable,0.1000000000000000055511151231257827021181583404541015625,3.0,4.0"),
    "trailing-comma": _with(1, "1,2,stable,0.5,3.0,4.0,"),
    "too-few-fields": _with(1, "1,2,stable,0.5,3.0"),
    "empty-id": _with(1, ",2,stable,0.5,3.0,4.0"),
    "empty-latent": _with(1, "1,2,stable,,3.0,4.0"),
    "empty-feature": _with(3, "3,3,,0.875,7.0,"),
    "ids-out-of-order": _csv(ROWS[1], ROWS[0], *ROWS[2:]),
    "id-outside-int64": _with(1, "99999999999999999999,2,stable,0.5,3.0,4.0"),
    "zero-coarse-label": _with(1, "1,0,stable,0.5,3.0,4.0"),
    # loadtxt parses this file, both halves of it on the split path.
    "zero-coarse-label-in-a-saved-file": lambda saved: _set_field(saved[16, 70], 61, 1, "0"),
    "nan-latent": _with(2, "2,2,progressive,nan,5.5,6.0"),
    "overflowing-feature": _with(2, "2,2,progressive,0.625,5.5,1e400"),
    # Two faults: the first in line order wins, but a non-finite value only
    # once every line has parsed.
    "bad-fine-label-before-field-count": _csv(
        ROWS[0], "1,2,unknown,0.5,3.0,4.0", "2,2,progressive,0.625,5.5", ROWS[3]
    ),
    "nan-before-syntax-error": _csv(
        ROWS[0], "1,2,stable,nan,3.0,4.0", "2,2,progressive,0.625,5.5,x", ROWS[3]
    ),
    "header-only": HEADER + "\n",
    "header-only-no-newline": HEADER,
    "empty-file": "",
    "bom": "\ufeff" + _csv(*ROWS),
    "not-utf8": _csv(*ROWS).encode() + b"\xff\n",
}


def _load(loader, path):
    try:
        return loader(path)
    except OrdprotoError as exc:
        return exc


def _force_split(monkeypatch):
    """Make every body of two or more lines parse in two processes, on any host."""
    monkeypatch.setattr(_files, "_usable_cores", lambda: 2)
    monkeypatch.setattr(_files, "CSV_SPLIT_CELLS", 1)


class TestLoadParity:
    """load_dataset against the per-row loader it replaced, file by file."""

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_matches_the_per_row_loader(self, tmp_path, saved_texts, monkeypatch, name):
        content = CORPUS[name]
        if callable(content):
            content = content(saved_texts)
        path = tmp_path / "corpus.csv"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        want = _load(reference_load_dataset, path)
        for split in (False, True):  # these files are small: one loadtxt call, then two
            if split:
                _force_split(monkeypatch)
            got = _load(load_dataset, path)
            if isinstance(want, Exception):
                assert type(got) is type(want)
                assert (got.line, str(got)) == (want.line, str(want))
                continue
            for field in ("x", "coarse", "latent_t"):
                g, w = getattr(got, field), getattr(want, field)
                assert g.dtype == w.dtype and g.shape == w.shape, field
                assert g.flags.c_contiguous, field
                assert g.tobytes() == w.tobytes(), field
            assert got.fine.dtype == object
            assert all(type(v) is str for v in got.fine)
            assert got.fine.tolist() == want.fine.tolist()
        assert _no_child_left()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_saved_file_takes_the_bulk_path(self, tmp_path, monkeypatch, newline, final_newline):
        ds = generate(GenConfig(class_counts=(6, 8, 7), input_dim=5), seed=13)
        text = _saved_text(tmp_path, ds).replace("\n", newline)
        path = tmp_path / "cohort.csv"
        path.write_bytes((text if final_newline else text.rstrip()).encode())

        def refuse(*args):
            raise AssertionError("the per-row parse ran")

        monkeypatch.setattr(data, "_row_columns", refuse)
        for split in (False, True):
            if split:
                _force_split(monkeypatch)
            back = load_dataset(path)
            assert back.x.dtype == np.float64 and back.x.flags.c_contiguous
            assert np.array_equal(back.x, ds.x)
            assert np.array_equal(back.coarse, ds.coarse)
            assert np.array_equal(back.latent_t, ds.latent_t)
            assert back.fine.tolist() == ds.fine.tolist()

    def test_a_loadtxt_warning_leaves_the_file_to_the_per_row_loop(self, tmp_path, monkeypatch):
        # numpy versions before the float-to-int coercion was removed read
        # "1.0" into an integer column and only warn.
        path = tmp_path / "float-id.csv"
        path.write_text(_with(1, "1.0,2,stable,0.5,3.0,4.0"))
        loadtxt = np.loadtxt

        def lenient(lines, **kwargs):
            warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
            return loadtxt(["1" + ln[3:] if ln.startswith("1.0,") else ln for ln in lines], **kwargs)

        monkeypatch.setattr(np, "loadtxt", lenient)
        with pytest.raises(DatasetParseError, match="line 3: invalid literal for int"):
            load_dataset(path)


def _record_parses(monkeypatch, log: Path, fail=lambda start, stop: False) -> None:
    """Make ``data._parse`` append each line range it parses, in either process, to ``log``.

    Where ``fail(start, stop)`` holds, the parse raises ``ValueError`` as
    ``loadtxt`` does on a bad field.
    """
    parse = data._parse

    def recorded(lines, start, stop, row):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{start} {stop}\n")
        if fail(start, stop):
            raise ValueError(f"lines {start}-{stop} failed")
        return parse(lines, start, stop, row)

    monkeypatch.setattr(data, "_parse", recorded)


def _ranges(log: Path) -> list[tuple[int, int]]:
    ranges = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
    log.unlink()
    return ranges


@pytest.fixture(scope="module")
def cohort_file(tmp_path_factory):
    """The 8,000-row cohort of the benchmark's shape, saved."""
    path = tmp_path_factory.mktemp("cohort") / "cohort.csv"
    save_dataset(generate(GenConfig(class_counts=(2000, 4000, 2000)), seed=5), path)
    return path


def _fields(ds) -> list:
    return [ds.x.tobytes(), ds.coarse.tobytes(), ds.latent_t.tobytes(), ds.fine.tolist()]


class TestSplitLoad:
    """A large body is parsed in two processes, to the same arrays."""

    def test_large_cohort_loads_to_the_same_bytes_on_one_core_and_on_two(
        self, tmp_path, monkeypatch, cohort_file
    ):
        log = tmp_path / "parses.log"
        _record_parses(monkeypatch, log)
        loaded = {}
        for cores in (1, 2):
            monkeypatch.setattr(_files, "_usable_cores", lambda: cores)
            loaded[cores] = load_dataset(cohort_file)
            # The header is line 0; the 8,000 body lines split at line 4,001.
            want = [(1, 8001)] if cores == 1 else [(1, 4001), (4001, 8001)]
            assert _ranges(log) == want
        assert _fields(loaded[1]) == _fields(loaded[2])
        assert loaded[2].x.flags.c_contiguous and loaded[2].fine.dtype == object
        assert _no_child_left()

    @pytest.mark.parametrize("half", ["child", "killed-child", "parent"])
    def test_a_failed_half_gives_the_serial_result(self, tmp_path, monkeypatch, cohort_file, half):
        monkeypatch.setattr(_files, "_usable_cores", lambda: 1)
        serial = load_dataset(cohort_file)
        monkeypatch.setattr(_files, "_usable_cores", lambda: 2)
        parent = os.getpid()

        def fail(start, stop):
            if half == "killed-child" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return (start == 1) == (half == "parent")

        _record_parses(monkeypatch, tmp_path / "parses.log", fail)
        per_row = []
        row_columns = data._row_columns
        monkeypatch.setattr(data, "_row_columns", lambda *a: per_row.append(1) or row_columns(*a))
        assert _fields(load_dataset(cohort_file)) == _fields(serial)
        assert per_row == [1]  # the per-row loop parsed the file again
        assert _ranges(tmp_path / "parses.log")[0] == (1, 4001)
        assert list(tmp_path.iterdir()) == []
        assert _no_child_left()

    def test_no_second_process_gives_the_serial_result(self, monkeypatch, cohort_file):
        monkeypatch.setattr(_files, "_usable_cores", lambda: 1)
        serial = load_dataset(cohort_file)
        monkeypatch.setattr(_files, "_usable_cores", lambda: 2)

        def no_temp_file():
            raise FileNotFoundError("no usable temporary directory")

        monkeypatch.setattr(_files.tempfile, "TemporaryFile", no_temp_file)
        assert _fields(load_dataset(cohort_file)) == _fields(serial)
        assert _no_child_left()

