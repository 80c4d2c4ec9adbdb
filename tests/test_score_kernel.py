"""The row-batched progression-score kernel against its per-row predecessor.

Before the kernel, ``progression_scores`` scored one row per call, and each
call took two ``cosine_similarity`` values and a 2-element ``softmax``. That
loop is kept here as the scalar oracle. The kernel sums
each row's dot products in a different order than the per-row BLAS ``ddot``
does, so the two agree to within one float64 epsilon, not bit for bit. The
kernel's own results are exact across row blockings, which is what lets a
caller score a cohort in batches. The kernels are also checked bit for bit
against their own earlier forms, ``reference_encode`` and
``reference_anchor_cosines``, which recomputed every anchor norm and made
three arrays per layer.
"""

from __future__ import annotations

import cProfile

import numpy as np
import pytest

from oracles import cosine_similarity, reference_anchor_cosines, reference_encode, softmax
from ordproto.data import GenConfig, generate
from ordproto import trainer
from ordproto.encoder import encode, init_params
from ordproto.errors import (
    DimMismatchError,
    NonFiniteError,
    OrdprotoError,
    UntrainedStoreError,
    ZeroVectorError,
)
from ordproto.evaluation import binary_metrics, spearman
from ordproto.prototypes import GlobalPrototypeStore, anchor_cosines, progression_scores
from ordproto.trainer import TrainConfig, evaluate_on, train

EPS = np.finfo(np.float64).eps


def scalar_scores(features, store) -> np.ndarray:
    """The per-row path the kernel replaced."""
    scores = []
    low, high = store.anchors
    for z in np.asarray(features, dtype=np.float64):
        c_high = cosine_similarity(z, high)
        c_low = cosine_similarity(z, low)
        scores.append(softmax(np.array([c_high, c_low]))[0])
    return np.array(scores)


def random_store(rng, dim) -> GlobalPrototypeStore:
    low, high = rng.standard_normal(dim), rng.standard_normal(dim)
    return GlobalPrototypeStore(np.array((low, high)), (1, 3), 0.9)


@pytest.fixture(scope="module")
def trained_run():
    """A short full-loss run and a large cohort encoded by its encoder."""
    result = train(TrainConfig(epochs=2, seeds=(1,)), generate(GenConfig(), 0).training_view(), 1)
    cohort = generate(GenConfig(class_counts=(300, 600, 300)), 7)
    return result, cohort, encode(result.encoder, cohort.x)


class TestScalarOracle:
    def test_random_features_within_one_epsilon(self):
        rng = np.random.default_rng(301)
        for dim in (1, 2, 3, 8, 32, 33, 100):
            store = random_store(rng, dim)
            feats = rng.standard_normal((200, dim)) * rng.uniform(1e-3, 1e3)
            np.testing.assert_allclose(
                progression_scores(feats, store), scalar_scores(feats, store), rtol=0, atol=EPS
            )

    def test_trained_features_within_one_epsilon(self, trained_run):
        result, _, z = trained_run
        np.testing.assert_allclose(
            progression_scores(z, result.store), scalar_scores(z, result.store), rtol=0, atol=EPS
        )

    def test_anchor_cosines_match_cosine_similarity(self, trained_run):
        result, _, z = trained_run
        c_low, c_high = anchor_cosines(z, result.store)
        for anchor, got in zip(result.store.anchors, (c_low, c_high)):
            want = np.array([cosine_similarity(row, anchor) for row in z])
            # A cosine rounds three times (dot product, two norms) in a different
            # order on each path; scores compress this through the softmax.
            np.testing.assert_allclose(got, want, rtol=0, atol=4 * EPS)

    def test_evaluate_on_metrics_match_the_per_row_path(self, trained_run):
        result, cohort, _ = trained_run
        mask = cohort.middle_mask()
        expected = binary_metrics(
            scalar_scores(encode(result.encoder, cohort.x[mask]), result.store), cohort.fine[mask]
        )
        z_all = encode(result.encoder, cohort.x)
        cos_high = np.array([cosine_similarity(z, result.store.anchors[1]) for z in z_all])
        expected["spearman_ordinality"] = spearman(cos_high, cohort.latent_t)
        assert evaluate_on(result.encoder, result.store, cohort) == expected

    @pytest.mark.parametrize(
        "counts, seed", [((40, 80, 80), 100), ((130, 270, 200), 5), ((2000, 4000, 2000), 7)]
    )
    def test_evaluate_on_equals_the_two_encode_path(self, trained_run, counts, seed, monkeypatch):
        # evaluate_on encodes the cohort once and scores the middle rows of
        # that encoding; the oracle encodes the middle rows a second time.
        result, _, _ = trained_run
        cohort = generate(GenConfig(class_counts=counts), seed)
        mask = cohort.middle_mask()
        z_mid = encode(result.encoder, cohort.x[mask])
        expected = binary_metrics(progression_scores(z_mid, result.store), cohort.fine[mask])
        z_all = encode(result.encoder, cohort.x)
        _, cos_high = anchor_cosines(z_all, result.store)
        expected["spearman_ordinality"] = spearman(cos_high, cohort.latent_t)
        assert evaluate_on(result.encoder, result.store, cohort) == expected

        # It takes one cosine pass over every row, and the middle rows'
        # scores equal a separate progression_scores call on them bit for bit.
        cosine_calls, scored = [], []

        def counted(features, store):
            cosine_calls.append(len(features))
            return anchor_cosines(features, store)

        def recorded(scores, labels):
            scored.append(scores)
            return binary_metrics(scores, labels)

        monkeypatch.setattr(trainer, "anchor_cosines", counted)
        monkeypatch.setattr(trainer, "binary_metrics", recorded)
        assert evaluate_on(result.encoder, result.store, cohort) == expected
        assert cosine_calls == [cohort.size]
        assert np.array_equal(scored[0], progression_scores(z_all[mask], result.store))


class TestRowInvariance:
    def test_row_blocks_are_bit_identical(self, trained_run):
        result, _, z = trained_run
        whole = progression_scores(z, result.store)
        for size in (1, 3, 64, z.shape[0]):
            blocks = [
                progression_scores(z[lo : lo + size], result.store)
                for lo in range(0, z.shape[0], size)
            ]
            assert np.array_equal(np.concatenate(blocks), whole), size

    def test_single_query_equals_its_row(self, trained_run):
        result, _, z = trained_run
        whole = progression_scores(z, result.store)
        for i in range(0, z.shape[0], 37):
            assert progression_scores(z[i : i + 1], result.store)[0] == whole[i]

    def test_memory_layout_does_not_change_bits(self, trained_run):
        result, _, z = trained_run
        whole = progression_scores(z, result.store)
        assert np.array_equal(progression_scores(np.asfortranarray(z), result.store), whole)
        assert np.array_equal(progression_scores(z[::-1], result.store), whole[::-1])

    def test_exact_ties_score_one_half(self):
        store = GlobalPrototypeStore(np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.25]]), (1, 3), 0.9)
        feats = np.array([[1.0, 1.0, 2.0], [3.0, 3.0, -1.0], [0.0, 0.0, 1.0]])
        assert np.all(progression_scores(feats, store) == 0.5)


class TestValidation:
    @pytest.fixture
    def store(self):
        return GlobalPrototypeStore(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), (1, 3), 0.9)

    def test_untrained_store(self):
        half = GlobalPrototypeStore(np.array([np.ones(3), np.zeros(3)]), (1, 3), 0.9)
        for store in (GlobalPrototypeStore(np.zeros((2, 3)), (1, 3), 0.9), half):
            with pytest.raises(UntrainedStoreError):
                progression_scores(np.ones((2, 3)), store)
            with pytest.raises(UntrainedStoreError):
                progression_scores(np.ones((0, 3)), store)

    def test_wrong_width_and_rank(self, store):
        for bad in (np.ones((2, 4)), np.ones(3), np.ones((1, 2, 3))):
            with pytest.raises(DimMismatchError, match=r"\(n, 3\)"):
                progression_scores(bad, store)

    def test_non_finite_row_is_named(self, store):
        feats = np.ones((4, 3))
        feats[2, 1] = np.nan
        feats[3, 0] = np.inf
        with pytest.raises(NonFiniteError, match="row 2 contains NaN or Inf entries"):
            progression_scores(feats, store)
        # Finite entries whose squared norm overflows; three entries of 6e153 do not.
        feats[1] = 1e300, 1e299, 0.0
        with pytest.raises(NonFiniteError, match="row 1 has a norm that overflows"):
            progression_scores(feats, store)
        assert np.isfinite(progression_scores(np.full((1, 3), 6e153), store)).all()

    def test_zero_row_is_named(self, store):
        feats = np.ones((5, 3))
        feats[3] = 0.0
        feats[4] = 1e-13
        with pytest.raises(ZeroVectorError, match="row 3 "):
            progression_scores(feats, store)
        with pytest.raises(ZeroVectorError, match="row 0 "):
            progression_scores(np.zeros((1, 3)), store)

    def test_empty_matrix_scores_nothing(self, store):
        scores = progression_scores(np.empty((0, 3)), store)
        assert scores.shape == (0,) and scores.dtype == np.float64
        c_low, c_high = anchor_cosines(np.empty((0, 3)), store)
        assert c_low.shape == c_high.shape == (0,)


def _outcome(fn, *args):
    """The arrays ``fn`` returns, as bytes, or its error's class and message."""
    try:
        # An anchor whose norm is or overflows to inf gives inf and NaN cosines.
        with np.errstate(over="ignore", invalid="ignore"):
            out = fn(*args)
    except OrdprotoError as exc:
        return type(exc), str(exc)
    return [a.tobytes() for a in (out if isinstance(out, tuple) else (out,))]


class TestAgainstEarlierKernels:
    def test_anchor_cosines_bits_on_random_stores(self):
        rng = np.random.default_rng(311)
        # Anchor norms from just above NORM_EPS to past float64's overflow of
        # the squared norm; a strided anchor must take the contiguous dot.
        scales = (2e-12 / np.sqrt(50), 1e-6, 1.0, 1e3, 1e150, 1e160)
        for dim in (1, 2, 3, 8, 32, 33, 100):
            for scale in scales:
                wide = rng.standard_normal((2, 2 * dim)) * scale
                for anchors in (wide[:, :dim], wide[:, ::2]):
                    store = GlobalPrototypeStore(anchors, (1, 3), 0.9)
                    feats = rng.standard_normal((70, dim)) * 10.0 ** rng.integers(-8, 9)
                    for f in (feats, np.asfortranarray(feats), feats[::-1], feats[:1]):
                        got = _outcome(anchor_cosines, f, store)
                        assert got == _outcome(reference_anchor_cosines, f, store)

    def test_encode_bits_on_random_encoders(self):
        rng = np.random.default_rng(312)
        for dims in ([3, 2], [16, 64, 32, 8], [5, 1, 7], [16, 128, 128, 32]):
            enc, _ = init_params(dims, 3, int(rng.integers(1000)))
            for layer in enc.layers:
                layer.bias[...] = rng.standard_normal(layer.bias.shape)
            x = rng.standard_normal((257, dims[0])) * 10.0 ** rng.integers(-3, 4)
            for rows in (x, np.asfortranarray(x), x[::3], x[0], x[:0], x.tolist()):
                assert _outcome(encode, enc, rows) == _outcome(reference_encode, enc, rows)

    def test_every_row_blocking_of_a_cohort(self, trained_run):
        # A block's features may differ from the whole cohort's in the last
        # bits (BLAS picks its kernel by shape), so encode is compared block
        # by block; cosines are row-wise, so their blocks equal the whole call.
        result, cohort, z = trained_run
        x, z = cohort.x[:60], z[:60]
        whole = reference_anchor_cosines(z, result.store)
        for size in range(1, x.shape[0] + 1):
            blocks = []
            for lo in range(0, x.shape[0], size):
                xb = x[lo : lo + size]
                want = reference_encode(result.encoder, xb)
                assert encode(result.encoder, xb).tobytes() == want.tobytes()
                blocks.append(anchor_cosines(z[lo : lo + size], result.store))
            for side, want in zip(zip(*blocks), whole):
                assert np.concatenate(side).tobytes() == want.tobytes(), size

    def test_errors_match_by_class_and_message(self):
        def store(low, high):
            return GlobalPrototypeStore(np.array((low, high)), (1, 3), 0.9)

        good = store([1.0, 0.5, 0.0], [0.0, 1.0, 2.0])
        stores = [
            good,
            GlobalPrototypeStore(np.zeros((2, 3)), (1, 3), 0.9),
            store([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
            store([0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]),
            store([1e-12, 0.0, 0.0], [1.0, 0.0, 0.0]),
            store([1.0, 0.0, 0.0], [1.0000001e-12, 0.0, 0.0]),
            store([np.inf, 0.0, 0.0], [1.0, 1.0, 1.0]),
        ]
        rows = np.ones((6, 3))
        nan_then_zero, zero_then_nan = rows.copy(), rows.copy()
        nan_then_zero[2, 1], nan_then_zero[4] = np.nan, 0.0
        zero_then_nan[1], zero_then_nan[3, 2] = 1e-13, -np.inf
        overflow_then_nan = nan_then_zero.copy()
        overflow_then_nan[1, 0] = -1e160
        features = [
            rows,
            nan_then_zero,
            zero_then_nan,
            overflow_then_nan,
            np.full((2, 3), 6e153),
            np.zeros((2, 3)),
            np.ones((2, 4)),
            np.full((2, 4), np.nan),
            np.ones(3),
            np.ones((1, 2, 3)),
            np.empty((0, 3)),
        ]
        for s in stores:
            for f in features:
                assert _outcome(anchor_cosines, f, s) == _outcome(reference_anchor_cosines, f, s)
        enc, _ = init_params([3, 4, 2], 3, 0)
        for x in (np.ones((2, 4)), np.ones((2, 2, 3)), nan_then_zero, np.full(3, np.inf)):
            assert _outcome(encode, enc, x) == _outcome(reference_encode, enc, x)


def test_scoring_call_budget(trained_run):
    # cProfile counts every Python-level call, numpy's Python wrappers
    # included; summing its entries counts every code object. Measured with
    # numpy 2.4.6 on Python 3.11: 26.1 calls per 64-row
    # progression_scores(encode(...)), the same as pstats' total (24.1 before
    # encode and anchor_cosines learned to walk row blocks, 28.1 when each
    # anchor norm was its own dot product, 79.1 when every call took four
    # anchor norms through np.linalg.norm); the bound was set 5% above 28.1.
    result, cohort, _ = trained_run
    x64 = cohort.x[:64]
    progression_scores(encode(result.encoder, x64), result.store)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(10):
        progression_scores(encode(result.encoder, x64), result.store)
    profile.disable()
    assert sum(e.callcount for e in profile.getstats()) / 10 <= 29.5
