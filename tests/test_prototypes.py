"""Anchor prototype store: EMA geometry, progression scoring, persistence."""

from __future__ import annotations

from dataclasses import MISSING, fields

import numpy as np
import pytest

from oracles import cosine_similarity, reference_stacked_ema_update
from ordproto.errors import (
    BadConfigError,
    DatasetIOError,
    DatasetParseError,
    DimMismatchError,
    NonFiniteError,
    UntrainedStoreError,
    ZeroVectorError,
)
from ordproto.evaluation import binary_metrics
from ordproto.prototypes import (
    PROGRESSIVE,
    STABLE,
    GlobalPrototypeStore,
    ema_update,
    is_trained,
    load_store,
    progression_scores,
    save_store,
    store_from_dict,
    store_to_dict,
)


def pair(low, high) -> np.ndarray:
    """Low and high rows as one (..., 2, dim) float64 array."""
    return np.stack((low, high), axis=-2).astype(np.float64)


def trained_store(low, high, anchor_classes=(1, 3), sigma=0.9) -> GlobalPrototypeStore:
    """A store whose anchors one EMA step bootstrapped from the means ``low`` and ``high``."""
    means = pair(low, high)
    anchors = ema_update(np.zeros_like(means), means, sigma)
    return GlobalPrototypeStore(anchors, anchor_classes, sigma)


class TestStoreConstruction:
    def test_every_field_is_required(self):
        assert [(f.name, f.default, f.default_factory) for f in fields(GlobalPrototypeStore)] == [
            (name, MISSING, MISSING) for name in ("anchors", "anchor_classes", "sigma")
        ]
        for args in ((np.zeros((2, 3)), (1, 3)), (np.zeros((2, 3)),), ()):
            with pytest.raises(TypeError):
                GlobalPrototypeStore(*args)
        store = GlobalPrototypeStore(np.zeros((2, 3)), (1, 3), 0.9)
        assert (store.dim, store.anchor_classes, store.sigma) == (3, (1, 3), 0.9)
        assert not is_trained(store)

    def test_anchors_are_a_c_ordered_float64_copy(self):
        given = np.arange(1, 7).reshape(3, 2).T  # a strided (2, 3) int view
        store = GlobalPrototypeStore(given, (1, 3), 0.9)
        assert store.anchors.dtype == np.float64 and store.anchors.flags.c_contiguous
        assert np.array_equal(store.anchors, given) and not np.shares_memory(store.anchors, given)

    def test_validation(self):
        shapes = ((2, 0), (3, 3), (1, 3), (3,), (2, 3, 1))
        ragged = [np.ones(2), np.ones(3)]
        for anchors in [*(np.ones(shape) for shape in shapes), ragged]:
            with pytest.raises(DimMismatchError, match=r"\(2, dim >= 1\)"):
                GlobalPrototypeStore(anchors, (1, 3), 0.9)
        with pytest.raises(BadConfigError):
            GlobalPrototypeStore(np.ones((2, 2)), (1, 3), 1.0)
        with pytest.raises(BadConfigError):
            GlobalPrototypeStore(np.ones((2, 2)), (1, 3), 0.0)
        for sigma in (float("nan"), "0.5", None, True, [0.5], 0.5j):
            with pytest.raises(BadConfigError, match=r"^sigma must be a real number inside \(0, 1\)"):
                GlobalPrototypeStore(np.ones((2, 2)), (1, 3), sigma)
        store = GlobalPrototypeStore(np.ones((2, 2)), (1, 3), np.float32(0.5))
        assert type(store.sigma) is float and store.sigma == 0.5
        message = "^anchor classes must be two distinct integers >= 1"
        for classes in ((2, 2), (1,), (1, 2, 3), (0, 3), (-1, 3), (1.5, 3), (1.0, 3), (True, 3)):
            with pytest.raises(BadConfigError, match=message):
                GlobalPrototypeStore(np.ones((2, 2)), classes, 0.9)
        with pytest.raises(BadConfigError, match=message):
            GlobalPrototypeStore(np.ones((2, 2)), [1, 3], 0.9)
        store = GlobalPrototypeStore(np.ones((2, 2)), (np.int64(3), np.int32(1)), 0.9)
        assert store.anchor_classes == (3, 1) and set(map(type, store.anchor_classes)) == {int}


class TestEmaUpdate:
    def test_bootstrap_adopts_normalized_mean(self):
        anchors = ema_update(np.zeros((2, 2)), pair([3.0, 4.0], [0.0, 2.0]), 0.9)
        assert anchors[0] == pytest.approx([0.6, 0.8], abs=1e-15)
        assert np.array_equal(anchors[1], np.array([0.0, 1.0]))
        assert is_trained(trained_store([3.0, 4.0], [0.0, 2.0]))

    def test_convex_step_hand_value(self):
        # sigma = 0.5 pulls a unit anchor halfway toward an orthogonal mean.
        anchors = ema_update(pair([1.0, 0.0], [0.0, 1.0]), pair([0.0, 1.0], [0.0, 1.0]), 0.5)
        assert np.array_equal(anchors, np.array([[0.5, 0.5], [0.0, 1.0]]))

    def test_arguments_are_left_alone(self):
        anchors, means = pair([1.0, 0.0], [0.0, 1.0]), pair([0.0, 1.0], [3.0, 4.0])
        before = anchors.copy(), means.copy()
        moved = ema_update(anchors, means, 0.5)
        assert not np.shares_memory(moved, anchors) and not np.shares_memory(moved, means)
        assert np.array_equal(anchors, before[0]) and np.array_equal(means, before[1])

    def test_exact_fixed_point_is_bitwise(self):
        rng = np.random.default_rng(24)
        low, high = rng.standard_normal(5), rng.standard_normal(5)
        before = ema_update(np.zeros((2, 5)), pair(low, high), 0.9)
        anchors = before
        for _ in range(3):
            anchors = ema_update(anchors, before, 0.9)
            assert np.array_equal(anchors, before)

    def test_angle_to_target_never_increases(self):
        rng = np.random.default_rng(25)
        for sigma in (0.5, 0.9, 0.999):
            for _ in range(5):
                target = rng.standard_normal(6)
                start = rng.standard_normal(6)
                anchors = ema_update(np.zeros((2, 6)), pair(start, start), sigma)
                cos_prev = cosine_similarity(anchors[1], target)
                for _ in range(100):
                    anchors = ema_update(anchors, pair(target, target), sigma)
                    cos_now = cosine_similarity(anchors[1], target)
                    assert cos_now >= cos_prev - 1e-12
                    cos_prev = cos_now
                if sigma <= 0.9:
                    assert cos_prev >= 1.0 - 1e-6

    def test_update_validation(self):
        with pytest.raises(ZeroVectorError):
            ema_update(np.zeros((2, 3)), pair(np.zeros(3), np.ones(3)), 0.9)


class TestStackedEmaUpdate:
    """(S, 2, dim) anchors: each seed moves as its own (2, dim) update would."""

    def test_rows_match_one_seed_stores(self):
        rng = np.random.default_rng(31)
        stack = np.zeros((3, 2, 5))
        singles = [np.zeros((2, 5)) for _ in range(3)]
        for step in range(6):
            lo, hi = rng.standard_normal((2, 3, 5))
            if step == 3:
                hi[1] = singles[1][1]  # an exact fixed point for row 1
            stack = ema_update(stack, pair(lo, hi), 0.9)
            for row in range(3):
                singles[row] = ema_update(singles[row], pair(lo[row], hi[row]), 0.9)
                assert np.array_equal(stack[row], singles[row])

    def test_first_bad_seed_raises_its_own_error(self):
        stack = ema_update(np.zeros((3, 2, 4)), np.ones((3, 2, 4)), 0.9)
        before = stack.copy()
        lo, hi = np.ones((3, 4)), np.ones((3, 4))
        hi[1] = 0.0  # seed 1: a zero high mean
        lo[2, 0] = np.nan  # seed 2: a NaN low mean, which a one-seed update checks first
        with pytest.raises(ZeroVectorError, match="class mean with norm 0.0"):
            ema_update(stack, pair(lo, hi), 0.9)
        assert np.array_equal(stack, before)
        with pytest.raises(NonFiniteError, match="mu_low contains"):
            ema_update(np.zeros((1, 2, 4)), pair(lo[2:], hi[2:]), 0.9)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the 1e200 mean
    def test_matches_the_whole_array_form(self):
        rng = np.random.default_rng(32)
        ours, theirs = np.zeros((3, 2, 5)), np.zeros((3, 2, 5))
        for step in range(10):  # step 0 bootstraps every seed
            lo, hi = rng.standard_normal((2, 3, 5))
            if step == 3:
                hi[1] = ours[1, 1]  # an exact fixed point for seed 1
            if step == 4:
                lo[0] = np.eye(5)[2] * (1.0 + 5e-14)  # a norm 1 within UNIT_TOL
                hi[0] = 1e200 * hi[0]  # a finite mean whose norm overflows
            if step == 6:  # seed 2 alone starts again, from a mean with -0.0 entries
                ours[2] = theirs[2] = 0.0
                hi[2] = [1.0, -0.0, -0.0, -0.0, -0.0]
            if step == 7:
                hi[2] = ours[2, 1]  # a fixed point that keeps its -0.0 entries
            ours = ema_update(ours, pair(lo, hi), 0.9)
            theirs = reference_stacked_ema_update(theirs, pair(lo, hi), 0.9)
            # tobytes, not array_equal: a -0.0 must stay -0.0.
            assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("row", [0, 1, 2])
    @pytest.mark.parametrize(
        ("bad", "error", "message"),
        [
            ("nan low mean", NonFiniteError, "mu_low contains NaN or Inf entries"),
            ("inf high mean", NonFiniteError, "mu_high contains NaN or Inf entries"),
            ("zero high mean", ZeroVectorError, "cannot normalize class mean with norm 0.0"),
            ("nan anchor", NonFiniteError, "anchor contains NaN or Inf entries"),
        ],
    )
    def test_refusals_match_the_whole_array_form(self, row, bad, error, message):
        rng = np.random.default_rng(33)
        anchors = ema_update(np.zeros((3, 2, 4)), pair(*rng.standard_normal((2, 3, 4))), 0.9)
        lo, hi = rng.standard_normal((2, 3, 4))
        if bad == "nan low mean":
            lo[row, 1] = np.nan
        elif bad == "inf high mean":
            hi[row, 2] = -np.inf
        elif bad == "zero high mean":
            hi[row] = 0.0
        else:
            anchors[row, 1, 0] = np.nan
        before = anchors.tobytes()
        with pytest.raises(error) as got:
            ema_update(anchors, pair(lo, hi), 0.9)
        with pytest.raises(error) as want:
            reference_stacked_ema_update(anchors, pair(lo, hi), 0.9)
        assert str(got.value) == str(want.value) == message
        assert anchors.tobytes() == before  # neither form wrote its input


class TestPrediction:
    def test_pulls_toward_high_anchor(self):
        store = trained_store([-1.0, 0.0], [1.0, 0.0])
        # Query on the high anchor: cosines are (1, -1), so the score is
        # 1 / (1 + e^-2).
        assert progression_scores([[1.0, 0.0]], store)[0] == pytest.approx(
            0.8807970779778823, abs=1e-12
        )

    def test_equidistant_query_is_exactly_half(self):
        store = trained_store([1.0, 0.0], [0.0, 1.0])
        assert progression_scores([[2.0, 2.0]], store)[0] == 0.5

    def test_swapping_anchors_complements_score(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            low, high = rng.standard_normal(4), rng.standard_normal(4)
            q = rng.standard_normal(4)
            p = progression_scores([q], trained_store(low, high))[0]
            flipped = progression_scores([q], trained_store(high, low))[0]
            assert p + flipped == pytest.approx(1.0, abs=1e-12)

    def test_rescaling_query_barely_moves_score(self):
        rng = np.random.default_rng(27)
        store = trained_store(rng.standard_normal(8), rng.standard_normal(8))
        for _ in range(50):
            q = rng.standard_normal(8)
            base = progression_scores([q], store)[0]
            for scale in (1e-6, 0.5, 3.0, 1e6):
                assert abs(progression_scores([scale * q], store)[0] - base) <= 1e-12

    def test_rescaling_anchors_barely_moves_score(self):
        rng = np.random.default_rng(28)
        low, high = rng.standard_normal(5), rng.standard_normal(5)
        q = rng.standard_normal(5)
        base = progression_scores([q], trained_store(low, high))[0]
        scaled = progression_scores([q], trained_store(2.5 * low, 0.125 * high))[0]
        assert abs(scaled - base) <= 1e-12

    def test_scores_vectorize_per_row(self):
        rng = np.random.default_rng(29)
        store = trained_store(rng.standard_normal(3), rng.standard_normal(3))
        feats = rng.standard_normal((6, 3))
        scores = progression_scores(feats, store)
        assert scores.shape == (6,)
        for i in range(6):
            assert scores[i] == progression_scores(feats[i : i + 1], store)[0]
        assert np.all((scores > 0.0) & (scores < 1.0))

    def test_prediction_errors(self):
        with pytest.raises(UntrainedStoreError):
            progression_scores(np.ones((1, 2)), GlobalPrototypeStore(np.zeros((2, 2)), (1, 3), 0.9))
        half = GlobalPrototypeStore(np.array([[1.0, 0.0], [0.0, 0.0]]), (1, 3), 0.9)
        with pytest.raises(UntrainedStoreError):
            progression_scores(np.ones((1, 2)), half)
        store = trained_store([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(DimMismatchError):
            progression_scores(np.ones((1, 3)), store)
        with pytest.raises(ZeroVectorError):
            progression_scores(np.zeros((1, 2)), store)


class TestClassify:
    """A score above 0.5 reads as progressive, as ``binary_metrics`` applies it."""

    def test_threshold(self):
        scores = [0.5, np.nextafter(0.5, 1.0), 0.0, 1.0]
        truths = [STABLE, PROGRESSIVE, STABLE, PROGRESSIVE]
        assert binary_metrics(scores, truths)["acc"] == 1.0

    def test_out_of_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(BadConfigError):
                binary_metrics([bad, 0.5], [STABLE, PROGRESSIVE])


class TestPersistence:
    def test_dict_round_trip_is_exact(self):
        rng = np.random.default_rng(31)
        store = trained_store(
            rng.standard_normal(4), rng.standard_normal(4), sigma=0.75, anchor_classes=(2, 3)
        )
        back = store_from_dict(store_to_dict(store))
        assert back.dim == store.dim
        assert back.sigma == store.sigma
        assert back.anchor_classes == store.anchor_classes
        assert np.array_equal(back.anchors, store.anchors)

    def test_file_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(32)
        store = trained_store(rng.standard_normal(6), rng.standard_normal(6))
        path = tmp_path / "store.json"
        save_store(store, path)
        back = load_store(path)
        assert np.array_equal(back.anchors, store.anchors)
        p = progression_scores(np.ones((1, 6)), store)[0]
        assert progression_scores(np.ones((1, 6)), back)[0] == p

    def test_malformed_payloads(self, tmp_path):
        store = trained_store([1.0, 0.0], [0.0, 1.0])
        for breakage in (
            lambda d: d.pop("anchor_low"),
            lambda d: d.update(sigma="wide"),
            lambda d: d.update(anchor_classes=None),
            lambda d: d.update(anchor_low=d["anchor_low"][:1]),
            lambda d: d.update(sigma=1.5),
            lambda d: d.update(anchor_classes=[2, 2]),
            lambda d: d["anchor_high"].__setitem__(1, float("inf")),
            lambda d: d.update(dim=3),  # both anchors hold 2 numbers
        ):
            payload = store_to_dict(store)
            breakage(payload)
            with pytest.raises(DatasetParseError):
                store_from_dict(payload)
        bad = tmp_path / "store.json"
        bad.write_text("{not json")
        with pytest.raises(DatasetParseError):
            load_store(bad)
        with pytest.raises(DatasetIOError):
            load_store(tmp_path / "missing.json")
