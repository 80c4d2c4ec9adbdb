"""Anchor prototype store: EMA geometry, progression scoring, persistence."""

from __future__ import annotations

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


def trained_store(low, high, anchor_classes=(1, 3), **kw) -> GlobalPrototypeStore:
    low = np.asarray(low, dtype=np.float64)
    store = GlobalPrototypeStore(dim=low.shape[0], anchor_classes=anchor_classes, **kw)
    return ema_update(store, low, np.asarray(high, dtype=np.float64))


class TestStoreConstruction:
    def test_defaults(self):
        store = GlobalPrototypeStore(dim=3, anchor_classes=(1, 3))
        assert store.sigma == 0.9
        assert store.anchor_classes == (1, 3)
        with pytest.raises(TypeError):  # the anchor pair has no default here
            GlobalPrototypeStore(dim=3)
        assert np.array_equal(store.anchor_low, np.zeros(3))
        assert np.array_equal(store.anchor_high, np.zeros(3))
        assert not is_trained(store)

    def test_validation(self):
        with pytest.raises(BadConfigError):
            GlobalPrototypeStore(dim=0, anchor_classes=(1, 3))
        with pytest.raises(BadConfigError):
            GlobalPrototypeStore(dim=2, anchor_classes=(1, 3), sigma=1.0)
        with pytest.raises(BadConfigError):
            GlobalPrototypeStore(dim=2, anchor_classes=(1, 3), sigma=0.0)
        with pytest.raises(BadConfigError):
            GlobalPrototypeStore(dim=2, anchor_classes=(2, 2))
        with pytest.raises(DimMismatchError):
            GlobalPrototypeStore(dim=3, anchor_classes=(1, 3), anchor_low=np.ones(2))


class TestEmaUpdate:
    def test_bootstrap_adopts_normalized_mean(self):
        store = GlobalPrototypeStore(dim=2, anchor_classes=(1, 3))
        ema_update(store, np.array([3.0, 4.0]), np.array([0.0, 2.0]))
        assert store.anchor_low == pytest.approx([0.6, 0.8], abs=1e-15)
        assert np.array_equal(store.anchor_high, np.array([0.0, 1.0]))
        assert is_trained(store)

    def test_convex_step_hand_value(self):
        # sigma = 0.5 pulls a unit anchor halfway toward an orthogonal mean.
        store = trained_store([1.0, 0.0], [0.0, 1.0], sigma=0.5)
        ema_update(store, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert np.array_equal(store.anchor_low, np.array([0.5, 0.5]))
        assert np.array_equal(store.anchor_high, np.array([0.0, 1.0]))

    def test_exact_fixed_point_is_bitwise(self):
        rng = np.random.default_rng(24)
        low, high = rng.standard_normal(5), rng.standard_normal(5)
        store = trained_store(low, high)
        before_low = store.anchor_low.copy()
        before_high = store.anchor_high.copy()
        for _ in range(3):
            ema_update(store, before_low, before_high)
            assert np.array_equal(store.anchor_low, before_low)
            assert np.array_equal(store.anchor_high, before_high)

    def test_angle_to_target_never_increases(self):
        rng = np.random.default_rng(25)
        for sigma in (0.5, 0.9, 0.999):
            for _ in range(5):
                target = rng.standard_normal(6)
                start = rng.standard_normal(6)
                store = trained_store(start, start, sigma=sigma)
                cos_prev = cosine_similarity(store.anchor_high, target)
                for _ in range(100):
                    ema_update(store, target, target)
                    cos_now = cosine_similarity(store.anchor_high, target)
                    assert cos_now >= cos_prev - 1e-12
                    cos_prev = cos_now
                if sigma <= 0.9:
                    assert cos_prev >= 1.0 - 1e-6

    def test_update_validation(self):
        store = GlobalPrototypeStore(dim=3, anchor_classes=(1, 3))
        with pytest.raises(DimMismatchError):
            ema_update(store, np.ones(2), np.ones(3))
        with pytest.raises(ZeroVectorError):
            ema_update(store, np.zeros(3), np.ones(3))


class TestStackedEmaUpdate:
    """(S, dim) anchors: each row moves as its own one-seed store would."""

    @staticmethod
    def stacked(rows: int, dim: int) -> GlobalPrototypeStore:
        store = GlobalPrototypeStore(dim=dim, anchor_classes=(1, 3))
        store.anchor_low, store.anchor_high = np.zeros((rows, dim)), np.zeros((rows, dim))
        return store

    def test_rows_match_one_seed_stores(self):
        rng = np.random.default_rng(31)
        stack = self.stacked(3, 5)
        singles = [GlobalPrototypeStore(dim=5, anchor_classes=(1, 3)) for _ in range(3)]
        for step in range(6):
            lo, hi = rng.standard_normal((2, 3, 5))
            if step == 3:
                hi[1] = singles[1].anchor_high  # an exact fixed point for row 1
            ema_update(stack, lo, hi)
            for row, single in enumerate(singles):
                ema_update(single, lo[row], hi[row])
                assert np.array_equal(stack.anchor_low[row], single.anchor_low)
                assert np.array_equal(stack.anchor_high[row], single.anchor_high)

    def test_first_bad_seed_raises_its_own_error(self):
        stack = self.stacked(3, 4)
        ema_update(stack, np.ones((3, 4)), np.ones((3, 4)))
        before = stack.anchor_low.copy(), stack.anchor_high.copy()
        lo, hi = np.ones((3, 4)), np.ones((3, 4))
        hi[1] = 0.0  # seed 1: a zero high mean
        lo[2, 0] = np.nan  # seed 2: a NaN low mean, which a one-seed store checks first
        with pytest.raises(ZeroVectorError, match="class mean with norm 0.0") as err:
            ema_update(stack, lo, hi)
        assert err.value.stack_row == 1
        assert np.array_equal(stack.anchor_low, before[0])
        assert np.array_equal(stack.anchor_high, before[1])
        with pytest.raises(NonFiniteError, match="mu_low contains") as err:
            ema_update(self.stacked(1, 4), lo[2:], hi[2:])
        assert err.value.stack_row == 0

    @staticmethod
    def assert_same_bytes(ours, theirs):
        # tobytes, not array_equal: a -0.0 must stay -0.0.
        assert ours.anchor_low.tobytes() == theirs.anchor_low.tobytes()
        assert ours.anchor_high.tobytes() == theirs.anchor_high.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the 1e200 mean
    def test_matches_the_whole_array_form(self):
        rng = np.random.default_rng(32)
        ours, theirs = self.stacked(3, 5), self.stacked(3, 5)
        for step in range(10):  # step 0 bootstraps every seed
            lo, hi = rng.standard_normal((2, 3, 5))
            if step == 3:
                hi[1] = ours.anchor_high[1]  # an exact fixed point for seed 1
            if step == 4:
                lo[0] = np.eye(5)[2] * (1.0 + 5e-14)  # a norm 1 within UNIT_TOL
                hi[0] = 1e200 * hi[0]  # a finite mean whose norm overflows
            if step == 6:  # seed 2 alone starts again, from a mean with -0.0 entries
                for store in (ours, theirs):
                    store.anchor_low = store.anchor_low.copy()
                    store.anchor_high = store.anchor_high.copy()
                    store.anchor_low[2] = store.anchor_high[2] = 0.0
                hi[2] = [1.0, -0.0, -0.0, -0.0, -0.0]
            if step == 7:
                hi[2] = ours.anchor_high[2]  # a fixed point that keeps its -0.0 entries
            ema_update(ours, lo, hi)
            reference_stacked_ema_update(theirs, lo, hi)
            self.assert_same_bytes(ours, theirs)

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
        ours = self.stacked(3, 4)
        ema_update(ours, *rng.standard_normal((2, 3, 4)))
        lo, hi = rng.standard_normal((2, 3, 4))
        ours.anchor_low, ours.anchor_high = ours.anchor_low.copy(), ours.anchor_high.copy()
        if bad == "nan low mean":
            lo[row, 1] = np.nan
        elif bad == "inf high mean":
            hi[row, 2] = -np.inf
        elif bad == "zero high mean":
            hi[row] = 0.0
        else:
            ours.anchor_high[row, 0] = np.nan
        theirs = self.stacked(3, 4)
        theirs.anchor_low, theirs.anchor_high = ours.anchor_low.copy(), ours.anchor_high.copy()
        with pytest.raises(error) as got:
            ema_update(ours, lo, hi)
        with pytest.raises(error) as want:
            reference_stacked_ema_update(theirs, lo, hi)
        assert str(got.value) == str(want.value) == message
        assert got.value.stack_row == want.value.stack_row == row
        self.assert_same_bytes(ours, theirs)  # neither store moved


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
            progression_scores(
                np.ones((1, 2)), GlobalPrototypeStore(dim=2, anchor_classes=(1, 3))
            )
        half = GlobalPrototypeStore(dim=2, anchor_classes=(1, 3), anchor_low=np.array([1.0, 0.0]))
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
        assert np.array_equal(back.anchor_low, store.anchor_low)
        assert np.array_equal(back.anchor_high, store.anchor_high)

    def test_file_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(32)
        store = trained_store(rng.standard_normal(6), rng.standard_normal(6))
        path = tmp_path / "store.json"
        save_store(store, path)
        back = load_store(path)
        assert np.array_equal(back.anchor_low, store.anchor_low)
        assert np.array_equal(back.anchor_high, store.anchor_high)
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
