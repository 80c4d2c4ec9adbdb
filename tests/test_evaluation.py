"""Held-out evaluation: midranks, binary metrics, rank-sum test, Spearman."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ordproto.errors import (
    BadConfigError,
    DegenerateInputError,
    DimMismatchError,
    EmptyInputError,
    NonFiniteError,
)
from ordproto.evaluation import binary_metrics, mann_whitney_one_sided, midranks, spearman
from ordproto.prototypes import PROGRESSIVE, STABLE


def naive_midranks(values) -> np.ndarray:
    """Average 1-based sorted position of each tie group, by definition.

    A NaN equals nothing, so its group is its own sorted position.
    """
    v = np.asarray(values, dtype=np.float64)
    out = np.empty(v.size)
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    for i, x in enumerate(v):
        positions = [p + 1 for p in range(v.size) if sorted_v[p] == x or order[p] == i]
        out[i] = sum(positions) / len(positions)
    return out


def pair_auc(scores, pos_mask) -> float:
    """Probability a random positive outranks a random negative."""
    pos = scores[pos_mask]
    neg = scores[~pos_mask]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (pos.size * neg.size)


class TestMidranks:
    def test_examples(self):
        assert midranks([10.0, 20.0, 20.0, 30.0]).tolist() == [1.0, 2.5, 2.5, 4.0]
        assert midranks([5.0, 5.0, 5.0]).tolist() == [2.0, 2.0, 2.0]
        assert midranks([3.0, 1.0, 2.0]).tolist() == [3.0, 1.0, 2.0]

    def test_matches_definition_on_random_ties(self):
        rng = np.random.default_rng(41)
        shuffle = np.random.default_rng(43)
        for _ in range(200):
            v = rng.integers(0, 5, size=int(rng.integers(1, 12))).astype(float)
            assert np.array_equal(midranks(v), naive_midranks(v))
            # NaN ties nothing, not even another NaN; -0.0 ties 0.0.
            w = shuffle.permutation(np.concatenate([v, [np.nan, np.nan, -0.0, 0.0]]))
            assert np.array_equal(midranks(w), naive_midranks(w))

    def test_sums_to_gauss_total(self):
        rng = np.random.default_rng(42)
        v = rng.integers(0, 4, size=25).astype(float)
        assert midranks(v).sum() == 25 * 26 / 2


class TestBinaryMetrics:
    def test_perfect_separation(self):
        m = binary_metrics(
            [0.1, 0.2, 0.8, 0.9], [STABLE, STABLE, PROGRESSIVE, PROGRESSIVE]
        )
        assert m == {
            "acc": 1.0,
            "auc": 1.0,
            "f1": 1.0,
            "precision": 1.0,
            "recall": 1.0,
            "n_pos": 2,
            "n_neg": 2,
        }

    def test_one_swapped_pair(self):
        # One positive scored below one negative: 3 of 4 pairs are ordered
        # correctly, and the 0.35 positive is also misclassified.
        m = binary_metrics(
            [0.1, 0.4, 0.35, 0.8], [STABLE, STABLE, PROGRESSIVE, PROGRESSIVE]
        )
        assert m["auc"] == 0.75
        assert m["acc"] == 0.75
        assert m["recall"] == 0.5
        assert m["precision"] == 1.0
        assert m["f1"] == pytest.approx(2 / 3, abs=1e-12)

    def test_no_positive_predictions(self):
        m = binary_metrics([0.1, 0.2, 0.3], [STABLE, PROGRESSIVE, PROGRESSIVE])
        assert m["precision"] == 0.0 and m["recall"] == 0.0 and m["f1"] == 0.0
        assert m["acc"] == pytest.approx(1 / 3, abs=1e-12)

    def test_random_scores_match_pair_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(3, 20))
            scores = rng.integers(0, 6, size=n) / 5.0  # coarse grid forces ties
            labels = np.array([PROGRESSIVE, STABLE] * n, dtype=object)[:n]
            rng.shuffle(labels)
            pos = labels == PROGRESSIVE
            if pos.all() or not pos.any():
                continue
            m = binary_metrics(scores, labels)
            assert m["auc"] == pytest.approx(pair_auc(scores, pos), abs=1e-12)
            assert m["acc"] == pytest.approx(np.mean((scores > 0.5) == pos), abs=1e-12)
            if m["precision"] + m["recall"] > 0:
                expected_f1 = (
                    2 * m["precision"] * m["recall"] / (m["precision"] + m["recall"])
                )
                assert m["f1"] == pytest.approx(expected_f1, abs=1e-12)

    def test_auc_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(44)
        scores = rng.uniform(0.0, 1.0, size=15)
        labels = np.array([PROGRESSIVE] * 7 + [STABLE] * 8, dtype=object)
        base = binary_metrics(scores, labels)["auc"]
        assert binary_metrics(scores**2, labels)["auc"] == pytest.approx(base, abs=1e-12)
        assert binary_metrics(0.5 * scores, labels)["auc"] == pytest.approx(base, abs=1e-12)

    def test_validation(self):
        both = [STABLE, PROGRESSIVE]
        with pytest.raises(EmptyInputError):
            binary_metrics([], [])
        with pytest.raises(DimMismatchError):
            binary_metrics([0.5], both)
        with pytest.raises(NonFiniteError):
            binary_metrics([np.nan, 0.5], both)
        with pytest.raises(BadConfigError):
            binary_metrics([0.5, 1.2], both)
        with pytest.raises(BadConfigError):
            binary_metrics([0.5, 0.6], [STABLE, "unknown"])
        with pytest.raises(DegenerateInputError):
            binary_metrics([0.5, 0.6], [STABLE, STABLE])


class TestMannWhitney:
    def test_clean_separation_small_sample(self):
        # Both 'a' values beat both 'b' values; only 1 of the C(4,2) = 6
        # equally likely rank assignments does at least as well.
        assert mann_whitney_one_sided([3.0, 4.0], [1.0, 2.0]) == 1.0 / 6.0
        assert mann_whitney_one_sided([1.0, 2.0], [3.0, 4.0]) == 1.0

    def test_identical_samples_are_uninformative(self):
        assert mann_whitney_one_sided([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) >= 0.5

    def test_complement_identity_with_ties(self):
        # One-sided p-values in the two directions overlap exactly by the
        # null mass at the observed statistic.
        rng = np.random.default_rng(45)
        for _ in range(50):
            a = rng.integers(0, 4, size=int(rng.integers(2, 6))).astype(float)
            b = rng.integers(0, 4, size=int(rng.integers(2, 6))).astype(float)
            p_ab = mann_whitney_one_sided(a, b, method="exact")
            p_ba = mann_whitney_one_sided(b, a, method="exact")
            overlap = p_ab + p_ba - 1.0
            assert overlap >= -1e-12
            assert p_ab > 0.0 and p_ba > 0.0

    def test_approx_tracks_exact(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            n_a = int(rng.integers(3, 10))
            n_b = int(rng.integers(3, 13 - n_a)) if n_a < 10 else 3
            a = rng.normal(0.3, 1.0, size=n_a).round(1)
            b = rng.normal(0.0, 1.0, size=min(n_b, 12 - n_a)).round(1)
            exact = mann_whitney_one_sided(a, b, method="exact")
            approx = mann_whitney_one_sided(a, b, method="approx")
            assert abs(exact - approx) <= 0.05
            assert 0.0 < approx <= 1.0

    def test_auto_switches_on_pooled_size(self):
        rng = np.random.default_rng(47)
        a, b = rng.normal(size=6), rng.normal(size=6)  # pooled 12: exact
        assert mann_whitney_one_sided(a, b) == mann_whitney_one_sided(a, b, "exact")
        a, b = rng.normal(size=7), rng.normal(size=6)  # pooled 13: approx
        assert mann_whitney_one_sided(a, b) == mann_whitney_one_sided(a, b, "approx")

    def test_all_tied_approx_returns_one(self):
        assert mann_whitney_one_sided([2.0] * 8, [2.0] * 8, method="approx") == 1.0

    def test_strong_evidence_large_sample(self):
        rng = np.random.default_rng(48)
        a = rng.normal(2.0, 0.5, size=40)
        b = rng.normal(0.0, 0.5, size=40)
        assert mann_whitney_one_sided(a, b) < 1e-6

    def test_validation(self):
        with pytest.raises(EmptyInputError):
            mann_whitney_one_sided([], [1.0])
        with pytest.raises(NonFiniteError):
            mann_whitney_one_sided([np.nan], [1.0])
        with pytest.raises(BadConfigError):
            mann_whitney_one_sided([1.0], [2.0], method="two-sided")


class TestSpearman:
    def test_examples(self):
        assert spearman([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5, abs=1e-12)
        assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0, abs=1e-12)
        assert spearman([1.0, 2.0, 3.0], [5.0, 0.0, -5.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(49)
        x = rng.normal(size=30)
        y = x + rng.normal(scale=0.5, size=30)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, 3.0 * y + 7.0) == pytest.approx(base, abs=1e-12)

    def test_handles_ties_via_midranks(self):
        x = [1.0, 1.0, 2.0, 3.0]
        y = [1.0, 2.0, 3.0, 4.0]
        rx, ry = naive_midranks(x), naive_midranks(y)
        expected = float(np.corrcoef(rx, ry)[0, 1])
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            assert -1.0 <= spearman(x, y) <= 1.0

    def test_validation(self):
        with pytest.raises(EmptyInputError):
            spearman([1.0], [2.0])
        with pytest.raises(DimMismatchError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(NonFiniteError):
            spearman([1.0, np.inf], [1.0, 2.0])
        with pytest.raises(DegenerateInputError):
            spearman([2.0, 2.0], [1.0, 2.0])
