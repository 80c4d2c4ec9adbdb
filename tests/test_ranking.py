"""Hard descending rank, its brute-force argmin oracle, and the
interpolated backward pass, one row at a time through the row kernels."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from oracles import rank_argmin_oracle
from ordproto.errors import BadConfigError
from ordproto.ranking import rank_backward_rows, rank_rows
from ordproto.trainer import TrainConfig


def rank(a) -> np.ndarray:
    """``rank_rows`` of a one-row matrix holding ``a``."""
    return rank_rows(np.asarray([a], dtype=np.float64))[0]


def blackbox_rank_backward(a, upstream, lam: float) -> np.ndarray:
    """``rank_backward_rows`` of one row."""
    rows = np.asarray([a], dtype=np.float64)
    up = np.asarray([upstream], dtype=np.float64)
    return rank_backward_rows(rows, rank_rows(rows), up, lam)[0]


def counting_rank(a) -> np.ndarray:
    """Literal counting definition: 1 + #{larger} + #{earlier equal}."""
    arr = np.asarray(a, dtype=np.float64)
    return np.array(
        [1 + int(np.sum(arr > arr[i])) + int(np.sum(arr[:i] == arr[i])) for i in range(arr.size)],
        dtype=np.int64,
    )


class TestRank:
    def test_examples(self):
        assert rank([3, 1, 2]).tolist() == [1, 3, 2]
        assert rank([2, 2, 1]).tolist() == [1, 2, 3]  # earlier index wins the tie
        assert rank([5]).tolist() == [1]

    def test_matches_counting_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            a = rng.integers(0, 4, size=n).astype(np.float64)  # plenty of ties
            assert np.array_equal(rank(a), counting_rank(a))

    def test_always_a_permutation(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            a = rng.choice([0.0, 0.5, 1.0, 2.0], size=n)
            assert sorted(rank(a).tolist()) == list(range(1, n + 1))

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.standard_normal(int(rng.integers(2, 8)))
            base = rank(a)
            assert np.array_equal(rank(2.0 * a + 3.0), base)
            assert np.array_equal(rank(a**3), base)
            assert np.array_equal(rank(np.exp(a)), base)


class TestOracle:
    def test_example_is_unique_minimizer(self):
        a = np.array([3.0, 1.0, 2.0])
        best = rank_argmin_oracle(a)
        assert best.tolist() == [1, 3, 2]
        assert float(a @ best) == 10.0
        for pi in permutations(range(1, 4)):
            if list(pi) != best.tolist():
                assert float(a @ np.array(pi)) > 10.0

    def test_singleton(self):
        assert rank_argmin_oracle([1]).tolist() == [1]

    def test_equals_rank_on_distinct_inputs(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a = rng.standard_normal(n)
            while np.unique(a).size < n:
                a = rng.standard_normal(n)
            assert np.array_equal(rank(a), rank_argmin_oracle(a))

    def test_ties_break_lexicographically(self):
        # Tied inputs have several minimizers; the oracle must agree with
        # the lower-index-first rank on them too.
        assert np.array_equal(rank_argmin_oracle([2.0, 2.0, 1.0]), rank([2.0, 2.0, 1.0]))
        assert np.array_equal(rank_argmin_oracle([1.0, 1.0]), rank([1.0, 1.0]))

    def test_size_limit(self):
        with pytest.raises(AssertionError):
            rank_argmin_oracle(list(range(9)))


class TestBlackboxBackward:
    # The step is TrainConfig.blackbox_lambda; the config is where it is checked.
    def test_config_requires_positive_step(self):
        with pytest.raises(BadConfigError):
            TrainConfig(blackbox_lambda=0.0)
        with pytest.raises(BadConfigError):
            TrainConfig(blackbox_lambda=-1.0)
        assert TrainConfig().blackbox_lambda == 1.0

    @pytest.mark.parametrize("step", [float("inf"), float("nan")])
    def test_config_requires_finite_step(self, step):
        # An infinite step would turn every rank gradient into NaN.
        with pytest.raises(BadConfigError, match="finite and positive"):
            TrainConfig(blackbox_lambda=step)

    def test_zero_upstream_gives_zero(self):
        g = blackbox_rank_backward([3.0, 1.0, 2.0], [0.0, 0.0, 0.0], 1.0)
        assert np.array_equal(g, np.zeros(3))

    def test_plateau_gives_zero(self):
        # A step too small to let any pair of entries cross.
        g = blackbox_rank_backward([0.0, 10.0, 20.0], [1.0, 1.0, -1.0], 1e-9)
        assert np.array_equal(g, np.zeros(3))

    def test_two_element_crossing(self):
        # Upstream from the squared rank gap against target [1, 2] moves
        # the rank of a = [1, 2] from [2, 1] to [1, 2] at lambda = 1.
        target = np.array([1, 2])
        a = np.array([1.0, 2.0])
        upstream = 2.0 * (rank(a) - target).astype(np.float64)
        g = blackbox_rank_backward(a, upstream, 1.0)
        assert g.tolist() == [-1.0, 1.0]
        # One descent step resolves the wrong ordering exactly.
        stepped = a - 1.0 * g
        assert np.array_equal(rank(stepped), target)

    def test_descent_never_worsens_pair_loss(self):
        """A gradient step on the squared rank gap of a 2-element input
        never increases that loss, for any positive step size."""
        rng = np.random.default_rng(30)
        for _ in range(200):
            a = rng.standard_normal(2)
            if a[0] == a[1]:
                continue
            target = rank(rng.standard_normal(2))
            before = float(np.sum((rank(a) - target) ** 2))
            upstream = 2.0 * (rank(a) - target).astype(np.float64)
            g = blackbox_rank_backward(a, upstream, 1.0)
            for eta in (0.3, 1.0, 5.0):
                after = float(np.sum((rank(a - eta * g) - target) ** 2))
                assert after <= before
