"""The row-batched rank kernel against the scalar per-row loop it replaced.

The oracle below is the earlier implementation kept verbatim in spirit: a
lexsort rank of one vector, an interpolated backward pass built on it,
and a Python loop over rows. Every check is bit-for-bit, not approximate.
"""

from __future__ import annotations

import numpy as np
import pytest

from kernels import Batch, hybrid
from oracles import feature_similarity, reference_local_prototypes
from ordproto.losses import _rank_alignment, _unit_rows, label_similarity
from ordproto.ranking import rank_backward_rows, rank_rows


def scalar_rank(a: np.ndarray) -> np.ndarray:
    """Sort by value descending, then index ascending; position is the rank."""
    n = a.size
    order = np.lexsort((np.arange(n), -a))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    return ranks


def scalar_backward(a: np.ndarray, upstream: np.ndarray, lam: float) -> np.ndarray:
    return (scalar_rank(a + lam * upstream) - scalar_rank(a)) / lam


def oracle_alignment(target_rows, value_rows, lam, scale):
    """Per-row loop: rank each row, then run the backward pass on each row."""
    total = 0.0
    grads = np.zeros_like(value_rows)
    for i in range(value_rows.shape[0]):
        diff = (scalar_rank(value_rows[i]) - scalar_rank(target_rows[i])).astype(np.float64)
        total += float(diff @ diff)
        grads[i] = scalar_backward(value_rows[i], (2.0 * scale) * diff, lam)
    return scale * total, grads


def oracle_chain(sim_grads, vectors):
    """Cosine-matrix chain rule that recomputes unit rows from the raw vectors."""
    units, norms = _unit_rows(vectors, "vectors")
    cos = units @ units.T
    w = sim_grads + sim_grads.T
    np.fill_diagonal(w, 0.0)
    row_wc = np.sum(w * cos, axis=1)
    return (w @ units - row_wc[:, None] * units) / norms[:, None]


def assert_bit_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def random_matrices(seed, count=200):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        if rng.random() < 0.5:
            # Few distinct values, so most rows carry exact duplicates.
            yield rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(rows, cols))
        else:
            yield rng.standard_normal((rows, cols))


CASES = {
    "duplicates": np.array([[2.0, 2.0, 1.0, 2.0], [0.5, 0.5, 0.5, 0.5], [1.0, 3.0, 3.0, 1.0]]),
    "signed_zero": np.array([[0.0, -0.0, 1.0, -0.0], [-0.0, 0.0, 0.0, -1.0]]),
    "single_row": np.array([[0.3, -1.2, 0.3, 4.0, 0.0, 2.5]]),
    "single_entry": np.array([[7.0]]),
}


class TestRankRows:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_named_cases(self, name):
        a = CASES[name]
        assert_bit_equal(rank_rows(a), np.stack([scalar_rank(row) for row in a]))

    def test_random_matrices(self):
        for a in random_matrices(40):
            assert_bit_equal(rank_rows(a), np.stack([scalar_rank(row) for row in a]))

    def test_signed_zeros_tie_by_position(self):
        assert rank_rows(np.array([[0.0, -0.0], [-0.0, 0.0]])).tolist() == [[1, 2], [1, 2]]


class TestRankBackwardRows:
    @pytest.mark.parametrize("lam", [1.0, 0.25, 3.0])
    def test_random_matrices(self, lam):
        rng = np.random.default_rng(41)
        for a in random_matrices(42):
            up = rng.choice([-2.0, 0.0, 1.0, 0.5], size=a.shape)
            want = np.stack([scalar_backward(a[i], up[i], lam) for i in range(a.shape[0])])
            assert_bit_equal(rank_backward_rows(a, rank_rows(a), up, lam), want)


class TestRankAlignment:
    def check(self, target, value, lam, scale):
        got_value, got_grads = _rank_alignment(rank_rows(target), value, lam, scale)
        want_value, want_grads = oracle_alignment(target, value, lam, scale)
        assert got_value == want_value
        assert_bit_equal(got_grads, want_grads)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_named_cases(self, name):
        value = CASES[name]
        target = -np.abs(value - value[:, ::-1])  # rows with ties of their own
        self.check(target, value, 1.0, 1.0 / value.shape[0])

    def test_random_matrices(self):
        rng = np.random.default_rng(43)
        for value in random_matrices(44):
            target = rng.integers(-3, 1, size=value.shape).astype(np.float64)
            lam = float(rng.choice([0.5, 1.0, 2.0]))
            self.check(target, value, lam, 1.0 / value.shape[0])

    def test_ins2ins_shape(self):
        # An 8x8 label/cosine pair, the shape the ins2ins term ranks each step.
        rng = np.random.default_rng(45)
        for _ in range(50):
            labels = rng.integers(1, 4, size=8)
            feats = rng.standard_normal((8, 5))
            target, value = label_similarity(labels), feature_similarity(feats)
            self.check(target, value, 1.0, 1.0 / 8)

    def test_class_mean_case(self):
        # The 3x3 class-index/class-mean-cosine pair that the cls2cls term ranks.
        rng = np.random.default_rng(46)
        target = label_similarity(np.arange(1, 4))
        for _ in range(50):
            mus = rng.standard_normal((3, 4))
            self.check(target, feature_similarity(mus), 1.0, 1.0 / 3)


class TestLossesAgainstOracle:
    """The structural losses against the per-row loop plus the recomputing chain."""

    def test_ins2ins(self):
        rng = np.random.default_rng(47)
        lam = 1.0
        for _ in range(50):
            batch = Batch(rng.standard_normal((8, 6)), rng.integers(1, 4, size=8), 3)
            s_z = feature_similarity(batch.features)
            value, sim_grads = oracle_alignment(
                label_similarity(batch.labels), s_z, lam, 1.0 / batch.size
            )
            got = hybrid(batch, lam, use_ins2cls=False, use_cls2cls=False)
            assert got.value == value
            assert_bit_equal(got.feature_grads, oracle_chain(sim_grads, batch.features))

    def test_cls2cls_alignment_gradient(self):
        rng = np.random.default_rng(48)
        lam = 1.0
        for _ in range(50):
            labels = np.concatenate([[1, 2, 3], rng.integers(1, 4, size=5)])
            batch = Batch(rng.standard_normal((8, 6)), labels, 3)
            protos = reference_local_prototypes(*batch)
            mus = protos.means
            _, sim_grads = oracle_alignment(
                label_similarity(np.arange(1, 4)), feature_similarity(mus), lam, 1.0 / 3
            )
            dmu = oracle_chain(sim_grads, mus)
            want = dmu[labels - 1] / protos.counts[labels - 1][:, None]
            got = hybrid(batch, lam, use_ins2ins=False, use_ins2cls=False, detach_spread=True)
            assert_bit_equal(got.feature_grads, want)
