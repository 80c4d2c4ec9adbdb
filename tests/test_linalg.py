"""The unit-row kernel, and the one-vector oracles other tests compare
against: cosine similarity and its gradients, label distance, softmax."""

from __future__ import annotations

import numpy as np
import pytest

from fd import central_diff, rel_err
from oracles import (
    as_vector,
    cosine_similarity,
    cosine_similarity_grad,
    neg_abs_distance,
    softmax,
)
from ordproto.errors import (
    DimMismatchError,
    EmptyInputError,
    NonFiniteError,
    ZeroVectorError,
)
from ordproto.linalg import _dot_norms, _unit
from ordproto.prototypes import ema_update


class TestCosineSimilarity:
    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_self_similarity(self):
        assert cosine_similarity([3, 4], [3, 4]) == pytest.approx(1.0, abs=1e-15)

    def test_positive_collinear(self):
        assert cosine_similarity([1, 2], [2, 4]) == pytest.approx(1.0, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            u = rng.standard_normal(5)
            v = rng.standard_normal(5)
            assert cosine_similarity(u, v) == cosine_similarity(v, u)

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            a, b = rng.uniform(0.01, 100, size=2)
            assert cosine_similarity(a * u, b * v) == pytest.approx(
                cosine_similarity(u, v), abs=1e-12
            )

    def test_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            u = rng.standard_normal(6) * 10.0 ** rng.integers(-3, 4)
            v = rng.standard_normal(6) * 10.0 ** rng.integers(-3, 4)
            assert abs(cosine_similarity(u, v)) <= 1.0 + 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            cosine_similarity([0, 0], [1, 2])
        with pytest.raises(ZeroVectorError):
            cosine_similarity([1, 2], [0, 0])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            cosine_similarity([1, 2], [1, 2, 3])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            cosine_similarity([1, np.nan], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            cosine_similarity([], [])


class TestCosineGrad:
    def test_maximum_has_zero_grad(self):
        u = np.array([0.6, 0.8])
        gu, gv = cosine_similarity_grad(u, u)
        assert np.allclose(gu, 0.0, atol=1e-15)
        assert np.allclose(gv, 0.0, atol=1e-15)

    def test_orthonormal_pair(self):
        gu, _ = cosine_similarity_grad([1.0, 0.0], [0.0, 1.0])
        assert gu == pytest.approx([0.0, 1.0], abs=1e-15)

    def test_matches_finite_differences_dim5(self):
        rng = np.random.default_rng(21)
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        gu, gv = cosine_similarity_grad(u, v)
        fu = central_diff(lambda x: cosine_similarity(x, v), u)
        fv = central_diff(lambda x: cosine_similarity(u, x), v)
        assert rel_err(gu, fu) <= 1e-6
        assert rel_err(gv, fv) <= 1e-6

    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            dim = int(rng.integers(2, 8))
            u = rng.standard_normal(dim) * rng.uniform(0.1, 5)
            v = rng.standard_normal(dim) * rng.uniform(0.1, 5)
            gu, gv = cosine_similarity_grad(u, v)
            assert rel_err(gu, central_diff(lambda x: cosine_similarity(x, v), u)) <= 1e-5
            assert rel_err(gv, central_diff(lambda x: cosine_similarity(u, x), v)) <= 1e-5


class TestNegAbsDistance:
    def test_examples(self):
        assert neg_abs_distance(1, 3) == -2.0
        assert neg_abs_distance(2, 2) == 0.0
        assert neg_abs_distance(3, 1) == -2.0

    def test_nonpositive_and_symmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a, b = rng.standard_normal(2) * 10
            assert neg_abs_distance(a, b) <= 0.0
            assert neg_abs_distance(a, b) == neg_abs_distance(b, a)


class TestSoftmax:
    def test_two_equal_inputs_exact_half(self):
        out = softmax([0.0, 0.0])
        assert out[0] == 0.5 and out[1] == 0.5

    def test_shift_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            v = rng.standard_normal(4)
            c = rng.uniform(-50, 50)
            assert softmax(v + c) == pytest.approx(softmax(v), abs=1e-12)

    def test_two_point_value(self):
        # 1 / (1 + e^-2) evaluated independently.
        assert softmax([1.0, -1.0])[0] == pytest.approx(0.8807970779778823, abs=1e-6)

    def test_sums_to_one_positive(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            v = rng.standard_normal(int(rng.integers(1, 9))) * 100
            out = softmax(v)
            assert abs(out.sum() - 1.0) <= 1e-12
            assert np.all(out > 0.0)

    def test_no_overflow_on_large_inputs(self):
        out = softmax([1000.0, 999.0])
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            softmax([])


class TestNormalizeAndAsVector:
    def test_unit_norm(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            rows = rng.standard_normal((3, 4)) * rng.uniform(0.01, 100, size=(3, 1))
            units = _unit(rows, _dot_norms(rows))
            assert np.linalg.norm(units, axis=1) == pytest.approx(np.ones(3), abs=1e-12)

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            rows = rng.standard_normal((2, 6))
            once = _unit(rows, _dot_norms(rows))
            assert np.array_equal(_unit(once, _dot_norms(once)), once)

    def test_dot_norms_are_the_one_vector_dot(self):
        rng = np.random.default_rng(53)
        for d in (1, 3, 32):
            rows = rng.standard_normal((5, d))
            assert _dot_norms(rows).tolist() == [float(np.sqrt(r.dot(r))) for r in rows]

    def test_zero_rejected(self):
        # The EMA step checks the norms before it normalizes a class mean.
        means = np.array((np.zeros(3), np.ones(3)))
        with pytest.raises(ZeroVectorError, match="cannot normalize class mean with norm 0.0"):
            ema_update(np.zeros((2, 3)), means, 0.9)

    def test_as_vector_validation(self):
        with pytest.raises(EmptyInputError):
            as_vector([])
        with pytest.raises(EmptyInputError):
            as_vector([[1.0, 2.0]])
        with pytest.raises(NonFiniteError):
            as_vector([1.0, np.inf])
