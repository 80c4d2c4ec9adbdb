"""Loss terms: similarity matrices, local prototypes, the three structural
losses, cross entropy, and the combined objective the training loop
records, with finite-difference gradient oracles for every smooth term.
Each structural term is the hybrid loss with the other two switched off."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fd import central_diff, rel_err
from kernels import Batch, cross_entropy, hybrid, protos_of, tables_of
from oracles import cosine_similarity, feature_similarity, reference_local_prototypes
from ordproto.data import GenConfig, generate
from ordproto.errors import ZeroVectorError
from ordproto.losses import SPREAD_EPS, _ins2ins, label_similarity
from ordproto.ranking import BlackboxConfig, rank_rows
from ordproto.trainer import HISTORY_COLUMNS, TrainConfig, train

CFG = BlackboxConfig(1.0)


def ins2ins(batch: Batch):
    return hybrid(batch, CFG, use_ins2cls=False, use_cls2cls=False)


def ins2cls(batch: Batch):
    return hybrid(batch, CFG, use_ins2ins=False, use_cls2cls=False)


def cls2cls(batch: Batch, detach_spread: bool = False):
    return hybrid(batch, CFG, use_ins2ins=False, use_ins2cls=False, detach_spread=detach_spread)


def random_batch(rng, m=None, d=None, k=None, all_classes=False) -> Batch:
    m = m or int(rng.integers(4, 9))
    d = d or int(rng.integers(3, 7))
    k = k or int(rng.integers(2, 4))
    if all_classes:
        m = max(m, k)
        labels = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=m - k)])
        rng.shuffle(labels)
    else:
        labels = rng.integers(1, k + 1, size=m)
    features = rng.standard_normal((m, d)) + 0.1  # keep rows safely nonzero
    return Batch(features, labels, k)


def spread_term(batch: Batch) -> float:
    """Independent evaluation of the smooth class-scatter reciprocal."""
    protos = reference_local_prototypes(*batch)
    disp = protos.means - protos.overall
    return batch.dim / (float(np.sum(protos.counts * np.sum(disp * disp, axis=1))) + SPREAD_EPS)


def align_term(target_rows: np.ndarray, value_rows: np.ndarray, scale: float) -> float:
    """Independent evaluation of the mean squared rank gap."""
    total = 0.0
    for i in range(value_rows.shape[0]):
        diff = (rank_rows(value_rows[i : i + 1]) - rank_rows(target_rows[i : i + 1]))[0]
        diff = diff.astype(np.float64)
        total += float(diff @ diff)
    return scale * total


class TestSimilarityMatrices:
    def test_label_similarity_example(self):
        expected = [[0, -1, -2], [-1, 0, -1], [-2, -1, 0]]
        assert label_similarity(np.array([1, 2, 3])).tolist() == expected

    def test_label_similarity_identical_labels(self):
        assert label_similarity(np.array([2, 2])).tolist() == [[0, 0], [0, 0]]

    def test_label_similarity_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.integers(1, 6, size=int(rng.integers(1, 8)))
            s = label_similarity(y)
            assert np.array_equal(s, s.T)
            assert np.all(np.diag(s) == 0.0)
            assert np.all(s <= 0.0)

    def test_feature_similarity_orthonormal(self):
        s = feature_similarity(np.eye(2))
        assert s == pytest.approx(np.eye(2), abs=1e-15)

    def test_feature_similarity_unit_diagonal(self):
        rng = np.random.default_rng(2)
        s = feature_similarity(rng.standard_normal((6, 4)))
        assert np.diag(s) == pytest.approx(np.ones(6), abs=1e-9)
        assert np.all(np.abs(s) <= 1.0 + 1e-12)

    def test_feature_similarity_matches_pairwise_cosine(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((6, 4))
        s = feature_similarity(feats)
        for i in range(6):
            for j in range(6):
                assert s[i, j] == pytest.approx(cosine_similarity(feats[i], feats[j]), abs=1e-12)

    def test_feature_similarity_zero_row(self):
        with pytest.raises(ZeroVectorError):
            feature_similarity(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestLocalPrototypes:
    def test_singleton_class(self):
        z = np.array([[2.0, -1.0, 0.5]])
        protos = protos_of(Batch(z, np.array([2]), 2))
        assert np.array_equal(protos.means[1], z[0])
        assert not protos.means[0].any()
        assert protos.counts.tolist() == [0, 1]

    def test_opposite_members_average_to_zero(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        protos = protos_of(Batch(feats, np.array([1, 1]), 2))
        assert np.array_equal(protos.means[0], np.zeros(2))

    def test_overall_is_count_weighted_mean(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            batch = random_batch(rng)
            protos = protos_of(batch)
            acc = np.zeros(batch.dim)
            for c in range(batch.n_classes):
                if protos.counts[c]:
                    acc += protos.counts[c] * protos.means[c]
            assert acc / batch.size == pytest.approx(protos.overall, abs=1e-12)
            assert int(protos.counts.sum()) == batch.size


class TestIns2Ins:
    def test_zero_when_ranks_agree(self):
        # Unit-circle features at 0, 45, 90 degrees with labels 1, 2, 3:
        # every row of the cosine matrix ranks exactly like the label row.
        r = math.sqrt(0.5)
        feats = np.array([[1.0, 0.0], [r, r], [0.0, 1.0]])
        out = ins2ins(Batch(feats, np.array([1, 2, 3]), 3))
        assert out.value == 0.0

    def test_tied_features_hand_value(self):
        # Identical features tie every cosine row; the earlier-index rule
        # makes both rows rank [1, 2], and only the second label row
        # disagrees, giving (1/2) * (0 + 2) = 1.
        feats = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = ins2ins(Batch(feats, np.array([1, 3]), 3))
        assert out.value == 1.0

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            assert ins2ins(random_batch(rng)).value >= 0.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            batch = random_batch(rng, m=6, d=4)
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            rotated = Batch(batch.features @ q, batch.labels, batch.n_classes)
            a = ins2ins(batch)
            b = ins2ins(rotated)
            assert b.value == a.value
            assert b.feature_grads == pytest.approx(a.feature_grads @ q, abs=1e-9)

    def test_affine_relabel_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            batch = random_batch(rng, k=3)
            relabeled = Batch(batch.features, 3 * batch.labels + 2, 11)
            assert ins2ins(relabeled).value == ins2ins(batch).value

    def test_grads_shaped_and_finite(self):
        rng = np.random.default_rng(8)
        batch = random_batch(rng)
        out = ins2ins(batch)
        assert out.feature_grads.shape == batch.features.shape
        assert np.all(np.isfinite(out.feature_grads))


class TestIns2Cls:
    def test_zero_at_prototypes(self):
        feats = np.array([[1.0, 2.0], [1.0, 2.0], [-3.0, 0.0], [-3.0, 0.0]])
        batch = Batch(feats, np.array([1, 1, 2, 2]), 2)
        assert ins2cls(batch).value == 0.0

    def test_hand_value(self):
        # One class, members [1,0] and [-1,0], d = 2: mean is the origin
        # and the value is (1 + 1) / 2 = 1.
        batch = Batch(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, 1]), 2)
        assert ins2cls(batch).value == 1.0

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            batch = random_batch(rng)
            assert ins2cls(batch).value >= 0.0

    def test_gradient_matches_finite_differences(self):
        # The mean is a function of the batch, so the finite-difference
        # oracle rebuilds the prototypes at every probe point.
        rng = np.random.default_rng(10)
        for _ in range(50):
            batch = random_batch(rng)

            def value(feats):
                probe = Batch(feats, batch.labels, batch.n_classes)
                return ins2cls(probe).value

            out = ins2cls(batch)
            assert rel_err(out.feature_grads, central_diff(value, batch.features)) <= 1e-5

class TestCls2Cls:
    def test_aligned_singletons_have_zero_rank_term(self):
        # Unit-circle class means at 0, 45, 90 degrees rank exactly like
        # the class indices, so the value reduces to the scatter term.
        r = math.sqrt(0.5)
        feats = np.array([[1.0, 0.0], [r, r], [0.0, 1.0]])
        batch = Batch(feats, np.array([1, 2, 3]), 3)
        out = cls2cls(batch)
        assert out.value == pytest.approx(spread_term(batch), rel=1e-12)

    def test_value_decomposes_into_spread_plus_alignment(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            batch = random_batch(rng, all_classes=True)
            protos = protos_of(batch)
            out = cls2cls(batch)
            k = batch.n_classes
            align = align_term(
                label_similarity(np.arange(1, k + 1)),
                feature_similarity(protos.means),
                1.0 / k,
            )
            assert out.value == pytest.approx(spread_term(batch) + align, rel=1e-12)
            assert out.value >= 0.0

    def test_doubling_displacements_quarters_spread(self):
        # Singleton classes placed symmetrically around a common center;
        # doubling each displacement scales the scatter by 4.
        rng = np.random.default_rng(13)
        center = rng.standard_normal(4)
        delta = rng.standard_normal((3, 4))
        delta -= delta.mean(axis=0)  # displacements sum to zero
        labels = np.array([1, 2, 3])
        b1 = Batch(center + delta, labels, 3)
        b2 = Batch(center + 2.0 * delta, labels, 3)
        assert spread_term(b1) / spread_term(b2) == pytest.approx(4.0, rel=1e-6)
        for batch in (b1, b2):
            protos = protos_of(batch)
            value = cls2cls(batch).value
            align = align_term(
                label_similarity(np.arange(1, 4)),
                feature_similarity(protos.means),
                1.0 / 3.0,
            )
            assert value - align == pytest.approx(spread_term(batch), rel=1e-9)

    def test_coincident_means_hit_the_guard(self):
        # All class means equal: the scatter denominator is exactly the
        # epsilon guard and every cosine row ties to rank [1, 2, 3],
        # leaving (0 + 2 + 8) / 3 from the class-index rows.
        v = np.array([1.0, 2.0, 0.5, 4.0])
        batch = Batch(np.stack([v, v, v]), np.array([1, 2, 3]), 3)
        out = cls2cls(batch)
        assert np.isfinite(out.value)
        assert out.value == pytest.approx(4.0 / SPREAD_EPS + 10.0 / 3.0, rel=1e-12)

    def test_detach_changes_gradient_not_value(self):
        rng = np.random.default_rng(14)
        batch = random_batch(rng, all_classes=True)
        flowed = cls2cls(batch, detach_spread=False)
        detached = cls2cls(batch, detach_spread=True)
        assert flowed.value == detached.value
        assert not np.allclose(flowed.feature_grads, detached.feature_grads)

    def test_spread_gradient_matches_finite_differences(self):
        # The alignment gradient is common to both modes, so the detach
        # difference isolates the smooth scatter term exactly.
        rng = np.random.default_rng(15)
        for _ in range(50):
            batch = random_batch(rng, all_classes=True)
            flowed = cls2cls(batch, detach_spread=False)
            detached = cls2cls(batch, detach_spread=True)
            analytic = flowed.feature_grads - detached.feature_grads

            def value(feats):
                return spread_term(Batch(feats, batch.labels, batch.n_classes))

            assert rel_err(analytic, central_diff(value, batch.features)) <= 1e-5


class TestHybrid:
    def test_additivity(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            batch = random_batch(rng, all_classes=True)
            parts = (ins2ins(batch), ins2cls(batch), cls2cls(batch))
            combined = hybrid(batch, CFG)
            assert combined.value == pytest.approx(sum(p.value for p in parts), abs=1e-12)
            assert combined.feature_grads == pytest.approx(
                sum(p.feature_grads for p in parts), abs=1e-12
            )

    def test_switches_drop_terms(self):
        rng = np.random.default_rng(17)
        batch = random_batch(rng, all_classes=True)
        protos = protos_of(batch)
        only_i2i = hybrid(batch, CFG, use_ins2cls=False, use_cls2cls=False)
        _, _, _, ins_target, _ = tables_of(batch)
        assert only_i2i.value == _ins2ins(batch.features, ins_target[0], CFG)[0]
        none = hybrid(batch, CFG, use_ins2ins=False, use_ins2cls=False, use_cls2cls=False)
        assert none.value == 0.0
        assert np.array_equal(none.feature_grads, np.zeros_like(batch.features))
        with_protos = hybrid(batch, CFG, protos=protos)
        assert with_protos.value == hybrid(batch, CFG).value

    def test_terms_list_each_part_with_zero_for_a_disabled_one(self):
        rng = np.random.default_rng(24)
        batch = random_batch(rng, all_classes=True)
        protos = protos_of(batch)
        values = (ins2ins(batch).value, ins2cls(batch).value, cls2cls(batch).value)
        for switches in ((True, True, True), (False, True, True), (True, False, False)):
            out = hybrid(
                batch,
                CFG,
                use_ins2ins=switches[0],
                use_ins2cls=switches[1],
                use_cls2cls=switches[2],
                protos=protos,
            )
            expected = tuple(v if on else 0.0 for v, on in zip(values, switches))
            assert out.terms == expected
            assert out.value == expected[0] + expected[1] + expected[2]


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = cross_entropy(np.zeros((2, 3)), np.array([1, 3]))
        assert out.value == pytest.approx(math.log(3.0), abs=1e-12)

    def test_saturation(self):
        logits = np.array([[50.0, 0.0, 0.0]])
        assert cross_entropy(logits, np.array([1])).value <= 1e-20

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            m, k = int(rng.integers(1, 8)), int(rng.integers(2, 5))
            logits = rng.standard_normal((m, k)) * 3
            labels = rng.integers(1, k + 1, size=m)
            out = cross_entropy(logits, labels)
            assert np.abs(out.logit_grads.sum(axis=1)).max() <= 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            m, k = int(rng.integers(1, 7)), int(rng.integers(2, 5))
            logits = rng.standard_normal((m, k)) * 2
            labels = rng.integers(1, k + 1, size=m)
            out = cross_entropy(logits, labels)
            fd = central_diff(lambda lg: cross_entropy(lg, labels).value, logits)
            assert rel_err(out.logit_grads, fd) <= 1e-5

    def test_small_step_descends(self):
        rng = np.random.default_rng(20)
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(1, 4, size=5)
        out = cross_entropy(logits, labels)
        stepped = cross_entropy(logits - 1e-3 * out.logit_grads, labels)
        assert stepped.value < out.value

class TestTotalLoss:
    """ce + lambda * hyb, which ``train`` assembles and records in its history."""

    def _columns(self, **overrides):
        view = generate(GenConfig(class_counts=(12, 18, 14), input_dim=6), 25).training_view()
        cfg = TrainConfig(
            input_dim=6, hidden_dims=(8,), feature_dim=4, epochs=2, batch_size=6, **overrides
        )
        values = train(cfg, view, seed=1).history.values
        return {name: values[:, i] for i, name in enumerate(HISTORY_COLUMNS)}

    def test_lambda_zero_is_ce(self):
        col = self._columns(lambda_start=0.0, lambda_end=0.0)
        assert np.array_equal(col["loss_total"], col["loss_ce"])
        assert col["loss_i2i"].any() and col["loss_c2c"].any()

    def test_lambda_one_is_plain_sum(self):
        col = self._columns(lambda_start=1.0, lambda_end=1.0)
        hyb = col["loss_i2i"] + col["loss_i2c"] + col["loss_c2c"]
        assert np.array_equal(col["loss_total"], col["loss_ce"] + hyb)

    def test_affine_in_lambda(self):
        col = self._columns()
        assert col["lambda"][0] == 0.0 and col["lambda"][-1] == 1.0
        hyb = col["loss_i2i"] + col["loss_i2c"] + col["loss_c2c"]
        assert np.array_equal(col["loss_total"], col["loss_ce"] + col["lambda"] * hyb)
