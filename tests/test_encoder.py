"""MLP encoder: initialization, forward/backward passes, Adam, checkpoints."""

from __future__ import annotations

import numpy as np
import pytest

from fd import central_diff, rel_err
from oracles import PerArrayAdam, flat_params, param_arrays, per_layer_backward, split_like
from ordproto.encoder import (
    EncoderParams,
    HeadParams,
    Layer,
    _backward,
    _buffer,
    adam_step,
    backward,
    encode,
    forward,
    init_adam,
    init_params,
    learning_rate,
    load_checkpoint,
    save_checkpoint,
)
from ordproto.errors import (
    BadDimsError,
    DatasetIOError,
    DatasetParseError,
    DimMismatchError,
    NonFiniteError,
)
from ordproto.losses import cross_entropy_loss


def tiny_net(dims=(4, 5, 3), n_classes=3, seed=0):
    return init_params(list(dims), n_classes, seed)


def head_grads(grads, enc, head):
    """The (weight, bias) gradients of the head, cut from a flat gradient."""
    return split_like(grads, param_arrays(enc, head))[-2:]


class TestInit:
    def test_deterministic_per_seed(self):
        enc1, head1 = tiny_net(seed=3)
        enc2, head2 = tiny_net(seed=3)
        assert np.array_equal(flat_params(enc1, head1), flat_params(enc2, head2))
        enc3, head3 = tiny_net(seed=4)
        assert not np.array_equal(enc1.layers[0].weight, enc3.layers[0].weight)

    def test_structure(self):
        enc, head = tiny_net()
        assert enc.input_dim == 4 and enc.feature_dim == 3
        assert [layer.weight.shape for layer in enc.layers] == [(4, 5), (5, 3)]
        assert [layer.activation for layer in enc.layers] == ["relu", "identity"]
        assert all(np.array_equal(l.bias, np.zeros(l.bias.shape)) for l in enc.layers)
        assert head.weight.shape == (3, 3)
        assert np.array_equal(head.bias, np.zeros(3))

    def test_weight_scale_tracks_fan_in(self):
        enc, _ = init_params([128, 128], 2, seed=5)
        w = enc.layers[0].weight
        assert w.size == 128 * 128
        assert float(w.var()) == pytest.approx(2.0 / 128.0, rel=0.1)
        assert abs(float(w.mean())) <= 0.005

    def test_bad_dims(self):
        with pytest.raises(BadDimsError):
            init_params([4], 2, seed=0)
        with pytest.raises(BadDimsError):
            init_params([4, 0], 2, seed=0)
        with pytest.raises(BadDimsError):
            init_params([4, 3], 1, seed=0)


class TestForward:
    def test_hand_computed_single_layer(self):
        enc = EncoderParams(
            [Layer(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, -1.0]), "identity")]
        )
        head = HeadParams(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([10.0, 20.0]))
        cache = forward(enc, head, np.array([[1.0, 1.0]]))
        assert np.array_equal(cache.features, np.array([[4.5, 5.0]]))
        assert np.array_equal(cache.logits, np.array([[14.5, 25.0]]))
        assert np.array_equal(encode(enc, np.array([[1.0, 1.0]])), cache.features)

    def test_relu_clamps_negative_preacts(self):
        enc = EncoderParams([Layer(-np.eye(2), np.zeros(2), "relu")])
        head = HeadParams(np.eye(2), np.zeros(2))
        cache = forward(enc, head, np.array([[3.0, -2.0]]))
        assert np.array_equal(cache.preacts[0], np.array([[-3.0, 2.0]]))
        assert np.array_equal(cache.features, np.array([[0.0, 2.0]]))

    def test_zero_input_gives_zero_everything(self):
        enc, head = tiny_net()
        cache = forward(enc, head, np.zeros((2, 4)))
        assert np.array_equal(cache.features, np.zeros((2, 3)))
        assert np.array_equal(cache.logits, np.zeros((2, 3)))

    def test_input_validation(self):
        enc, head = tiny_net()
        with pytest.raises(DimMismatchError):
            forward(enc, head, np.zeros((2, 5)))
        with pytest.raises(NonFiniteError):
            forward(enc, head, np.full((1, 4), np.nan))


class TestBackward:
    def test_logit_route_head_grads_are_outer_products(self):
        enc, head = tiny_net()
        x = np.random.default_rng(33).standard_normal((1, 4))
        cache = forward(enc, head, x)
        d_logits = np.array([[1.0, -2.0, 0.5]])
        head_w, head_b = head_grads(backward(enc, head, cache, d_logits=d_logits), enc, head)
        assert np.array_equal(head_w, np.outer(cache.features[0], d_logits[0]))
        assert np.array_equal(head_b, d_logits[0])

    def test_feature_route_leaves_head_untouched(self):
        enc, head = tiny_net()
        cache = forward(enc, head, np.ones((2, 4)))
        grads = backward(enc, head, cache, d_features=np.ones((2, 3)))
        head_w, head_b = head_grads(grads, enc, head)
        assert np.array_equal(head_w, np.zeros((3, 3)))
        assert np.array_equal(head_b, np.zeros(3))

    def test_zero_upstream_gives_zero_grads(self):
        enc, head = tiny_net()
        cache = forward(enc, head, np.random.default_rng(34).standard_normal((3, 4)))
        grads = backward(enc, head, cache, d_features=np.zeros((3, 3)))
        assert grads.shape == (55,) and not grads.any()

    def test_merged_routes_add(self):
        enc, head = tiny_net()
        cache = forward(enc, head, np.random.default_rng(35).standard_normal((3, 4)))
        df = np.random.default_rng(36).standard_normal((3, 3))
        dl = np.random.default_rng(37).standard_normal((3, 3))
        merged = backward(enc, head, cache, d_features=df, d_logits=dl)
        split = backward(enc, head, cache, d_features=df) + backward(enc, head, cache, d_logits=dl)
        assert merged == pytest.approx(split, abs=1e-12)

    def test_full_gradient_matches_finite_differences(self):
        # Scalar objective exercising both routes: a linear probe on the
        # features plus cross entropy on the logits, differentiated with
        # respect to all 55 parameters of a 4-5-3 network, perturbed through
        # the flat buffer that the layer and head arrays view.
        enc, head = tiny_net()
        params = init_adam(enc, head).params
        rng = np.random.default_rng(38)
        x = rng.standard_normal((3, 4))
        labels = np.array([1, 2, 3])
        probe = rng.standard_normal((3, 3))
        base = params.copy()
        assert base.size == 55

        def objective(flat):
            params[...] = flat
            cache = forward(enc, head, x)
            value = float((cache.features * probe).sum())
            value += cross_entropy_loss(cache.logits, labels).value
            return value

        try:
            cache = forward(enc, head, x)
            ce = cross_entropy_loss(cache.logits, labels)
            analytic = backward(enc, head, cache, d_features=probe, d_logits=ce.logit_grads)
            numeric = central_diff(objective, base)
        finally:
            params[...] = base
        assert rel_err(analytic, numeric) <= 1e-5

    @pytest.mark.parametrize("dims", [(4, 3), (4, 5, 3), (16, 64, 64, 32)])
    def test_flat_gradient_equals_per_layer_gradients(self, dims):
        rng = np.random.default_rng(sum(dims))
        enc, head = tiny_net(dims, n_classes=3, seed=len(dims))
        # One buffer reused by every call, as the training loop reuses it;
        # NaN first, so an entry the kernel leaves unwritten shows.
        buffer, views = _buffer(enc, head)
        buffer[...] = np.nan
        for m in (1, 3, 8):
            cache = forward(enc, head, rng.standard_normal((m, dims[0])))
            df = rng.standard_normal((m, dims[-1]))
            dl = rng.standard_normal((m, 3))
            routes = ({"d_features": df}, {"d_logits": dl}, {"d_features": df, "d_logits": dl})
            for kwargs in routes:
                expected = np.concatenate(
                    [g.ravel() for g in per_layer_backward(enc, head, cache, **kwargs)]
                )
                assert np.array_equal(backward(enc, head, cache, **kwargs), expected)
                _backward(enc, head, cache, kwargs.get("d_features"), kwargs.get("d_logits"), views)
                assert np.array_equal(buffer, expected)

    def test_shape_checks(self):
        enc, head = tiny_net()
        cache = forward(enc, head, np.ones((2, 4)))
        with pytest.raises(DimMismatchError):
            backward(enc, head, cache, d_features=np.ones((2, 4)))
        with pytest.raises(DimMismatchError):
            backward(enc, head, cache, d_logits=np.ones((1, 3)))


class TestAdam:
    def _fixed_net(self):
        enc = EncoderParams(
            [Layer(np.array([[0.4, -0.2], [0.3, 0.5]]), np.array([-0.3, 0.25]), "identity")]
        )
        head = HeadParams(np.array([[0.2, -0.5], [0.15, -0.1]]), np.array([0.1, 0.3]))
        return enc, head

    def test_learning_rate_schedule(self):
        state = init_adam(*tiny_net())
        assert learning_rate(state, 0) == 2e-4
        assert learning_rate(state, 14) == pytest.approx(9.7535e-5, rel=1e-4)
        assert learning_rate(state, 14) == 2e-4 * 0.95**14

    def test_zero_gradient_leaves_params_bitwise(self):
        enc, head = tiny_net()
        state = init_adam(enc, head)
        before = state.params.copy()
        adam_step(state, np.zeros_like(state.params), epoch=0)
        assert state.step == 1
        assert np.array_equal(state.params, before)
        assert np.array_equal(flat_params(enc, head), before)

    def test_drives_quadratic_to_zero(self):
        # Gradient of 0.5 * ||params||^2 is the parameters themselves; the
        # normalized steps shrink every coordinate toward zero, strictly at
        # first, then within the decayed step size of the optimum.
        enc, head = self._fixed_net()
        state = init_adam(enc, head, base_lr=0.01, lr_decay=0.995)
        norms = [float(np.linalg.norm(state.params))]
        for step in range(200):
            adam_step(state, state.params.copy(), epoch=step)
            norms.append(float(np.linalg.norm(state.params)))
        for k in range(8):
            assert norms[k + 1] < norms[k]
        assert max(abs(x) for x in flat_params(enc, head)) < 1e-2

    def test_state_mismatch_rejected(self):
        enc, head = tiny_net()
        other_state = init_adam(*init_params([4, 3], 3, seed=1))
        grads = backward(enc, head, forward(enc, head, np.ones((1, 4))), d_logits=np.ones((1, 3)))
        with pytest.raises(DimMismatchError):
            adam_step(other_state, grads, epoch=0)

    def test_uses_decayed_rate_for_given_epoch(self):
        enc, head = self._fixed_net()
        state = init_adam(enc, head, base_lr=0.01, lr_decay=0.5)
        w_before = enc.layers[0].weight.copy()
        adam_step(state, np.ones_like(state.params), epoch=3)
        # First step with constant gradients moves by ~lr in every entry.
        moved = np.abs(enc.layers[0].weight - w_before)
        assert moved == pytest.approx(np.full((2, 2), 0.01 * 0.5**3), rel=1e-6)

    def test_flat_step_equals_per_array_loop(self):
        # 50 steps with the learning rate decaying every 5 steps; the flat
        # buffer and the per-array loop must agree bit for bit.
        enc, head = init_params([16, 64, 64, 32], 3, seed=7)
        oracle = PerArrayAdam([a.copy() for a in param_arrays(enc, head)], lr_decay=0.9)
        state = init_adam(enc, head, lr_decay=0.9)
        rng = np.random.default_rng(40)
        for step in range(50):
            grads = rng.standard_normal(state.params.size) * rng.uniform(1e-6, 10.0)
            grads[rng.random(grads.size) < 0.1] = 0.0
            adam_step(state, grads, epoch=step // 5)
            oracle.step(split_like(grads, oracle.params), epoch=step // 5)
        assert state.step == oracle.t == 50
        pairs = ((state.params, oracle.params), (state.m, oracle.m), (state.v, oracle.v))
        for flat, arrays in pairs:
            assert np.array_equal(flat, np.concatenate([a.ravel() for a in arrays]))
        assert np.array_equal(flat_params(enc, head), state.params)

    def test_buffer_is_viewed_by_the_parameter_fields(self):
        enc, head = tiny_net()
        before = flat_params(enc, head)
        state = init_adam(enc, head)
        assert state.params.shape == (55,) and np.array_equal(state.params, before)
        for a in param_arrays(enc, head):
            assert np.shares_memory(a, state.params)


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        enc, head = tiny_net(seed=9)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(enc, head, path, seed=9, epoch=41)
        enc2, head2, meta = load_checkpoint(path)
        assert np.array_equal(flat_params(enc, head), flat_params(enc2, head2))
        assert [l.activation for l in enc2.layers] == ["relu", "identity"]
        assert meta == {"seed": 9, "epoch": 41, "dims": [4, 5, 3]}
        x = np.random.default_rng(39).standard_normal((2, 4))
        assert np.array_equal(encode(enc2, x), encode(enc, x))

    def test_io_and_parse_errors(self, tmp_path):
        with pytest.raises(DatasetIOError):
            load_checkpoint(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[not json")
        with pytest.raises(DatasetParseError):
            load_checkpoint(bad)
        truncated = tmp_path / "truncated.json"
        truncated.write_text('{"dims": [2, 2]}')
        with pytest.raises(DatasetParseError):
            load_checkpoint(truncated)
