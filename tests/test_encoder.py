"""MLP encoder: initialization, forward/backward passes, Adam, checkpoints."""

from __future__ import annotations

import json

import numpy as np
import pytest

from fd import central_diff, rel_err
from kernels import cross_entropy, flat_backward
from oracles import PerArrayAdam, flat_params, param_arrays, per_layer_backward, split_like
from ordproto.encoder import (
    EncoderParams,
    Layer,
    adam_step,
    backward,
    buffer,
    encode,
    forward,
    init_adam,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from ordproto.errors import (
    DatasetIOError,
    DatasetParseError,
    DimMismatchError,
    NonFiniteError,
)


def tiny_net(dims=(4, 5, 3), n_classes=3, seed=0):
    return init_params(list(dims), n_classes, seed)


def default_adam(enc, head):
    """``init_adam`` with ``TrainConfig``'s default betas and epsilon."""
    return init_adam(enc, head, beta1=0.5, beta2=0.999, epsilon=1e-8)


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
        # ReLU on the hidden layer only: its outputs are clamped, the features are not.
        cache = forward(enc, head, np.random.default_rng(5).standard_normal((20, 4)))
        assert cache.inputs[1].min() == 0.0 and cache.features.min() < 0.0
        assert all(np.array_equal(l.bias, np.zeros(l.bias.shape)) for l in enc.layers)
        assert head.weight.shape == (3, 3)
        assert np.array_equal(head.bias, np.zeros(3))

    def test_weight_scale_tracks_fan_in(self):
        enc, _ = init_params([128, 128], 2, seed=5)
        w = enc.layers[0].weight
        assert w.size == 128 * 128
        assert float(w.var()) == pytest.approx(2.0 / 128.0, rel=0.1)
        assert abs(float(w.mean())) <= 0.005


class TestForward:
    def test_hand_computed_single_layer(self):
        enc = EncoderParams(
            [Layer(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, -1.0]))]
        )
        head = Layer(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([10.0, 20.0]))
        cache = forward(enc, head, np.array([[1.0, 1.0]]))
        assert np.array_equal(cache.features, np.array([[4.5, 5.0]]))
        assert np.array_equal(cache.logits, np.array([[14.5, 25.0]]))
        assert np.array_equal(encode(enc, np.array([[1.0, 1.0]])), cache.features)

    def test_relu_clamps_negative_preacts(self):
        # ReLU follows every layer but the last, which passes negatives through.
        enc = EncoderParams([Layer(-np.eye(2), np.zeros(2)), Layer(-np.eye(2), np.zeros(2))])
        head = Layer(np.eye(2), np.zeros(2))
        cache = forward(enc, head, np.array([[3.0, -2.0]]))
        assert np.array_equal(cache.preacts[0], np.array([[-3.0, 2.0]]))
        assert np.array_equal(cache.inputs[1], np.array([[0.0, 2.0]]))
        assert np.array_equal(cache.features, np.array([[0.0, -2.0]]))
        assert np.array_equal(encode(enc, np.array([[3.0, -2.0]])), cache.features)

    def test_zero_input_gives_zero_everything(self):
        enc, head = tiny_net()
        cache = forward(enc, head, np.zeros((2, 4)))
        assert np.array_equal(cache.features, np.zeros((2, 3)))
        assert np.array_equal(cache.logits, np.zeros((2, 3)))

    def test_input_validation(self):
        # forward trusts its rows; encode, the inference entry, checks them.
        enc, _ = tiny_net()
        with pytest.raises(DimMismatchError):
            encode(enc, np.zeros((2, 5)))
        with pytest.raises(NonFiniteError):
            encode(enc, np.full((1, 4), np.nan))


class TestBackward:
    def test_logit_route_head_grads_are_outer_products(self):
        enc, head = tiny_net()
        x = np.random.default_rng(33).standard_normal((1, 4))
        cache = forward(enc, head, x)
        d_logits = np.array([[1.0, -2.0, 0.5]])
        head_w, head_b = head_grads(flat_backward(enc, head, cache, d_logits=d_logits), enc, head)
        assert np.array_equal(head_w, np.outer(cache.features[0], d_logits[0]))
        assert np.array_equal(head_b, d_logits[0])

    def test_feature_route_leaves_head_untouched(self):
        enc, head = tiny_net()
        cache = forward(enc, head, np.ones((2, 4)))
        grads = flat_backward(enc, head, cache, d_features=np.ones((2, 3)))
        head_w, head_b = head_grads(grads, enc, head)
        assert np.array_equal(head_w, np.zeros((3, 3)))
        assert np.array_equal(head_b, np.zeros(3))

    def test_zero_upstream_gives_zero_grads(self):
        enc, head = tiny_net()
        cache = forward(enc, head, np.random.default_rng(34).standard_normal((3, 4)))
        grads = flat_backward(enc, head, cache, d_features=np.zeros((3, 3)))
        assert grads.shape == (55,) and not grads.any()

    def test_merged_routes_add(self):
        enc, head = tiny_net()
        cache = forward(enc, head, np.random.default_rng(35).standard_normal((3, 4)))
        df = np.random.default_rng(36).standard_normal((3, 3))
        dl = np.random.default_rng(37).standard_normal((3, 3))
        merged = flat_backward(enc, head, cache, d_features=df, d_logits=dl)
        split = flat_backward(enc, head, cache, df) + flat_backward(enc, head, cache, d_logits=dl)
        assert merged == pytest.approx(split, abs=1e-12)

    def test_full_gradient_matches_finite_differences(self):
        # Scalar objective exercising both routes: a linear probe on the
        # features plus cross entropy on the logits, differentiated with
        # respect to all 55 parameters of a 4-5-3 network, perturbed through
        # the flat buffer that the layer and head arrays view.
        enc, head = tiny_net()
        params = default_adam(enc, head).params
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
            value += cross_entropy(cache.logits, labels).value
            return value

        try:
            cache = forward(enc, head, x)
            ce = cross_entropy(cache.logits, labels)
            analytic = flat_backward(enc, head, cache, d_features=probe, d_logits=ce.logit_grads)
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
        flat, views = buffer(enc, head)
        flat[...] = np.nan
        for m in (1, 3, 8):
            cache = forward(enc, head, rng.standard_normal((m, dims[0])))
            df = rng.standard_normal((m, dims[-1]))
            dl = rng.standard_normal((m, 3))
            routes = ({"d_features": df}, {"d_logits": dl}, {"d_features": df, "d_logits": dl})
            for kwargs in routes:
                expected = np.concatenate(
                    [g.ravel() for g in per_layer_backward(enc, head, cache, **kwargs)]
                )
                # backward takes both routes; zeros stand in for an absent one.
                df_or_0 = kwargs.get("d_features", np.zeros((m, dims[-1])))
                dl_or_0 = kwargs.get("d_logits", np.zeros((m, 3)))
                backward(enc, head, cache, df_or_0, dl_or_0, views)
                assert np.array_equal(flat, expected)


class TestAdam:
    def _fixed_net(self):
        enc = EncoderParams(
            [Layer(np.array([[0.4, -0.2], [0.3, 0.5]]), np.array([-0.3, 0.25]))]
        )
        head = Layer(np.array([[0.2, -0.5], [0.15, -0.1]]), np.array([0.1, 0.3]))
        return enc, head

    def test_zero_gradient_leaves_params_bitwise(self):
        enc, head = tiny_net()
        state = default_adam(enc, head)
        before = state.params.copy()
        adam_step(state, np.zeros_like(state.params), 2e-4)
        assert state.step == 1
        assert np.array_equal(state.params, before)
        assert np.array_equal(flat_params(enc, head), before)

    def test_drives_quadratic_to_zero(self):
        # Gradient of 0.5 * ||params||^2 is the parameters themselves; the
        # normalized steps shrink every coordinate toward zero, strictly at
        # first, then within the decayed step size of the optimum.
        enc, head = self._fixed_net()
        state = default_adam(enc, head)
        norms = [float(np.linalg.norm(state.params))]
        for step in range(200):
            adam_step(state, state.params.copy(), 0.01 * 0.995**step)
            norms.append(float(np.linalg.norm(state.params)))
        for k in range(8):
            assert norms[k + 1] < norms[k]
        assert max(abs(x) for x in flat_params(enc, head)) < 1e-2

    def test_uses_decayed_rate_for_given_epoch(self):
        enc, head = self._fixed_net()
        state = default_adam(enc, head)
        w_before = enc.layers[0].weight.copy()
        adam_step(state, np.ones_like(state.params), 0.01 * 0.5**3)
        # First step with constant gradients moves by ~lr in every entry.
        moved = np.abs(enc.layers[0].weight - w_before)
        assert moved == pytest.approx(np.full((2, 2), 0.01 * 0.5**3), rel=1e-6)

    def test_flat_step_equals_per_array_loop(self):
        # 50 steps with the learning rate decaying every 5 steps; the flat
        # buffer and the per-array loop must agree bit for bit.
        enc, head = init_params([16, 64, 64, 32], 3, seed=7)
        oracle = PerArrayAdam([a.copy() for a in param_arrays(enc, head)], lr_decay=0.9)
        state = default_adam(enc, head)
        rng = np.random.default_rng(40)
        for step in range(50):
            grads = rng.standard_normal(state.params.size) * rng.uniform(1e-6, 10.0)
            grads[rng.random(grads.size) < 0.1] = 0.0
            adam_step(state, grads, 2e-4 * 0.9 ** (step // 5))
            oracle.step(split_like(grads, oracle.params), epoch=step // 5)
        assert state.step == oracle.t == 50
        pairs = ((state.params, oracle.params), (state.m, oracle.m), (state.v, oracle.v))
        for flat, arrays in pairs:
            assert np.array_equal(flat, np.concatenate([a.ravel() for a in arrays]))
        assert np.array_equal(flat_params(enc, head), state.params)

    def test_buffer_is_viewed_by_the_parameter_fields(self):
        enc, head = tiny_net()
        before = flat_params(enc, head)
        state = default_adam(enc, head)
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
        layers = json.loads(path.read_text())["layers"]
        assert [spec["activation"] for spec in layers] == ["relu", "identity"]
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
