import math
import warnings

import numpy as np
import pytest

from imbench import nn
from imbench.errors import CacheMismatchError, DimensionMismatchError


def finite_difference_grads(net, batch, target, h=1e-5, training=False, seed=None):
    """Central differences of L = 0.5 * sum((forward(net, batch) - target)^2)
    w.r.t. every parameter entry. Independent of backward()."""
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        flat = p.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            out_p, _ = nn.forward(net, batch, training=training, seed=seed)
            loss_p = 0.5 * np.sum((out_p - target) ** 2)
            flat[i] = orig - h
            out_m, _ = nn.forward(net, batch, training=training, seed=seed)
            loss_m = 0.5 * np.sum((out_m - target) ** 2)
            flat[i] = orig
            gflat[i] = (loss_p - loss_m) / (2 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-4):
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(f), 1e-8)
        assert np.max(np.abs(a - f) / denom) < rtol


class TestInitNetwork:
    def test_generator_shape_for_30_features(self):
        net = nn.init_network([(50, 128), (128, 64), (64, 30)], ["relu", "relu", "tanh"], seed=0)
        assert [ly.weights.shape for ly in net.layers] == [(50, 128), (128, 64), (64, 30)]
        assert net.output_dim == 30
        assert all(np.all(ly.bias == 0.0) for ly in net.layers)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            nn.init_network([], [], seed=0)

    def test_activation_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            nn.init_network([(2, 2)], ["relu", "relu"], seed=0)

    def test_glorot_bound(self):
        net = nn.init_network([(100, 100)], ["identity"], seed=123)
        limit = math.sqrt(6.0 / 200.0)
        assert np.max(np.abs(net.layers[0].weights)) <= limit

    def test_dimension_chain_enforced(self):
        with pytest.raises(DimensionMismatchError):
            nn.init_network([(2, 3), (4, 1)], ["relu", "sigmoid"], seed=0)


def hand_net():
    """2-2-1 net with pinned weights for hand-checked passes."""
    l0 = nn.Layer(np.array([[0.1, -0.2], [0.4, 0.3]]), np.array([0.05, -0.05]), "tanh")
    l1 = nn.Layer(np.array([[0.7], [-0.6]]), np.array([0.02]), "sigmoid")
    return nn.MLPNetwork([l0, l1])


class TestForward:
    def test_zero_weights_sigmoid_gives_half(self):
        net = nn.MLPNetwork([nn.Layer(np.zeros((3, 1)), np.zeros(1), "sigmoid")])
        out, _ = nn.forward(net, np.random.default_rng(0).random((5, 3)))
        assert np.all(out == 0.5)

    def test_hand_computed_pass(self):
        net = hand_net()
        x = np.array([[0.5, -1.0]])
        z0 = x @ net.layers[0].weights + net.layers[0].bias
        a0 = np.tanh(z0)
        z1 = a0 @ net.layers[1].weights + net.layers[1].bias
        expected = 1.0 / (1.0 + np.exp(-z1))
        out, _ = nn.forward(net, x)
        assert np.allclose(out, expected, atol=1e-12)

    def test_sigmoid_saturates_without_overflow(self):
        net = nn.MLPNetwork([nn.Layer(np.array([[1.0]]), np.array([0.0]), "sigmoid")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, _ = nn.forward(net, np.array([[1000.0], [-1000.0]]))
        assert out[0, 0] == 1.0
        assert 0.0 <= out[1, 0] < 1e-200

    def test_relu_clips_negative(self):
        net = nn.MLPNetwork([nn.Layer(np.array([[1.0]]), np.array([0.0]), "relu")])
        out, _ = nn.forward(net, np.array([[-3.2]]))
        assert out[0, 0] == 0.0

    def test_dimension_mismatch(self):
        net = hand_net()
        with pytest.raises(DimensionMismatchError):
            nn.forward(net, np.zeros((1, 3)))

    def test_output_rows_match_batch_rows(self):
        net = hand_net()
        for rows in (1, 7, 32):
            out, _ = nn.forward(net, np.zeros((rows, 2)))
            assert out.shape[0] == rows

    def test_inference_is_seed_independent(self):
        net = nn.init_network([(3, 8), (8, 1)], ["relu", "sigmoid"], dropout_rate=0.5, seed=0)
        x = np.random.default_rng(1).random((4, 3))
        a, _ = nn.forward(net, x, training=False, seed=1)
        b, _ = nn.forward(net, x, training=False, seed=999)
        assert np.array_equal(a, b)

    def test_training_dropout_deterministic_given_seed(self):
        net = nn.init_network([(3, 16), (16, 1)], ["relu", "sigmoid"], dropout_rate=0.4, seed=0)
        x = np.random.default_rng(1).random((6, 3))
        a, _ = nn.forward(net, x, training=True, seed=7)
        b, _ = nn.forward(net, x, training=True, seed=7)
        assert np.array_equal(a, b)

    def test_inverted_dropout_preserves_expectation(self):
        net = nn.init_network([(1, 100), (100, 1)], ["identity", "identity"], dropout_rate=0.3, seed=0)
        rng = np.random.default_rng(5)
        means = []
        for _ in range(100):
            _, cache = nn.forward(net, np.ones((1, 1)), training=True, seed=rng)
            means.append(cache.masks[0].mean())
        # 100 batches x 100 units = 10,000 mask draws
        assert abs(np.mean(means) - 1.0) < 0.02


class TestBackward:
    def test_zero_output_gradient(self):
        net = hand_net()
        x = np.random.default_rng(0).random((4, 2))
        out, cache = nn.forward(net, x)
        grads, input_grad = nn.backward(net, cache, np.zeros_like(out))
        assert all(np.all(g == 0.0) for g in grads)
        assert np.all(input_grad == 0.0)

    def test_single_linear_neuron_squared_error(self):
        w = np.array([[0.8]])
        net = nn.MLPNetwork([nn.Layer(w, np.zeros(1), "identity")])
        x = np.array([[1.5]])
        y = 2.0
        out, cache = nn.forward(net, x)
        grads, _ = nn.backward(net, cache, 2.0 * (out - y))
        expected = 2.0 * (0.8 * 1.5 - 2.0) * 1.5
        assert grads[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_differences_three_layer(self):
        rng = np.random.default_rng(3)
        net = nn.init_network(
            [(4, 6), (6, 5), (5, 2)], ["tanh", "relu", "sigmoid"], seed=rng
        )
        x = rng.random((8, 4))
        target = rng.random((8, 2))
        out, cache = nn.forward(net, x)
        analytic, _ = nn.backward(net, cache, out - target)
        numeric = finite_difference_grads(net, x, target)
        assert_grads_close(analytic, numeric)

    def test_matches_finite_differences_with_dropout(self):
        # same seed on every perturbed pass reproduces the same masks
        rng = np.random.default_rng(4)
        net = nn.init_network([(3, 6), (6, 1)], ["tanh", "sigmoid"], dropout_rate=0.4, seed=rng)
        x = rng.random((5, 3))
        target = rng.random((5, 1))
        out, cache = nn.forward(net, x, training=True, seed=99)
        analytic, _ = nn.backward(net, cache, out - target)
        numeric = finite_difference_grads(net, x, target, training=True, seed=99)
        assert_grads_close(analytic, numeric)

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        net = nn.init_network([(3, 4), (4, 2)], ["tanh", "identity"], seed=rng)
        x = rng.random((2, 3))
        target = rng.random((2, 2))
        out, cache = nn.forward(net, x)
        _, input_grad = nn.backward(net, cache, out - target)
        h = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                lp = 0.5 * np.sum((nn.forward(net, xp)[0] - target) ** 2)
                lm = 0.5 * np.sum((nn.forward(net, xm)[0] - target) ** 2)
                fd = (lp - lm) / (2 * h)
                assert input_grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_cache_mismatch(self):
        net = hand_net()
        other = nn.init_network([(2, 3), (3, 3), (3, 1)], ["relu", "relu", "sigmoid"], seed=0)
        _, cache = nn.forward(other, np.zeros((1, 2)))
        with pytest.raises(CacheMismatchError):
            nn.backward(net, cache, np.zeros((1, 1)))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        before = [p.copy() for p in params]
        state = nn.AdamState(params, learning_rate=0.1)
        nn.adam_step(state, params, [np.zeros(2), np.zeros((1, 1))])
        assert np.array_equal(params[0], before[0]) and np.array_equal(params[1], before[1])
        assert state.t == 1

    def test_first_step_magnitude(self):
        params = [np.array([0.0])]
        state = nn.AdamState(params, learning_rate=1e-4)
        nn.adam_step(state, params, [np.array([1.0])])
        delta = params[0][0] - 0.0
        assert abs(delta + 1e-4) < 1e-9

    def test_in_place_update_matches_textbook_adam(self):
        rng = np.random.default_rng(0)
        params = [rng.standard_normal((3, 4)), rng.standard_normal(4)]
        expected = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        state = nn.AdamState(params, learning_rate=lr)
        live = list(params)
        for t in range(1, 6):
            grads = [rng.standard_normal(p.shape) for p in params]
            assert nn.adam_step(state, params, grads) is None
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g * g
                m_hat = m[i] / (1.0 - b1**t)
                v_hat = v[i] / (1.0 - b2**t)
                expected[i] = expected[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for i in range(len(params)):
                assert params[i] is live[i]
                assert np.array_equal(params[i], expected[i])
                assert np.array_equal(state.m[i], m[i]) and np.array_equal(state.v[i], v[i])

    def test_integer_weights_are_trainable(self):
        net = nn.MLPNetwork([nn.Layer(np.array([[1]]), np.array([0]), "identity")])
        out, cache = nn.forward(net, np.ones((2, 1)))
        grads, _ = nn.backward(net, cache, out)
        nn.adam_step(nn.AdamState(net.parameters(), learning_rate=0.1), net.parameters(), grads)
        assert net.layers[0].weights.dtype == np.float64
        assert net.layers[0].weights[0, 0] == pytest.approx(0.9)

    def test_shape_mismatch(self):
        params = [np.zeros(2)]
        state = nn.AdamState(params)
        with pytest.raises(DimensionMismatchError):
            nn.adam_step(state, params, [np.zeros(3)])

    def test_moments_track_defaults(self):
        state = nn.AdamState([np.zeros(1)])
        assert state.beta1 == 0.9 and state.beta2 == 0.999 and state.epsilon == 1e-8


class TestBceLoss:
    def test_perfect_prediction_near_zero(self):
        loss, _ = nn.bce_loss(np.array([1.0 - 1e-7]), np.array([1.0]))
        assert loss < 1e-6

    def test_half_prediction_is_ln2(self):
        loss, _ = nn.bce_loss(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(math.log(2.0), rel=1e-9)

    def test_hand_batch(self):
        loss, _ = nn.bce_loss(np.array([0.9, 0.1]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(0.1054, abs=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            nn.bce_loss(np.array([0.5, 0.5]), np.array([1.0]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.05, 0.95, size=6)
        t = rng.integers(0, 2, size=6).astype(float)
        _, grad = nn.bce_loss(p, t)
        h = 1e-7
        for i in range(p.size):
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            fd = (nn.bce_loss(pp, t)[0] - nn.bce_loss(pm, t)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = nn.init_network(
            [(5, 8), (8, 3)], ["relu", "tanh"], dropout_rate=0.25, seed=42
        )
        path = tmp_path / "net.npz"
        nn.save_network(net, path)
        back = nn.load_network(path)
        assert back.dropout_rate == net.dropout_rate
        for a, b in zip(net.layers, back.layers):
            assert a.activation == b.activation
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
        x = np.random.default_rng(0).random((4, 5))
        assert np.array_equal(nn.forward(net, x)[0], nn.forward(back, x)[0])

    def test_non_finite_weights_rejected(self, tmp_path):
        for bad in (np.nan, np.inf):
            w = np.ones((2, 1))
            w[1, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                nn.MLPNetwork([nn.Layer(w, np.zeros(1), "identity")])
        net = nn.init_network([(2, 1)], ["identity"], seed=0)
        net.layers[0].bias[0] = np.nan  # live arrays are not re-checked
        path = tmp_path / "nan.npz"
        nn.save_network(net, path)
        with pytest.raises(ValueError, match="non-finite"):
            nn.load_network(path)
