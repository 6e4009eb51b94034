import copy
import math
import warnings

import numpy as np
import pytest

from imbench import nn
from imbench.errors import CacheMismatchError, DimensionMismatchError


def finite_difference_grads(net, batch, target, h=1e-5, rng=None):
    """Central differences of L = 0.5 * sum((forward(net, batch, rng) - target)^2)
    w.r.t. every entry of net.vector, laid out like it. Independent of backward()."""
    flat = net.vector
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        out_p, _ = nn.forward(net, batch, rng)
        loss_p = 0.5 * np.sum((out_p - target) ** 2)
        flat[i] = orig - h
        out_m, _ = nn.forward(net, batch, rng)
        loss_m = 0.5 * np.sum((out_m - target) ** 2)
        flat[i] = orig
        grads[i] = (loss_p - loss_m) / (2 * h)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-4):
    assert analytic.shape == numeric.shape
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    assert np.max(np.abs(analytic - numeric) / denom) < rtol


def layer_arrays(net):
    """[W0, b0, W1, b1, ...]: each layer's live weight and bias arrays."""
    return [a for ly in net.layers for a in (ly.weights, ly.bias)]


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

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activation 'softplus'"):
            nn.init_network([(2, 3), (3, 1)], ["relu", "softplus"], seed=0)


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

    @pytest.mark.parametrize("depth", [-1, 0, 4, 99])
    def test_depth_outside_the_layers_rejected(self, depth):
        # a prefix pass runs 1..3 of these 3 layers; nothing else silently
        # runs a different prefix or leaves backward an empty cache
        net = nn.init_network([(2, 3), (3, 3), (3, 1)], ["relu", "relu", "sigmoid"], seed=0)
        with pytest.raises(IndexError, match=f"depth {depth} out of range 1..3"):
            nn.forward(net, np.zeros((2, 2)), depth=depth)
        assert np.array_equal(nn.forward(net, np.ones((2, 2)), depth=3)[0], nn.forward(net, np.ones((2, 2)))[0])

    def test_output_rows_match_batch_rows(self):
        net = hand_net()
        for rows in (1, 7, 32):
            out, _ = nn.forward(net, np.zeros((rows, 2)))
            assert out.shape[0] == rows

    def test_no_rng_applies_no_dropout(self):
        net = nn.init_network([(3, 8), (8, 1)], ["relu", "sigmoid"], dropout_rate=0.5, seed=0)
        x = np.random.default_rng(1).random((4, 3))
        out, cache = nn.forward(net, x)
        assert cache.masks == [None, None]
        assert np.array_equal(out, nn.forward(nn.MLPNetwork(net.layers), x)[0])
        assert not np.array_equal(out, nn.forward(net, x, 1)[0])

    def test_training_dropout_deterministic_given_seed(self):
        net = nn.init_network([(3, 16), (16, 1)], ["relu", "sigmoid"], dropout_rate=0.4, seed=0)
        x = np.random.default_rng(1).random((6, 3))
        a, _ = nn.forward(net, x, 7)
        b, _ = nn.forward(net, x, 7)
        assert np.array_equal(a, b)

    def test_inverted_dropout_preserves_expectation(self):
        net = nn.init_network([(1, 100), (100, 1)], ["identity", "identity"], dropout_rate=0.3, seed=0)
        rng = np.random.default_rng(5)
        means = []
        for _ in range(100):
            _, cache = nn.forward(net, np.ones((1, 1)), rng)
            means.append(cache.masks[0].mean())
        # 100 batches x 100 units = 10,000 mask draws
        assert abs(np.mean(means) - 1.0) < 0.02


class TestBackward:
    def test_zero_output_gradient(self):
        net = hand_net()
        x = np.random.default_rng(0).random((4, 2))
        out, cache = nn.forward(net, x)
        grads, input_grad = nn.backward(net, cache, np.zeros_like(out))
        assert grads.shape == net.vector.shape and np.all(grads == 0.0)
        assert np.all(input_grad == 0.0)

    def test_single_linear_neuron_squared_error(self):
        w = np.array([[0.8]])
        net = nn.MLPNetwork([nn.Layer(w, np.zeros(1), "identity")])
        x = np.array([[1.5]])
        y = 2.0
        out, cache = nn.forward(net, x)
        grads, _ = nn.backward(net, cache, 2.0 * (out - y))
        expected = 2.0 * (0.8 * 1.5 - 2.0) * 1.5
        assert grads[0] == pytest.approx(expected, rel=1e-12)

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
        out, cache = nn.forward(net, x, 99)
        analytic, _ = nn.backward(net, cache, out - target)
        numeric = finite_difference_grads(net, x, target, rng=99)
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


class TestParameterVector:
    def test_every_layer_array_views_the_vector(self):
        for net in (
            nn.init_network([(3, 5), (5, 2)], ["relu", "sigmoid"], seed=0),
            hand_net(),
            copy.deepcopy(hand_net()),
        ):
            params = layer_arrays(net)
            assert all(np.shares_memory(p, net.vector) for p in params)
            assert np.array_equal(net.vector, np.concatenate([p.ravel() for p in params]))
            assert net.vector.size == sum(p.size for p in params)

    def test_networks_over_existing_layers_never_detach_the_parent(self):
        # a prefix or a rebuilt network copies the layers it is given, so the
        # parent's layers stay on the vector its optimizer updates
        net = nn.init_network([(3, 6), (6, 4), (4, 1)], ["relu", "relu", "sigmoid"], seed=0)
        opt = nn.AdamState(net.vector, learning_rate=0.1)
        layers, arrays = list(net.layers), layer_arrays(net)
        x = np.random.default_rng(1).random((5, 3))
        prefix = nn.MLPNetwork(net.layers[:2])
        again = nn.MLPNetwork(net.layers)
        other = nn.init_network([(3, 6), (6, 4), (4, 1)], ["relu", "relu", "sigmoid"], seed=1)
        mixed = nn.MLPNetwork([other.layers[0], net.layers[1], other.layers[2]])
        assert np.array_equal(nn.forward(prefix, x)[0], nn.forward(net, x, depth=2)[0])
        assert np.array_equal(nn.forward(again, x)[0], nn.forward(net, x)[0])
        assert np.array_equal(mixed.layers[1].weights, net.layers[1].weights)
        for built in (prefix, again, mixed):
            assert not np.shares_memory(built.vector, net.vector)
            assert not any(ly is given for ly in built.layers for given in layers)
        assert all(a is b for a, b in zip(net.layers, layers))
        assert all(a is b for a, b in zip(layer_arrays(net), arrays))
        assert all(np.shares_memory(p, opt.params) for p in layer_arrays(net))
        assert all(np.shares_memory(p, other.vector) for p in layer_arrays(other))
        before = nn.forward(net, x)[0]
        nn.adam_step(opt, np.ones(net.vector.size))
        assert not np.array_equal(nn.forward(net, x)[0], before)
        assert np.array_equal(nn.forward(again, x)[0], before)

    def test_adam_state_needs_a_float64_vector(self):
        net = hand_net()
        with pytest.raises(TypeError):
            nn.AdamState(layer_arrays(net))


class TestSkippedGradients:
    @pytest.mark.parametrize("rng", [None, 3], ids=["no-dropout", "dropout"])
    def test_input_gradient_without_parameter_gradients(self, rng):
        net = nn.init_network([(4, 8), (8, 6), (6, 2)], ["relu", "tanh", "sigmoid"], dropout_rate=0.3, seed=2)
        x = np.random.default_rng(0).random((7, 4))
        out, cache = nn.forward(net, x, rng)
        assert (cache.masks[0] is None) == (rng is None)
        grad = np.random.default_rng(1).standard_normal(out.shape)
        full_grads, full = nn.backward(net, cache, grad)
        none, skipped = nn.backward(net, cache, grad, param_grads=False)
        assert none is None and full_grads is not None
        assert np.array_equal(skipped, full)

    def test_prefix_pass_matches_a_prefix_network(self):
        net = nn.init_network([(4, 8), (8, 6), (6, 2)], ["relu", "tanh", "sigmoid"], seed=5)
        prefix = nn.MLPNetwork(net.layers[:2])
        x = np.random.default_rng(0).random((3, 4))
        out, cache = nn.forward(net, x, depth=2)
        ref_out, ref_cache = nn.forward(prefix, x)
        assert np.array_equal(out, ref_out) and len(cache.pre) == 2
        grad = np.ones_like(out)
        grads, input_grad = nn.backward(net, cache, grad)
        ref_grads, ref_input_grad = nn.backward(prefix, ref_cache, grad)
        assert np.array_equal(input_grad, ref_input_grad)
        assert np.array_equal(grads, ref_grads)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = np.array([1.0, -2.0, 3.0])
        before = params.copy()
        state = nn.AdamState(params, learning_rate=0.1)
        nn.adam_step(state, np.zeros(3))
        assert np.array_equal(params, before)
        assert state.t == 1

    def test_first_step_magnitude(self):
        params = np.array([0.0])
        state = nn.AdamState(params, learning_rate=1e-4)
        nn.adam_step(state, np.array([1.0]))
        delta = params[0] - 0.0
        assert abs(delta + 1e-4) < 1e-9

    def test_in_place_update_matches_textbook_adam(self):
        # per-array textbook Adam against the one in-place update of the vector
        rng = np.random.default_rng(0)
        net = nn.init_network([(3, 4)], ["identity"], seed=rng)
        params = layer_arrays(net)
        expected = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        state = nn.AdamState(net.vector, learning_rate=lr)
        for t in range(1, 6):
            grads = [rng.standard_normal(p.shape) for p in params]
            assert nn.adam_step(state, np.concatenate([g.ravel() for g in grads])) is None
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g * g
                m_hat = m[i] / (1.0 - b1**t)
                v_hat = v[i] / (1.0 - b2**t)
                expected[i] = expected[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert all(a is b for a, b in zip(layer_arrays(net), params, strict=True))
            for i in range(len(params)):
                assert np.array_equal(params[i], expected[i])
            assert np.array_equal(state.m, np.concatenate([a.ravel() for a in m]))
            assert np.array_equal(state.v, np.concatenate([a.ravel() for a in v]))

    def test_one_scratch_vector_and_the_step_left_in_the_gradient(self):
        rng = np.random.default_rng(3)
        params = rng.standard_normal(7)
        state = nn.AdamState(params, learning_rate=0.1)
        assert isinstance(state.scratch, np.ndarray)
        assert state.scratch.dtype == np.float64 and state.scratch.shape == params.shape
        for _ in range(3):
            g, before = rng.standard_normal(7), params.copy()
            nn.adam_step(state, g)
            assert np.array_equal(before - g, params)

    @pytest.mark.parametrize("kind", ["read-only", "float32"])
    def test_a_gradient_it_cannot_write_is_copied_and_left_as_it_is(self, kind):
        rng = np.random.default_rng(4)
        start = rng.standard_normal(5)
        given, written = nn.AdamState(start.copy(), 0.1), nn.AdamState(start.copy(), 0.1)
        for _ in range(3):
            g = rng.standard_normal(5)
            if kind == "float32":
                g = g.astype(np.float32)
            else:
                g.flags.writeable = False
            kept = g.copy()
            nn.adam_step(given, g)
            nn.adam_step(written, g.astype(np.float64))
            assert np.array_equal(g, kept)
            assert np.array_equal(given.params, written.params)

    def test_integer_weights_are_trainable(self):
        net = nn.MLPNetwork([nn.Layer(np.array([[1]]), np.array([0]), "identity")])
        out, cache = nn.forward(net, np.ones((2, 1)))
        grads, _ = nn.backward(net, cache, out)
        nn.adam_step(nn.AdamState(net.vector, learning_rate=0.1), grads)
        assert net.layers[0].weights.dtype == np.float64
        assert net.layers[0].weights[0, 0] == pytest.approx(0.9)

    @pytest.mark.parametrize(
        "bad_grads",
        [np.ones(2), np.ones((3, 1))],
        ids=["wrong-length", "wrong-shape"],
    )
    def test_shape_mismatch(self, bad_grads):
        # rejected input leaves the step counter, parameters and moments as they were
        params = np.array([1.0, -2.0, 3.0])
        state = nn.AdamState(params, learning_rate=0.1)
        nn.adam_step(state, np.array([0.5, -0.5, 2.0]))
        before = [a.copy() for a in (state.params, state.m, state.v)]
        with pytest.raises(DimensionMismatchError):
            nn.adam_step(state, bad_grads)
        assert state.t == 1
        for a, saved in zip((state.params, state.m, state.v), before):
            assert np.array_equal(a, saved)


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

    def test_gradient_alone_is_the_loss_gradient_bit_for_bit(self):
        # saturated predictions too, which both clamp alike
        rng = np.random.default_rng(1)
        p = np.concatenate([rng.uniform(0.0, 1.0, size=64), [0.0, 1.0, 1e-9, 1.0 - 1e-9]])
        t = rng.integers(0, 2, size=p.size).astype(float)
        assert nn.bce_grad(p, t).tobytes() == nn.bce_loss(p, t)[1].tobytes()
        with pytest.raises(DimensionMismatchError):
            nn.bce_grad(np.array([0.5, 0.5]), np.array([1.0]))


class TestSerialization:
    def test_non_finite_weights_rejected(self):
        for bad in (np.nan, np.inf):
            w = np.ones((2, 1))
            w[1, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                nn.MLPNetwork([nn.Layer(w, np.zeros(1), "identity")])
