import copy
from dataclasses import fields

import numpy as np
import pytest

from imbench import gan as gan_mod
from imbench import nn
from imbench.bench import synth_dataset
from imbench.data import Dataset
from imbench.errors import ConfigInvalidError, DimensionMismatchError, SingleClassError
from imbench.gan import (
    GANModel,
    TrainingConfig,
    feature_matching_loss,
    generate_minority,
    oversample_to_balance,
    train_cgan,
    train_sdg_gan,
)

from test_nn import layer_arrays


def scaled_toy(n_min=6, n_maj=18, n_features=3, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.random((n_min + n_maj, n_features))
    labels = np.concatenate([np.ones(n_min, dtype=np.int64), np.zeros(n_maj, dtype=np.int64)])
    return Dataset(feats, labels, tuple(f"f{i}" for i in range(n_features)))


class TestTrainingConfig:
    def test_defaults_match_published_settings(self, monkeypatch):
        assert gan_mod.LEARNING_RATE == 1e-4
        assert gan_mod.DROPOUT == 0.2
        assert gan_mod.NOISE_DIM == 50
        assert gan_mod.GENERATOR_HIDDEN == (128, 64)
        assert gan_mod.DISCRIMINATOR_HIDDEN == (128, 64, 32)
        assert TrainingConfig.batch_size == 64
        # the epoch budget is the one setting
        assert [f.name for f in fields(TrainingConfig)] == ["epochs"]
        assert TrainingConfig().epochs == 100
        with pytest.raises(TypeError):
            TrainingConfig(noise_dim=5)
        # _train matches features at the deepest hidden (32-unit) layer
        layers = []

        def recording_fm_loss(disc, real, fake, feature_layer_index):
            layers.append(feature_layer_index)
            return feature_matching_loss(disc, real, fake, feature_layer_index)

        monkeypatch.setattr(gan_mod, "feature_matching_loss", recording_fm_loss)
        model = train_sdg_gan(scaled_toy(), TrainingConfig(epochs=1), seed=0)
        assert layers and set(layers) == {2}
        assert model.generator.dropout_rate == model.discriminator.dropout_rate == 0.2


class TestFeatureMatchingLoss:
    def test_identical_batches_zero(self):
        disc = nn.init_network(
            [(4, 8), (8, 6), (6, 1)], ["relu", "relu", "sigmoid"], seed=1
        )
        batch = np.random.default_rng(0).random((5, 4))
        loss, grad = feature_matching_loss(disc, batch, batch.copy(), 1)
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    def test_one_unit_identity_hand_value(self):
        # single 1-unit identity layer, then sigmoid head
        layers = [
            nn.Layer(np.array([[1.0]]), np.zeros(1), "identity"),
            nn.Layer(np.array([[1.0]]), np.zeros(1), "sigmoid"),
        ]
        disc = nn.MLPNetwork(layers)
        real = np.array([[0.5], [0.7]])  # mean 0.6
        fake = np.array([[0.1]])  # mean 0.1
        loss, _ = feature_matching_loss(disc, real, fake, 0)
        assert loss == pytest.approx(0.25, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        disc = nn.init_network(
            [(3, 6), (6, 4), (4, 1)], ["relu", "relu", "sigmoid"], seed=rng
        )
        real = rng.random((6, 3))
        fake = rng.random((4, 3))
        _, grad = feature_matching_loss(disc, real, fake, 1)
        h = 1e-6
        for i in range(fake.shape[0]):
            for j in range(fake.shape[1]):
                fp, fm = fake.copy(), fake.copy()
                fp[i, j] += h
                fm[i, j] -= h
                lp = feature_matching_loss(disc, real, fp, 1)[0]
                lm = feature_matching_loss(disc, real, fm, 1)[0]
                fd = (lp - lm) / (2 * h)
                denom = max(abs(grad[i, j]) + abs(fd), 1e-8)
                assert abs(grad[i, j] - fd) / denom < 1e-4

    def test_dropout_is_off(self):
        disc = nn.init_network([(2, 50), (50, 1)], ["relu", "sigmoid"], dropout_rate=0.9, seed=0)
        real = np.random.default_rng(0).random((4, 2))
        fake = np.random.default_rng(1).random((3, 2))
        first = feature_matching_loss(disc, real, fake, 0)
        second = feature_matching_loss(disc, real, fake, 0)
        assert first[0] == second[0] and np.array_equal(first[1], second[1])

    def test_sees_in_place_updates(self):
        # the loss must follow the discriminator's live parameters: after an
        # Adam step it equals the loss of a deep copy of the updated net
        rng = np.random.default_rng(3)
        disc = nn.init_network([(3, 6), (6, 4), (4, 1)], ["relu", "relu", "sigmoid"], seed=rng)
        real, fake = rng.random((5, 3)), rng.random((4, 3))
        before = feature_matching_loss(disc, real, fake, 1)[0]
        opt = nn.AdamState(disc.vector, learning_rate=0.1)
        nn.adam_step(opt, rng.standard_normal(disc.vector.shape))
        updated = copy.deepcopy(disc)
        after = feature_matching_loss(disc, real, fake, 1)[0]
        assert after != before
        assert after == feature_matching_loss(updated, real, fake, 1)[0]

    def test_empty_batch_rejected(self):
        disc = nn.init_network([(2, 3), (3, 1)], ["relu", "sigmoid"], seed=0)
        with pytest.raises(ValueError):
            feature_matching_loss(disc, np.empty((0, 2)), np.ones((1, 2)), 0)

    def test_bad_layer_index(self):
        disc = nn.init_network([(2, 3), (3, 1)], ["relu", "sigmoid"], seed=0)
        with pytest.raises(IndexError):
            feature_matching_loss(disc, np.ones((1, 2)), np.ones((1, 2)), 7)


class TestTraining:
    def test_zero_epochs_yields_usable_model(self):
        ds = scaled_toy()
        model = train_sdg_gan(ds, TrainingConfig(epochs=0), seed=1)
        assert model.loss_history == []
        rows = generate_minority(model, 7, seed=2)
        assert rows.shape == (7, ds.n_features)
        assert rows.min() >= 0.0 and rows.max() <= 1.0

    def test_network_shapes_follow_config(self):
        ds = scaled_toy(n_features=4)
        model = train_sdg_gan(ds, TrainingConfig(epochs=0), seed=0)
        g_shapes = [ly.weights.shape for ly in model.generator.layers]
        d_shapes = [ly.weights.shape for ly in model.discriminator.layers]
        assert g_shapes == [(51, 128), (128, 64), (64, 4)]
        assert d_shapes == [(5, 128), (128, 64), (64, 32), (32, 1)]
        assert model.generator.layers[-1].activation == "tanh"
        assert model.discriminator.layers[-1].activation == "sigmoid"

    def test_single_class_rejected(self):
        feats = np.random.default_rng(0).random((8, 2))
        ds = Dataset(feats, np.zeros(8, dtype=np.int64), ("a", "b"))
        with pytest.raises(SingleClassError, match="GAN training needs both classes"):
            train_sdg_gan(ds, TrainingConfig(epochs=1), seed=0)

    def test_unscaled_data_rejected(self):
        feats = np.random.default_rng(0).random((8, 2)) * 10.0
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 0])
        ds = Dataset(feats, labels, ("a", "b"))
        with pytest.raises(ConfigInvalidError):
            train_sdg_gan(ds, TrainingConfig(epochs=1), seed=0)

    def test_loss_history_deterministic(self):
        ds = scaled_toy()
        a = train_sdg_gan(ds, TrainingConfig(epochs=3), seed=11)
        b = train_sdg_gan(ds, TrainingConfig(epochs=3), seed=11)
        assert a.loss_history == b.loss_history
        assert len(a.loss_history) == 3

    def test_cgan_losses_finite_and_disc_in_unit_interval(self):
        ds = scaled_toy()
        model = train_cgan(ds, TrainingConfig(epochs=3), seed=5)
        assert np.all(np.isfinite(np.asarray(model.loss_history)))
        probe = np.random.default_rng(1).random((10, ds.n_features + 1))
        out, _ = nn.forward(model.discriminator, probe)
        assert np.all((out > 0.0) & (out < 1.0))


def textbook_train(train, config, seed, objective):
    """The GAN loop written plainly, as the oracle for the in-place one:
    per-array Adam as m = b1*m + (1-b1)*g, every backward pass with its
    parameter gradients, hstack conditioning and a fresh prefix network for
    feature matching."""
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, gan_mod.LEARNING_RATE
    rng = np.random.default_rng(seed)
    gen, disc = gan_mod._build_networks(train.n_features, rng)
    moments = {id(p): [np.zeros_like(p), np.zeros_like(p)] for net in (gen, disc) for p in layer_arrays(net)}
    steps = {id(gen): 0, id(disc): 0}

    def adam(net, grad):
        steps[id(net)] += 1
        t = steps[id(net)]
        ends = np.cumsum([p.size for p in layer_arrays(net)])
        for p, g in zip(layer_arrays(net), np.split(grad, ends[:-1]), strict=True):
            g = g.reshape(p.shape)
            mv = moments[id(p)]
            mv[0] = b1 * mv[0] + (1.0 - b1) * g
            mv[1] = b2 * mv[1] + (1.0 - b2) * g * g
            p -= lr * (mv[0] / (1.0 - b1**t)) / (np.sqrt(mv[1] / (1.0 - b2**t)) + eps)

    def cond(a, y):
        return np.hstack([a, y.reshape(-1, 1)])

    x = 2.0 * train.features - 1.0
    labels = train.labels.astype(np.float64)
    n, nf, nd = train.n_rows, train.n_features, gan_mod.NOISE_DIM
    history = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        d_losses, g_losses = [], []
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            b, y = idx.size, labels[idx]
            real_in = cond(x[idx], y)
            out, cache = nn.forward(disc, real_in, rng)
            loss_real, grad = nn.bce_loss(out[:, 0], np.ones(b))
            adam(disc, nn.backward(disc, cache, grad.reshape(-1, 1))[0])
            fake, _ = nn.forward(gen, cond(rng.standard_normal((b, nd)), y))
            out, cache = nn.forward(disc, cond(fake, y), rng)
            loss_fake, grad = nn.bce_loss(out[:, 0], np.zeros(b))
            adam(disc, nn.backward(disc, cache, grad.reshape(-1, 1))[0])
            fake, g_cache = nn.forward(gen, cond(rng.standard_normal((b, nd)), y), rng)
            fake_in = cond(fake, y)
            if objective == "sdg-gan":
                prefix = nn.MLPNetwork(disc.layers[: len(gan_mod.DISCRIMINATOR_HIDDEN)])
                real_feat, _ = nn.forward(prefix, real_in)
                fake_feat, f_cache = nn.forward(prefix, fake_in)
                diff = real_feat.mean(axis=0) - fake_feat.mean(axis=0)
                g_loss = float(np.dot(diff, diff))
                _, in_grad = nn.backward(prefix, f_cache, np.tile(-2.0 * diff / b, (b, 1)))
            else:
                out, cache = nn.forward(disc, fake_in)
                g_loss, grad = nn.bce_loss(out[:, 0], np.ones(b))
                _, in_grad = nn.backward(disc, cache, grad.reshape(-1, 1))
            adam(gen, nn.backward(gen, g_cache, in_grad[:, :nf])[0])
            d_losses.append(0.5 * (loss_real + loss_fake))
            g_losses.append(g_loss)
        history.append((float(np.mean(d_losses)), float(np.mean(g_losses))))
    return GANModel(gen, disc, config, history)


class TestTextbookOracle:
    @pytest.mark.parametrize("objective, train", [("cgan", train_cgan), ("sdg-gan", train_sdg_gan)])
    def test_training_is_bit_identical_to_the_textbook_loop(self, objective, train):
        ds = scaled_toy(n_min=20, n_maj=50)  # 70 rows: batches of 64 and 6
        config = TrainingConfig(epochs=3)
        model = train(ds, config, seed=4)
        oracle = textbook_train(ds, config, 4, objective)
        assert gan_mod.DROPOUT > 0.0
        assert model.loss_history == oracle.loss_history
        for net, ref in ((model.generator, oracle.generator), (model.discriminator, oracle.discriminator)):
            assert np.array_equal(net.vector, ref.vector)
        assert np.array_equal(generate_minority(model, 16, seed=5), generate_minority(oracle, 16, seed=5))

    def test_trained_layers_still_view_their_vectors(self):
        model = train_sdg_gan(scaled_toy(), TrainingConfig(epochs=2), seed=0)
        for net in (model.generator, model.discriminator):
            params = layer_arrays(net)
            assert all(np.shares_memory(p, net.vector) for p in params)
            assert np.array_equal(net.vector, np.concatenate([p.ravel() for p in params]))


class TestGenerateMinority:
    def test_shape_and_range(self):
        model = train_sdg_gan(scaled_toy(), TrainingConfig(epochs=0), seed=3)
        rows = generate_minority(model, 1, seed=0)
        assert rows.shape == (1, 3)
        assert np.all((rows >= 0.0) & (rows <= 1.0))

    def test_determinism(self):
        model = train_sdg_gan(scaled_toy(), TrainingConfig(epochs=0), seed=3)
        assert np.array_equal(generate_minority(model, 50, seed=9), generate_minority(model, 50, seed=9))

    def test_untrained_sampling_is_statistically_stable(self):
        # ReLU hidden layers plus the constant conditioning input give the
        # initialized generator fixed per-feature offsets, so its means are
        # NOT 0.5; what is derivable is that a 1,000-row sample estimates the
        # model's own per-feature means to within sampling noise.
        ds = scaled_toy(n_features=8)
        model = train_sdg_gan(ds, TrainingConfig(epochs=0), seed=12)
        rows = generate_minority(model, 1000, seed=4)
        reference = generate_minority(model, 100_000, seed=5)
        assert np.all(np.abs(rows.mean(axis=0) - reference.mean(axis=0)) < 0.05)
        # global centering still holds loosely: offsets average out across units
        assert abs(rows.mean() - 0.5) < 0.25

    def test_conditioning_label_column_reaches_generator(self):
        # generator wired to copy its label input into the output: constant
        # output 1.0 proves a constant minority conditioning column was fed
        w = np.zeros((gan_mod.NOISE_DIM + 1, 1))
        w[gan_mod.NOISE_DIM, 0] = 1.0
        gen = nn.MLPNetwork([nn.Layer(w, np.zeros(1), "identity")])
        disc = nn.init_network([(2, 4), (4, 1)], ["relu", "sigmoid"], seed=0)
        model = GANModel(gen, disc, TrainingConfig())
        rows = generate_minority(model, 20, seed=0)
        assert np.allclose(rows, 1.0)


class TestOversampleToBalance:
    def test_balanced_returns_unchanged(self):
        feats = np.random.default_rng(0).random((8, 2))
        labels = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        ds = Dataset(feats, labels, ("a", "b"))
        model = train_sdg_gan(scaled_toy(n_features=2), TrainingConfig(epochs=0), seed=0)
        aug = oversample_to_balance(model, ds)
        assert aug.n_synthetic == 0
        assert np.array_equal(aug.data.features, ds.features)

    def test_count_arithmetic(self):
        rng = np.random.default_rng(1)
        feats = rng.random((1300, 2))
        labels = np.concatenate([np.ones(300, dtype=np.int64), np.zeros(1000, dtype=np.int64)])
        ds = Dataset(feats, labels, ("a", "b"))
        model = train_sdg_gan(scaled_toy(n_features=2), TrainingConfig(epochs=0), seed=0)
        aug = oversample_to_balance(model, ds)
        assert aug.n_synthetic == 700
        assert np.all(aug.data.labels[1300:] == 1)

    def test_pima_like_train_counts(self):
        rng = np.random.default_rng(2)
        feats = rng.random((614, 2))
        labels = np.concatenate([np.ones(214, dtype=np.int64), np.zeros(400, dtype=np.int64)])
        ds = Dataset(feats, labels, ("a", "b"))
        model = train_sdg_gan(scaled_toy(n_features=2), TrainingConfig(epochs=0), seed=0)
        assert oversample_to_balance(model, ds).n_synthetic == 186

    def test_dimension_mismatch(self):
        model = train_sdg_gan(scaled_toy(n_features=3), TrainingConfig(epochs=0), seed=0)
        other = scaled_toy(n_features=2, seed=5)
        with pytest.raises(DimensionMismatchError):
            oversample_to_balance(model, other)

    def test_minority_must_be_label_one(self):
        feats = np.random.default_rng(0).random((8, 2))
        labels = np.array([0, 0, 1, 1, 1, 1, 1, 1])  # minority coded as 0
        ds = Dataset(feats, labels, ("a", "b"))
        model = train_sdg_gan(scaled_toy(n_features=2), TrainingConfig(epochs=0), seed=0)
        with pytest.raises(ValueError, match="remap"):
            oversample_to_balance(model, ds)


class TestDistributionSmoke:
    def test_sdg_gan_learns_conditional_minority_mean(self):
        # 200 epochs on the two-Gaussian set: conditional minority means land
        # within 0.12 of truth (the 100-epoch variant is in the acceptance suite)
        ds = synth_dataset(100, 400, 8, separation=0.3, seed=0)
        model = train_sdg_gan(ds, TrainingConfig(epochs=200), seed=2)
        rows = generate_minority(model, 500, seed=3)
        true_mean = ds.features[ds.labels == 1].mean(axis=0)
        assert np.abs(rows.mean(axis=0) - true_mean).max() < 0.12
        assert np.all(np.isfinite(np.asarray(model.loss_history)))

    def test_cgan_learns_minority_mean_with_looser_bound(self):
        # the adversarial-BCE generator is less stable than feature matching,
        # hence the looser 0.2 bound at the same budget
        ds = synth_dataset(100, 400, 8, separation=0.3, seed=0)
        model = train_cgan(ds, TrainingConfig(epochs=200), seed=2)
        rows = generate_minority(model, 500, seed=3)
        true_mean = ds.features[ds.labels == 1].mean(axis=0)
        assert np.abs(rows.mean(axis=0) - true_mean).max() < 0.2
