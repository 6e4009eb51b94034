"""Conditional GAN oversampling with a feature-matching generator objective.

Two trainers share one loop skeleton: ``train_cgan`` updates the generator
with the non-saturating adversarial BCE, ``train_sdg_gan`` replaces that
with a feature-matching objective, the squared L2 distance between the mean
intermediate-layer discriminator features of a real batch and a generated
batch. Both networks condition on the class label as one extra scalar input
column, which is what lets a trained generator sample the minority class on
demand.

Data enters the GAN in tanh space: rows scaled to [0,1] upstream are mapped
affinely to [-1,1] before touching either network, and generated rows are
mapped back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import nn
from .data import MINORITY, Dataset, require_both_classes
from .errors import ConfigInvalidError, DimensionMismatchError, at_least
from .oversamplers import AugmentedDataset, _assemble, _check_two_classes, _unchanged


# the published training settings (Charitou et al., arXiv 2109.12546)
LEARNING_RATE = 1e-4
DROPOUT = 0.2
NOISE_DIM = 50
GENERATOR_HIDDEN = (128, 64)
DISCRIMINATOR_HIDDEN = (128, 64, 32)


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 100
    batch_size: ClassVar[int] = 64  # published, like the constants above: not a field

    def __post_init__(self):
        at_least(0, epochs=self.epochs)


@dataclass
class GANModel:
    generator: nn.MLPNetwork
    discriminator: nn.MLPNetwork
    config: TrainingConfig
    # one (d_loss, g_loss) pair per epoch
    loss_history: list[tuple[float, float]] = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return self.generator.output_dim


def feature_matching_loss(
    disc: nn.MLPNetwork,
    real_batch: np.ndarray,
    fake_batch: np.ndarray,
    feature_layer_index: int,
) -> tuple[float, np.ndarray]:
    """Squared L2 distance between mean discriminator features of the two
    batches, plus its gradient w.r.t. the fake batch only.

    Both batches are conditioned discriminator inputs (label column
    included). Features are taken at the indexed layer with dropout off,
    by prefix passes through the discriminator's live layers.
    """
    real = np.asarray(real_batch, dtype=np.float64)
    fake = np.asarray(fake_batch, dtype=np.float64)
    if real.shape[0] == 0 or fake.shape[0] == 0:
        raise ValueError("feature matching needs non-empty batches")
    if real.shape[1] != fake.shape[1]:
        raise DimensionMismatchError(
            f"real has {real.shape[1]} columns, fake has {fake.shape[1]}"
        )
    if not 0 <= feature_layer_index < len(disc.layers):
        raise IndexError(f"feature_layer_index {feature_layer_index} out of range")
    depth = feature_layer_index + 1
    real_feat = nn.forward(disc, real, depth=depth)[0]
    fake_out, fake_cache = nn.forward(disc, fake, depth=depth)
    diff = real_feat.mean(axis=0) - fake_out.mean(axis=0)
    loss = float(np.dot(diff, diff))
    # d loss / d fake_features: each fake row contributes 1/B to the mean
    out_grad = np.broadcast_to(-2.0 * diff / fake.shape[0], fake_out.shape)
    _, input_grad = nn.backward(disc, fake_cache, out_grad, param_grads=False)
    return loss, input_grad


def _build_networks(n_features: int, rng) -> tuple[nn.MLPNetwork, nn.MLPNetwork]:
    g_sizes = [NOISE_DIM + 1, *GENERATOR_HIDDEN, n_features]
    g_dims = list(zip(g_sizes[:-1], g_sizes[1:]))
    g_acts = ["relu"] * len(GENERATOR_HIDDEN) + ["tanh"]
    gen = nn.init_network(g_dims, g_acts, dropout_rate=DROPOUT, seed=rng)
    d_sizes = [n_features + 1, *DISCRIMINATOR_HIDDEN, 1]
    d_dims = list(zip(d_sizes[:-1], d_sizes[1:]))
    d_acts = ["relu"] * len(DISCRIMINATOR_HIDDEN) + ["sigmoid"]
    disc = nn.init_network(d_dims, d_acts, dropout_rate=DROPOUT, seed=rng)
    return gen, disc


def _conditioned(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return np.hstack([x, labels.reshape(-1, 1).astype(np.float64)])


def _train(train: Dataset, config: TrainingConfig, seed: int, objective: str) -> GANModel:
    require_both_classes(train, "GAN training")
    x = train.features
    if x.min() < -1e-9 or x.max() > 1.0 + 1e-9:
        raise ConfigInvalidError("GAN expects min-max scaled training data in [0,1]")

    rng = np.random.default_rng(seed)
    gen, disc = _build_networks(train.n_features, rng)
    feat_idx = len(DISCRIMINATOR_HIDDEN) - 1  # the deepest hidden layer

    gen_opt = nn.AdamState(gen.vector, learning_rate=LEARNING_RATE)
    disc_opt = nn.AdamState(disc.vector, learning_rate=LEARNING_RATE)

    n, n_feat, batch = train.n_rows, train.n_features, config.batch_size
    real_cond = _conditioned(2.0 * x - 1.0, train.labels)  # [0,1] -> tanh space
    # every step refills these in place: noise or generated rows, then the
    # batch's label column
    gen_buf = np.empty((batch, NOISE_DIM + 1))
    fake_buf = np.empty((batch, n_feat + 1))
    ones, zeros = np.ones(batch), np.zeros(batch)
    history: list[tuple[float, float]] = []

    for _epoch in range(config.epochs):
        perm = rng.permutation(n)
        d_losses, g_losses = [], []
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            b = idx.size
            real_in = real_cond[idx]
            gen_in, fake_in = gen_buf[:b], fake_buf[:b]
            gen_in[:, NOISE_DIM] = fake_in[:, n_feat] = real_in[:, n_feat]

            # discriminator on real rows, target 1
            d_out, d_cache = nn.forward(disc, real_in, rng)
            loss_real, d_grad = nn.bce_loss(d_out[:, 0], ones[:b])
            nn.adam_step(disc_opt, nn.backward(disc, d_cache, d_grad.reshape(-1, 1))[0])

            # discriminator on generated rows (same label mix), target 0
            gen_in[:, :NOISE_DIM] = rng.standard_normal((b, NOISE_DIM))
            fake_in[:, :n_feat] = nn.forward(gen, gen_in)[0]
            d_out, d_cache = nn.forward(disc, fake_in, rng)
            loss_fake, d_grad = nn.bce_loss(d_out[:, 0], zeros[:b])
            nn.adam_step(disc_opt, nn.backward(disc, d_cache, d_grad.reshape(-1, 1))[0])

            # generator step: fresh noise, labels matching the real batch; the
            # discriminator's parameter gradients are not needed
            gen_in[:, :NOISE_DIM] = rng.standard_normal((b, NOISE_DIM))
            fake, g_cache = nn.forward(gen, gen_in, rng)
            fake_in[:, :n_feat] = fake
            if objective == "sdg-gan":
                g_loss, fake_in_grad = feature_matching_loss(disc, real_in, fake_in, feat_idx)
            else:
                d_out, d_cache = nn.forward(disc, fake_in)
                g_loss, d_grad = nn.bce_loss(d_out[:, 0], ones[:b])
                _, fake_in_grad = nn.backward(disc, d_cache, d_grad.reshape(-1, 1), param_grads=False)
            fake_grad = fake_in_grad[:, :n_feat]  # label column is not learned
            nn.adam_step(gen_opt, nn.backward(gen, g_cache, fake_grad)[0])

            d_losses.append(0.5 * (loss_real + loss_fake))
            g_losses.append(g_loss)
        history.append((float(np.mean(d_losses)), float(np.mean(g_losses))))

    return GANModel(gen, disc, config, history)


def train_sdg_gan(train: Dataset, config: TrainingConfig = TrainingConfig(), seed: int = 0) -> GANModel:
    """Train the feature-matching conditional GAN on a scaled training set."""
    return _train(train, config, seed, "sdg-gan")


def train_cgan(train: Dataset, config: TrainingConfig = TrainingConfig(), seed: int = 0) -> GANModel:
    """Train the vanilla conditional GAN baseline (non-saturating BCE generator)."""
    return _train(train, config, seed, "cgan")


def generate_minority(model: GANModel, n: int, seed: int = 0) -> np.ndarray:
    """Sample n minority-class rows in data space ([0,1] per feature)."""
    at_least(1, n=n)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, NOISE_DIM))
    cond = np.full(n, float(MINORITY))
    out, _ = nn.forward(model.generator, _conditioned(z, cond))
    return (out + 1.0) / 2.0


def oversample_to_balance(model: GANModel, train: Dataset, seed: int = 0) -> AugmentedDataset:
    """Append generated minority rows until exact class parity."""
    if model.n_features != train.n_features:
        raise DimensionMismatchError(
            f"model generates {model.n_features} features, dataset has {train.n_features}"
        )
    _, gap = _check_two_classes(train)
    if gap == 0:
        return _unchanged(train)
    synth = generate_minority(model, gap, seed)
    log = [(-1, -1)] * gap  # generated rows have no source/neighbor pair
    return _assemble(train, synth, log)

