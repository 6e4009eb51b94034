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
mapped back. The mapping lives on the model as ``range_map``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn
from .data import Dataset, imbalance_stats
from .errors import ConfigInvalidError, DimensionMismatchError, SingleClassError
from .oversamplers import MINORITY, AugmentedDataset, _assemble


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 1e-4
    epochs: int = 100
    batch_size: int = 64
    noise_dim: int = 50
    dropout: float = 0.2
    generator_hidden: tuple[int, ...] = (128, 64)
    discriminator_hidden: tuple[int, ...] = (128, 64, 32)
    # index into the discriminator's layers; None = deepest hidden layer
    # (the 32-unit one under the default architecture)
    feature_layer_index: int | None = None

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigInvalidError("learning_rate must be positive")
        if self.epochs < 0:
            raise ConfigInvalidError("epochs must be >= 0")
        if self.batch_size < 1 or self.noise_dim < 1:
            raise ConfigInvalidError("batch_size and noise_dim must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigInvalidError("dropout must be in [0,1)")
        if not self.generator_hidden or not self.discriminator_hidden:
            raise ConfigInvalidError("hidden layer lists must be non-empty")
        n_disc_layers = len(self.discriminator_hidden) + 1
        idx = self.resolved_feature_layer()
        if not 0 <= idx < n_disc_layers - 1:
            raise ConfigInvalidError(
                f"feature_layer_index {idx} must address a hidden discriminator layer"
            )

    def resolved_feature_layer(self) -> int:
        if self.feature_layer_index is None:
            return len(self.discriminator_hidden) - 1
        return self.feature_layer_index


@dataclass(frozen=True)
class RangeMap:
    """Affine bijection between data space [lo, hi] and tanh space [-1, 1]."""

    lo: float = 0.0
    hi: float = 1.0

    def to_gan(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * (x - self.lo) / (self.hi - self.lo) - 1.0

    def to_data(self, g: np.ndarray) -> np.ndarray:
        return (g + 1.0) / 2.0 * (self.hi - self.lo) + self.lo


@dataclass
class GANModel:
    generator: nn.MLPNetwork
    discriminator: nn.MLPNetwork
    config: TrainingConfig
    range_map: RangeMap
    minority_label: int
    # one (d_loss, g_loss) pair per epoch
    loss_history: list[tuple[float, float]] = field(default_factory=list)
    objective: str = "sdg-gan"

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
    through a prefix network that shares the discriminator's live layers.
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
    prefix = nn.MLPNetwork(disc.layers[: feature_layer_index + 1])
    real_feat, _ = nn.forward(prefix, real, training=False)
    fake_out, fake_cache = nn.forward(prefix, fake, training=False)
    diff = real_feat.mean(axis=0) - fake_out.mean(axis=0)
    loss = float(np.dot(diff, diff))
    # d loss / d fake_features: each fake row contributes 1/B to the mean
    out_grad = np.tile(-2.0 * diff / fake.shape[0], (fake.shape[0], 1))
    _, input_grad = nn.backward(prefix, fake_cache, out_grad)
    return loss, input_grad


def _build_networks(n_features: int, config: TrainingConfig, rng) -> tuple[nn.MLPNetwork, nn.MLPNetwork]:
    g_sizes = [config.noise_dim + 1, *config.generator_hidden, n_features]
    g_dims = list(zip(g_sizes[:-1], g_sizes[1:]))
    g_acts = ["relu"] * len(config.generator_hidden) + ["tanh"]
    gen = nn.init_network(g_dims, g_acts, dropout_rate=config.dropout, seed=rng)
    d_sizes = [n_features + 1, *config.discriminator_hidden, 1]
    d_dims = list(zip(d_sizes[:-1], d_sizes[1:]))
    d_acts = ["relu"] * len(config.discriminator_hidden) + ["sigmoid"]
    disc = nn.init_network(d_dims, d_acts, dropout_rate=config.dropout, seed=rng)
    return gen, disc


def _conditioned(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return np.hstack([x, labels.reshape(-1, 1).astype(np.float64)])


def _train(train: Dataset, config: TrainingConfig, seed: int, objective: str) -> GANModel:
    config.validate()
    classes = np.unique(train.labels)
    if classes.size < 2:
        raise SingleClassError("GAN training needs both classes present")
    x = train.features
    if x.min() < -1e-9 or x.max() > 1.0 + 1e-9:
        raise ConfigInvalidError("GAN expects min-max scaled training data in [0,1]")

    rng = np.random.default_rng(seed)
    gen, disc = _build_networks(train.n_features, config, rng)
    range_map = RangeMap()
    feat_idx = config.resolved_feature_layer()

    gen_opt = nn.AdamState(gen.parameters(), learning_rate=config.learning_rate)
    disc_opt = nn.AdamState(disc.parameters(), learning_rate=config.learning_rate)

    n = train.n_rows
    x_gan = range_map.to_gan(x)
    labels = train.labels.astype(np.float64)
    history: list[tuple[float, float]] = []

    for _epoch in range(config.epochs):
        perm = rng.permutation(n)
        d_losses, g_losses = [], []
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            b = idx.size
            real_x = x_gan[idx]
            y = labels[idx]
            real_in = _conditioned(real_x, y)

            # discriminator on real rows, target 1
            d_out, d_cache = nn.forward(disc, real_in, training=True, seed=rng)
            loss_real, d_grad = nn.bce_loss(d_out[:, 0], np.ones(b))
            grads, _ = nn.backward(disc, d_cache, d_grad.reshape(-1, 1))
            nn.adam_step(disc_opt, disc.parameters(), grads)

            # discriminator on generated rows (same label mix), target 0
            z = rng.standard_normal((b, config.noise_dim))
            fake_x, _ = nn.forward(gen, _conditioned(z, y), training=False)
            fake_in = _conditioned(fake_x, y)
            d_out, d_cache = nn.forward(disc, fake_in, training=True, seed=rng)
            loss_fake, d_grad = nn.bce_loss(d_out[:, 0], np.zeros(b))
            grads, _ = nn.backward(disc, d_cache, d_grad.reshape(-1, 1))
            nn.adam_step(disc_opt, disc.parameters(), grads)

            # generator step: fresh noise, labels matching the real batch
            z2 = rng.standard_normal((b, config.noise_dim))
            fake2, g_cache = nn.forward(gen, _conditioned(z2, y), training=True, seed=rng)
            fake2_in = _conditioned(fake2, y)
            if objective == "sdg-gan":
                g_loss, fake_in_grad = feature_matching_loss(disc, real_in, fake2_in, feat_idx)
            else:
                d_out, d_cache = nn.forward(disc, fake2_in, training=False)
                g_loss, d_grad = nn.bce_loss(d_out[:, 0], np.ones(b))
                _, fake_in_grad = nn.backward(disc, d_cache, d_grad.reshape(-1, 1))
            fake_grad = fake_in_grad[:, : train.n_features]  # label column is not learned
            grads, _ = nn.backward(gen, g_cache, fake_grad)
            nn.adam_step(gen_opt, gen.parameters(), grads)

            d_losses.append(0.5 * (loss_real + loss_fake))
            g_losses.append(g_loss)
        if d_losses:
            history.append((float(np.mean(d_losses)), float(np.mean(g_losses))))

    return GANModel(gen, disc, config, range_map, MINORITY, history, objective)


def train_sdg_gan(train: Dataset, config: TrainingConfig | None = None, seed: int = 0) -> GANModel:
    """Train the feature-matching conditional GAN on a scaled training set."""
    return _train(train, config or TrainingConfig(), seed, "sdg-gan")


def train_cgan(train: Dataset, config: TrainingConfig | None = None, seed: int = 0) -> GANModel:
    """Train the vanilla conditional GAN baseline (non-saturating BCE generator)."""
    return _train(train, config or TrainingConfig(), seed, "cgan")


def generate_minority(model: GANModel, n: int, seed: int = 0) -> np.ndarray:
    """Sample n minority-class rows in data space ([0,1] per feature)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, model.config.noise_dim))
    cond = np.full(n, float(model.minority_label))
    out, _ = nn.forward(model.generator, _conditioned(z, cond), training=False)
    return model.range_map.to_data(out)


def oversample_to_balance(model: GANModel, train: Dataset, seed: int = 0) -> AugmentedDataset:
    """Append generated minority rows until exact class parity."""
    if model.n_features != train.n_features:
        raise DimensionMismatchError(
            f"model generates {model.n_features} features, dataset has {train.n_features}"
        )
    stats = imbalance_stats(train)
    if stats.n_minority == 0:
        raise SingleClassError("training set has a single class")
    if stats.n_minority < stats.n_majority and stats.minority_label != MINORITY:
        raise ValueError("label 1 must be the minority class; remap labels first")
    gap = stats.n_majority - stats.n_minority
    name = model.objective
    if gap == 0:
        return _assemble(train, np.empty((0, train.n_features)), name, seed, [])
    synth = generate_minority(model, gap, seed)
    log = [(-1, -1)] * gap  # generated rows have no source/neighbor pair
    return _assemble(train, synth, name, seed, log)


def save_model(model: GANModel, path) -> None:
    """GAN checkpoint: both networks plus config/range/label header in one npz."""
    header = {
        "config": asdict(model.config),
        "range_map": [model.range_map.lo, model.range_map.hi],
        "minority_label": model.minority_label,
        "objective": model.objective,
        "g_acts": [ly.activation for ly in model.generator.layers],
        "d_acts": [ly.activation for ly in model.discriminator.layers],
        "g_dropout": model.generator.dropout_rate,
        "d_dropout": model.discriminator.dropout_rate,
        "loss_history": model.loss_history,
    }
    header_bytes = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez(
        path,
        **nn.network_arrays(model.generator, "g_"),
        **nn.network_arrays(model.discriminator, "d_"),
        header=header_bytes,
    )


def load_model(path) -> GANModel:
    with np.load(path) as z:
        header = json.loads(bytes(z["header"]).decode("utf-8"))
        gen = nn.network_from_arrays(z, "g_", header["g_acts"], header["g_dropout"])
        disc = nn.network_from_arrays(z, "d_", header["d_acts"], header["d_dropout"])
    cfg = header["config"]
    config = TrainingConfig(**{
        **cfg,
        "generator_hidden": tuple(cfg["generator_hidden"]),
        "discriminator_hidden": tuple(cfg["discriminator_hidden"]),
    })
    lo, hi = header["range_map"]
    history = [tuple(pair) for pair in header["loss_history"]]
    return GANModel(
        gen, disc, config, RangeMap(lo, hi),
        header["minority_label"], history, header["objective"],
    )


def export_loss_history(model: GANModel, path) -> None:
    """Write per-epoch losses as CSV with columns epoch,d_loss,g_loss."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "d_loss", "g_loss"])
        for epoch, (d_loss, g_loss) in enumerate(model.loss_history):
            writer.writerow([epoch, repr(d_loss), repr(g_loss)])
