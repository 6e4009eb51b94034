"""Dense feedforward networks with backprop, Adam, and inverted dropout.

This is deliberately a small layered implementation, not a general autodiff
graph: every consumer in the package (GAN generator/discriminator, MLP
classifier) is a plain stack of affine + activation layers. ``backward``
returns both parameter gradients and the gradient w.r.t. the batch input,
which is what lets a generator train through a frozen discriminator prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CacheMismatchError, DimensionMismatchError


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function; z is clipped to [-500, 500] so exp cannot overflow."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


# name -> (f, df): df(z, a) is the derivative w.r.t. the pre-activation z,
# from whichever of z and a = f(z) is cheaper
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0.0).astype(z.dtype)),
    "sigmoid": (sigmoid, lambda z, a: a * (1.0 - a)),
    "tanh": (np.tanh, lambda z, a: 1.0 - a * a),
    "identity": (lambda z: z, lambda z, a: np.ones_like(z)),
}


@dataclass
class Layer:
    weights: np.ndarray  # [fan_in, fan_out]
    bias: np.ndarray  # [fan_out]
    activation: str


class MLPNetwork:
    """Ordered stack of affine+activation layers with a shared dropout rate.

    Dropout applies to hidden-layer outputs only (never the last layer) and
    only in a forward pass given an rng (a training pass).
    """

    def __init__(self, layers: list[Layer], dropout_rate: float = 0.0):
        if not layers:
            raise ValueError("network needs at least one layer")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0,1), got {dropout_rate}")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.weights.shape[1] != nxt.weights.shape[0]:
                raise DimensionMismatchError(
                    f"layer fan_out {prev.weights.shape[1]} != next fan_in {nxt.weights.shape[0]}"
                )
        for ly in layers:
            if ly.activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation {ly.activation!r}")
            # adam_step updates the arrays in place, so they must be float64;
            # float64 arrays are kept as they are, shared with any prefix
            ly.weights = np.asarray(ly.weights, dtype=np.float64)
            ly.bias = np.asarray(ly.bias, dtype=np.float64)
            if not (np.all(np.isfinite(ly.weights)) and np.all(np.isfinite(ly.bias))):
                raise ValueError("non-finite parameters")
        self.layers = layers
        self.dropout_rate = float(dropout_rate)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[1]

    def parameters(self) -> list[np.ndarray]:
        """Flat list [W0, b0, W1, b1, ...] referencing live arrays."""
        out = []
        for ly in self.layers:
            out.append(ly.weights)
            out.append(ly.bias)
        return out


def init_network(layer_dims, activations, dropout_rate: float = 0.0, seed=0) -> MLPNetwork:
    """Glorot-uniform weights, zero biases.

    ``layer_dims`` is a sequence of (fan_in, fan_out) pairs whose dimensions
    must chain; ``activations`` names one activation per layer.
    """
    dims = [tuple(p) for p in layer_dims]
    if not dims:
        raise ValueError("empty layer spec")
    if len(activations) != len(dims):
        raise DimensionMismatchError(
            f"{len(activations)} activations for {len(dims)} layers"
        )
    rng = np.random.default_rng(seed)  # a Generator is used as it is
    layers = []
    for (fan_in, fan_out), act in zip(dims, activations):
        if fan_in < 1 or fan_out < 1:
            raise ValueError(f"layer sizes must be positive, got ({fan_in}, {fan_out})")
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        layers.append(Layer(w, b, act))
    return MLPNetwork(layers, dropout_rate)


@dataclass
class ForwardCache:
    """Everything backward() needs: per-layer inputs, pre-activations,
    activations before dropout, and the dropout masks that were applied."""

    inputs: list[np.ndarray]
    pre: list[np.ndarray]
    post: list[np.ndarray]
    masks: list[np.ndarray | None]


def forward(net: MLPNetwork, batch: np.ndarray, rng=None) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch; returns (output, cache).

    Given ``rng`` (a seed or a Generator), this is a training pass: inverted
    dropout (mask / (1 - rate)) is applied to every hidden layer's output,
    drawn from ``rng``. Without one it is an inference pass, dropout-free.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionMismatchError(
            f"batch shape {x.shape} incompatible with input dim {net.input_dim}"
        )
    if rng is not None:
        rng = np.random.default_rng(rng)
    inputs, pres, posts, masks = [], [], [], []
    for i, ly in enumerate(net.layers):
        inputs.append(x)
        z = x @ ly.weights + ly.bias
        a = ACTIVATIONS[ly.activation][0](z)
        pres.append(z)
        posts.append(a)
        mask = None
        is_hidden = i < len(net.layers) - 1
        if rng is not None and is_hidden and net.dropout_rate > 0.0:
            keep = 1.0 - net.dropout_rate
            mask = (rng.random(a.shape) < keep).astype(np.float64) / keep
            a = a * mask
        masks.append(mask)
        x = a
    return x, ForwardCache(inputs, pres, posts, masks)


def backward(
    net: MLPNetwork, cache: ForwardCache, output_gradient: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Reverse accumulation through the cached pass.

    Returns (param_grads, input_grad) where param_grads is the flat
    [dW0, db0, dW1, db1, ...] list matching net.parameters(). Dropout masks
    recorded in the cache are reused, so gradients match the exact forward
    pass they came from.
    """
    n_layers = len(net.layers)
    if len(cache.pre) != n_layers or len(cache.inputs) != n_layers:
        raise CacheMismatchError("cache depth does not match network depth")
    delta = np.asarray(output_gradient, dtype=np.float64)
    if delta.shape != cache.post[-1].shape:
        raise CacheMismatchError(
            f"output gradient shape {delta.shape} != output shape {cache.post[-1].shape}"
        )
    grads: list[np.ndarray] = [np.empty(0)] * (2 * n_layers)
    for i in range(n_layers - 1, -1, -1):
        ly = net.layers[i]
        if cache.masks[i] is not None:
            delta = delta * cache.masks[i]
        dz = delta * ACTIVATIONS[ly.activation][1](cache.pre[i], cache.post[i])
        grads[2 * i] = cache.inputs[i].T @ dz
        grads[2 * i + 1] = dz.sum(axis=0)
        delta = dz @ ly.weights.T
    return grads, delta


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class AdamState:
    """The live arrays ``adam_step`` updates in place, their moments and the step counter."""

    def __init__(self, params, learning_rate=1e-4):
        self.params = list(params)
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0
        self.learning_rate = float(learning_rate)


def adam_step(state: AdamState, grads) -> None:
    """One bias-corrected Adam update of ``state.params``, ``state.m`` and
    ``state.v`` in place; ``grads`` match ``state.params`` one to one.
    Input that does not match is rejected before anything changes."""
    if len(grads) != len(state.params):
        raise DimensionMismatchError("grads length does not match Adam state")
    for i, (p, g) in enumerate(zip(state.params, grads)):
        if p.shape != g.shape:
            raise DimensionMismatchError(f"shape mismatch at parameter {i}")
    state.t += 1
    b1, b2, lr = ADAM_BETA1, ADAM_BETA2, state.learning_rate
    c1, c2 = 1.0 - b1**state.t, 1.0 - b2**state.t
    for p, g, m, v in zip(state.params, grads, state.m, state.v):
        # the same operations, in the same order, as m = b1*m + (1-b1)*g etc.
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)


PROB_EPS = 1e-7


def bce_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross entropy and its gradient w.r.t. pred.

    Predictions are clamped to [1e-7, 1 - 1e-7] before the logs so a
    saturated sigmoid cannot produce an infinite loss.
    """
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise DimensionMismatchError(f"pred shape {p.shape} != target shape {t.shape}")
    pc = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    n = p.size
    loss = float(-np.sum(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc)) / n)
    grad = (pc - t) / (pc * (1.0 - pc)) / n
    return loss, grad

