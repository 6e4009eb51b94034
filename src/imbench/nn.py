"""Dense feedforward networks with backprop, Adam, and inverted dropout.

This is deliberately a small layered implementation, not a general autodiff
graph: every consumer in the package (GAN generator/discriminator, MLP
classifier) is a plain stack of affine + activation layers. ``backward``
returns the gradient w.r.t. the batch input as well as the parameter
gradients, which is what lets a generator train through a discriminator, or
a prefix of it (``forward(..., depth=k)``), whose parameters it leaves alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CacheMismatchError, DimensionMismatchError, at_least


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


def _views(layers, vector: np.ndarray) -> list[np.ndarray]:
    """[W0, b0, W1, b1, ...] shaped like ``layers``' arrays, as views into ``vector``."""
    out, pos = [], 0
    for ly in layers:
        for a in (ly.weights, ly.bias):
            out.append(vector[pos : pos + a.size].reshape(a.shape))
            pos += a.size
    return out


class MLPNetwork:
    """Ordered stack of affine+activation layers with a shared dropout rate.

    The network copies the given layers' weights and biases into one
    float64 vector, ``vector``, laid out [W0, b0, W1, b1, ...], and holds
    new ``Layer`` objects whose arrays are views into it, so one in-place
    Adam update trains the whole network. The given layers are left as they
    were: a network built over another one's layers, such as a prefix, is a
    copy, and never detaches them from the vector their optimizer updates.

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
        vector = np.concatenate(
            [np.asarray(a, dtype=np.float64).ravel() for ly in layers for a in (ly.weights, ly.bias)]
        )
        if not np.all(np.isfinite(vector)):
            raise ValueError("non-finite parameters")
        views = _views(layers, vector)
        self.layers = [Layer(w, b, ly.activation) for ly, w, b in zip(layers, views[::2], views[1::2])]
        self.vector = vector
        self.dropout_rate = float(dropout_rate)

    def __reduce__(self):
        # copies and pickles are built anew from the layers, so that their
        # layers view their own vector
        return MLPNetwork, (self.layers, self.dropout_rate)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[1]


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
        at_least(1, fan_in=fan_in, fan_out=fan_out)
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


def forward(
    net: MLPNetwork, batch: np.ndarray, rng=None, depth: int | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch; returns (output, cache).

    Given ``rng`` (a seed or a Generator), this is a training pass: inverted
    dropout (mask / (1 - rate)) is applied to every hidden layer's output,
    drawn from ``rng``. Without one it is an inference pass, dropout-free.
    Given ``depth``, only the first ``depth`` layers run (a prefix pass), and
    the output is theirs; ``depth`` must be in 1..len(net.layers).
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionMismatchError(
            f"batch shape {x.shape} incompatible with input dim {net.input_dim}"
        )
    if depth is not None and not 1 <= depth <= len(net.layers):
        raise IndexError(f"depth {depth} out of range 1..{len(net.layers)}")
    if rng is not None:
        rng = np.random.default_rng(rng)
    inputs, pres, posts, masks = [], [], [], []
    for i, ly in enumerate(net.layers[:depth]):
        inputs.append(x)
        z = x @ ly.weights
        z += ly.bias
        a = ACTIVATIONS[ly.activation][0](z)
        pres.append(z)
        posts.append(a)
        mask = None
        is_hidden = i < len(net.layers) - 1
        if rng is not None and is_hidden and net.dropout_rate > 0.0:
            keep = 1.0 - net.dropout_rate
            # (r < keep) * (1 / keep) is (r < keep) / keep, without the division
            mask = (rng.random(a.shape) < keep) * (1.0 / keep)
            a = a * mask
        masks.append(mask)
        x = a
    return x, ForwardCache(inputs, pres, posts, masks)


def backward(
    net: MLPNetwork, cache: ForwardCache, output_gradient: np.ndarray, param_grads: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Reverse accumulation through the cached pass, over the layers it ran.

    Returns (grad, input_grad) where grad is the parameter gradient as one
    vector laid out like ``net.vector`` (its first entries, after a prefix
    pass), or None when ``param_grads`` is false: a caller that needs only
    the input gradient skips the weight and bias products. Dropout masks
    recorded in the cache are reused, so gradients match the exact forward
    pass they came from.
    """
    depth = len(cache.pre)
    if depth > len(net.layers) or len(cache.inputs) != depth:
        raise CacheMismatchError("cache depth does not match network depth")
    delta = np.asarray(output_gradient, dtype=np.float64)
    if delta.shape != cache.post[-1].shape:
        raise CacheMismatchError(
            f"output gradient shape {delta.shape} != output shape {cache.post[-1].shape}"
        )
    grad = None
    if param_grads:
        ran = net.layers[:depth]
        grad = np.empty(sum(ly.weights.size + ly.bias.size for ly in ran))
        views = _views(ran, grad)
    for i in range(depth - 1, -1, -1):
        ly = net.layers[i]
        if cache.masks[i] is not None:
            delta = delta * cache.masks[i]
        dz = delta * ACTIVATIONS[ly.activation][1](cache.pre[i], cache.post[i])
        if grad is not None:
            np.matmul(cache.inputs[i].T, dz, out=views[2 * i])
            dz.sum(axis=0, out=views[2 * i + 1])
        delta = dz @ ly.weights.T
    return grad, delta


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class AdamState:
    """The parameter vector ``adam_step`` updates in place (a network's
    ``vector``), its moments, scratch space and the step counter."""

    def __init__(self, params: np.ndarray, learning_rate=1e-4):
        if not (isinstance(params, np.ndarray) and params.dtype == np.float64):
            raise TypeError("AdamState updates a float64 parameter vector, such as MLPNetwork.vector")
        self.params = params
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.scratch = (np.empty_like(params), np.empty_like(params))
        self.t = 0
        self.learning_rate = float(learning_rate)


def adam_step(state: AdamState, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of ``state.params``, ``state.m`` and
    ``state.v`` in place, from a gradient vector laid out like
    ``state.params`` (the gradient a backward pass through the same network
    returns). Input that does not match is rejected before anything
    changes."""
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != state.params.shape:
        raise DimensionMismatchError(
            f"gradient shape {g.shape} does not match parameter shape {state.params.shape}"
        )
    state.t += 1
    b1, b2, lr = ADAM_BETA1, ADAM_BETA2, state.learning_rate
    c1, c2 = 1.0 - b1**state.t, 1.0 - b2**state.t
    m, v, (s, u) = state.m, state.v, state.scratch
    # the same operations, in the same order, as m = b1*m + (1-b1)*g,
    # v = b2*v + (1-b2)*g*g and p -= lr*(m/c1) / (sqrt(v/c2) + eps), each
    # over the whole vector, into the scratch buffers
    m *= b1
    np.multiply(g, 1.0 - b1, out=s)
    m += s
    v *= b2
    np.multiply(g, 1.0 - b2, out=s)
    s *= g
    v += s
    np.divide(v, c2, out=s)
    np.sqrt(s, out=s)
    s += ADAM_EPSILON
    np.divide(m, c1, out=u)
    u *= lr
    u /= s
    state.params -= u


PROB_EPS = 1e-7


def _clamped(pred, target) -> tuple[np.ndarray, np.ndarray]:
    """(pred clamped to [1e-7, 1 - 1e-7], target) as float64 arrays of one
    shape; the clamp keeps a saturated sigmoid from an infinite loss."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise DimensionMismatchError(f"pred shape {p.shape} != target shape {t.shape}")
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS), t


def _clamped_bce_grad(pc: np.ndarray, t: np.ndarray) -> np.ndarray:
    return (pc - t) / (pc * (1.0 - pc)) / pc.size


def bce_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross entropy of the clamped pred and its gradient w.r.t. pred."""
    pc, t = _clamped(pred, target)
    loss = float(-np.sum(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc)) / pc.size)
    return loss, _clamped_bce_grad(pc, t)


def bce_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """bce_loss's gradient alone, for a caller that does not read the loss."""
    return _clamped_bce_grad(*_clamped(pred, target))
