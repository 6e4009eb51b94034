"""Downstream classifiers trained on (augmented) data: logistic regression,
random forest, second-order gradient boosting, and an MLP on top of nn.py.

All are deterministic given (data, spec); randomized ones derive per-tree or
per-epoch streams from the spec seed. Probabilities are thresholded at 0.5
with ties going to class 1, so metric runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import nn
from .data import Dataset, imbalance_stats
from .errors import DimensionMismatchError, SingleClassError


def _require_both_classes(train: Dataset) -> None:
    if imbalance_stats(train).single_class:
        raise SingleClassError("classifier training needs both classes present")


@dataclass(frozen=True)
class LogRegSpec:
    learning_rate: float = 0.1
    iterations: int = 500


@dataclass(frozen=True)
class ForestSpec:
    n_trees: int = 100
    max_depth: int | None = None
    max_features: str | None = "sqrt"  # "sqrt" or None (all features)
    bootstrap: bool = True
    seed: int = 0


@dataclass(frozen=True)
class GBTSpec:
    rounds: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    l2: float = 1.0


@dataclass(frozen=True)
class MLPSpec:
    hidden: tuple[int, ...] = (64, 32)
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0


class TrainedClassifier:
    """Frozen fitted model; subclasses implement predict_proba."""

    def __init__(self, n_features: int):
        self.n_features = n_features

    def _check(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise DimensionMismatchError(
                f"expected {self.n_features} features, got shape {x.shape}"
            )
        return x

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def predict_labels(model: TrainedClassifier, features: np.ndarray) -> np.ndarray:
    """Label 1 iff probability >= 0.5 (ties to the positive class)."""
    return (model.predict_proba(features) >= 0.5).astype(np.int64)


# ---------------------------------------------------------------------------
# logistic regression


class LogisticModel(TrainedClassifier):
    def __init__(self, weights: np.ndarray, bias: float):
        super().__init__(weights.shape[0])
        self.weights = weights
        self.bias = bias

    def predict_proba(self, features):
        x = self._check(features)
        return nn.sigmoid(x @ self.weights + self.bias)


def train_logreg(train: Dataset, spec: LogRegSpec | None = None) -> LogisticModel:
    """Full-batch gradient descent on mean BCE from zero weights."""
    spec = spec or LogRegSpec()
    _require_both_classes(train)
    x, y = train.features, train.labels.astype(np.float64)
    n = train.n_rows
    w, b = np.zeros(train.n_features), 0.0
    for _ in range(spec.iterations):
        p = nn.sigmoid(x @ w + b)
        err = (p - y) / n
        w = w - spec.learning_rate * (x.T @ err)
        b = b - spec.learning_rate * float(err.sum())
    return LogisticModel(w, b)


# ---------------------------------------------------------------------------
# tree core shared by the random forest and gradient boosting


class _Node:
    """A leaf while left is None; value is the RF class or the GBT weight."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature, self.threshold, self.left, self.right, self.value = -1, 0.0, None, None, 0


_BLOCK = 4  # features scored per numpy pass; wider blocks raise peak memory


def _value_ranks(x: np.ndarray) -> np.ndarray:
    """Each column's dense value ranks, one row per feature; int16 (radix-sorted) if they fit."""
    dtype = np.int16 if x.shape[0] < 2**15 else np.int64
    return np.array([np.unique(col, return_inverse=True)[1] for col in x.T], dtype=dtype)


def _presort(ranks: np.ndarray) -> np.ndarray:
    """Each feature's rows by ascending value, ties to the lower row."""
    return np.argsort(ranks, axis=1, kind="stable").astype(np.int32)


def _gini_cost(y: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Size-weighted Gini impurity of the two sides of the cut after each
    sorted position but the last, per row of order."""
    n = order.shape[1]
    c1 = np.cumsum(y.take(order), axis=1)
    n_left = np.arange(1.0, n)
    n_right = n - n_left
    l1 = c1[:, :-1]
    r1 = c1[:, -1:] - l1
    g_left = 1.0 - (l1 / n_left) ** 2 - ((n_left - l1) / n_left) ** 2
    g_right = 1.0 - (r1 / n_right) ** 2 - ((n_right - r1) / n_right) ** 2
    return (n_left * g_left + n_right * g_right) / n


def _neg_gain_cost(g, h, g_tot, h_tot, lam, order) -> np.ndarray:
    """Minus the second-order gain of each cut (XGBoost's exact greedy
    search); g_tot and h_tot are the node's sums, not the cumsums' tails."""
    gl = np.cumsum(g.take(order), axis=1)[:, :-1]
    hl = np.cumsum(h.take(order), axis=1)[:, :-1]
    gr = g_tot - gl
    hr = h_tot - hl
    return -0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - g_tot**2 / (h_tot + lam))


def _best_split(x, rows, features, cost, n_candidates=None, max_cost=math.inf):
    """(feature, threshold) of the lowest-cost cut, or None. rows[f] is the
    node's rows by ascending x[:, f]; cost scores a block of them. Cuts lie
    midway between distinct values; the lowest threshold wins a cost tie. A
    later feature must beat the best by over 1e-15; one whose best cost is
    not below max_cost is skipped. Stops after n_candidates (None: all)."""
    best = None
    evaluated = 0
    width = n_candidates or _BLOCK
    for start in range(0, len(features), width):
        block = features[start : start + width]
        order = rows[block]
        xs = x.take(order * x.shape[1] + block[:, None])  # x[order[i], block[i]], flat
        c = cost(order)
        # no cut between equal values, so a constant feature scores inf >= max_cost
        np.putmask(c, xs[:, :-1] >= xs[:, 1:], np.inf)
        for i, j in enumerate(np.argmin(c, axis=1).tolist()):
            if c[i, j] >= max_cost:
                continue
            evaluated += 1
            if best is None or c[i, j] < best[0] - 1e-15:
                best = (c[i, j], int(block[i]), float(0.5 * (xs[i, j] + xs[i, j + 1])))
            if evaluated == n_candidates:
                return best[1:]
    return None if best is None else best[1:]


def _grow_tree(x, rows, leaf_value, find_split, max_depth) -> _Node:
    """Iterative, so unlimited depth cannot hit the recursion limit. A node
    with rows idx (ascending) gets leaf_value(idx), then, unless it has
    under 2 rows or is at max_depth (None: unlimited), the (feature,
    threshold) of find_split(idx, the presort rows of x filtered to idx) or
    None for a leaf. Rows with x[:, feature] < threshold go left; right
    children are grown first, which fixes the order of random draws."""
    root = _Node()
    goes_left = np.zeros(x.shape[0], dtype=bool)
    stack = [(root, np.arange(x.shape[0]), rows, 0)]
    while stack:
        node, idx, rows, depth = stack.pop()
        node.value = leaf_value(idx)
        if idx.size < 2 or (max_depth is not None and depth >= max_depth):
            continue
        split = find_split(idx, rows)
        if split is None:
            continue
        node.feature, node.threshold = split
        mask = x[idx, node.feature] < node.threshold
        # a stable partition keeps each feature's rows sorted
        goes_left[idx] = mask
        sel = goes_left.take(rows).ravel()
        shape = (rows.shape[0], -1)
        node.left, node.right = _Node(), _Node()
        stack.append((node.left, idx[mask], np.compress(sel, rows).reshape(shape), depth + 1))
        stack.append((node.right, idx[~mask], np.compress(~sel, rows).reshape(shape), depth + 1))
    return root


def _tree_apply(root: _Node, x: np.ndarray) -> np.ndarray:
    """The value of each row's leaf, as float64."""
    out = np.empty(x.shape[0])
    stack = [(root, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if node.left is None:
            out[rows] = node.value
            continue
        mask = x[rows, node.feature] < node.threshold
        stack.append((node.left, rows[mask]))
        stack.append((node.right, rows[~mask]))
    return out


# ---------------------------------------------------------------------------
# CART / random forest


def _cart_tree(x, y, rows, rng, spec: ForestSpec, n_candidates) -> _Node:
    """CART on class labels over rows, the presort of x. Splits any impure
    node with a valid cut, zero-gain ones too, so XOR-style data separates.
    n_candidates limits how many non-constant features are evaluated per
    node, in an order drawn from rng; None means all, in index order."""
    features = np.arange(x.shape[1])

    def leaf_value(idx):
        return 1 if 2 * int(y[idx].sum()) >= idx.size else 0

    def find_split(idx, rows):
        ones = int(y[idx].sum())
        if ones == 0 or ones == idx.size:
            return None
        order = features if n_candidates is None else rng.permutation(features.size)
        return _best_split(x, rows, order, partial(_gini_cost, y), n_candidates)

    return _grow_tree(x, rows, leaf_value, find_split, spec.max_depth)


class ForestModel(TrainedClassifier):
    def __init__(self, trees: list[_Node], n_features: int):
        super().__init__(n_features)
        self.trees = trees

    def predict_proba(self, features):
        x = self._check(features)
        votes = np.zeros(x.shape[0])
        for tree in self.trees:
            votes += _tree_apply(tree, x)
        return votes / len(self.trees)


def train_random_forest(train: Dataset, spec: ForestSpec | None = None) -> ForestModel:
    """Gini CART trees on bootstrap resamples, majority-vote probability."""
    spec = spec or ForestSpec()
    _require_both_classes(train)
    x, y, n = train.features, train.labels, train.n_rows
    if spec.max_features not in ("sqrt", None):
        raise ValueError(f"unknown max_features {spec.max_features!r}")
    n_candidates = max(1, int(math.sqrt(train.n_features))) if spec.max_features else None
    ranks = _value_ranks(x)
    trees = []
    for child in np.random.SeedSequence(spec.seed).spawn(spec.n_trees):
        rng = np.random.default_rng(child)
        idx = rng.integers(0, n, size=n) if spec.bootstrap else np.arange(n)
        trees.append(_cart_tree(x[idx], y[idx], _presort(ranks[:, idx]), rng, spec, n_candidates))
    return ForestModel(trees, train.n_features)


# ---------------------------------------------------------------------------
# gradient boosting with logistic loss


def _gbt_tree(x, g, h, max_depth, lam, rows) -> _Node:
    """Regression tree on gradients g and Hessians h: leaf weight
    -G / (H + lam), split at the largest gain, which must exceed 1e-12.
    rows is the presort of x."""
    features = np.arange(x.shape[1])

    def leaf_value(idx):
        return -g[idx].sum() / (h[idx].sum() + lam)

    def find_split(idx, rows):
        cost = partial(_neg_gain_cost, g, h, g[idx].sum(), h[idx].sum(), lam)
        return _best_split(x, rows, features, cost, max_cost=-1e-12)

    return _grow_tree(x, rows, leaf_value, find_split, max_depth)


class BoostedModel(TrainedClassifier):
    def __init__(self, base_score, trees, learning_rate, n_features):
        super().__init__(n_features)
        self.base_score = base_score
        self.trees = trees
        self.learning_rate = learning_rate

    def predict_proba(self, features):
        x = self._check(features)
        score = np.full(x.shape[0], self.base_score)
        for tree in self.trees:
            score += self.learning_rate * _tree_apply(tree, x)
        return nn.sigmoid(score)


def train_gbt(train: Dataset, spec: GBTSpec | None = None) -> BoostedModel:
    """Additive regression trees fit to logistic-loss gradients with
    Hessian-weighted leaf values, initialized at the prior log-odds."""
    spec = spec or GBTSpec()
    _require_both_classes(train)
    x, y = train.features, train.labels.astype(np.float64)
    prior = float(y.mean())
    base = math.log(prior / (1.0 - prior))
    score = np.full(train.n_rows, base)
    rows = _presort(_value_ranks(x))
    trees: list[_Node] = []
    for _ in range(spec.rounds):
        p = nn.sigmoid(score)
        g = p - y
        h = p * (1.0 - p)
        tree = _gbt_tree(x, g, h, spec.max_depth, spec.l2, rows)
        trees.append(tree)
        score = score + spec.learning_rate * _tree_apply(tree, x)
    return BoostedModel(base, trees, spec.learning_rate, train.n_features)


# ---------------------------------------------------------------------------
# MLP classifier


class MLPModel(TrainedClassifier):
    def __init__(self, net: nn.MLPNetwork):
        super().__init__(net.input_dim)
        self.net = net

    def predict_proba(self, features):
        x = self._check(features)
        out, _ = nn.forward(self.net, x)
        return out[:, 0]


def train_mlp_classifier(train: Dataset, spec: MLPSpec | None = None) -> MLPModel:
    """Mini-batch Adam on BCE over a ReLU MLP with sigmoid output."""
    spec = spec or MLPSpec()
    _require_both_classes(train)
    rng = np.random.default_rng(spec.seed)
    sizes = [train.n_features, *spec.hidden, 1]
    dims = list(zip(sizes[:-1], sizes[1:]))
    acts = ["relu"] * len(spec.hidden) + ["sigmoid"]
    net = nn.init_network(dims, acts, seed=rng)
    opt = nn.AdamState(net.vector, learning_rate=spec.learning_rate)
    x, y = train.features, train.labels.astype(np.float64)
    for _ in range(spec.epochs):
        perm = rng.permutation(train.n_rows)
        for start in range(0, train.n_rows, spec.batch_size):
            idx = perm[start : start + spec.batch_size]
            out, cache = nn.forward(net, x[idx], rng)
            _, grad = nn.bce_loss(out[:, 0], y[idx])
            nn.adam_step(opt, nn.backward(net, cache, grad.reshape(-1, 1))[0])
    return MLPModel(net)


# ---------------------------------------------------------------------------

ClassifierSpec = LogRegSpec | ForestSpec | GBTSpec | MLPSpec

_TRAINERS = {
    LogRegSpec: train_logreg,
    ForestSpec: train_random_forest,
    GBTSpec: train_gbt,
    MLPSpec: train_mlp_classifier,
}


def train_classifier(train: Dataset, spec: ClassifierSpec) -> TrainedClassifier:
    """Dispatch on the spec type."""
    trainer = _TRAINERS.get(type(spec))
    if trainer is None:
        raise ValueError(f"unknown classifier spec {type(spec).__name__}")
    return trainer(train, spec)
