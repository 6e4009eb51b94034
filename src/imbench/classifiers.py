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
from .data import Dataset
from .errors import DimensionMismatchError, SingleClassError


def _require_both_classes(train: Dataset) -> None:
    if np.unique(train.labels).size < 2:
        raise SingleClassError("classifier training needs both classes present")


@dataclass(frozen=True)
class LogRegSpec:
    learning_rate: float = 0.1
    iterations: int = 500
    seed: int = 0


@dataclass(frozen=True)
class ForestSpec:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_split: int = 2
    max_features: str | None = "sqrt"  # "sqrt" or None (all features)
    bootstrap: bool = True
    seed: int = 0


@dataclass(frozen=True)
class GBTSpec:
    rounds: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    l2: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class MLPSpec:
    hidden: tuple[int, ...] = (64, 32)
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    dropout: float = 0.0
    seed: int = 0


class TrainedClassifier:
    """Frozen fitted model; subclasses implement predict_proba."""

    kind = "base"
    threshold = 0.5

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
    return (model.predict_proba(features) >= model.threshold).astype(np.int64)


# ---------------------------------------------------------------------------
# logistic regression


class LogisticModel(TrainedClassifier):
    kind = "logreg"

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
    w = np.zeros(train.n_features)
    b = 0.0
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
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = 0


def _best_cut(x_col: np.ndarray, cost) -> tuple[float, float] | None:
    """Lowest (cost, threshold) over the cuts between distinct values of one
    feature column; None when the column is constant. cost(order, cut)
    scores every cut, given the stable argsort of the column and each cut's
    last sorted position on the left. Lowest threshold wins cost ties."""
    order = np.argsort(x_col, kind="stable")
    xo = x_col[order]
    cut = np.flatnonzero(xo[:-1] < xo[1:])
    if cut.size == 0:
        return None
    c = cost(order, cut)
    j = int(np.argmin(c))
    return float(c[j]), float(0.5 * (xo[cut[j]] + xo[cut[j] + 1]))


def _gini_cost(y01: np.ndarray, order: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Size-weighted Gini impurity of the two sides of each cut."""
    n = y01.size
    c1 = np.cumsum(y01[order])
    n_left = cut + 1.0
    n_right = n - n_left
    l1 = c1[cut]
    r1 = c1[-1] - l1
    g_left = 1.0 - (l1 / n_left) ** 2 - ((n_left - l1) / n_left) ** 2
    g_right = 1.0 - (r1 / n_right) ** 2 - ((n_right - r1) / n_right) ** 2
    return (n_left * g_left + n_right * g_right) / n


def _neg_gain_cost(g, h, lam, order, cut) -> np.ndarray:
    """Minus the second-order gain of each cut (XGBoost's exact greedy
    search), so the lowest cost is the largest gain."""
    gl = np.cumsum(g[order])[cut]
    hl = np.cumsum(h[order])[cut]
    g_tot, h_tot = g.sum(), h.sum()
    gr = g_tot - gl
    hr = h_tot - hl
    return -0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - g_tot**2 / (h_tot + lam))


def _best_split(x, idx, features, cost, n_candidates=None, max_cost=math.inf):
    """(feature, threshold) of the lowest-cost cut of rows idx, or None.
    A later feature must beat the best by more than 1e-15, so the first in
    order wins a tie; one whose best cost is not below max_cost is skipped.
    Stops after n_candidates features with a cut (None: all)."""
    best = None
    evaluated = 0
    for f in features:
        res = _best_cut(x[idx, f], cost)
        if res is None or res[0] >= max_cost:
            continue
        evaluated += 1
        if best is None or res[0] < best[0] - 1e-15:
            best = (res[0], int(f), res[1])
        if evaluated == n_candidates:
            break
    return None if best is None else best[1:]


def _grow_tree(x, leaf_value, find_split, max_depth, min_samples_split) -> _Node:
    """Iterative, so unlimited depth cannot hit the recursion limit. A node
    with rows idx gets leaf_value(idx), then, unless it is under
    min_samples_split rows or at max_depth (None: unlimited), the (feature,
    threshold) of find_split(idx) or None for a leaf. Rows with
    x[:, feature] < threshold go left; right children are grown first,
    which fixes the order of any random draws in find_split."""
    root = _Node()
    stack = [(root, np.arange(x.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        node.value = leaf_value(idx)
        if idx.size < min_samples_split or (max_depth is not None and depth >= max_depth):
            continue
        split = find_split(idx)
        if split is None:
            continue
        node.feature, node.threshold = split
        mask = x[idx, node.feature] < node.threshold
        node.left, node.right = _Node(), _Node()
        stack.append((node.left, idx[mask], depth + 1))
        stack.append((node.right, idx[~mask], depth + 1))
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


def _cart_tree(x, y, rng, max_depth, min_samples_split, n_candidates) -> _Node:
    """CART on class labels. Splits whenever a node is impure and a valid
    cut exists (zero-gain splits allowed, so XOR-style data still gets
    separated). n_candidates limits how many non-constant features are
    evaluated per node, in an order drawn from rng; None means all, in index
    order."""

    def leaf_value(idx):
        return 1 if 2 * int(y[idx].sum()) >= idx.size else 0

    def find_split(idx):
        yi = y[idx]
        ones = int(yi.sum())
        if ones == 0 or ones == idx.size:
            return None
        features = range(x.shape[1]) if n_candidates is None else rng.permutation(x.shape[1])
        return _best_split(x, idx, features, partial(_gini_cost, yi), n_candidates)

    return _grow_tree(x, leaf_value, find_split, max_depth, min_samples_split)


class ForestModel(TrainedClassifier):
    kind = "random_forest"

    def __init__(self, trees: list[_Node], n_features: int, n_trees: int):
        super().__init__(n_features)
        self.trees = trees
        self.n_trees = n_trees

    def predict_proba(self, features):
        x = self._check(features)
        votes = np.zeros(x.shape[0])
        for tree in self.trees:
            votes += _tree_apply(tree, x)
        return votes / self.n_trees


def train_random_forest(train: Dataset, spec: ForestSpec | None = None) -> ForestModel:
    """Gini CART trees on bootstrap resamples, majority-vote probability."""
    spec = spec or ForestSpec()
    _require_both_classes(train)
    x, y = train.features, train.labels
    if spec.max_features == "sqrt":
        n_candidates = max(1, int(math.sqrt(train.n_features)))
    elif spec.max_features is None:
        n_candidates = None
    else:
        raise ValueError(f"unknown max_features {spec.max_features!r}")
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_trees)
    trees = []
    for child in children:
        rng = np.random.default_rng(child)
        if spec.bootstrap:
            idx = rng.integers(0, train.n_rows, size=train.n_rows)
        else:
            idx = np.arange(train.n_rows)
        trees.append(
            _cart_tree(x[idx], y[idx], rng, spec.max_depth, spec.min_samples_split, n_candidates)
        )
    return ForestModel(trees, train.n_features, spec.n_trees)


# ---------------------------------------------------------------------------
# gradient boosting with logistic loss


def _gbt_tree(x, g, h, max_depth, lam) -> _Node:
    """Regression tree on gradients g and Hessians h: leaf weight
    -G / (H + lam), split at the largest gain, which must exceed 1e-12."""

    def leaf_value(idx):
        return -g[idx].sum() / (h[idx].sum() + lam)

    def find_split(idx):
        cost = partial(_neg_gain_cost, g[idx], h[idx], lam)
        return _best_split(x, idx, range(x.shape[1]), cost, max_cost=-1e-12)

    return _grow_tree(x, leaf_value, find_split, max_depth, min_samples_split=2)


class BoostedModel(TrainedClassifier):
    kind = "gbt"

    def __init__(self, base_score, trees, learning_rate, n_features, train_loss_history):
        super().__init__(n_features)
        self.base_score = base_score
        self.trees = trees
        self.learning_rate = learning_rate
        # mean training logloss after 0, 1, ..., rounds trees
        self.train_loss_history = train_loss_history

    def decision_function(self, features):
        x = self._check(features)
        score = np.full(x.shape[0], self.base_score)
        for tree in self.trees:
            score += self.learning_rate * _tree_apply(tree, x)
        return score

    def predict_proba(self, features):
        return nn.sigmoid(self.decision_function(features))


def train_gbt(train: Dataset, spec: GBTSpec | None = None) -> BoostedModel:
    """Additive regression trees fit to logistic-loss gradients with
    Hessian-weighted leaf values, initialized at the prior log-odds."""
    spec = spec or GBTSpec()
    _require_both_classes(train)
    x, y = train.features, train.labels.astype(np.float64)
    prior = float(y.mean())
    base = math.log(prior / (1.0 - prior))
    score = np.full(train.n_rows, base)
    trees: list[_Node] = []
    history = []
    for _ in range(spec.rounds):
        p = nn.sigmoid(score)
        history.append(float(nn.bce_loss(p, y)[0]))
        g = p - y
        h = p * (1.0 - p)
        tree = _gbt_tree(x, g, h, spec.max_depth, spec.l2)
        trees.append(tree)
        score = score + spec.learning_rate * _tree_apply(tree, x)
    history.append(float(nn.bce_loss(nn.sigmoid(score), y)[0]))
    return BoostedModel(base, trees, spec.learning_rate, train.n_features, history)


# ---------------------------------------------------------------------------
# MLP classifier


class MLPModel(TrainedClassifier):
    kind = "mlp"

    def __init__(self, net: nn.MLPNetwork):
        super().__init__(net.input_dim)
        self.net = net

    def predict_proba(self, features):
        x = self._check(features)
        out, _ = nn.forward(self.net, x, training=False)
        return out[:, 0]


def train_mlp_classifier(train: Dataset, spec: MLPSpec | None = None) -> MLPModel:
    """Mini-batch Adam on BCE over a ReLU MLP with sigmoid output."""
    spec = spec or MLPSpec()
    _require_both_classes(train)
    rng = np.random.default_rng(spec.seed)
    sizes = [train.n_features, *spec.hidden, 1]
    dims = list(zip(sizes[:-1], sizes[1:]))
    acts = ["relu"] * len(spec.hidden) + ["sigmoid"]
    net = nn.init_network(dims, acts, dropout_rate=spec.dropout, seed=rng)
    opt = nn.AdamState(net.parameters(), learning_rate=spec.learning_rate)
    x, y = train.features, train.labels.astype(np.float64)
    for _ in range(spec.epochs):
        perm = rng.permutation(train.n_rows)
        for start in range(0, train.n_rows, spec.batch_size):
            idx = perm[start : start + spec.batch_size]
            out, cache = nn.forward(net, x[idx], training=True, seed=rng)
            _, grad = nn.bce_loss(out[:, 0], y[idx])
            grads, _ = nn.backward(net, cache, grad.reshape(-1, 1))
            nn.adam_step(opt, net.parameters(), grads)
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
    try:
        trainer = _TRAINERS[type(spec)]
    except KeyError:
        raise ValueError(f"unknown classifier spec {type(spec).__name__}") from None
    return trainer(train, spec)
