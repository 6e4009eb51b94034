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
from .data import Dataset, require_both_classes
from .errors import ConfigInvalidError, DimensionMismatchError, at_least, in_range


@dataclass(frozen=True)
class LogRegSpec:
    learning_rate: float = 0.1
    iterations: int = 500

    def __post_init__(self):
        in_range(0, math.inf, learning_rate=self.learning_rate)
        at_least(0, iterations=self.iterations)


@dataclass(frozen=True)
class ForestSpec:
    n_trees: int = 100
    max_depth: int | None = None
    max_features: str | None = "sqrt"  # "sqrt" or None (all features)
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.max_features not in ("sqrt", None):
            raise ConfigInvalidError(f"unknown max_features {self.max_features!r}")
        at_least(1, n_trees=self.n_trees)
        if self.max_depth is not None:  # None grows each tree without a depth cap
            at_least(0, max_depth=self.max_depth)
        at_least(0, seed=self.seed)


@dataclass(frozen=True)
class GBTSpec:
    rounds: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    l2: float = 1.0

    def __post_init__(self):
        at_least(0, rounds=self.rounds, l2=self.l2, max_depth=self.max_depth)
        in_range(0, math.inf, learning_rate=self.learning_rate)


@dataclass(frozen=True)
class MLPSpec:
    hidden: tuple[int, ...] = (64, 32)
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        at_least(0, epochs=self.epochs, seed=self.seed)
        at_least(1, hidden=self.hidden, batch_size=self.batch_size)
        in_range(0, math.inf, learning_rate=self.learning_rate)


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


def train_logreg(train: Dataset, spec: LogRegSpec = LogRegSpec()) -> LogisticModel:
    """Full-batch gradient descent on mean BCE from zero weights."""
    require_both_classes(train, "classifier training")
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


# (feature, row) cells scored per numpy pass when every feature is scored;
# wider passes save calls but raise peak memory, and a pass's temporaries
# (2 x 8 bytes a cell) stay under the 128 KB past which malloc maps fresh
# pages for each
_CELLS = 7680


def _workspace(n_rows: int, n_candidates: int | None) -> np.ndarray:
    """A buffer for _sides' output at any node of any tree on up to n_rows
    rows; one per fit, so its pages are faulted in once."""
    return np.empty(4 * max(_CELLS, (n_candidates or 1) * n_rows))


def _value_ranks(x: np.ndarray) -> np.ndarray:
    """Each column's dense value ranks, one row per feature; int16 (radix-sorted) if they fit."""
    dtype = np.int16 if x.shape[0] < 2**15 else np.int64
    return np.array([np.unique(col, return_inverse=True)[1] for col in x.T], dtype=dtype)


def _tied(ranks: np.ndarray) -> np.ndarray:
    """Whether each column (a row of ranks) holds a repeated value; a
    constant column does, as it has fewer distinct values than rows."""
    return ranks.max(axis=1) < ranks.shape[1] - 1


def _presort(ranks: np.ndarray) -> np.ndarray:
    """Each feature's rows by ascending value, ties to the lower row."""
    return np.argsort(ranks, axis=1, kind="stable").astype(np.int32)


def _sides(stacked, work, totals, order: np.ndarray) -> np.ndarray:
    """Both sides of the cut after each sorted position but the last, per
    row of order: the sums of stacked's two rows up to and including the
    position (left), and totals, the node's sums, minus those (right). One
    contiguous (kind, side, block row, cut) array, so the costs' passes over
    it run unstrided, held in work, the fit's buffer."""
    shape = (2, 2, order.shape[0], order.shape[1] - 1)
    out = work[: 4 * shape[2] * shape[3]].reshape(shape)
    stacked.take(order[:, :-1], axis=1).cumsum(axis=2, out=out[:, 0])
    np.subtract(totals[:, None, None], out[:, 0], out=out[:, 1])
    return out


def _gini_cost(counts, work, totals, order: np.ndarray):
    """(cost, sides): the size-weighted Gini impurity of the two sides of
    each cut. counts stacks (w, w * y): row r stands for w[r] copies,
    w[r] * y[r] of them ones."""
    sides = _sides(counts, work, totals, order)
    size, ones = sides
    # 1 - (ones / size)**2 - ((size - ones) / size)**2, times size, in place
    gini = ones / size
    gini **= 2
    np.subtract(1.0, gini, out=gini)
    q = size - ones
    q /= size
    q **= 2
    gini -= q
    gini *= size
    cost = gini[0] + gini[1]
    cost /= totals[0]
    return cost, sides


def _neg_gain_cost(grad_hess, work, lam, totals, order: np.ndarray):
    """(cost, sides): minus the second-order gain of each cut (XGBoost's
    exact greedy search). grad_hess stacks (g, h)."""
    sides = _sides(grad_hess, work, totals, order)
    g, h = sides
    # -0.5 * (g**2 / (h + lam) summed over the sides - the node's), in place
    gain = h + lam
    np.divide(g**2, gain, out=gain)
    g_tot, h_tot = totals
    cost = gain[0] + gain[1]
    cost -= g_tot**2 / (h_tot + lam)
    cost *= -0.5
    return cost, sides


def _threshold(a: float, b: float) -> float:
    """A threshold t with a < t <= b for adjacent distinct values a < b: their
    midpoint, or b where the midpoint rounds onto a or overflows."""
    t = 0.5 * (a + b)
    return t if a < t <= b else b


def _best_split(x, rows, totals, features, cost, tied, n_candidates=None, max_cost=math.inf):
    """(feature, threshold, j, left) of the lowest-cost cut, or None. rows[f]
    is the node's rows by ascending x[:, f] and totals its sums; the cut
    puts the first j + 1 of rows[feature] on the left, whose sums are left.
    features is the order in which to score them, or None for all in index
    order, whose blocks are then views of rows. cost(totals, a block of
    rows) gives the costs and the sides of each cut, which the next block
    may overwrite. Cuts lie between distinct values. Only a feature flagged
    in tied, one that may hold equal values, has its cuts between equal
    neighbours masked, so a constant one scores inf; every cut of an
    unflagged feature already lies between distinct values. The lowest
    threshold wins a cost tie. A later feature must beat the best by over
    1e-15; one whose best cost is not below max_cost is skipped. Stops
    after n_candidates (None: all)."""

    def split(best):
        _, feature, j, left = best
        a, b = rows[feature, j], rows[feature, j + 1]
        return feature, _threshold(float(x[a, feature]), float(x[b, feature])), j, left

    in_order = features is None
    if in_order:
        features = np.arange(x.shape[1])
    best = None
    evaluated = 0
    width = n_candidates or max(1, _CELLS // rows.shape[1])
    for start in range(0, len(features), width):
        block = features[start : start + width]
        order = rows[start : start + width] if in_order else rows[block]
        c, sides = cost(totals, order)
        at = tied[block].nonzero()[0]
        if at.size:
            # one pass from the block's first tied feature to its last: an
            # untied one between them has no equal neighbours to mask
            span = slice(at[0], at[-1] + 1)
            xs = x.take(order[span] * x.shape[1] + block[span, None])
            np.putmask(c[span], xs[:, :-1] >= xs[:, 1:], np.inf)
        for i, (j, low) in enumerate(zip(c.argmin(axis=1).tolist(), c.min(axis=1).tolist())):
            if low >= max_cost:
                continue
            evaluated += 1
            if best is None or low < best[0] - 1e-15:
                best = (low, int(block[i]), j, sides[:, 0, i, j].copy())
            if evaluated == n_candidates:
                return split(best)
    return None if best is None else split(best)


def _grow_tree(rows, stats, leaf, search, max_depth) -> _Node:
    """Iterative, so unlimited depth cannot hit the recursion limit. rows is
    the presort of the tree's rows and stats the root's. A node gets
    (value, totals) = leaf(its stats) when it is made; totals is None if it
    cannot split, else search(its presort rows, totals) gives None for a
    leaf or (feature, threshold, j, left stats, right stats): the first
    j + 1 of rows[feature] go left. Only a node that can split and is under
    max_depth (None: unlimited) gets its presort rows. Right children
    search first, which fixes the order of random draws."""

    def make(stats, depth):
        """(node, totals); totals is None when the node stays a leaf."""
        node = _Node()
        node.value, totals = leaf(stats)
        return node, (None if max_depth is not None and depth >= max_depth else totals)

    position = np.arange(rows.shape[1])
    goes_left = np.zeros(rows.shape[1], dtype=bool)
    root, totals = make(stats, 0)
    stack = [] if totals is None else [(root, 0, totals, rows)]
    while stack:
        node, depth, totals, rows = stack.pop()
        split = search(rows, totals)
        if split is None:
            continue
        node.feature, node.threshold, j, left_stats, right_stats = split
        node.left, left_totals = make(left_stats, depth + 1)
        node.right, right_totals = make(right_stats, depth + 1)
        if left_totals is None and right_totals is None:
            continue
        # a stable partition keeps each feature's rows sorted
        goes_left[rows[node.feature]] = position[: rows.shape[1]] <= j
        sel = goes_left.take(rows).ravel()
        shape = (rows.shape[0], -1)
        if left_totals is not None:
            stack.append((node.left, depth + 1, left_totals, rows.compress(sel).reshape(shape)))
        if right_totals is not None:
            stack.append((node.right, depth + 1, right_totals, rows.compress(~sel).reshape(shape)))
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


def _cart_tree(x, y, w, rows, tied, rng, n_candidates, max_depth, work) -> _Node:
    """CART on class labels over rows, the presort of x, whose columns
    flagged in tied may hold equal values; row r stands for w[r] copies.
    Splits any impure node with a valid cut, zero-gain ones too, so
    XOR-style data separates. n_candidates limits how many non-constant
    features are evaluated per node, in an order drawn from rng; None means
    all, in index order. work is the fit's _workspace. A node's stats are
    its (copies, ones), which a child reads off the winning cut's sums:
    exact integers, so they equal the sums over its rows."""
    counts = np.stack((w, w * y))
    cost = partial(_gini_cost, counts, work)

    def leaf(totals):
        n, ones = totals.tolist()
        return int(2 * ones >= n), (totals if 0 < ones < n else None)

    def search(rows, totals):
        order = None if n_candidates is None else rng.permutation(x.shape[1])
        split = _best_split(x, rows, totals, order, cost, tied, n_candidates)
        if split is None:
            return None
        feature, threshold, j, left = split
        return feature, threshold, j, left, totals - left

    return _grow_tree(rows, counts.sum(axis=1), leaf, search, max_depth)


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


def train_random_forest(train: Dataset, spec: ForestSpec = ForestSpec()) -> ForestModel:
    """Gini CART trees on bootstrap resamples, majority-vote probability."""
    require_both_classes(train, "classifier training")
    n_candidates = max(1, int(math.sqrt(train.n_features))) if spec.max_features else None
    x, y, n = train.features, train.labels, train.n_rows
    ranks = _value_ranks(x)
    tied = _tied(ranks)
    work = _workspace(n, n_candidates)
    trees = []
    for child in np.random.SeedSequence(spec.seed).spawn(spec.n_trees):
        rng = np.random.default_rng(child)
        idx = rng.integers(0, n, size=n) if spec.bootstrap else np.arange(n)
        # a tree grows on the rows it drew, each with its copy count, as
        # floats (exact, and the Gini cost then casts nothing)
        w = np.bincount(idx, minlength=n).astype(np.float64)
        held = np.flatnonzero(w)
        rows = _presort(ranks[:, held])
        # a column untied over all rows is untied over those drawn
        trees.append(_cart_tree(x[held], y[held], w[held], rows, tied, rng, n_candidates, spec.max_depth, work))
    return ForestModel(trees, train.n_features)


# ---------------------------------------------------------------------------
# gradient boosting with logistic loss


def _gbt_tree(x, g, h, max_depth, lam, rows, tied, work):
    """(tree, values): a regression tree on gradients g and Hessians h, with
    leaf weight -G / (H + lam), split at the largest gain, which must exceed
    1e-12, and each row's leaf weight. rows is the presort of x, tied flags
    its columns that may hold equal values, and work is the fit's
    _workspace. A node's stats are its rows in ascending order, over which
    G and H are summed, as the order of a float sum matters."""
    grad_hess = np.stack((g, h))
    cost = partial(_neg_gain_cost, grad_hess, work, lam)
    values = np.empty(x.shape[0])

    def leaf(idx):
        totals = grad_hess.take(idx, axis=1).sum(axis=1)
        g_tot, h_tot = totals
        # children overwrite their parent's rows, so each row ends at its leaf
        values[idx] = value = -g_tot / (h_tot + lam)
        return value, (totals if idx.size >= 2 else None)

    def search(rows, totals):
        split = _best_split(x, rows, totals, None, cost, tied, max_cost=-1e-12)
        if split is None:
            return None
        feature, threshold, j, _ = split
        order = rows[feature]
        return feature, threshold, j, np.sort(order[: j + 1]), np.sort(order[j + 1 :])

    return _grow_tree(rows, np.arange(x.shape[0]), leaf, search, max_depth), values


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


def train_gbt(train: Dataset, spec: GBTSpec = GBTSpec()) -> BoostedModel:
    """Additive regression trees fit to logistic-loss gradients with
    Hessian-weighted leaf values, initialized at the prior log-odds."""
    require_both_classes(train, "classifier training")
    x, y = train.features, train.labels.astype(np.float64)
    prior = float(y.mean())
    base = math.log(prior / (1.0 - prior))
    score = np.full(train.n_rows, base)
    ranks = _value_ranks(x)
    rows, tied = _presort(ranks), _tied(ranks)
    work = _workspace(train.n_rows, None)
    trees: list[_Node] = []
    for _ in range(spec.rounds):
        p = nn.sigmoid(score)
        g = p - y
        h = p * (1.0 - p)
        tree, values = _gbt_tree(x, g, h, spec.max_depth, spec.l2, rows, tied, work)
        trees.append(tree)
        score = score + spec.learning_rate * values
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


def train_mlp_classifier(train: Dataset, spec: MLPSpec = MLPSpec()) -> MLPModel:
    """Mini-batch Adam on BCE over a ReLU MLP with sigmoid output."""
    require_both_classes(train, "classifier training")
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
            grad = nn.bce_grad(out[:, 0], y[idx])
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
