import hashlib
import struct
from dataclasses import fields

import numpy as np
import pytest

from imbench import nn
from imbench.classifiers import (
    MLP_BATCH_SIZE,
    MLP_HIDDEN,
    MLP_LEARNING_RATE,
    ForestSpec,
    GBTSpec,
    LogRegSpec,
    MLPSpec,
    predict_labels,
    train_classifier,
    train_gbt,
    train_logreg,
    train_mlp_classifier,
    train_random_forest,
    _gbt_tree,
    _presort,
    _tied,
    _tree_apply,
    _value_ranks,
    _workspace,
)
from imbench.bench import synth_dataset
from imbench.data import Dataset, stratified_split
from imbench.errors import DimensionMismatchError, SingleClassError
from imbench.oversamplers import random_oversample, smote


def make(features, labels):
    features = np.asarray(features, dtype=np.float64)
    return Dataset(features, np.asarray(labels), tuple(f"f{i}" for i in range(features.shape[1])))


def separable_1d():
    xs = [[-2.0], [-1.5], [-1.0], [-0.5], [1.5], [2.0], [2.5], [3.0]]
    ys = [0, 0, 0, 0, 1, 1, 1, 1]
    return make(xs, ys)


XOR = make([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [0, 1, 1, 0])


class TestLogReg:
    def test_separable_fixture_memorized(self):
        ds = separable_1d()
        model = train_logreg(ds, LogRegSpec(learning_rate=0.5, iterations=2000))
        assert np.array_equal(predict_labels(model, ds.features), ds.labels)

    def test_zero_iterations_gives_half(self):
        ds = separable_1d()
        model = train_logreg(ds, LogRegSpec(iterations=0))
        assert np.all(model.predict_proba(ds.features) == 0.5)

    def test_gradient_norm_small_at_convergence(self):
        rng = np.random.default_rng(0)
        feats = rng.random((10, 2))
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
        ds = make(feats, labels)
        model = train_logreg(ds, LogRegSpec(learning_rate=1.0, iterations=30000))
        p = model.predict_proba(ds.features)
        err = (p - labels) / ds.n_rows
        grad = np.concatenate([ds.features.T @ err, [err.sum()]])
        assert np.linalg.norm(grad) < 1e-3

    def test_row_permutation_invariance(self):
        ds = separable_1d()
        perm = np.random.default_rng(1).permutation(ds.n_rows)
        shuffled = make(ds.features[perm], ds.labels[perm])
        a = train_logreg(ds, LogRegSpec())
        b = train_logreg(shuffled, LogRegSpec())
        assert np.allclose(a.weights, b.weights) and a.bias == pytest.approx(b.bias)

    def test_single_class_rejected(self):
        ds = make([[0.0], [1.0]], [1, 1])
        with pytest.raises(SingleClassError, match="classifier training needs both classes"):
            train_logreg(ds)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="iterations"):
            train_logreg(separable_1d(), LogRegSpec(iterations=-5))


class TestRandomForest:
    def test_single_unbounded_tree_memorizes(self):
        rng = np.random.default_rng(2)
        feats = rng.random((30, 3))
        labels = rng.integers(0, 2, 30)
        labels[0] = 1  # both classes present regardless of draw
        labels[1] = 0
        ds = make(feats, labels)
        spec = ForestSpec(n_trees=1, bootstrap=False, max_features=None, seed=0)
        model = train_random_forest(ds, spec)
        assert np.array_equal(predict_labels(model, ds.features), ds.labels)

    def test_xor_with_depth_two(self):
        spec = ForestSpec(n_trees=1, max_depth=2, bootstrap=False, max_features=None)
        model = train_random_forest(XOR, spec)
        assert np.array_equal(predict_labels(model, XOR.features), XOR.labels)

    def test_probabilities_are_vote_fractions(self):
        rng = np.random.default_rng(3)
        ds = make(rng.random((40, 2)), rng.integers(0, 2, 40))
        model = train_random_forest(ds, ForestSpec(n_trees=7, seed=1))
        probs = model.predict_proba(ds.features)
        assert np.allclose(probs * 7, np.round(probs * 7))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        ds = make(rng.random((30, 3)), rng.integers(0, 2, 30))
        a = train_random_forest(ds, ForestSpec(n_trees=5, seed=9))
        b = train_random_forest(ds, ForestSpec(n_trees=5, seed=9))
        assert np.array_equal(a.predict_proba(ds.features), b.predict_proba(ds.features))

    def test_single_class_rejected(self):
        ds = make([[0.0], [1.0]], [0, 0])
        with pytest.raises(SingleClassError, match="classifier training needs both classes"):
            train_random_forest(ds)

    @pytest.mark.parametrize("max_depth", [None, 3])
    @pytest.mark.parametrize("max_features", ["sqrt", None])
    def test_every_row_twice_grows_the_same_forest(self, max_features, max_depth):
        # each valid cut's counts double exactly, so every Gini cost is bit-equal
        for ds in digest_tables():
            twice = make(np.vstack([ds.features, ds.features]), np.concatenate([ds.labels, ds.labels]))
            spec = ForestSpec(n_trees=4, max_depth=max_depth, max_features=max_features, bootstrap=False, seed=5)
            a, b = train_random_forest(ds, spec), train_random_forest(twice, spec)
            assert [list(preorder(t)) for t in a.trees] == [list(preorder(t)) for t in b.trees]

    @pytest.mark.parametrize("field, value", [("n_trees", 0), ("n_trees", -2), ("max_depth", -1)])
    def test_invalid_spec_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            train_random_forest(separable_1d(), ForestSpec(**{field: value}))


class TestGBT:
    def test_zero_rounds_predicts_prior(self):
        feats = [[float(i)] for i in range(10)]
        ds = make(feats, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        model = train_gbt(ds, GBTSpec(rounds=0))
        assert np.allclose(model.predict_proba(ds.features), 0.3)

    def test_one_stump_solves_separable(self):
        ds = separable_1d()
        model = train_gbt(ds, GBTSpec(rounds=1, max_depth=1))
        assert np.array_equal(predict_labels(model, ds.features), ds.labels)

    def test_training_loss_non_increasing(self):
        rng = np.random.default_rng(5)
        feats = rng.random((50, 3))
        labels = (feats[:, 0] + 0.3 * rng.random(50) > 0.6).astype(int)
        labels[0], labels[1] = 0, 1
        ds = make(feats, labels)
        model = train_gbt(ds, GBTSpec(rounds=60, learning_rate=0.1))
        # mean training logloss after 0, 1, ..., 60 trees, rebuilt from the model
        score = np.full(ds.n_rows, model.base_score)
        hist = [nn.bce_loss(nn.sigmoid(score), ds.labels)[0]]
        for tree in model.trees:
            score = score + model.learning_rate * _tree_apply(tree, ds.features)
            hist.append(nn.bce_loss(nn.sigmoid(score), ds.labels)[0])
        assert len(hist) == 61
        assert np.all(np.diff(hist) <= 1e-12)

    @pytest.mark.parametrize("field, value", [("rounds", -3), ("max_depth", -1), ("l2", -0.25)])
    def test_invalid_spec_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            train_gbt(separable_1d(), GBTSpec(**{field: value}))

    def test_depth_limit_respected(self):
        def depth(node):
            if node.left is None:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        rng = np.random.default_rng(6)
        ds = make(rng.random((80, 4)), rng.integers(0, 2, 80))
        model = train_gbt(ds, GBTSpec(rounds=5, max_depth=3))
        assert all(depth(t) <= 3 for t in model.trees)


class TestTreeRules:
    """Split rules shared by the random forest and gradient boosting."""

    def test_lowest_threshold_wins_a_gini_tie(self):
        # the cuts at 0.5 and 2.5 both cost exactly 1/3
        ds = make([[0.0], [1.0], [2.0], [3.0]], [0, 1, 1, 0])
        spec = ForestSpec(n_trees=1, max_depth=1, bootstrap=False, max_features=None)
        root = train_random_forest(ds, spec).trees[0]
        assert (root.feature, root.threshold) == (0, 0.5)

    def test_first_feature_wins_an_exact_tie(self):
        # column 0 is constant; columns 1 and 2 sort the rows alike, so
        # their best cuts cost exactly the same
        base = np.arange(6.0)
        ds = make(np.column_stack([np.full(6, 7.0), base, 10.0 * base]), [0, 0, 0, 1, 1, 1])
        rf = train_random_forest(
            ds, ForestSpec(n_trees=1, max_depth=1, bootstrap=False, max_features=None)
        )
        gbt = train_gbt(ds, GBTSpec(rounds=1, max_depth=1))
        for root in (rf.trees[0], gbt.trees[0]):
            assert (root.feature, root.threshold) == (1, 2.5)

    def test_pure_forest_node_stays_a_leaf(self):
        # any cut of a pure node costs 0, so only the purity stop ends it
        spec = ForestSpec(n_trees=1, bootstrap=False, max_features=None)
        root = train_random_forest(separable_1d(), spec).trees[0]
        assert root.left.left is None and root.right.left is None

    def test_zero_gradient_gbt_node_stays_a_leaf(self):
        # every cut has gain 0, which does not pass the 1e-12 floor
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        rows = _presort(_value_ranks(x))
        root, _ = _gbt_tree(x, np.zeros(4), np.full(4, 0.25), 3, 1.0, rows, _tied(_value_ranks(x)), _workspace(4, None))
        assert root.left is None and root.value == 0.0

    @pytest.mark.parametrize(
        "a, b",
        [(0.5, np.nextafter(0.5, 1.0)), (1e308, 1.7e308), (-1.7e308, -1e308)],
        ids=["midpoint-rounds-onto-a", "sum-overflows-up", "sum-overflows-down"],
    )
    def test_both_trainers_separate_adjacent_or_huge_values(self, a, b):
        # 0.5 * (a + b) is a for the adjacent pair and +-inf for the huge
        # ones; either threshold would send every row right
        ds = make([[a], [b], [a], [b]], [0, 1, 0, 1])
        for model in (
            train_random_forest(ds, ForestSpec(n_trees=1, bootstrap=False, max_features=None)),
            train_random_forest(ds, ForestSpec(n_trees=1, max_depth=50, bootstrap=False, max_features=None)),
            train_gbt(ds, GBTSpec(rounds=1, max_depth=2)),
        ):
            root = model.trees[0]
            assert np.isfinite(root.threshold) and a < root.threshold <= b
            assert root.left.left is None and root.right.left is None
            assert np.array_equal(predict_labels(model, ds.features), ds.labels)

    @staticmethod
    def brute_force_split(x, rows, features, cost, n_candidates=None, max_cost=np.inf):
        """Every cut between distinct values of every feature, scored
        one by one: the lowest threshold wins a cost tie, a later feature
        must win by more than 1e-15, and costs not below max_cost are
        skipped. cost(left, rows) takes the left rows in sorted order."""
        best, evaluated = None, 0
        for f in features:
            values = sorted(set(x[rows, f].tolist()))
            if len(values) < 2:
                continue
            by_value = sorted(rows.tolist(), key=lambda r: (x[r, f], r))
            # the midpoint, unless it rounds onto a or overflows
            cuts = [
                (cost([r for r in by_value if x[r, f] <= a], rows), t if a < (t := 0.5 * (a + b)) <= b else b)
                for a, b in zip(values, values[1:])
            ]
            c, threshold = min(cuts, key=lambda cut: cut[0])
            if c >= max_cost:
                continue
            evaluated += 1
            if best is None or c < best[0] - 1e-15:
                best = (c, int(f), threshold)
            if evaluated == n_candidates:
                break
        return None if best is None else best[1:]

    @staticmethod
    def walk(root, x, max_depth, find_split):
        """Visit the nodes in the grower's order (right child first) and
        check each against find_split(rows), or None for a leaf."""
        stack = [(root, np.arange(x.shape[0]), 0)]
        splits = 0
        while stack:
            node, rows, depth = stack.pop()
            if rows.size < 2 or (max_depth is not None and depth >= max_depth):
                expected = None
            else:
                expected = find_split(rows)
            if expected is None:
                assert node.left is None
                continue
            assert (node.feature, node.threshold) == expected
            splits += 1
            mask = x[rows, node.feature] < node.threshold
            stack.append((node.left, rows[mask], depth + 1))
            stack.append((node.right, rows[~mask], depth + 1))
        return splits

    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("max_features", ["sqrt", None])
    def test_forest_splits_match_a_brute_force_scan(self, bootstrap, max_features):
        # values on a 0.25 grid, so ties within and across features abound;
        # the bootstrap adds duplicate rows
        splits = 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            feats = np.round(rng.random((30, 4)) * 4) / 4
            labels = (feats[:, 0] + feats[:, 1] + 0.5 * rng.random(30) > 1.2).astype(int)
            spec = ForestSpec(n_trees=4, max_features=max_features, bootstrap=bootstrap, seed=seed)
            model = train_random_forest(make(feats, labels), spec)
            n_candidates = 2 if max_features == "sqrt" else None
            for child, root in zip(np.random.SeedSequence(seed).spawn(4), model.trees):
                tree_rng = np.random.default_rng(child)
                idx = tree_rng.integers(0, 30, size=30) if bootstrap else np.arange(30)
                x, y = feats[idx], labels[idx]

                def gini(left, rows):
                    n, n_left = rows.size, float(len(left))
                    n_right = n - n_left
                    l1 = sum(int(y[r]) for r in left)
                    r1 = int(y[rows].sum()) - l1
                    p, q = l1 / n_left, (n_left - l1) / n_left
                    g_left = 1.0 - p * p - q * q
                    p, q = r1 / n_right, (n_right - r1) / n_right
                    g_right = 1.0 - p * p - q * q
                    return (n_left * g_left + n_right * g_right) / n

                def find_split(rows):
                    if y[rows].min() == y[rows].max():
                        return None
                    order = range(4) if n_candidates is None else tree_rng.permutation(4)
                    return self.brute_force_split(x, rows, order, gini, n_candidates)

                splits += self.walk(root, x, None, find_split)
        assert splits > 20

    @pytest.mark.parametrize("lam", [1.0, 0.5])
    def test_gbt_splits_match_a_brute_force_scan(self, lam):
        splits = 0
        for seed in range(3):
            rng = np.random.default_rng(10 + seed)
            feats = np.round(rng.random((40, 3)) * 4) / 4
            labels = (feats[:, 0] - feats[:, 2] + 0.5 * rng.random(40) > 0.2).astype(int)
            spec = GBTSpec(rounds=6, max_depth=3, learning_rate=0.3, l2=lam)
            model = train_gbt(make(feats, labels), spec)
            y = labels.astype(np.float64)
            score = np.full(40, model.base_score)
            for root in model.trees:
                p = nn.sigmoid(score)
                g, h = p - y, p * (1.0 - p)

                def neg_gain(left, rows):
                    g_tot, h_tot = float(g[rows].sum()), float(h[rows].sum())
                    gl = hl = 0.0
                    for r in left:
                        gl, hl = gl + g[r], hl + h[r]
                    gr, hr = g_tot - gl, h_tot - hl
                    gain = gl * gl / (hl + lam) + gr * gr / (hr + lam) - g_tot**2 / (h_tot + lam)
                    return -0.5 * gain

                def find_split(rows):
                    return self.brute_force_split(feats, rows, range(3), neg_gain, max_cost=-1e-12)

                splits += self.walk(root, feats, 3, find_split)
                values = np.empty(40)
                for r in range(40):
                    node = root
                    while node.left is not None:
                        node = node.left if feats[r, node.feature] < node.threshold else node.right
                    values[r] = node.value
                score = score + spec.learning_rate * values
        assert splits > 20

    def test_only_columns_with_a_repeated_value_are_tied(self):
        x = np.array([[5.0, 1.0, 0.3], [5.0, 2.0, 0.1], [5.0, 1.0, 0.2], [5.0, 3.0, 0.4]])
        assert _tied(_value_ranks(x)).tolist() == [True, True, False]

    @staticmethod
    def mixed_table(seed):
        """Untied continuous columns around a 0.25-grid column and a constant
        one, so one block of features holds tied and untied columns, with
        an untied one between two tied ones; labels lean on both kinds."""
        rng = np.random.default_rng(seed)
        grid = np.round(rng.random(40) * 4) / 4
        a, b, c = rng.random((3, 40))
        feats = np.column_stack([a, grid, b, np.full(40, 2.0), c])
        labels = (grid + a + 0.5 * rng.random(40) > 1.0).astype(int)
        assert _tied(_value_ranks(feats)).tolist() == [False, True, False, True, False]
        return feats, labels

    @pytest.mark.parametrize("bootstrap, max_features", [(False, None), (True, "sqrt")])
    def test_forest_on_tied_and_untied_columns_matches_a_brute_force_scan(self, bootstrap, max_features):
        used = set()
        for seed in range(3):
            feats, labels = self.mixed_table(seed)
            spec = ForestSpec(n_trees=4, max_features=max_features, bootstrap=bootstrap, seed=seed)
            model = train_random_forest(make(feats, labels), spec)
            for child, root in zip(np.random.SeedSequence(seed).spawn(4), model.trees):
                tree_rng = np.random.default_rng(child)
                idx = tree_rng.integers(0, 40, size=40) if bootstrap else np.arange(40)
                x, y = feats[idx], labels[idx]

                def gini(left, rows):
                    n_left, l1 = float(len(left)), int(y[left].sum())
                    n_right, r1 = rows.size - n_left, int(y[rows].sum()) - l1
                    cost = 0.0
                    for n, ones in ((n_left, l1), (n_right, r1)):
                        p, q = ones / n, (n - ones) / n
                        cost += n * (1.0 - p * p - q * q)
                    return cost / rows.size

                def find_split(rows):
                    if y[rows].min() == y[rows].max():
                        return None
                    order = range(5) if max_features is None else tree_rng.permutation(5)
                    split = self.brute_force_split(x, rows, order, gini, None if max_features is None else 2)
                    if split is not None:
                        used.add(split[0])
                    return split

                self.walk(root, x, None, find_split)
        assert {0, 1} <= used and 3 not in used

    def test_gbt_on_tied_and_untied_columns_matches_a_brute_force_scan(self):
        used = set()
        for seed in range(3):
            feats, labels = self.mixed_table(seed)
            spec = GBTSpec(rounds=6, max_depth=3, learning_rate=0.3)
            model = train_gbt(make(feats, labels), spec)
            y = labels.astype(np.float64)
            score = np.full(40, model.base_score)
            for root in model.trees:
                p = nn.sigmoid(score)
                g, h = p - y, p * (1.0 - p)

                def neg_gain(left, rows):
                    g_tot, h_tot = float(g[rows].sum()), float(h[rows].sum())
                    gl = hl = 0.0
                    for r in left:
                        gl, hl = gl + g[r], hl + h[r]
                    gr, hr = g_tot - gl, h_tot - hl
                    gain = gl * gl / (hl + 1.0) + gr * gr / (hr + 1.0) - g_tot**2 / (h_tot + 1.0)
                    return -0.5 * gain

                def find_split(rows):
                    split = self.brute_force_split(feats, rows, range(5), neg_gain, max_cost=-1e-12)
                    if split is not None:
                        used.add(split[0])
                    return split

                self.walk(root, feats, 3, find_split)
                score = score + spec.learning_rate * _tree_apply(root, feats)
        assert {0, 1} <= used and 3 not in used


def preorder(root):
    """(feature, threshold, value) of each node, parent before left before right."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node.feature, node.threshold, float(node.value)
        if node.left is not None:
            stack.extend((node.right, node.left))


def tree_digest(models) -> str:
    digest = hashlib.sha256()
    for model in models:
        for root in model.trees:
            for node in preorder(root):
                digest.update(struct.pack("<qdd", *node))
    return digest.hexdigest()


def digest_tables():
    """A continuous table, the same table on a 0.25 grid, and the continuous
    table balanced by ROS, whose copied minority rows are exact duplicates."""
    ds = synth_dataset(30, 90, 5, 0.15, seed=3)
    rounded = Dataset(np.round(ds.features * 4) / 4, ds.labels, ds.feature_names)
    return ds, rounded, random_oversample(ds, seed=4).data


class TestTreeDigest:
    """Every tree the five specs grow on the three tables, hashed node by
    node. The digests were recorded before forests grew on distinct rows
    with copy counts, so any change to a split, a threshold, a leaf value
    or the shape of a tree shows here. GBT leaf values are exact floats
    through exp and sums, so a numpy build that rounds those differently
    needs the digests recorded again."""

    SPECS = {
        "rf-default": ForestSpec(seed=11),
        "rf-all-rows-all-features": ForestSpec(n_trees=10, bootstrap=False, max_features=None, seed=12),
        "rf-depth-4": ForestSpec(n_trees=30, max_depth=4, seed=13),
        "gbt-depth-3": GBTSpec(rounds=30),
        "gbt-depth-5": GBTSpec(rounds=15, max_depth=5, learning_rate=0.3, l2=0.5),
    }
    DIGESTS = {
        "gbt-depth-5": "0744015e2e64b82f08b0efd8d149706785493791eaf1e89563bc3e127ffb8822",
        "gbt-depth-3": "7fe5bb0510266a8649a13b9491cb9dab16f5ce80016a5ac460cfd89a10ddb97b",
        "rf-all-rows-all-features": "8dc64c7ea59414b974f3a5a0647cfb234ab08e0eecf8c9fea4b7b8b2eae7f786",
        "rf-default": "7ff0d11da7de0d06a293c7dc8b6325c94c9b03a3fbdd38f52b4f0e9462b30325",
        "rf-depth-4": "af480da24ad8703b6471306aadc4199569b9b4574ceb75c7ea05cef143dd67b1",
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_trees_hash_to_the_recorded_digest(self, name):
        models = [train_classifier(table, self.SPECS[name]) for table in digest_tables()]
        assert tree_digest(models) == self.DIGESTS[name]

    # a SMOTE-balanced training split at the wide benchmark's shape (1920
    # rows, 16 features), so the blocks of many features scored at once are
    # pinned too; recorded before the split search returned its cut position
    WIDE_SPECS = {"rf": ForestSpec(n_trees=10, seed=1), "gbt": GBTSpec(rounds=10)}
    WIDE_DIGESTS = {
        "rf": "e13fa5f063713f73fe4baab913576e22b056d832aff98eea422ffa1f6c78b219",
        "gbt": "6e2ac725717e07ccc135f0f41e239b257c5ff6f56a7aa4d7381bde2688eb5d80",
    }

    @pytest.mark.parametrize("name", sorted(WIDE_SPECS))
    def test_wide_trees_hash_to_the_recorded_digest(self, name):
        ds = synth_dataset(300, 1200, 16, 0.15, seed=1)
        train = smote(stratified_split(ds, 0.2, seed=1).train, seed=1).data
        assert train.features.shape == (1920, 16)
        assert tree_digest([train_classifier(train, self.WIDE_SPECS[name])]) == self.WIDE_DIGESTS[name]

    # the same split balanced by ROS. Its columns repeat values only within
    # copies of one row, and a cut inside such a run never scores below both
    # of its ends, so these trees hold with or without the mask on cuts
    # between equal values; rounded to 2 decimals, equal values span both
    # classes, and the trees change when the mask goes
    WIDE_ROS_DIGESTS = {
        ("ros", "gbt"): "1b530553c64c0a5b4c244abd92cf5980eef97679255614d5be5311691b5251c1",
        ("ros", "rf"): "f1255c3c49aebcc9fa368596072b96f9c9835c0f46dc83f52609d464a99f7a4a",
        ("ros-2dp", "gbt"): "9a39d0287c8e405508d839a2e831b61811870ba98344de854cb4296d6327a29d",
        ("ros-2dp", "rf"): "0258d4ecc9524b7a297019bf645a6b88fe49408e3f8626abbb82ca8b0c443fdf",
    }

    @pytest.mark.parametrize("table, name", sorted(WIDE_ROS_DIGESTS))
    def test_wide_ros_trees_hash_to_the_recorded_digest(self, table, name):
        split = stratified_split(synth_dataset(300, 1200, 16, 0.15, seed=1), 0.2, seed=1).train
        if table == "ros-2dp":
            split = Dataset(np.round(split.features, 2), split.labels, split.feature_names)
        train = random_oversample(split, seed=1).data
        assert train.features.shape == (1920, 16)
        digest = tree_digest([train_classifier(train, self.WIDE_SPECS[name])])
        assert digest == self.WIDE_ROS_DIGESTS[(table, name)]


class TestMLP:
    def test_zero_epochs_near_half(self):
        ds = separable_1d()
        model = train_mlp_classifier(ds, MLPSpec(epochs=0, seed=0))
        probs = model.predict_proba(ds.features)
        assert np.all(np.abs(probs - 0.5) < 0.2)

    def test_xor_is_learnable(self):
        model = train_mlp_classifier(XOR, MLPSpec(epochs=2000, seed=0))
        assert np.array_equal(predict_labels(model, XOR.features), XOR.labels)

    def test_probabilities_in_open_unit_interval(self):
        ds = separable_1d()
        model = train_mlp_classifier(ds, MLPSpec(epochs=5, seed=1))
        probs = model.predict_proba(ds.features)
        assert np.all((probs > 0.0) & (probs < 1.0))

    def test_deterministic(self):
        ds = separable_1d()
        a = train_mlp_classifier(ds, MLPSpec(epochs=3, seed=2))
        b = train_mlp_classifier(ds, MLPSpec(epochs=3, seed=2))
        assert np.array_equal(a.predict_proba(ds.features), b.predict_proba(ds.features))

    @pytest.mark.parametrize("field, value", [("epochs", -2)])
    def test_invalid_spec_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            train_mlp_classifier(separable_1d(), MLPSpec(**{field: value}))

    def test_architecture_and_optimizer_are_constants(self):
        assert (MLP_HIDDEN, MLP_BATCH_SIZE, MLP_LEARNING_RATE) == ((64, 32), 64, 1e-3)
        # the epoch budget and the seed are the settings
        assert [f.name for f in fields(MLPSpec)] == ["epochs", "seed"]
        for name in ("hidden", "batch_size", "learning_rate"):
            with pytest.raises(TypeError):
                MLPSpec(**{name: 1})


class TestPredictLabels:
    def test_exact_half_goes_to_one(self):
        ds = separable_1d()
        model = train_logreg(ds, LogRegSpec(iterations=0))  # all probs 0.5
        assert np.all(predict_labels(model, ds.features) == 1)

    def test_thresholding(self):
        class Fixed:
            def predict_proba(self, x):
                return np.array([0.2, 0.7])

        assert predict_labels(Fixed(), np.zeros((2, 1))).tolist() == [0, 1]

    def test_composition_matches_manual_threshold(self):
        rng = np.random.default_rng(7)
        ds = make(rng.random((10, 2)), rng.integers(0, 2, 10))
        model = train_gbt(ds, GBTSpec(rounds=10))
        probs = model.predict_proba(ds.features)
        assert np.array_equal(predict_labels(model, ds.features), (probs >= 0.5).astype(int))

    def test_dimension_mismatch(self):
        ds = separable_1d()
        model = train_logreg(ds)
        with pytest.raises(DimensionMismatchError):
            model.predict_proba(np.zeros((2, 3)))


class TestDispatch:
    def test_each_spec_routes(self):
        ds = separable_1d()
        for spec in (LogRegSpec(iterations=5), ForestSpec(n_trees=2), GBTSpec(rounds=2), MLPSpec(epochs=1)):
            model = train_classifier(ds, spec)
            assert model.predict_proba(ds.features).shape == (ds.n_rows,)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            train_classifier(separable_1d(), object())
