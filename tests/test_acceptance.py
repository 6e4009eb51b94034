"""Acceptance suite: one test per release criterion, each printing a
[ACCEPTANCE] PASS/FAIL line. Tolerances are pinned here, not configurable.

Criterion 7 needs the real Pima Diabetes CSV (768 rows, 8 features,
`Outcome` label). Place it at data/pima_diabetes.csv or point
$IMBENCH_PIMA_CSV at it; data/README.md says where to get it. The file is
not redistributable with the package, so the test is skipped, with a reason
naming the path it looked at, exactly when that path is not a file.
"""

import os
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import imbench.bench as bench
from imbench import nn
from imbench.bench import (
    ExperimentConfig,
    compute_metrics,
    emit_report,
    mean_rank,
    run_benchmark,
    run_cell,
    stable_seed,
    synth_dataset,
)
from imbench.data import Dataset, load_csv, minmax_fit, minmax_transform, stratified_split
from imbench.gan import TrainingConfig, feature_matching_loss, generate_minority, train_sdg_gan
from imbench.oversamplers import adasyn, adasyn_plan, borderline_smote, random_oversample, smote

from random_data import random_imbalanced
from test_nn import assert_grads_close, finite_difference_grads
from test_oversamplers import brute_force_adasyn_counts, check_geometry

PIMA_CSV = os.environ.get(
    "IMBENCH_PIMA_CSV", os.path.join(os.path.dirname(__file__), "..", "data", "pima_diabetes.csv")
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({description}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({description}): PASS")


def test_criterion_1_gradient_correctness():
    with criterion(1, "backprop matches finite differences on 100 random nets"):
        started = time.time()
        rng = np.random.default_rng(1001)
        acts = ["relu", "sigmoid", "tanh", "identity"]
        checked = 0
        while checked < 100:
            n_layers = int(rng.integers(1, 4))
            sizes = [int(rng.integers(1, 9)) for _ in range(n_layers + 1)]
            dims = list(zip(sizes[:-1], sizes[1:]))
            activations = [acts[rng.integers(0, len(acts))] for _ in range(n_layers)]
            net = nn.init_network(dims, activations, seed=rng)
            batch = rng.random((int(rng.integers(1, 6)), sizes[0]))
            target = rng.random((batch.shape[0], sizes[-1]))
            out, cache = nn.forward(net, batch)
            # central differences are only meaningful at differentiable
            # points: resample when a relu pre-activation sits on the kink
            kink = any(
                ly.activation == "relu" and np.any(np.abs(pre) < 1e-4)
                for ly, pre in zip(net.layers, cache.pre)
            )
            if kink:
                continue
            analytic, _ = nn.backward(net, cache, out - target)
            numeric = finite_difference_grads(net, batch, target)
            assert_grads_close(analytic, numeric, rtol=1e-4)
            checked += 1
        assert time.time() - started < 30.0


def test_criterion_2_feature_matching_loss_oracle():
    with criterion(2, "feature-matching loss values and gradient"):
        disc = nn.init_network(
            [(3, 6), (6, 4), (4, 1)], ["relu", "relu", "sigmoid"], seed=7
        )
        batch = np.random.default_rng(0).random((5, 3))
        loss, _ = feature_matching_loss(disc, batch, batch.copy(), 1)
        assert loss == 0.0

        layers = [
            nn.Layer(np.array([[1.0]]), np.zeros(1), "identity"),
            nn.Layer(np.array([[1.0]]), np.zeros(1), "sigmoid"),
        ]
        one_unit = nn.MLPNetwork(layers)
        loss, _ = feature_matching_loss(one_unit, np.array([[0.5], [0.7]]), np.array([[0.1]]), 0)
        assert loss == pytest.approx(0.25, rel=1e-12)

        rng = np.random.default_rng(3)
        real = rng.random((6, 3))
        fake = rng.random((4, 3))
        _, grad = feature_matching_loss(disc, real, fake, 1)
        h = 1e-6
        for i in range(fake.shape[0]):
            for j in range(fake.shape[1]):
                fp, fm = fake.copy(), fake.copy()
                fp[i, j] += h
                fm[i, j] -= h
                fd = (
                    feature_matching_loss(disc, real, fp, 1)[0]
                    - feature_matching_loss(disc, real, fm, 1)[0]
                ) / (2 * h)
                denom = max(abs(grad[i, j]) + abs(fd), 1e-8)
                assert abs(grad[i, j] - fd) / denom < 1e-4


def test_criterion_3_sampler_geometry_and_counts():
    with criterion(3, "sampler geometry, ADASYN counts, exact parity"):
        rng = np.random.default_rng(3003)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # geometry + parity across the SMOTE family and ROS
            for _ in range(40):
                ds = random_imbalanced(rng, n_min=4)
                for sampler in (smote, borderline_smote, adasyn, random_oversample):
                    aug = sampler(ds, seed=int(rng.integers(0, 1 << 30)))
                    n_min = int(np.sum(aug.data.labels == 1))
                    n_maj = int(np.sum(aug.data.labels == 0))
                    assert n_min == n_maj
                    if sampler is not random_oversample:
                        check_geometry(aug, ds)
            # ADASYN per-row counts vs the brute-force density oracle
            checked = 0
            while checked < 100:
                ds = random_imbalanced(rng, n_min=int(rng.integers(3, 8)))
                expected = brute_force_adasyn_counts(ds, k=3)
                if expected is None:
                    continue
                plan = adasyn_plan(ds, k=3)
                assert plan.tolist() == expected.tolist()
                checked += 1


def test_criterion_4_metrics_oracle():
    with criterion(4, "metric values match hand confusion matrices"):
        y_true = np.array([1] * 10 + [0] * 10)
        y_pred = np.array([1] * 8 + [0] * 2 + [1] * 2 + [0] * 8)
        assert compute_metrics(y_true, y_pred) == (0.8, 0.8, 0.8)
        assert compute_metrics(y_true, y_true) == (1.0, 1.0, 1.0)
        assert compute_metrics(np.array([1, 1]), np.array([0, 0])) == (0.0, 0.0, 0.0)
        assert compute_metrics(np.array([0, 0]), np.array([1, 0])) == (0.0, 0.0, 0.0)
        # mixed case: TP=3, FP=1, FN=2 -> recall 0.6, precision 0.75, f1 2/3
        y_true = np.array([1, 1, 1, 1, 1, 0, 0, 0])
        y_pred = np.array([1, 1, 1, 0, 0, 1, 0, 0])
        r, p, f1 = compute_metrics(y_true, y_pred)
        assert (r, p, f1) == (0.6, 0.75, 2 / 3)


# F1 values transcribed from the published benchmark tables (Credit Card,
# Breast Cancer, Pima Diabetes; six methods x four classifiers each)
PAPER_F1 = {
    ("credit", "LR"): {"W/O": 0.8975, "SMOTE": 0.9032, "ADASYN": 0.8246, "B-SMOTE": 0.8888, "cGAN": 0.8926, "SDG-GAN": 0.8889},
    ("credit", "RF"): {"W/O": 0.9076, "SMOTE": 0.9116, "ADASYN": 0.8771, "B-SMOTE": 0.8999, "cGAN": 0.9010, "SDG-GAN": 0.9131},
    ("credit", "XGB"): {"W/O": 0.9042, "SMOTE": 0.9060, "ADASYN": 0.8935, "B-SMOTE": 0.8687, "cGAN": 0.9091, "SDG-GAN": 0.9087},
    ("credit", "MLP"): {"W/O": 0.8750, "SMOTE": 0.8601, "ADASYN": 0.8803, "B-SMOTE": 0.8919, "cGAN": 0.9111, "SDG-GAN": 0.8862},
    ("breast", "LR"): {"W/O": 0.8608, "SMOTE": 0.9091, "ADASYN": 0.8837, "B-SMOTE": 0.9090, "cGAN": 0.8966, "SDG-GAN": 0.9157},
    ("breast", "RF"): {"W/O": 0.8706, "SMOTE": 0.8764, "ADASYN": 0.8863, "B-SMOTE": 0.8863, "cGAN": 0.8809, "SDG-GAN": 0.8706},
    ("breast", "XGB"): {"W/O": 0.8637, "SMOTE": 0.8742, "ADASYN": 0.8754, "B-SMOTE": 0.8821, "cGAN": 0.9195, "SDG-GAN": 0.9130},
    ("breast", "MLP"): {"W/O": 0.9024, "SMOTE": 0.8965, "ADASYN": 0.8578, "B-SMOTE": 0.9090, "cGAN": 0.8965, "SDG-GAN": 0.9137},
    ("pima", "LR"): {"W/O": 0.6538, "SMOTE": 0.6456, "ADASYN": 0.6250, "B-SMOTE": 0.6290, "cGAN": 0.6788, "SDG-GAN": 0.6549},
    ("pima", "RF"): {"W/O": 0.6548, "SMOTE": 0.6774, "ADASYN": 0.6507, "B-SMOTE": 0.6491, "cGAN": 0.6315, "SDG-GAN": 0.7080},
    ("pima", "XGB"): {"W/O": 0.6218, "SMOTE": 0.6555, "ADASYN": 0.6562, "B-SMOTE": 0.6508, "cGAN": 0.6379, "SDG-GAN": 0.6207},
    ("pima", "MLP"): {"W/O": 0.6538, "SMOTE": 0.6880, "ADASYN": 0.6718, "B-SMOTE": 0.6555, "cGAN": 0.6607, "SDG-GAN": 0.6788},
}

PUBLISHED_RANKS = {
    "SDG-GAN": {"overall": 2.6, "LR": 2.7, "RF": 2.3, "XGB": 3.3, "MLP": 2.0},
    "W/O": {"overall": 4.3, "LR": 3.3, "RF": 4.0, "XGB": 5.0, "MLP": 4.7},
    "SMOTE": {"overall": 2.9, "LR": 2.0, "RF": 2.7, "XGB": 3.3, "MLP": 3.7},
    "B-SMOTE": {"overall": 3.6, "LR": 4.0, "RF": 3.7, "XGB": 3.7, "MLP": 3.0},
    "ADASYN": {"overall": 4.3, "LR": 5.3, "RF": 4.0, "XGB": 3.7, "MLP": 4.3},
    # The rank table prints 4.0 for cGAN/MLP, which its own entries rule out:
    # - cGAN ranks 1 on Credit MLP and 4 on Pima MLP in the printed F1 rows,
    #   so its MLP mean rank is at most (1 + 4 + 6) / 3 = 3.67;
    # - ranks of six methods sum to 21 on every dataset, so the MLP column
    #   leaves 21 - (2.0 + 4.7 + 3.7 + 3.0 + 4.3) = 3.3 for cGAN (the printed
    #   column sums to 21.7);
    # - every published overall rank is the mean of its four per-classifier
    #   ranks to one decimal; cGAN's 3.1 needs an MLP entry of 3.3
    #   ((2.7 + 4.3 + 2.0 + 3.3) / 4 = 3.075), not 4.0 (3.25).
    # The LR column also misses the rank sum (20.0), but no single LR entry
    # is singled out, so it stays as printed.
    "cGAN": {"overall": 3.1, "LR": 2.7, "RF": 4.3, "XGB": 2.0, "MLP": 3.3},
}


def paper_rank_table():
    table = {}
    for (d, c), row in PAPER_F1.items():
        for s, v in row.items():
            table[(d, c, s)] = v
    return mean_rank(table)


def test_criterion_5_rank_fixture_best_method():
    with criterion(5, "rank fixture: SDG-GAN best overall, its columns within 0.4"):
        rank = paper_rank_table()
        best = min(rank.overall, key=rank.overall.get)
        assert best == "SDG-GAN"
        assert rank.overall["SDG-GAN"] == pytest.approx(2.6, abs=0.4)
        assert rank.per_classifier["RF"]["SDG-GAN"] == pytest.approx(2.3, abs=0.4)
        assert rank.per_classifier["MLP"]["SDG-GAN"] == pytest.approx(2.0, abs=0.4)


def test_criterion_5_rank_fixture_full_table():
    with criterion(5, "rank fixture: every published rank entry within 0.4"):
        # the fixture agrees with itself: overall = mean of the four columns,
        # up to the rounding of five one-decimal entries
        for method, expected in PUBLISHED_RANKS.items():
            columns = [expected[clf] for clf in ("LR", "RF", "XGB", "MLP")]
            assert np.mean(columns) == pytest.approx(expected["overall"], abs=0.1), method
        rank = paper_rank_table()
        for method, expected in PUBLISHED_RANKS.items():
            assert rank.overall[method] == pytest.approx(expected["overall"], abs=0.4), method
            for clf in ("LR", "RF", "XGB", "MLP"):
                got = rank.per_classifier[clf][method]
                assert got == pytest.approx(expected[clf], abs=0.4), (method, clf)


def _gan_distribution_run(epochs):
    ds = synth_dataset(100, 400, 8, separation=0.3, seed=0)
    model = train_sdg_gan(ds, TrainingConfig(epochs=epochs), seed=2)
    rows = generate_minority(model, 500, seed=3)
    true_mean = ds.features[ds.labels == 1].mean(axis=0)
    err = np.abs(rows.mean(axis=0) - true_mean).max()
    fm = [g for _, g in model.loss_history]
    return err, float(np.mean(fm[:10])), float(np.mean(fm[-10:]))


def test_criterion_6_gan_distribution_check():
    # Known red at the pinned budget: with the published constants
    # (lr 1e-4, batch 64) the 500-row training set yields ~800 generator
    # steps in 100 epochs, which lands at err ~0.19-0.29 across seeds; the
    # same run converges to ~0.05 with the FM trend holding by 400 epochs
    # (see the supplementary test below).
    with criterion(6, "100-epoch SDG-GAN matches minority means within 0.15"):
        started = time.time()
        err, fm_first, fm_last = _gan_distribution_run(epochs=100)
        elapsed = time.time() - started
        assert elapsed < 120.0
        assert err < 0.15
        assert fm_last < fm_first


def test_criterion_6_supplementary_convergence_at_400_epochs():
    with criterion(6, "supplementary: SDG-GAN reaches the target regime by 400 epochs"):
        err, fm_first, fm_last = _gan_distribution_run(epochs=400)
        assert err < 0.15
        assert fm_last < fm_first


@pytest.mark.skipif(
    not os.path.isfile(PIMA_CSV),
    reason=f"Pima CSV not found at {PIMA_CSV}; place the standard 768-row file "
    "there or set IMBENCH_PIMA_CSV (see data/README.md)",
)
def test_criterion_7_pima_reproduction():
    with criterion(7, "Pima desk-scale reproduction over 10 seeded runs"):
        ds, _ = load_csv(PIMA_CSV, "Outcome")
        assert ds.n_rows == 768 and ds.n_features == 8
        config = ExperimentConfig(
            datasets=(("pima", PIMA_CSV, "Outcome"),),
            samplers=("none", "ros", "smote", "b-smote", "adasyn", "cgan", "sdg-gan"),
            classifiers=("logreg", "rf", "gbt", "mlp"),
            runs=10,
            master_seed=0,
        )
        started = time.time()
        report = run_benchmark(config, loaded={"pima": ds})
        elapsed = time.time() - started
        assert not report.failures, report.failures
        assert elapsed < 600.0, f"full grid took {elapsed:.0f}s"

        rf_wo = report.cells[("pima", "none", "rf")]
        rf_smote = report.cells[("pima", "smote", "rf")]
        rf_sdg = report.cells[("pima", "sdg-gan", "rf")]
        assert abs(rf_wo.mean["f1"] - 0.6548) <= 0.07, rf_wo.mean
        assert rf_smote.mean["recall"] > rf_wo.mean["recall"]
        assert rf_sdg.mean["f1"] >= rf_wo.mean["f1"] - 0.01


def _toy_benchmark_config(tmp_path, name):
    from imbench.data import save_csv

    rng = np.random.default_rng(0)
    labels = np.concatenate([np.ones(25, dtype=np.int64), np.zeros(75, dtype=np.int64)])
    feats = np.column_stack([labels * 2.0 + rng.random(100), rng.random(100), rng.random(100)])
    ds = Dataset(feats, labels, ("a", "b", "c"))
    path = tmp_path / f"{name}.csv"
    save_csv(ds, path, label_column="y")
    return ExperimentConfig(
        datasets=((name, str(path), "y"),),
        samplers=("none", "ros", "smote", "sdg-gan"),
        classifiers=("logreg", "gbt"),
        runs=2,
        master_seed=11,
        gan_config=TrainingConfig(epochs=2),
    )


def test_criterion_8_deterministic_reports(tmp_path):
    with criterion(8, "byte-identical CSV reports, sequential and concurrent"):
        config = _toy_benchmark_config(tmp_path, "det")
        blobs = []
        for workers, out in ((1, "a"), (1, "b"), (4, "c")):
            report = run_benchmark(config, max_workers=workers)
            rank = mean_rank(bench.report_to_f1_table(report))
            paths = emit_report(report, rank, tmp_path / out)
            blobs.append(tuple(Path(p).read_bytes() for p in paths))
        assert blobs[0] == blobs[1] == blobs[2]


def test_criterion_9_leakage_guard(monkeypatch):
    with criterion(9, "no test-split row reaches scaler, sampler, or GAN training"):
        import imbench.gan as gan_mod

        n = 80
        feats = np.column_stack([np.arange(n, dtype=float), 7.0 + np.arange(n, dtype=float) ** 2])
        labels = np.concatenate([np.ones(25, dtype=np.int64), np.zeros(55, dtype=np.int64)])
        ds = Dataset(feats, labels, ("a", "b"))
        run_seed = 2024

        seen = {}
        real_fit = bench.minmax_fit
        real_smote = bench.smote
        real_gan = gan_mod.train_sdg_gan

        def spy_fit(d):
            seen.setdefault("fit", []).append(np.array(d.features))
            return real_fit(d)

        def spy_smote(train, **kw):
            seen["smote"] = np.array(train.features)
            return real_smote(train, **kw)

        def spy_gan(train, config=None, seed=0):
            seen["gan"] = np.array(train.features)
            return real_gan(train, config, seed)

        monkeypatch.setattr(bench, "minmax_fit", spy_fit)
        monkeypatch.setattr(bench, "smote", spy_smote)
        monkeypatch.setattr(gan_mod, "train_sdg_gan", spy_gan)

        run_cell(ds, "smote", "logreg", run_seed)
        run_cell(ds, "sdg-gan", "logreg", run_seed, gan_config=TrainingConfig(epochs=1))

        split = stratified_split(ds, 0.2, stable_seed(run_seed, "split"))
        train_rows = {tuple(r) for r in split.train.features}
        scaler = minmax_fit(split.train)
        scaled_train = {tuple(r) for r in minmax_transform(scaler, split.train).features}
        scaled_test = {tuple(r) for r in minmax_transform(scaler, split.test).features}

        for fit_rows in seen["fit"]:
            assert {tuple(r) for r in fit_rows} == train_rows
        for stage in ("smote", "gan"):
            rows = {tuple(r) for r in seen[stage]}
            assert rows == scaled_train
            assert not rows & scaled_test
