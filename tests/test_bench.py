import re
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import imbench.bench as bench
from imbench.bench import (
    CellStats,
    ExperimentConfig,
    MetricsReport,
    compute_metrics,
    emit_report,
    mean_rank,
    parse_metrics_csv,
    report_to_f1_table,
    run_benchmark,
    run_cell,
    stable_seed,
    synth_dataset,
)
from imbench.classifiers import LogRegSpec, train_logreg, predict_labels
from imbench.data import Dataset, minmax_fit, minmax_transform, stratified_split
from imbench.errors import ConfigInvalidError, DimensionMismatchError, IncompleteTableError
from imbench.gan import TrainingConfig


class TestComputeMetrics:
    def test_perfect(self):
        y = np.array([1, 0, 1, 0])
        assert compute_metrics(y, y) == (1.0, 1.0, 1.0)

    def test_hand_confusion_matrix(self):
        # TP=8, FP=2, FN=2, TN=8
        y_true = np.array([1] * 10 + [0] * 10)
        y_pred = np.array([1] * 8 + [0] * 2 + [1] * 2 + [0] * 8)
        r, p, f1 = compute_metrics(y_true, y_pred)
        assert (r, p, f1) == (0.8, 0.8, 0.8)

    def test_zero_denominators(self):
        y_true = np.array([1, 1, 0])
        y_pred = np.array([0, 0, 0])
        assert compute_metrics(y_true, y_pred) == (0.0, 0.0, 0.0)

    def test_no_true_positives_but_predictions(self):
        y_true = np.array([0, 0, 0])
        y_pred = np.array([1, 0, 0])
        r, p, f1 = compute_metrics(y_true, y_pred)
        assert r == 0.0 and p == 0.0 and f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compute_metrics(np.array([1, 0]), np.array([1]))

    @pytest.mark.parametrize(
        "y_true, y_pred, stray",
        [([2, 1, 0], [1, 1, 0], "[2]"), ([1, 0, 0], [1, -1, 3], "[-1, 3]"), ([1, 0.5], [1, 1], "[0.5]")],
    )
    def test_labels_outside_zero_one_rejected(self, y_true, y_pred, stray):
        # a stray label belongs to neither class, so no count could hold it
        with pytest.raises(ValueError, match=re.escape(f"labels must be 0 or 1, got {stray}")):
            compute_metrics(np.array(y_true), np.array(y_pred))


def trivially_separable(n=60):
    """Label equals thresholded first feature: any classifier aces it."""
    rng = np.random.default_rng(0)
    labels = np.concatenate([np.ones(n // 3, dtype=np.int64), np.zeros(n - n // 3, dtype=np.int64)])
    feats = np.column_stack([labels * 10.0 + rng.random(n), rng.random(n)])
    return Dataset(feats, labels, ("a", "b"))


class Reached(Exception):
    """Raised by a spy in place of the bench global it stands for."""


def install_spies(monkeypatch, names):
    def spy(name):
        def call(*args, **kwargs):
            raise Reached(name, args, kwargs)

        return call

    for name in names:
        monkeypatch.setattr(bench, name, spy(name))


# the first of these bench globals that each table entry reaches when its cell
# runs; "none" hands the scaled split to the classifier as it is
SAMPLER_REACHES = {
    "none": "train_classifier",
    "ros": "random_oversample",
    "smote": "smote",
    "b-smote": "borderline_smote",
    "adasyn": "adasyn",
    "cgan": "_train_gan_with_retry",
    "sdg-gan": "_train_gan_with_retry",
}
CLASSIFIER_REACHES = {"logreg": "LogRegSpec", "rf": "ForestSpec", "gbt": "GBTSpec", "mlp": "MLPSpec"}


class TestRunCell:
    @pytest.mark.parametrize("sampler", list(bench.SAMPLERS))
    def test_sampler_entry_reaches_the_module_global(self, monkeypatch, sampler):
        # a wrapper installed on bench, as perfbench's tracer installs one,
        # must see the call: no entry may hold on to the function it had at import
        install_spies(monkeypatch, set(SAMPLER_REACHES.values()))
        with pytest.raises(Reached) as info:
            run_cell(trivially_separable(), sampler, "logreg", run_seed=0)
        name, args, kwargs = info.value.args
        assert name == SAMPLER_REACHES[sampler]
        if name == "_train_gan_with_retry":
            assert args[0] == sampler and args[3] == stable_seed(0, "sampler")
        elif name != "train_classifier":
            assert kwargs == {"seed": stable_seed(0, "sampler")}

    @pytest.mark.parametrize("classifier", list(bench.CLASSIFIERS))
    def test_classifier_entry_reaches_the_module_global(self, monkeypatch, classifier):
        install_spies(monkeypatch, CLASSIFIER_REACHES.values())
        with pytest.raises(Reached) as info:
            run_cell(trivially_separable(), "none", classifier, run_seed=0)
        seeded = {"seed": stable_seed(0, "classifier")} if classifier in ("rf", "mlp") else {}
        assert info.value.args == (CLASSIFIER_REACHES[classifier], (), seeded)

    def test_separable_fixture_perfect_f1(self):
        ds = trivially_separable()
        r, p, f1 = run_cell(ds, "none", "rf", run_seed=7)
        assert f1 == 1.0

    def test_determinism(self):
        ds = trivially_separable()
        a = run_cell(ds, "smote", "gbt", run_seed=42)
        b = run_cell(ds, "smote", "gbt", run_seed=42)
        assert a == b

    def test_smote_lifts_logreg_recall_on_overlapping_gaussians(self):
        ds = synth_dataset(100, 400, 4, separation=0.25, seed=1)
        wins = 0
        for run in range(10):
            seed = stable_seed(77, run)
            r_none, _, _ = run_cell(ds, "none", "logreg", seed)
            r_smote, _, _ = run_cell(ds, "smote", "logreg", seed)
            wins += r_smote >= r_none
        assert wins >= 8

    def test_unknown_sampler(self):
        with pytest.raises(ValueError):
            run_cell(trivially_separable(), "nope", "logreg", 0)

    def test_unknown_classifier(self):
        with pytest.raises(ValueError, match="^unknown classifier 'nope'$"):
            run_cell(trivially_separable(), "none", "nope", 0)

    def test_sampler_warnings_reach_the_caller(self):
        # 3 minority rows train, so SMOTE's k=5 is capped at 2
        with pytest.warns(UserWarning, match="capped"):
            run_cell(synth_dataset(4, 30, 3, 0.3), "smote", "logreg", run_seed=0)


def small_config(tmp_path, ds, samplers=("none", "ros"), classifiers=("logreg",), runs=2):
    from imbench.data import save_csv

    path = tmp_path / "ds.csv"
    save_csv(ds, path, label_column="y")
    return ExperimentConfig(
        datasets=(("toy", str(path), "y"),),
        samplers=samplers,
        classifiers=classifiers,
        runs=runs,
        master_seed=5,
        gan_config=TrainingConfig(epochs=1),
    )


class TestRunBenchmark:
    def test_each_cell_warning_names_its_cell(self, tmp_path):
        # 3 minority rows train, so each cell's SMOTE call caps k=5 at 2
        config = small_config(
            tmp_path, synth_dataset(4, 30, 3, 0.3), samplers=("smote",), classifiers=("logreg", "gbt"), runs=1
        )
        with pytest.warns(UserWarning) as record:
            run_benchmark(config)
        capped = [str(w.message) for w in record if "capped" in str(w.message)]
        assert len(capped) == 2
        for text, classifier in zip(capped, ("logreg", "gbt")):
            assert text.startswith("smote: k=5 capped at 2")
            assert text.endswith(f"[toy/smote/{classifier}/run 0]")

    def test_caller_filters_act_inside_each_cell(self, tmp_path):
        config = small_config(
            tmp_path, synth_dataset(4, 30, 3, 0.3), samplers=("smote",), classifiers=("logreg", "gbt"), runs=1
        )
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            warnings.filterwarnings("ignore", message="smote: k=")
            report = run_benchmark(config)
        assert not report.failures
        assert not [w for w in record if "capped" in str(w.message)]

    def test_warnings_as_errors_fail_only_their_cell(self, tmp_path):
        config = small_config(tmp_path, synth_dataset(4, 30, 3, 0.3), samplers=("none", "smote"), runs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_benchmark(config)
        assert list(report.failures) == [("toy", "smote", "logreg")]
        assert "capped" in report.failures[("toy", "smote", "logreg")]

    def test_single_run_zero_std(self, tmp_path):
        config = small_config(tmp_path, trivially_separable(), runs=1)
        report = run_benchmark(config)
        for stats in report.cells.values():
            assert all(v == 0.0 for v in stats.std.values())

    def test_concurrent_equals_sequential(self, tmp_path):
        config = small_config(
            tmp_path, trivially_separable(), samplers=("none", "ros", "smote"), classifiers=("logreg", "gbt")
        )
        seq = run_benchmark(config, max_workers=1)
        par = run_benchmark(config, max_workers=4)
        assert seq.cells == par.cells
        assert seq.failures == par.failures

    def test_workers_run_every_task_in_order_on_the_calling_thread(self, monkeypatch):
        loaded = {"a": trivially_separable(), "b": trivially_separable()}
        config = ExperimentConfig(
            datasets=tuple((name, "", "") for name in loaded),
            samplers=("none", "ros"),
            classifiers=("logreg", "gbt"),
            runs=2,
        )
        calls = []
        real = bench._run_one

        def spy_run_one(task):
            name, _, sampler, classifier, run_idx, _ = task
            calls.append((threading.get_ident(), (name, sampler, classifier, run_idx)))
            return real(task)

        monkeypatch.setattr(bench, "_run_one", spy_run_one)
        run_benchmark(config, loaded=loaded, max_workers=4)
        expected = [
            (name, s, c, r) for name in loaded for s in config.samplers for c in config.classifiers for r in range(2)
        ]
        assert calls == [(threading.get_ident(), task) for task in expected]

    def test_cell_failure_is_isolated(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("sampler exploded")

        monkeypatch.setattr(bench, "smote", boom)
        config = small_config(tmp_path, trivially_separable(), samplers=("none", "smote"))
        report = run_benchmark(config)
        assert ("toy", "smote", "logreg") in report.failures
        assert "sampler exploded" in report.failures[("toy", "smote", "logreg")]
        assert ("toy", "none", "logreg") in report.cells

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_match_run_cell_oracle(self, monkeypatch, workers):
        # each cell's mean and std come from its own runs, whatever the schedule
        loaded = {"a": synth_dataset(12, 36, 3, 0.3, seed=1), "b": synth_dataset(12, 36, 3, 0.1, seed=2)}
        config = ExperimentConfig(
            datasets=tuple((name, "", "") for name in loaded),
            samplers=("none", "ros"),
            classifiers=("logreg", "gbt"),
            runs=3,
            master_seed=11,
        )
        expected = {}
        for name, ds in loaded.items():
            for s in config.samplers:
                for c in config.classifiers:
                    runs = [run_cell(ds, s, c, stable_seed(11, name, s, c, r)) for r in range(3)]
                    expected[(name, s, c)] = [(np.mean(m), np.std(m)) for m in zip(*runs)]

        def got(report):
            return {k: [(v.mean[m], v.std[m]) for m in ("recall", "precision", "f1")] for k, v in report.cells.items()}

        report = run_benchmark(config, loaded=loaded, max_workers=workers)
        assert got(report) == expected and report.failures == {}

        bad_seed = stable_seed(11, "b", "ros", "logreg", 1)

        def fail_one(dataset, sampler, classifier, run_seed, *args):
            if run_seed == bad_seed:
                raise RuntimeError("this run fails")
            return run_cell(dataset, sampler, classifier, run_seed, *args)

        monkeypatch.setattr(bench, "run_cell", fail_one)
        report = run_benchmark(config, loaded=loaded, max_workers=workers)
        assert report.failures == {("b", "ros", "logreg"): "RuntimeError: this run fails"}
        del expected[("b", "ros", "logreg")]
        assert got(report) == expected

    def test_grid_cardinality(self, tmp_path):
        config = small_config(
            tmp_path, trivially_separable(), samplers=("none", "ros", "smote"), classifiers=("logreg", "gbt"), runs=2
        )
        report = run_benchmark(config)
        assert len(report.cells) == 6

    # each change is made inside pytest.raises, as a bad setting raises when made
    @pytest.mark.parametrize(
        "change, workers",
        [
            (lambda: {"gan_config": TrainingConfig(epochs=-1)}, 1),
            (lambda: {"test_fraction": 1.0}, 1),
            (dict, 0),
            (dict, -2),
        ],
        ids=["change0-1", "change1-1", "change2-0", "change3--2"],
    )
    def test_bad_settings_rejected_before_any_cell(self, tmp_path, monkeypatch, change, workers):
        cells = []
        monkeypatch.setattr(bench, "run_cell", lambda *a, **k: cells.append(a))
        config = small_config(tmp_path, trivially_separable(), samplers=("none", "cgan"))
        with pytest.raises(ConfigInvalidError):
            run_benchmark(replace(config, **change()), max_workers=workers)
        assert cells == []

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"samplers": ("none", "smote", "smote")}, "duplicate sampler name 'smote'"),
            ({"classifiers": ("logreg", "logreg")}, "duplicate classifier name 'logreg'"),
            ({"samplers": ("none", "nope")}, "unknown sampler 'nope'; choose from " + repr(tuple(bench.SAMPLERS))),
            ({"classifiers": ("svm",)}, "unknown classifier 'svm'; choose from " + repr(tuple(bench.CLASSIFIERS))),
            ({"datasets": (("a", "x.csv"),)}, "dataset entry ('a', 'x.csv') must be (name, csv path, label column)"),
            ({"datasets": (("a", "x.csv", None),)},
             "dataset entry ('a', 'x.csv', None) must be (name, csv path, label column)"),
        ],
        ids=["sampler-twice", "classifier-twice", "unknown-sampler", "unknown-classifier", "dataset-pair",
             "dataset-no-label"],
    )
    def test_repeated_or_unknown_name_rejected(self, change, message):
        config = ExperimentConfig(datasets=(("a", "a.csv", "y"),))
        with pytest.raises(ConfigInvalidError, match=f"^{re.escape(message)}$"):
            replace(config, **change)

    def test_gan_config_must_be_a_training_config(self):
        with pytest.raises(ConfigInvalidError, match=r"^gan_config must be a TrainingConfig, got 'x'$"):
            ExperimentConfig(datasets=(("a", "a.csv", "y"),), gan_config="x")

    def test_loaded_names_must_be_configured(self, monkeypatch):
        # a mistyped key is named before any file loads or any cell runs
        calls = []
        monkeypatch.setattr(bench, "run_cell", lambda *a, **k: calls.append(a))
        monkeypatch.setattr("imbench.data.load_csv", lambda *a: calls.append(a))
        config = ExperimentConfig(datasets=(("a", "", ""),), samplers=("none",), classifiers=("logreg",), runs=1)
        loaded = {"a": trivially_separable(), "A": trivially_separable()}
        with pytest.raises(ConfigInvalidError, match=r"\['A'\] are not in the config"):
            run_benchmark(config, loaded=loaded)
        assert calls == []

    def test_unsplittable_dataset_rejected_before_any_cell(self, tmp_path, monkeypatch):
        # round-half-up(3 * 0.1) is 0: no split at 0.9 leaves class 1 a training row
        tasks = []
        monkeypatch.setattr(bench, "_run_one", tasks.append)
        config = small_config(tmp_path, synth_dataset(3, 30, 2, 0.3, seed=0), runs=1)
        message = "dataset 'toy': class 1 has 3 rows, none to train at test_fraction 0.9"
        with pytest.raises(ConfigInvalidError, match=f"^{re.escape(message)}$"):
            run_benchmark(replace(config, test_fraction=0.9))
        assert tasks == []

    def test_single_class_loaded_dataset_rejected_before_any_cell(self, monkeypatch):
        tasks = []
        monkeypatch.setattr(bench, "_run_one", tasks.append)
        one_class = Dataset(np.arange(6.0).reshape(3, 2), np.ones(3, dtype=np.int64), ("a", "b"))
        config = ExperimentConfig(datasets=(("a", "", ""),), samplers=("none",), classifiers=("logreg",), runs=1)
        with pytest.raises(ConfigInvalidError, match="^dataset 'a': stratified split needs both classes present$"):
            run_benchmark(config, loaded={"a": one_class})
        assert tasks == []

    def test_seed_derivation_is_stable(self):
        assert stable_seed(1, "a", 2) == stable_seed(1, "a", 2)
        assert stable_seed(1, "a", 2) != stable_seed(1, "a", 3)
        assert stable_seed(0, "x") < 2**63


@pytest.fixture
def blas_at_two():
    """numpy's OpenBLAS (get, set) with the count set to 2, as a caller
    might set it; the count found is restored afterwards."""
    control = bench._openblas_threads()
    if control is None:
        pytest.skip("numpy exposes no OpenBLAS thread control")
    get, set_ = control
    found = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS did not take a count of 2")
        yield control
    finally:
        set_(found)


class StopGrid(BaseException):
    pass


class TestBlasThreads:
    config = ExperimentConfig(
        datasets=(("toy", "", ""),), samplers=("none", "ros"), classifiers=("logreg",), runs=2, master_seed=5
    )
    loaded = {"toy": trivially_separable()}

    def spy(self, monkeypatch, get, stop=False):
        """Record the BLAS thread count each cell sees."""
        seen = []
        real = bench._run_one

        def spy_run_one(args):
            seen.append(get())
            if stop:
                raise StopGrid
            return real(args)

        monkeypatch.setattr(bench, "_run_one", spy_run_one)
        return seen

    @pytest.mark.parametrize("workers, cell_threads", [(1, 1), (2, 1)])
    def test_every_grid_runs_on_one_blas_thread(self, monkeypatch, blas_at_two, workers, cell_threads):
        get, _ = blas_at_two
        seen = self.spy(monkeypatch, get)
        run_benchmark(self.config, loaded=self.loaded, max_workers=workers)
        assert seen == [cell_threads] * 4
        assert get() == 2

    def test_count_restored_when_a_base_exception_leaves_a_cell(self, monkeypatch, blas_at_two):
        get, _ = blas_at_two
        seen = self.spy(monkeypatch, get, stop=True)
        with pytest.raises(StopGrid):
            run_benchmark(self.config, loaded=self.loaded)
        assert seen == [1]
        assert get() == 2

    def test_grid_runs_as_before_without_thread_control(self, monkeypatch, blas_at_two):
        get, _ = blas_at_two
        pinned = run_benchmark(self.config, loaded=self.loaded)
        monkeypatch.setattr(bench, "_openblas_threads", lambda: None)
        seen = self.spy(monkeypatch, get)
        assert run_benchmark(self.config, loaded=self.loaded) == pinned
        assert seen == [2] * 4

    def test_pinned_gan_cells_equal_unpinned(self, blas_at_two):
        # the default GAN widths at batch 64 give products that OpenBLAS
        # splits across threads when it may
        get, _ = blas_at_two
        ds = synth_dataset(100, 400, 8, 0.3, seed=0)
        config = ExperimentConfig(
            datasets=(("t", "", ""),),
            samplers=("cgan", "sdg-gan"),
            classifiers=("mlp",),
            runs=1,
            master_seed=3,
            gan_config=TrainingConfig(epochs=2),
        )
        pinned = run_benchmark(config, loaded={"t": ds})
        assert get() == 2
        for s in config.samplers:
            metrics = run_cell(ds, s, "mlp", stable_seed(3, "t", s, "mlp", 0), gan_config=config.gan_config)
            assert pinned.cells[("t", s, "mlp")].mean == dict(zip(bench.METRICS, metrics))


class TestGanRetry:
    def test_divergence_retries_once_then_fails(self, monkeypatch):
        import imbench.gan as gan_mod
        from imbench.errors import GanDivergenceError

        attempts = []
        real_train = gan_mod.train_sdg_gan

        def diverging(train, config=None, seed=0):
            attempts.append(seed)
            model = real_train(train, TrainingConfig(epochs=0), seed=seed)
            model.loss_history.append((float("nan"), float("nan")))
            return model

        monkeypatch.setattr(gan_mod, "train_sdg_gan", diverging)
        ds = synth_dataset(20, 60, 2, 0.3, seed=0)
        with pytest.raises(GanDivergenceError):
            bench._train_gan_with_retry("sdg-gan", ds, TrainingConfig(epochs=0), seed=5)
        assert attempts == [5, 6]

    def test_retry_recovers_on_second_seed(self, monkeypatch):
        import imbench.gan as gan_mod

        real_train = gan_mod.train_cgan

        def flaky(train, config=None, seed=0):
            model = real_train(train, TrainingConfig(epochs=0), seed=seed)
            if seed == 5:
                model.loss_history.append((float("inf"), 0.0))
            return model

        monkeypatch.setattr(gan_mod, "train_cgan", flaky)
        ds = synth_dataset(20, 60, 2, 0.3, seed=0)
        model = bench._train_gan_with_retry("cgan", ds, TrainingConfig(epochs=0), seed=5)
        assert model.loss_history == []  # the clean seed-6 attempt


class TestMeanRank:
    def test_total_order(self):
        table = {}
        for d in ("d1", "d2"):
            for c in ("c1", "c2"):
                table[(d, c, "A")] = 0.9
                table[(d, c, "B")] = 0.5
        rank = mean_rank(table)
        assert rank.overall == {"A": 1.0, "B": 2.0}

    def test_tie_shares_average_rank(self):
        table = {
            ("d", "c", "A"): 0.8,
            ("d", "c", "B"): 0.8,
            ("d", "c", "C"): 0.5,
        }
        rank = mean_rank(table)
        assert rank.overall["A"] == 1.5 and rank.overall["B"] == 1.5 and rank.overall["C"] == 3.0

    def test_rank_sum_property(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            samplers = [f"s{i}" for i in range(n)]
            vals = rng.choice([0.1, 0.2, 0.3, 0.4], size=n)  # ties likely
            table = {("d", "c", s): float(v) for s, v in zip(samplers, vals)}
            rank = mean_rank(table)
            assert sum(rank.overall.values()) == pytest.approx(n * (n + 1) / 2)

    def test_matches_pure_python_ranks(self):
        # rank of s in its (dataset, classifier) row: 1 + #greater + (#equal - 1) / 2,
        # #equal counting s itself; means are plain sums over rows
        import random

        for seed in range(200):
            rng = random.Random(seed)
            datasets = [f"d{i}" for i in range(rng.randint(1, 4))]
            classifiers = [f"c{i}" for i in range(rng.randint(1, 4))]
            samplers = [f"s{i}" for i in range(rng.randint(2, 7))]
            levels = [rng.random() for _ in range(rng.randint(1, 3))]  # heavy ties
            table = {(d, c, s): rng.choice(levels) for d in datasets for c in classifiers for s in samplers}
            row_ranks = {}
            for d in datasets:
                for c in classifiers:
                    row = [table[(d, c, s)] for s in samplers]
                    for s, v in zip(samplers, row):
                        greater = sum(w > v for w in row)
                        equal = sum(w == v for w in row)
                        row_ranks[(d, c, s)] = 1 + greater + (equal - 1) / 2
            rank = mean_rank(table)
            for s in samplers:
                overall = sum(row_ranks[(d, c, s)] for d in datasets for c in classifiers)
                assert rank.overall[s] == overall / (len(datasets) * len(classifiers))
                for c in classifiers:
                    per = sum(row_ranks[(d, c, s)] for d in datasets)
                    assert rank.per_classifier[c][s] == per / len(datasets)

    def test_absent_pair_is_left_out(self):
        # (d2, c2) is absent as a whole: overall is the mean over the three
        # ranked pairs, and c2's ranks come from d1 alone
        table = {("d1", "c1", "A"): 0.9, ("d1", "c1", "B"): 0.5, ("d2", "c1", "A"): 0.4}
        table.update({("d2", "c1", "B"): 0.6, ("d1", "c2", "A"): 0.7, ("d1", "c2", "B"): 0.7})
        rank = mean_rank(table)
        assert rank.overall == {"A": 4.5 / 3, "B": 4.5 / 3}
        assert rank.per_classifier == {"c1": {"A": 1.5, "B": 1.5}, "c2": {"A": 1.5, "B": 1.5}}

    def test_incomplete_table_rejected(self):
        table = {("d1", "c", "A"): 0.5, ("d1", "c", "B"): 0.4, ("d2", "c", "A"): 0.3}
        with pytest.raises(IncompleteTableError):
            mean_rank(table)
        with pytest.raises(IncompleteTableError):
            mean_rank({("d", "c", "A"): 0.5})


class TestSynthDataset:
    def test_imbalance_ratio(self):
        from imbench.data import imbalance_stats

        ds = synth_dataset(100, 400, 3, 0.2, seed=0)
        assert imbalance_stats(ds).ratio == 4.0

    def test_values_clipped_to_unit_interval(self):
        ds = synth_dataset(200, 200, 5, 0.6, seed=1)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_large_separation_is_nearly_separable(self):
        ds = synth_dataset(150, 600, 4, separation=0.5, seed=2)
        _, _, f1 = run_cell(ds, "none", "logreg", run_seed=3)
        assert f1 > 0.9

    def test_zero_separation_accuracy_near_majority_fraction(self):
        ds = synth_dataset(100, 400, 4, separation=0.0, seed=3)
        split = stratified_split(ds, 0.2, seed=0)
        scaler = minmax_fit(split.train)
        model = train_logreg(minmax_transform(scaler, split.train), LogRegSpec())
        pred = predict_labels(model, minmax_transform(scaler, split.test).features)
        acc = float(np.mean(pred == split.test.labels))
        assert 0.65 <= acc <= 0.95  # indistinguishable classes: majority-ish accuracy


def one_cell_report():
    cells = {
        ("d", "s", "c"): CellStats(
            {"recall": 0.5, "precision": 0.25, "f1": 1 / 3}, {"recall": 0.1, "precision": 0.0, "f1": 0.05}
        )
    }
    return MetricsReport(cells, {})


class TestEmitReport:
    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(MetricsReport({}, {}), None, tmp_path)

    def test_one_cell_gives_three_rows(self, tmp_path):
        paths = emit_report(one_cell_report(), None, tmp_path)
        lines = Path(paths[0]).read_text().strip().splitlines()
        assert lines[0] == "dataset,sampler,classifier,metric,mean,std"
        assert len(lines) == 4

    def test_csv_round_trip(self, tmp_path):
        report = one_cell_report()
        paths = emit_report(report, None, tmp_path)
        parsed = parse_metrics_csv(paths[0])
        for m in ("recall", "precision", "f1"):
            mean, std = parsed[("d", "s", "c", m)]
            assert mean == report.cells[("d", "s", "c")].mean[m]
            assert std == report.cells[("d", "s", "c")].std[m]

    def test_parse_names_a_short_row_by_its_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("dataset,sampler,classifier,metric,mean,std\nd,s,c,f1,0.5,0.1\nd,s,c,recall,0.5\n")
        with pytest.raises(DimensionMismatchError, match="^line 3: expected 6 cells, got 5$"):
            parse_metrics_csv(path)

    def test_parse_names_a_repeated_key_by_its_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("dataset,sampler,classifier,metric,mean,std\nd,s,c,f1,0.5,0.1\nd,s,c,f1,0.9,0.1\n")
        with pytest.raises(ValueError, match=r"^line 3: more than one row for \('d', 's', 'c', 'f1'\)$"):
            parse_metrics_csv(path)

    def test_ordinary_names_are_not_quoted(self, tmp_path):
        paths = emit_report(one_cell_report(), None, tmp_path)
        stats = one_cell_report().cells[("d", "s", "c")]
        expected = "dataset,sampler,classifier,metric,mean,std\n" + "".join(
            f"d,s,c,{m},{stats.mean[m]!r},{stats.std[m]!r}\n" for m in ("recall", "precision", "f1")
        )
        with open(paths[0], newline="") as fh:
            assert fh.read() == expected

    def test_comma_in_dataset_name_round_trips(self, tmp_path):
        stats = one_cell_report().cells[("d", "s", "c")]
        report = MetricsReport({('a,"b"', "s", "c"): stats}, {})
        paths = emit_report(report, None, tmp_path)
        assert Path(paths[0]).read_text().splitlines()[1].startswith('"a,""b""",s,c,recall,')
        parsed = parse_metrics_csv(paths[0])
        assert parsed[('a,"b"', "s", "c", "f1")] == (stats.mean["f1"], stats.std["f1"])
        assert len(parsed) == 3

    def test_markdown_contains_tables(self, tmp_path):
        table = {("d", "c", s): v for s, v in (("A", 0.9), ("B", 0.5))}
        paths = emit_report(one_cell_report(), mean_rank(table), tmp_path, fmt="markdown")
        text = Path(paths[0]).read_text()
        assert "## d" in text and "Mean rank" in text

    def test_report_to_f1_table_layout(self):
        table = report_to_f1_table(one_cell_report())
        assert table == {("d", "c", "s"): pytest.approx(1 / 3)}


class TestLeakageGuard:
    def test_scaler_and_sampler_see_only_train_rows(self, monkeypatch):
        # unique row values make train/test disjoint by value, so membership
        # checks prove which rows each stage read
        n = 50
        feats = np.column_stack([np.arange(n, dtype=float), np.arange(n, dtype=float) ** 2])
        labels = np.concatenate([np.ones(15, dtype=np.int64), np.zeros(35, dtype=np.int64)])
        ds = Dataset(feats, labels, ("a", "b"))
        run_seed = 123

        seen = {}
        real_fit = bench.minmax_fit
        real_smote = bench.smote

        def spy_fit(d):
            seen.setdefault("fit", []).append(np.array(d.features))
            return real_fit(d)

        def spy_smote(train, **kw):
            seen["sampler"] = np.array(train.features)
            return real_smote(train, **kw)

        monkeypatch.setattr(bench, "minmax_fit", spy_fit)
        monkeypatch.setattr(bench, "smote", spy_smote)
        run_cell(ds, "smote", "logreg", run_seed)

        split = stratified_split(ds, 0.2, stable_seed(run_seed, "split"))
        train_rows = {tuple(r) for r in split.train.features}
        assert len(seen["fit"]) == 1
        assert {tuple(r) for r in seen["fit"][0]} == train_rows

        scaler = minmax_fit(split.train)
        scaled_train = {tuple(r) for r in minmax_transform(scaler, split.train).features}
        scaled_test = {tuple(r) for r in minmax_transform(scaler, split.test).features}
        sampler_rows = {tuple(r) for r in seen["sampler"]}
        assert sampler_rows == scaled_train
        assert not sampler_rows & scaled_test

    def test_gan_training_sees_only_train_rows(self, monkeypatch):
        import imbench.gan as gan_mod

        n = 60
        feats = np.column_stack([np.arange(n, dtype=float), 3.0 + np.arange(n, dtype=float) ** 1.5])
        labels = np.concatenate([np.ones(20, dtype=np.int64), np.zeros(40, dtype=np.int64)])
        ds = Dataset(feats, labels, ("a", "b"))
        run_seed = 321

        seen = {}
        real_train = gan_mod.train_sdg_gan

        def spy_train(train, config=None, seed=0):
            seen["rows"] = np.array(train.features)
            return real_train(train, config, seed)

        monkeypatch.setattr(gan_mod, "train_sdg_gan", spy_train)
        run_cell(ds, "sdg-gan", "logreg", run_seed, gan_config=TrainingConfig(epochs=1))

        split = stratified_split(ds, 0.2, stable_seed(run_seed, "split"))
        scaler = minmax_fit(split.train)
        scaled_train = {tuple(r) for r in minmax_transform(scaler, split.train).features}
        scaled_test = {tuple(r) for r in minmax_transform(scaler, split.test).features}
        gan_rows = {tuple(r) for r in seen["rows"]}
        assert gan_rows == scaled_train
        assert not gan_rows & scaled_test
