import math
import os
import re

import numpy as np
import pytest

from imbench.bench import synth_dataset
from imbench.data import (
    Dataset,
    ImbalanceStats,
    ScalerParams,
    imbalance_stats,
    load_csv,
    minmax_fit,
    minmax_transform,
    read_rows,
    save_csv,
    stratified_split,
    train_sizes,
)
from imbench.errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    ImbenchError,
    MissingColumnError,
    NonBinaryLabelsError,
    NonNumericCellError,
    SingleClassError,
    TooFewRowsError,
)

PIMA_CSV = os.environ.get(
    "IMBENCH_PIMA_CSV", os.path.join(os.path.dirname(__file__), "..", "data", "pima_diabetes.csv")
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_header_only_is_empty(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", "a,b,y\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(path, "y")

    def test_three_row_fixture_maps_rarer_label_to_one(self, tmp_path):
        # the rarer value sorts last ("yes") and first ("a")
        for rare, common in (("yes", "no"), ("a", "b")):
            text = f"a,b,y\n1,2,{rare}\n3,4,{common}\n5,6,{common}\n"
            ds, mapping = load_csv(write_csv(tmp_path / "t.csv", text), "y")
            assert ds.n_rows == 3 and ds.n_features == 2
            assert mapping == {common: 0, rare: 1}
            assert ds.labels.tolist() == [1, 0, 0]
            assert ds.feature_names == ("a", "b")

    def test_label_tie_breaks_to_lexicographic(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "a,y\n1,1\n2,0\n3,1\n4,0\n")
        _, mapping = load_csv(path, "y")
        assert mapping == {"0": 0, "1": 1}

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "y")

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "a,b\n1,2\n3,4\n")
        with pytest.raises(MissingColumnError):
            load_csv(path, "y")

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "a,b,y\n1,2,x\n3,oops,z\n")
        with pytest.raises(NonNumericCellError) as err:
            load_csv(path, "y")
        assert err.value.row == 3 and err.value.col == "b"

    def test_quoted_newline_counts_as_a_line(self, tmp_path):
        # lines 2 and 3 are one quoted row, so the bad cell is on line 5
        path = write_csv(tmp_path / "t.csv", 'a,b,y\n"1\n",2,0\n3,4,1\n5,x,0\n')
        with pytest.raises(NonNumericCellError) as err:
            load_csv(path, "y")
        assert err.value.row == 5 and err.value.col == "b"

    def test_repeated_label_column_rejected_before_any_row(self, tmp_path):
        # a second "y" would be a feature that copies the labels; the row
        # below is short and non-numeric, so only a header check reaches it
        path = write_csv(tmp_path / "t.csv", "a,y,y\nx,0\n")
        with pytest.raises(MissingColumnError) as err:
            load_csv(path, "y")
        assert isinstance(err.value, ImbenchError)
        assert str(err.value) == "label column 'y' appears more than once in header ['a', 'y', 'y']"

    def test_inf_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "a,y\ninf,x\n2,z\n")
        with pytest.raises(NonNumericCellError):
            load_csv(path, "y")

    def test_non_binary_labels(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "a,y\n1,x\n2,z\n3,w\n")
        with pytest.raises(NonBinaryLabelsError):
            load_csv(path, "y")
        path2 = write_csv(tmp_path / "t2.csv", "a,y\n1,x\n2,x\n")
        with pytest.raises(NonBinaryLabelsError):
            load_csv(path2, "y")

    def test_save_load_round_trip(self, tmp_path, make_dataset):
        ds = make_dataset([[0.25, 1.5], [2.0, -3.75], [0.1, 9.0]], [1, 0, 0])
        path = tmp_path / "rt.csv"
        save_csv(ds, path, label_column="y")
        back, _ = load_csv(path, "y")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    @pytest.mark.skipif(
        not os.path.isfile(PIMA_CSV),
        reason="Pima CSV not bundled (licensing); see README for how to fetch it",
    )
    def test_pima_shape(self):
        ds, _ = load_csv(PIMA_CSV, "Outcome")
        assert ds.n_rows == 768
        assert ds.n_features == 8


class TestReadRows:
    def test_header_stripped_and_blank_rows_skipped(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", " a , b\n1,2\n\n , \n3,4\n")
        header, rows = read_rows(path)
        assert header == ["a", "b"]
        assert list(rows) == [(2, ["1", "2"]), (5, ["3", "4"])]

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "")
        with pytest.raises(EmptyDatasetError, match="file is empty$"):
            read_rows(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b,y\n1,2,0\n3,4\n", "line 3: expected 3 cells, got 2"),
            ("a,b,y\n1,2,0,9\n3,4\n", "line 2: expected 3 cells, got 4"),
            ('a,b,y\n1,"2\n",0\n3,4\n', "line 4: expected 3 cells, got 2"),
        ],
        ids=["short", "long-first", "after-quoted-newline"],
    )
    def test_ragged_row_names_its_line(self, tmp_path, text, message):
        header, rows = read_rows(write_csv(tmp_path / "t.csv", text))
        with pytest.raises(DimensionMismatchError) as err:
            list(rows)
        assert str(err.value) == message
        with pytest.raises(DimensionMismatchError, match=message):
            load_csv(tmp_path / "t.csv", "y")


class TestMinMax:
    def test_single_row(self, make_dataset):
        ds = make_dataset([[3.0, -1.0]], [1])
        p = minmax_fit(ds)
        assert np.array_equal(p.feature_min, [3.0, -1.0])
        assert np.array_equal(p.feature_max, [3.0, -1.0])

    def test_direct_scan(self, make_dataset):
        ds = make_dataset([[2.0], [4.0], [6.0]], [0, 0, 1])
        p = minmax_fit(ds)
        assert p.feature_min[0] == 2.0 and p.feature_max[0] == 6.0

    def test_transform_hand_values(self, make_dataset):
        ds = make_dataset([[2.0], [4.0], [6.0]], [0, 0, 1])
        out = minmax_transform(minmax_fit(ds), ds)
        assert np.allclose(out.features[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self, make_dataset):
        ds = make_dataset([[5.0], [5.0], [5.0]], [0, 0, 1])
        out = minmax_transform(minmax_fit(ds), ds)
        assert np.array_equal(out.features[:, 0], [0.0, 0.0, 0.0])

    def test_out_of_range_left_unclamped(self, make_dataset):
        fit_ds = make_dataset([[2.0], [6.0]], [0, 1])
        p = minmax_fit(fit_ds)
        probe = make_dataset([[8.0]], [1])
        out = minmax_transform(p, probe)
        assert out.features[0, 0] == pytest.approx(1.5)

    def test_dimension_mismatch(self, make_dataset):
        p = ScalerParams([0.0, 0.0], [1.0, 1.0])
        ds = make_dataset([[1.0]], [1])
        with pytest.raises(DimensionMismatchError):
            minmax_transform(p, ds)

    def test_round_trip_property(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n, f = int(rng.integers(2, 30)), int(rng.integers(1, 6))
            feats = rng.normal(0, 10, size=(n, f))
            ds = Dataset(feats, rng.integers(0, 2, size=n), tuple(f"f{i}" for i in range(f)))
            out = minmax_transform(minmax_fit(ds), ds)
            assert out.features.min() >= 0.0 and out.features.max() <= 1.0


class TestStratifiedSplit:
    def test_pima_like_counts(self):
        # 268 minority / 500 majority, the public Pima class sizes
        feats = np.arange(768, dtype=np.float64).reshape(-1, 1)
        labels = np.concatenate([np.ones(268, dtype=np.int64), np.zeros(500, dtype=np.int64)])
        ds = Dataset(feats, labels, ("x",))
        split = stratified_split(ds, 0.2, seed=3)
        assert int(np.sum(split.train.labels == 1)) == 214
        assert int(np.sum(split.train.labels == 0)) == 400
        assert split.test.n_rows == 768 - 614

    def test_determinism(self, make_dataset):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.random((40, 3)), rng.integers(0, 2, 40), ("a", "b", "c"))
        s1 = stratified_split(ds, 0.25, seed=11)
        s2 = stratified_split(ds, 0.25, seed=11)
        assert np.array_equal(s1.train.features, s2.train.features)
        assert np.array_equal(s1.test.features, s2.test.features)
        assert np.array_equal(s1.train.labels, s2.train.labels)

    def test_ten_row_fixture_exhaustive_count(self, make_dataset):
        feats = [[float(i)] for i in range(10)]
        labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        ds = make_dataset(feats, labels)
        split = stratified_split(ds, 0.2, seed=5)
        # round-half-up: 4 * 0.8 = 3.2 -> 3 train; 6 * 0.8 = 4.8 -> 5 train
        assert int(np.sum(split.train.labels == 1)) == 3
        assert int(np.sum(split.train.labels == 0)) == 5
        assert split.test.n_rows == 2

    def test_partition_property(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n1 = int(rng.integers(2, 10))
            n0 = int(rng.integers(2, 10))
            feats = rng.random((n0 + n1, 2))
            labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
            ds = Dataset(feats, labels, ("a", "b"))
            frac = float(rng.uniform(0.1, 0.5))
            try:
                split = stratified_split(ds, frac, seed=int(rng.integers(0, 2**31)))
            except TooFewRowsError:
                continue
            merged = np.vstack([split.train.features, split.test.features])
            key = np.lexsort(merged.T)
            orig_key = np.lexsort(ds.features.T)
            assert np.allclose(merged[key], ds.features[orig_key])
            # stratification within 1/count_c of requested train fraction
            for c, count in ((0, n0), (1, n1)):
                got = int(np.sum(split.train.labels == c)) / count
                assert abs(got - (1 - frac)) <= 1.0 / count + 1e-12

    def test_single_class_rejected(self, make_dataset):
        ds = make_dataset([[1.0], [2.0], [3.0]], [1, 1, 1])
        with pytest.raises(SingleClassError, match="stratified split needs both classes"):
            stratified_split(ds, 0.2, seed=0)

    def test_too_few_rows(self, make_dataset):
        ds = make_dataset([[1.0], [2.0], [3.0]], [1, 0, 0])
        with pytest.raises(TooFewRowsError):
            stratified_split(ds, 0.2, seed=0)

    def test_class_left_without_training_rows_rejected(self):
        # round-half-up(3 * 0.1) is 0: the minority would have no training row
        ds = synth_dataset(3, 30, 2, 0.3, seed=0)
        with pytest.raises(TooFewRowsError, match=r"^class 1 has 3 rows, none to train at test_fraction 0\.9$"):
            stratified_split(ds, 0.9, seed=1)

    def test_class_without_test_rows_allowed(self, make_dataset):
        # 2 * 0.8 = 1.6 rounds to 2: the minority is all training rows
        ds = make_dataset([[float(i)] for i in range(12)], [1, 1] + [0] * 10)
        split = stratified_split(ds, 0.2, seed=0)
        assert int(np.sum(split.train.labels == 1)) == 2
        assert int(np.sum(split.test.labels == 1)) == 0 and split.test.n_rows == 2


class TestTrainSizes:
    def test_matches_the_rule_by_hand(self):
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(2000):
            counts = rng.integers(0, 10, 2).tolist()
            frac = float(rng.uniform(0.05, 0.95))
            labels = rng.permutation(np.repeat([0, 1], counts))
            # each class in turn: at least 2 rows, then at least one kept
            # after round-half-up; then at least one test row overall
            sizes, expected = [], None
            for c, n in enumerate(counts):
                keep = min(int(math.floor(n * (1 - frac) + 0.5)), n)
                if n < 2:
                    expected, case = f"class {c} has {n} rows; need at least 2", f"class {c} under 2"
                elif keep == 0:
                    expected = f"class {c} has {n} rows, none to train at test_fraction {frac}"
                    case = f"class {c} none to train"
                if expected:
                    break
                sizes.append(keep)
            if expected is None and sum(sizes) == sum(counts):
                expected, case = "split left one side empty; dataset too small for this fraction", "no test row"
            if expected is None:
                assert train_sizes(labels, frac) == tuple(sizes)
                case = "valid"
            else:
                with pytest.raises(TooFewRowsError, match=f"^{re.escape(expected)}$"):
                    train_sizes(labels, frac)
            seen.add(case)
        assert seen == {
            "valid", "class 0 under 2", "class 1 under 2",
            "class 0 none to train", "class 1 none to train", "no test row",
        }


class TestImbalanceStats:
    def test_credit_card_ratio(self):
        feats = np.ones((2492, 1))
        labels = np.concatenate([np.ones(492, dtype=np.int64), np.zeros(2000, dtype=np.int64)])
        stats = imbalance_stats(Dataset(feats, labels, ("x",)))
        assert stats.n_minority == 492 and stats.n_majority == 2000
        assert stats.ratio == pytest.approx(4.07, abs=0.01)

    def test_balanced(self, make_dataset):
        ds = make_dataset([[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1])
        stats = imbalance_stats(ds)
        assert stats.ratio == 1.0

    def test_three_vs_nine(self, make_dataset):
        feats = [[float(i)] for i in range(12)]
        ds = make_dataset(feats, [1] * 3 + [0] * 9)
        assert imbalance_stats(ds).ratio == 3.0

    def test_single_class_flagged(self, make_dataset):
        ds = make_dataset([[1.0], [2.0]], [0, 0])
        stats = imbalance_stats(ds)
        assert stats.single_class and stats.ratio == float("inf")


class TestDatasetInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan]]), np.array([1]), ("x",))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0]]), np.array([2]), ("x",))

    def test_arrays_frozen(self, make_dataset):
        ds = make_dataset([[1.0]], [1])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 2.0
