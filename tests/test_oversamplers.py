import warnings

import numpy as np
import pytest

from imbench import oversamplers as ovs
from imbench.data import Dataset, imbalance_stats
from imbench.errors import MinorityTooSmallError, SingleClassError
from imbench.oversamplers import (
    KNNIndex,
    adasyn,
    adasyn_plan,
    borderline_smote,
    random_oversample,
    smote,
)
from random_data import random_imbalanced


# hand fixtures, (features, labels): two minority rows on the diagonal; two
# minority rows of which only 0.0 is DANGER; three minority rows far from
# every majority row (no DANGER row, all-zero density)
DIAGONAL_PAIR = ([[0.0, 0.0], [1.0, 1.0]] + [[5.0 + i, 9.0 - i] for i in range(6)], [1, 1] + [0] * 6)
DANGER_PAIR = ([[0.0], [0.45], [0.5], [0.55], [0.6], [0.65], [0.7]], [1, 1, 0, 0, 0, 0, 0])
ISOLATED_TRIPLE = ([[0.0], [0.1], [0.2]] + [[50.0 + i] for i in range(7)], [1, 1, 1] + [0] * 7)


def brute_force_knn(reference, point, k):
    """Quadratic oracle: all distances, stable sort, drop zero-distance rows."""
    dists = [float(np.linalg.norm(row - point)) for row in reference]
    order = sorted(range(len(reference)), key=lambda i: (dists[i], i))
    return [i for i in order if dists[i] > 0.0][:k]


def on_segment(point, a, b, atol=1e-9):
    """True iff point = a + u * (b - a) for a single u in [0, 1]."""
    d = b - a
    r = point - a
    if np.allclose(d, 0.0, atol=atol):
        return np.allclose(r, 0.0, atol=atol)
    us = [r[j] / d[j] for j in range(len(d)) if abs(d[j]) > atol]
    if not us:
        return False
    u = us[0]
    if not -atol <= u <= 1.0 + atol:
        return False
    return np.allclose(r, u * d, atol=1e-8)


def check_geometry(aug, original):
    """Every synthetic row sits on its logged source-neighbor segment."""
    synth_rows = aug.data.features[aug.provenance]
    assert synth_rows.shape[0] == len(aug.synthesis_log)
    for row, (src, nbr) in zip(synth_rows, aug.synthesis_log):
        assert on_segment(row, original.features[src], original.features[nbr])


class TestKnnQuery:
    def test_exclusion_contract(self):
        ref = np.array([[0.0], [1.0], [3.0], [7.0]])
        index = KNNIndex(ref)
        got = index.query(ref[1], 3)
        assert 1 not in got.tolist()

    def test_hand_distances(self):
        index = KNNIndex(np.array([[0.0], [1.0], [3.0], [7.0]]))
        got = index.query(np.array([0.0]), 2)
        assert got.tolist() == [1, 2]

    def test_matches_brute_force_for_all_k(self):
        rng = np.random.default_rng(9)
        ref = rng.random((5, 3))
        index = KNNIndex(ref)
        # k past the distinct rows is the cap path the samplers take
        for k in range(1, ref.shape[0] + 2):
            for q in [*ref, np.full(3, 0.5)]:
                assert index.query(q, k).tolist() == brute_force_knn(ref, q, k)

    def test_matches_brute_force_on_a_grid(self):
        # values on a 0.25 grid, so many rows tie at the k-th distance
        rng = np.random.default_rng(10)
        ref = np.round(rng.random((40, 3)) * 4) / 4
        index = KNNIndex(ref)
        for k in (1, 2, 5, 13, 39, 41):
            for q in [*ref, np.full(3, 0.5), np.array([0.125, 1.0, 0.0])]:
                assert index.query(q, k).tolist() == brute_force_knn(ref, q, k)

    def test_tie_break_lower_index(self):
        index = KNNIndex(np.array([[1.0], [1.0], [0.0]]))
        assert index.query(np.array([0.5]), 2).tolist() == [0, 1]

    def test_k_beyond_distinct_rows_returns_all(self):
        index = KNNIndex(np.array([[0.0], [1.0], [0.0]]))
        assert index.query(np.array([0.0]), 3).tolist() == [1]


class TestRandomOversample:
    def test_two_versus_six(self, make_dataset):
        feats = [[float(i), float(i * i)] for i in range(8)]
        labels = [1, 1, 0, 0, 0, 0, 0, 0]
        ds = make_dataset(feats, labels)
        aug = random_oversample(ds, seed=1)
        assert aug.n_synthetic == 4
        minority_rows = {tuple(r) for r in ds.features[:2]}
        for row in aug.data.features[aug.provenance]:
            assert tuple(row) in minority_rows

    def test_determinism(self, make_dataset):
        rng = np.random.default_rng(2)
        ds = random_imbalanced(rng)
        a = random_oversample(ds, seed=5)
        b = random_oversample(ds, seed=5)
        assert np.array_equal(a.data.features, b.data.features)

    def test_single_class_rejected(self, make_dataset):
        ds = make_dataset([[0.0], [1.0]], [0, 0])
        with pytest.raises(SingleClassError, match="oversampling needs both classes"):
            random_oversample(ds)


class TestSmote:
    def test_two_point_minority_stays_on_diagonal(self, make_dataset):
        ds = make_dataset(*DIAGONAL_PAIR)
        with pytest.warns(UserWarning):  # k=5 capped at 1
            aug = smote(ds, k=5, seed=3)
        assert aug.n_synthetic == 4
        for row in aug.data.features[aug.provenance]:
            assert row[0] == pytest.approx(row[1])
            assert 0.0 <= row[0] <= 1.0

    def test_segment_membership_logged_pairs(self):
        rng = np.random.default_rng(11)
        degenerate = 0
        for halves, count in ((False, 25), (True, 100)):
            for _ in range(count):
                ds = random_imbalanced(rng, n_min=4, halves=halves)
                aug = smote(ds, k=3, seed=int(rng.integers(0, 1 << 30)))
                check_geometry(aug, ds)
                degenerate += sum(src == nbr for src, nbr in aug.synthesis_log)
        assert degenerate > 0  # all minority rows equal: the (src, src) segment

    def test_source_cycle_spreads_counts(self, make_dataset):
        # 3 minority, 9 majority -> 6 synthetic; cycle means counts are 2 each
        feats = [[float(i)] for i in range(12)]
        ds = make_dataset(feats, [1, 1, 1] + [0] * 9)
        aug = smote(ds, k=2, seed=0)
        sources = [src for src, _ in aug.synthesis_log]
        counts = {s: sources.count(s) for s in set(sources)}
        assert sorted(counts.values()) == [2, 2, 2]

    def test_minority_too_small(self, make_dataset):
        ds = make_dataset([[0.0], [1.0], [2.0]], [1, 0, 0])
        with pytest.raises(MinorityTooSmallError):
            smote(ds, seed=0)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        ds = random_imbalanced(rng, n_min=5)
        a = smote(ds, k=3, seed=9)
        b = smote(ds, k=3, seed=9)
        assert np.array_equal(a.data.features, b.data.features)
        assert a.synthesis_log == b.synthesis_log


def brute_force_danger(ds, m):
    """Independent DANGER classification by exhaustive neighbor counting."""
    danger = []
    for i in np.flatnonzero(ds.labels == 1):
        dists = np.linalg.norm(ds.features - ds.features[i], axis=1)
        order = sorted(
            (j for j in range(ds.n_rows) if dists[j] > 0.0), key=lambda j: (dists[j], j)
        )
        mi = min(m, len(order))
        maj = sum(1 for j in order[:mi] if ds.labels[j] == 0)
        if mi / 2 <= maj < mi:
            danger.append(int(i))
    return danger


class TestBorderlineSmote:
    def test_isolated_cluster_falls_back(self, make_dataset):
        ds = make_dataset(*ISOLATED_TRIPLE)
        with pytest.warns(UserWarning, match="falling back"):
            aug = borderline_smote(ds, k=2, m=3, seed=0)
        assert imbalance_stats(aug.data).ratio == 1.0

    def test_hand_fixture_danger_membership(self, make_dataset):
        ds = make_dataset(*DANGER_PAIR)
        assert brute_force_danger(ds, 5) == [0]  # 0.45 has an all-majority neighborhood
        with pytest.warns(UserWarning):  # k capped at 1
            aug = borderline_smote(ds, k=5, m=5, seed=1)
        assert aug.n_synthetic == 3  # 5 majority - 2 minority
        for src, _ in aug.synthesis_log:
            assert src == 0

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one_rejected(self, make_dataset, monkeypatch, m):
        # raised before any neighbour search, with no SMOTE fallback warning
        def no_search(*args):
            raise AssertionError("neighbour search ran")

        monkeypatch.setattr(ovs, "_neighbors", no_search)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="m must be an integer >= 1"):
                borderline_smote(make_dataset(*DANGER_PAIR), k=1, m=m, seed=0)

    def test_sources_always_in_danger_set(self):
        rng = np.random.default_rng(21)
        for halves, count in ((False, 40), (True, 100)):
            checked = 0
            for _ in range(count):
                ds = random_imbalanced(rng, n_min=5, halves=halves)
                danger = brute_force_danger(ds, 5)
                if not danger:
                    continue
                aug = borderline_smote(ds, k=3, m=5, seed=int(rng.integers(0, 1 << 30)))
                for src, _ in aug.synthesis_log:
                    assert src in danger
                check_geometry(aug, ds)
                checked += 1
            assert checked >= 5


def brute_force_adasyn_counts(ds, k):
    """Independent per-row plan: exhaustive neighbor count for r_i, then the
    documented largest-remainder allocation. Shares the contract's k cap
    (k <= n_minority - 1)."""
    minority = np.flatnonzero(ds.labels == 1)
    majority = np.flatnonzero(ds.labels == 0)
    total = majority.size - minority.size
    k = min(k, minority.size - 1)
    r = []
    for i in minority:
        dists = np.linalg.norm(ds.features - ds.features[i], axis=1)
        order = sorted(
            (j for j in range(ds.n_rows) if dists[j] > 0.0), key=lambda j: (dists[j], j)
        )
        mi = min(k, len(order))
        r.append(sum(1 for j in order[:mi] if ds.labels[j] == 0) / mi if mi else 0.0)
    r = np.array(r)
    if r.sum() == 0.0:
        return None
    raw = r / r.sum() * total
    base = np.floor(raw).astype(int)
    frac = raw - base
    leftover = total - base.sum()
    for idx in sorted(range(len(frac)), key=lambda i: (-frac[i], i))[:leftover]:
        base[idx] += 1
    return base


class TestAdasyn:
    def test_all_zero_density_falls_back(self, make_dataset):
        ds = make_dataset(*ISOLATED_TRIPLE)
        with pytest.warns(UserWarning, match="falling back"):
            aug = adasyn(ds, k=2, seed=0)
        assert imbalance_stats(aug.data).ratio == 1.0

    def test_hand_fixture_eight_two_split(self, make_dataset):
        # minority A with 4/5 majority neighbors, B with 1/5, eight inert
        # minority rows in a far cluster; G = 10 -> g_A = 8, g_B = 2
        feats = [[0.0, 0.0], [10.0, 0.0]]  # A, B
        labels = [1, 1]
        feats += [[10.05 + 0.01 * j, 0.0] for j in range(8)]  # minority cluster
        labels += [1] * 8
        feats += [[0.1, 0.0], [-0.1, 0.0], [0.0, 0.1], [0.0, -0.1]]  # ring around A
        labels += [0] * 4
        feats += [[9.98, 0.0]]  # one majority next to B
        labels += [0]
        feats += [[100.0 + j, 100.0] for j in range(15)]  # far majority
        labels += [0] * 15
        ds = make_dataset(feats, labels)
        plan = adasyn_plan(ds, k=5)
        assert plan.sum() == 10
        assert plan.tolist() == [8, 2] + [0] * 8
        assert plan.dtype == np.int64 and not plan.flags.writeable
        aug = adasyn(ds, k=5, seed=0)
        sources = [src for src, _ in aug.synthesis_log]
        assert sources.count(0) == 8 and sources.count(1) == 2

    def test_counts_match_brute_force_oracle(self):
        rng = np.random.default_rng(33)
        for halves in (False, True):
            for _ in range(100):
                ds = random_imbalanced(rng, n_min=int(rng.integers(3, 8)), halves=halves)
                expected = brute_force_adasyn_counts(ds, k=3)
                if expected is None:
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # tiny fixtures cap k
                    plan = adasyn_plan(ds, k=3)
                assert plan.tolist() == expected.tolist()
                assert plan.sum() == ds.n_rows - 2 * np.count_nonzero(ds.labels == 1)

    def test_geometry_and_parity(self):
        rng = np.random.default_rng(44)
        for halves, count in ((False, 25), (True, 100)):
            for _ in range(count):
                ds = random_imbalanced(rng, n_min=4, halves=halves)
                try:
                    aug = adasyn(ds, k=3, seed=int(rng.integers(0, 1 << 30)))
                except MinorityTooSmallError:
                    continue
                assert imbalance_stats(aug.data).ratio == 1.0
                check_geometry(aug, ds)


class TestSamplerInvariants:
    @pytest.mark.parametrize("sampler", [random_oversample, smote, borderline_smote, adasyn])
    def test_parity_purity_preservation(self, sampler):
        rng = np.random.default_rng(55)
        for _ in range(20):
            ds = random_imbalanced(rng, n_min=4)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                aug = sampler(ds, seed=int(rng.integers(0, 1 << 30)))
            stats = imbalance_stats(aug.data)
            assert stats.ratio == 1.0
            # real rows byte-identical, in order, flagged real
            n = ds.n_rows
            assert np.array_equal(aug.data.features[:n], ds.features)
            assert np.array_equal(aug.data.labels[:n], ds.labels)
            assert not aug.provenance[:n].any()
            # synthetic rows all minority
            assert np.all(aug.data.labels[n:] == 1)
            assert aug.provenance[n:].all()

    @pytest.mark.parametrize("n_each", [1, 3], ids=["1v1", "3v3"])
    @pytest.mark.parametrize(
        "sampler", [random_oversample, smote, borderline_smote, adasyn], ids=["ros", "smote", "b-smote", "adasyn"]
    )
    def test_balanced_input_untouched(self, make_dataset, sampler, n_each):
        # parity returns the table before any k check: one minority row
        # raises no MinorityTooSmallError, and k=5 over three rows warns of
        # no k cap and no fallback
        ds = make_dataset([[float(i)] for i in range(2 * n_each)], [1, 0] * n_each)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            aug = sampler(ds, seed=0)
        assert aug.n_synthetic == 0
        assert np.array_equal(aug.data.features, ds.features)
        assert np.array_equal(aug.data.labels, ds.labels)

    @pytest.mark.parametrize(
        "sampler, table, extra, fallbacks",
        [
            (smote, DIAGONAL_PAIR, {}, 0),
            (borderline_smote, DANGER_PAIR, {"m": 5}, 0),
            (borderline_smote, ISOLATED_TRIPLE, {"m": 3}, 1),
            (adasyn, DANGER_PAIR, {}, 0),
            (adasyn, ISOLATED_TRIPLE, {}, 1),
        ],
        ids=["smote", "b-smote-danger", "b-smote-fallback", "adasyn-density", "adasyn-fallback"],
    )
    def test_one_k_cap_warning_per_call(self, make_dataset, sampler, table, extra, fallbacks):
        ds = make_dataset(*table)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sampler(ds, k=5, seed=0, **extra)
        texts = [str(w.message) for w in caught]
        assert sum("capped at" in t for t in texts) == 1, texts
        assert sum("falling back" in t for t in texts) == fallbacks, texts

    @pytest.mark.parametrize(
        "sampler, per_row",
        [(smote, 1), (borderline_smote, 2), (adasyn, 2)],
        ids=["smote", "b-smote", "adasyn"],
    )
    def test_every_neighbour_search_calls_query(self, monkeypatch, sampler, per_row):
        # one KNNIndex.query per minority row per neighbour search, counted
        # by wrapping the class attribute as a tracer would
        ds = random_imbalanced(np.random.default_rng(66), n_min=6, n_maj=15)
        calls = []
        real_query = KNNIndex.query

        def counting_query(self, point, k):
            calls.append(k)
            return real_query(self, point, k)

        monkeypatch.setattr(KNNIndex, "query", counting_query)
        aug = sampler(ds, k=3, seed=0)
        assert aug.n_synthetic == 9
        assert len(calls) == per_row * 6


class TestAssemble:
    @pytest.mark.parametrize("n_log", [1, 3])
    def test_log_length_must_match_synthetic_rows(self, make_dataset, n_log):
        ds = make_dataset(*DIAGONAL_PAIR)
        with pytest.raises(ValueError, match="one synthesis_log entry per synthetic row"):
            ovs._assemble(ds, np.zeros((2, ds.n_features)), [(0, 1)] * n_log)
