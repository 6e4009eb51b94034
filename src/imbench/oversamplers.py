"""Non-GAN oversamplers: random duplication and the SMOTE family.

Every sampler returns an AugmentedDataset whose first rows are the input
rows, byte-identical and in order, followed by synthetic minority rows.
Interpolating samplers log the (source, neighbor) row pair behind each
synthetic point so tests can verify the segment geometry after the fact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import (
    DimensionMismatchError,
    KTooLargeError,
    MinorityTooSmallError,
    SingleClassError,
)

MINORITY = 1  # internal convention: minority/positive class is label 1


class KNNIndex:
    """Exhaustive Euclidean nearest-neighbor lookup over a reference matrix.

    Ties break toward the lower row index. With exclude_self=True, rows at
    distance exactly zero from the query (the point itself and any exact
    duplicates) are dropped, so the result holds distinct neighbors only.
    """

    def __init__(self, reference: np.ndarray):
        ref = np.asarray(reference, dtype=np.float64)
        if ref.ndim != 2 or ref.shape[0] < 1:
            raise DimensionMismatchError("reference must be a non-empty 2-D matrix")
        self.reference = ref

    def query(self, point: np.ndarray, k: int, exclude_self: bool = False) -> np.ndarray:
        p = np.asarray(point, dtype=np.float64).ravel()
        if p.shape[0] != self.reference.shape[1]:
            raise DimensionMismatchError(
                f"query dim {p.shape[0]} != reference dim {self.reference.shape[1]}"
            )
        if k < 1:
            raise ValueError("k must be >= 1")
        sq = np.sum((self.reference - p) ** 2, axis=1)
        if exclude_self:
            keep = np.flatnonzero(sq > 0.0)
        else:
            keep = np.arange(sq.shape[0])
        if k > keep.shape[0]:
            raise KTooLargeError(f"k={k} but only {keep.shape[0]} reference rows available")
        order = keep[np.argsort(sq[keep], kind="stable")]
        return order[:k]


@dataclass(frozen=True)
class SynthesisPlan:
    """Per-minority-row synthetic counts; sums exactly to the total."""

    counts: np.ndarray  # aligned with minority rows in dataset order
    total: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if np.any(c < 0) or int(c.sum()) != self.total:
            raise ValueError("plan counts must be non-negative and sum to the total")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)


@dataclass(frozen=True)
class AugmentedDataset:
    """Original rows plus synthetic minority rows with provenance flags.

    synthesis_log holds one (source_row, neighbor_row) index pair per
    synthetic row, indices into the ORIGINAL dataset; for plain duplication
    the neighbor equals the source.
    """

    data: Dataset
    provenance: np.ndarray  # bool, True = synthetic
    sampler: str
    seed: int
    synthesis_log: tuple[tuple[int, int], ...]

    def __post_init__(self):
        flags = np.asarray(self.provenance, dtype=bool)
        if flags.shape != (self.data.n_rows,):
            raise DimensionMismatchError("provenance length must match row count")
        if int(flags.sum()) != len(self.synthesis_log):
            raise ValueError("one synthesis_log entry per synthetic row required")
        flags = flags.copy()
        flags.flags.writeable = False
        object.__setattr__(self, "provenance", flags)

    @property
    def n_synthetic(self) -> int:
        return int(self.provenance.sum())


def _check_two_classes(train: Dataset) -> tuple[np.ndarray, np.ndarray]:
    minority_idx = np.flatnonzero(train.labels == MINORITY)
    majority_idx = np.flatnonzero(train.labels != MINORITY)
    if minority_idx.size == 0 or majority_idx.size == 0:
        raise SingleClassError("oversampling needs both classes present")
    if minority_idx.size > majority_idx.size:
        raise ValueError("label 1 must be the minority class; remap labels first")
    return minority_idx, majority_idx


def _assemble(
    train: Dataset, synth: np.ndarray, sampler: str, seed: int, log: list[tuple[int, int]]
) -> AugmentedDataset:
    if synth.shape[0] == 0:
        data = Dataset(train.features, train.labels, train.feature_names)
        flags = np.zeros(train.n_rows, dtype=bool)
        return AugmentedDataset(data, flags, sampler, seed, ())
    feats = np.vstack([train.features, synth])
    labels = np.concatenate([train.labels, np.full(synth.shape[0], MINORITY, dtype=np.int64)])
    flags = np.concatenate([np.zeros(train.n_rows, dtype=bool), np.ones(synth.shape[0], dtype=bool)])
    data = Dataset(feats, labels, train.feature_names)
    return AugmentedDataset(data, flags, sampler, seed, tuple(log))


def random_oversample(train: Dataset, seed: int = 0) -> AugmentedDataset:
    """Duplicate uniformly chosen minority rows until exact class parity."""
    minority_idx, majority_idx = _check_two_classes(train)
    gap = majority_idx.size - minority_idx.size
    rng = np.random.default_rng(seed)
    picks = minority_idx[rng.integers(0, minority_idx.size, size=gap)]
    synth = train.features[picks].copy()
    log = [(int(i), int(i)) for i in picks]
    return _assemble(train, synth, "ros", seed, log)


def _effective_k(k: int, n_minority: int, sampler: str) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_minority < 2:
        raise MinorityTooSmallError(f"{sampler} needs at least 2 minority rows")
    if k > n_minority - 1:
        warnings.warn(
            f"{sampler}: k={k} capped at {n_minority - 1} (minority size {n_minority})",
            stacklevel=3,
        )
        return n_minority - 1
    return k


def _minority_neighbor_lists(
    train: Dataset, minority_idx: np.ndarray, k: int
) -> list[np.ndarray]:
    """k nearest distinct minority neighbors of each minority row (global indices)."""
    ref = train.features[minority_idx]
    index = KNNIndex(ref)
    lists = []
    for i in minority_idx:
        point = train.features[i]
        avail = int(np.sum(np.sum((ref - point) ** 2, axis=1) > 0.0))
        kk = min(k, avail)
        if kk > 0:
            nbrs = index.query(point, kk, exclude_self=True)
            lists.append(minority_idx[nbrs])
        else:
            lists.append(np.empty(0, dtype=np.int64))
    return lists


def _interpolate(
    train: Dataset,
    source_rows: np.ndarray,
    neighbor_lists: dict[int, np.ndarray],
    total: int,
    rng: np.random.Generator,
    per_source_counts: np.ndarray | None = None,
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """SMOTE-style interpolation. Either a shuffled wrap-around cycle over
    source_rows (counts within 1 of each other), or explicit per-source
    counts aligned with source_rows."""
    synth = np.empty((total, train.n_features))
    log: list[tuple[int, int]] = []
    if per_source_counts is None:
        order = rng.permutation(source_rows)
        schedule = [int(order[t % order.size]) for t in range(total)]
    else:
        schedule = []
        for src, cnt in zip(source_rows, per_source_counts):
            schedule.extend([int(src)] * int(cnt))
    for t, src in enumerate(schedule):
        nbrs = neighbor_lists[src]
        if nbrs.size == 0:
            # every minority row identical to the source: degenerate segment
            nb = src
        else:
            nb = int(nbrs[rng.integers(0, nbrs.size)])
        u = rng.random()
        synth[t] = train.features[src] + u * (train.features[nb] - train.features[src])
        log.append((src, nb))
    return synth, log


def smote(train: Dataset, k: int = 5, seed: int = 0) -> AugmentedDataset:
    """Classic SMOTE to exact parity.

    Sources cycle through the minority rows in a seeded shuffled order;
    each synthetic point sits at x_i + u * (x_nn - x_i) for u ~ U(0,1) and
    x_nn one of the k nearest distinct minority neighbors of x_i.
    """
    return _smote_on(train, None, k, seed, "smote")


def _smote_on(
    train: Dataset,
    source_rows: np.ndarray | None,
    k: int,
    seed: int,
    sampler: str,
) -> AugmentedDataset:
    minority_idx, majority_idx = _check_two_classes(train)
    gap = majority_idx.size - minority_idx.size
    if gap == 0:
        return _assemble(train, np.empty((0, train.n_features)), sampler, seed, [])
    k_eff = _effective_k(k, minority_idx.size, sampler)
    lists = _minority_neighbor_lists(train, minority_idx, k_eff)
    neighbor_lists = {int(i): lst for i, lst in zip(minority_idx, lists)}
    rng = np.random.default_rng(seed)
    sources = minority_idx if source_rows is None else source_rows
    synth, log = _interpolate(train, sources, neighbor_lists, gap, rng)
    return _assemble(train, synth, sampler, seed, log)


def _majority_neighbor_counts(
    train: Dataset, minority_idx: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Majority count among each minority row's m nearest distinct neighbors
    over the whole training set; m is capped at the available rows."""
    index = KNNIndex(train.features)
    counts = np.empty(minority_idx.size, dtype=np.int64)
    eff_m = np.empty(minority_idx.size, dtype=np.int64)
    for pos, i in enumerate(minority_idx):
        point = train.features[i]
        sq = np.sum((train.features - point) ** 2, axis=1)
        avail = int(np.sum(sq > 0.0))
        mi = min(m, avail)
        nbrs = index.query(point, mi, exclude_self=True) if mi > 0 else np.empty(0, dtype=int)
        counts[pos] = int(np.sum(train.labels[nbrs] != MINORITY))
        eff_m[pos] = mi
    return counts, eff_m


def borderline_smote(train: Dataset, k: int = 5, m: int = 5, seed: int = 0) -> AugmentedDataset:
    """Borderline-1 SMOTE: interpolate only from DANGER minority rows.

    A minority row is DANGER when at least half but not all of its m nearest
    whole-set neighbors are majority; all-majority neighborhoods are treated
    as noise and skipped. With no DANGER rows at all this falls back to
    plain SMOTE and warns.
    """
    minority_idx, majority_idx = _check_two_classes(train)
    if majority_idx.size == minority_idx.size:
        return _assemble(train, np.empty((0, train.n_features)), "b-smote", seed, [])
    _effective_k(k, minority_idx.size, "b-smote")
    maj_counts, eff_m = _majority_neighbor_counts(train, minority_idx, m)
    danger = minority_idx[(maj_counts * 2 >= eff_m) & (maj_counts < eff_m)]
    if danger.size == 0:
        warnings.warn("b-smote: DANGER set empty, falling back to plain SMOTE")
        return _smote_on(train, None, k, seed, "b-smote")
    return _smote_on(train, danger, k, seed, "b-smote")


def adasyn_plan(train: Dataset, k: int = 5) -> SynthesisPlan:
    """Density-weighted synthetic counts per minority row.

    r_i = majority fraction among the k nearest whole-set neighbors of
    minority row i, normalized over rows; counts are the largest-remainder
    allocation of G = n_majority - n_minority, so they sum to G exactly.
    Raises ValueError when every r_i is zero.
    """
    minority_idx, majority_idx = _check_two_classes(train)
    k_eff = _effective_k(k, minority_idx.size, "adasyn")
    maj_counts, eff_m = _majority_neighbor_counts(train, minority_idx, k_eff)
    r = np.where(eff_m > 0, maj_counts / np.maximum(eff_m, 1), 0.0)
    total = int(majority_idx.size - minority_idx.size)
    if r.sum() == 0.0:
        raise ValueError("all-zero density: no minority row has majority neighbors")
    r_hat = r / r.sum()
    raw = r_hat * total
    base = np.floor(raw).astype(np.int64)
    frac = raw - base
    short = total - int(base.sum())
    if short > 0:
        # largest fractional parts win the leftovers, ties to lower index
        order = np.lexsort((np.arange(frac.size), -frac))
        base[order[:short]] += 1
    return SynthesisPlan(base, total)


def adasyn(train: Dataset, k: int = 5, seed: int = 0) -> AugmentedDataset:
    """ADASYN: per-row synthesis counts proportional to local majority density."""
    minority_idx, majority_idx = _check_two_classes(train)
    gap = majority_idx.size - minority_idx.size
    if gap == 0:
        return _assemble(train, np.empty((0, train.n_features)), "adasyn", seed, [])
    k_eff = _effective_k(k, minority_idx.size, "adasyn")
    try:
        plan = adasyn_plan(train, k_eff)
    except ValueError:
        warnings.warn("adasyn: all-zero density, falling back to plain SMOTE")
        return _smote_on(train, None, k, seed, "adasyn")
    lists = _minority_neighbor_lists(train, minority_idx, k_eff)
    neighbor_lists = {int(i): lst for i, lst in zip(minority_idx, lists)}
    rng = np.random.default_rng(seed)
    synth, log = _interpolate(
        train, minority_idx, neighbor_lists, gap, rng, per_source_counts=plan.counts
    )
    return _assemble(train, synth, "adasyn", seed, log)
