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

from .data import MINORITY, Dataset, require_both_classes
from .errors import DimensionMismatchError, MinorityTooSmallError, at_least


class KNNIndex:
    """Exhaustive Euclidean nearest-neighbor lookup over a reference matrix.

    A query returns up to k nearest reference rows, nearest first, with ties
    broken toward the lower row index. Rows at distance exactly zero from the
    query (the point itself and any exact duplicates) are never neighbors, so
    fewer than k rows come back when fewer than k rows differ from it.
    """

    def __init__(self, reference: np.ndarray):
        ref = np.asarray(reference, dtype=np.float64)
        if ref.ndim != 2 or ref.shape[0] < 1:
            raise DimensionMismatchError("reference must be a non-empty 2-D matrix")
        self.reference = ref

    def query(self, point: np.ndarray, k: int) -> np.ndarray:
        """Indices of up to k nearest distinct reference rows; one distance pass."""
        p = np.asarray(point, dtype=np.float64).ravel()
        if p.shape[0] != self.reference.shape[1]:
            raise DimensionMismatchError(
                f"query dim {p.shape[0]} != reference dim {self.reference.shape[1]}"
            )
        at_least(1, k=k)
        sq = np.sum((self.reference - p) ** 2, axis=1)
        keep = np.flatnonzero(sq > 0.0)
        if keep.size > k:
            # only rows at or below the k-th distance can rank; ties stay
            d = sq[keep]
            keep = keep[d <= np.partition(d, k - 1)[k - 1]]
        return keep[np.argsort(sq[keep], kind="stable")[:k]]


@dataclass(frozen=True)
class AugmentedDataset:
    """Original rows followed by synthetic minority rows.

    synthesis_log holds one (source_row, neighbor_row) index pair per
    synthetic row, indices into the ORIGINAL dataset; for plain duplication
    the neighbor equals the source.
    """

    data: Dataset
    synthesis_log: tuple[tuple[int, int], ...]

    @property
    def n_synthetic(self) -> int:
        return len(self.synthesis_log)

    @property
    def provenance(self) -> np.ndarray:
        """Row flags, True for the last n_synthetic rows (the synthetic ones)."""
        return np.arange(self.data.n_rows) >= self.data.n_rows - self.n_synthetic


def _check_two_classes(train: Dataset) -> tuple[np.ndarray, int]:
    """Minority row indices and the gap to class parity."""
    require_both_classes(train, "oversampling")
    minority_idx = np.flatnonzero(train.labels == MINORITY)
    n_majority = train.n_rows - minority_idx.size
    if minority_idx.size > n_majority:
        raise ValueError("label 1 must be the minority class; remap labels first")
    return minority_idx, n_majority - minority_idx.size


def _assemble(train: Dataset, synth: np.ndarray, log: list[tuple[int, int]]) -> AugmentedDataset:
    if len(log) != synth.shape[0]:
        raise ValueError("one synthesis_log entry per synthetic row required")
    feats = np.vstack([train.features, synth])
    labels = np.concatenate([train.labels, np.full(synth.shape[0], MINORITY, dtype=np.int64)])
    return AugmentedDataset(Dataset(feats, labels, train.feature_names), tuple(log))


def _unchanged(train: Dataset) -> AugmentedDataset:
    return _assemble(train, np.empty((0, train.n_features)), [])


def random_oversample(train: Dataset, seed: int = 0) -> AugmentedDataset:
    """Duplicate uniformly chosen minority rows until exact class parity."""
    minority_idx, gap = _check_two_classes(train)
    rng = np.random.default_rng(seed)
    picks = minority_idx[rng.integers(0, minority_idx.size, size=gap)]
    synth = train.features[picks].copy()
    log = [(int(i), int(i)) for i in picks]
    return _assemble(train, synth, log)


def _effective_k(k: int, n_minority: int, sampler: str) -> int:
    at_least(1, k=k)
    if n_minority < 2:
        raise MinorityTooSmallError(f"{sampler} needs at least 2 minority rows")
    if k > n_minority - 1:
        warnings.warn(
            f"{sampler}: k={k} capped at {n_minority - 1} (minority size {n_minority})",
            stacklevel=3,
        )
        return n_minority - 1
    return k


def _neighbors(
    train: Dataset, rows: np.ndarray, reference_rows: np.ndarray, k: int
) -> dict[int, np.ndarray]:
    """Up to k >= 1 nearest distinct rows among reference_rows for each of
    rows, one KNNIndex.query per row.

    Keys and values are indices into train. A row gets fewer than k when
    fewer reference rows differ from it, and an empty array when every
    reference row is a duplicate of it.
    """
    index = KNNIndex(train.features[reference_rows])
    return {int(i): reference_rows[index.query(train.features[i], k)] for i in rows}


def _majority_fraction(train: Dataset, minority_idx: np.ndarray, m: int) -> np.ndarray:
    """Majority share among each minority row's m nearest distinct rows of
    the whole training set; 0 for a row with no distinct row."""
    nbrs = _neighbors(train, minority_idx, np.arange(train.n_rows), m).values()
    majority = np.array([np.count_nonzero(train.labels[n] != MINORITY) for n in nbrs])
    size = np.array([n.size for n in nbrs])
    return np.where(size > 0, majority / np.maximum(size, 1), 0.0)


def _interpolate(
    train: Dataset, minority_idx: np.ndarray, schedule: np.ndarray, k: int, rng: np.random.Generator
) -> AugmentedDataset:
    """train plus one synthetic row per entry of schedule, a source row:
    x_src + u * (x_nb - x_src) with u ~ U(0,1) and x_nb one of the k nearest
    distinct minority rows of x_src."""
    neighbors = _neighbors(train, minority_idx, minority_idx, k)
    synth = np.empty((schedule.size, train.n_features))
    log: list[tuple[int, int]] = []
    for t, src in enumerate(schedule.tolist()):
        nbrs = neighbors[src]
        # every minority row identical to the source: degenerate segment
        nb = int(nbrs[rng.integers(0, nbrs.size)]) if nbrs.size else src
        u = rng.random()
        synth[t] = train.features[src] + u * (train.features[nb] - train.features[src])
        log.append((src, nb))
    return _assemble(train, synth, log)


def _smote(
    train: Dataset, minority_idx: np.ndarray, sources: np.ndarray, gap: int, k: int, seed: int
) -> AugmentedDataset:
    """SMOTE from sources, which a seeded shuffle cycles through (counts
    within 1 of each other); k is already checked."""
    rng = np.random.default_rng(seed)
    return _interpolate(train, minority_idx, np.resize(rng.permutation(sources), gap), k, rng)


def smote(train: Dataset, k: int = 5, seed: int = 0) -> AugmentedDataset:
    """Classic SMOTE to exact parity.

    Sources cycle through the minority rows in a seeded shuffled order;
    each synthetic point sits at x_i + u * (x_nn - x_i) for u ~ U(0,1) and
    x_nn one of the k nearest distinct minority neighbors of x_i.
    """
    minority_idx, gap = _check_two_classes(train)
    if gap == 0:
        return _unchanged(train)
    k = _effective_k(k, minority_idx.size, "smote")
    return _smote(train, minority_idx, minority_idx, gap, k, seed)


def borderline_smote(train: Dataset, k: int = 5, m: int = 5, seed: int = 0) -> AugmentedDataset:
    """Borderline-1 SMOTE: interpolate only from DANGER minority rows.

    A minority row is DANGER when at least half but not all of its m nearest
    whole-set neighbors are majority; all-majority neighborhoods are treated
    as noise and skipped. With no DANGER rows at all this falls back to
    plain SMOTE and warns.
    """
    minority_idx, gap = _check_two_classes(train)
    if gap == 0:
        return _unchanged(train)
    k = _effective_k(k, minority_idx.size, "b-smote")
    at_least(1, m=m)
    r = _majority_fraction(train, minority_idx, m)
    danger = minority_idx[(r >= 0.5) & (r < 1.0)]
    if danger.size == 0:
        warnings.warn("b-smote: DANGER set empty, falling back to plain SMOTE")
        danger = minority_idx
    return _smote(train, minority_idx, danger, gap, k, seed)


def _adasyn_counts(train: Dataset, minority_idx: np.ndarray, total: int, k: int) -> np.ndarray | None:
    """Largest-remainder allocation of total over the minority rows by their
    majority share among k nearest neighbors; None when every share is 0."""
    r = _majority_fraction(train, minority_idx, k)
    if r.sum() == 0.0:
        return None
    raw = r / r.sum() * total
    base = np.floor(raw).astype(np.int64)
    frac = raw - base
    short = total - int(base.sum())
    if short > 0:
        # largest fractional parts win the leftovers, ties to lower index
        order = np.lexsort((np.arange(frac.size), -frac))
        base[order[:short]] += 1
    return base


def adasyn_plan(train: Dataset, k: int = 5) -> np.ndarray:
    """Density-weighted synthetic counts per minority row, as a read-only
    int64 array aligned with the minority rows in dataset order.

    r_i = majority fraction among the k nearest whole-set neighbors of
    minority row i, normalized over rows; counts are the largest-remainder
    allocation of G = n_majority - n_minority, so they sum to G exactly.
    Raises ValueError when every r_i is zero.
    """
    minority_idx, gap = _check_two_classes(train)
    counts = _adasyn_counts(train, minority_idx, gap, _effective_k(k, minority_idx.size, "adasyn"))
    if counts is None:
        raise ValueError("all-zero density: no minority row has majority neighbors")
    counts.flags.writeable = False
    return counts


def adasyn(train: Dataset, k: int = 5, seed: int = 0) -> AugmentedDataset:
    """ADASYN: per-row synthesis counts proportional to local majority density."""
    minority_idx, gap = _check_two_classes(train)
    if gap == 0:
        return _unchanged(train)
    k = _effective_k(k, minority_idx.size, "adasyn")
    counts = _adasyn_counts(train, minority_idx, gap, k)
    if counts is None:
        warnings.warn("adasyn: all-zero density, falling back to plain SMOTE")
        return _smote(train, minority_idx, minority_idx, gap, k, seed)
    rng = np.random.default_rng(seed)
    return _interpolate(train, minority_idx, np.repeat(minority_idx, counts), k, rng)
