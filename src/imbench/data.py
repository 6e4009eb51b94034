"""Dataset ingestion, min-max scaling, stratified splitting, imbalance stats.

All containers are frozen and their arrays marked read-only, so every cell
of a grid shares one dataset without copying and none can change another's.
Class 1 is always the minority/positive class internally; ``load_csv`` remaps
raw label values so this holds.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    MissingColumnError,
    NonBinaryLabelsError,
    NonNumericCellError,
    SingleClassError,
    TooFewRowsError,
)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """Row-major numeric feature matrix with binary labels.

    Invariants checked at construction: labels in {0, 1}, all features
    finite, at least one row and one feature, one name per feature.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise EmptyDatasetError(f"need a non-empty 2-D feature matrix, got shape {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise DimensionMismatchError(
                f"labels shape {labs.shape} does not match {feats.shape[0]} rows"
            )
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite values")
        if not np.all((labs == 0) | (labs == 1)):
            raise ValueError("labels must be 0 or 1")
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != feats.shape[1]:
            raise DimensionMismatchError(
                f"{len(names)} feature names for {feats.shape[1]} features"
            )
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "labels", _frozen(labs))
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature min/max learned from a fitting set."""

    feature_min: np.ndarray
    feature_max: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.feature_min, dtype=np.float64).ravel()
        hi = np.asarray(self.feature_max, dtype=np.float64).ravel()
        if lo.shape != hi.shape:
            raise DimensionMismatchError("min and max vectors differ in length")
        if np.any(lo > hi):
            raise ValueError("per-feature min exceeds max")
        object.__setattr__(self, "feature_min", _frozen(lo))
        object.__setattr__(self, "feature_max", _frozen(hi))


@dataclass(frozen=True)
class ImbalanceStats:
    n_minority: int
    n_majority: int
    ratio: float  # majority / minority; inf when a class is absent

    @property
    def single_class(self) -> bool:
        return self.n_minority == 0


@dataclass(frozen=True)
class TrainTestSplit:
    train: Dataset
    test: Dataset


def load_csv(path: str | os.PathLike, label_column: str) -> tuple[Dataset, dict[str, int]]:
    """Read a UTF-8 CSV with a header row into a Dataset, and the mapping of
    raw label values to 0/1.

    The label column must hold exactly two distinct values; the rarer one is
    mapped to 1 (ties broken by mapping the lexicographically smaller value
    to 0). All other columns must parse as finite reals.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no such file: {path}")
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDatasetError(f"{path}: file is empty") from None
    header = [h.strip() for h in header]
    if label_column not in header:
        raise MissingColumnError(f"label column {label_column!r} not in header {header}")
    label_idx = header.index(label_column)
    feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)

    rows: list[list[float]] = []
    raw_labels: list[str] = []
    for line_no, rec in enumerate(reader, start=2):
        if not rec or all(cell.strip() == "" for cell in rec):
            continue
        if len(rec) != len(header):
            raise DimensionMismatchError(
                f"line {line_no}: expected {len(header)} cells, got {len(rec)}"
            )
        vals = []
        for j, cell in enumerate(rec):
            if j == label_idx:
                continue
            try:
                v = float(cell)
            except ValueError:
                raise NonNumericCellError(line_no, header[j], cell) from None
            if not math.isfinite(v):
                raise NonNumericCellError(line_no, header[j], cell)
            vals.append(v)
        rows.append(vals)
        raw_labels.append(rec[label_idx].strip())

    if not rows:
        raise EmptyDatasetError(f"{path}: header only, no data rows")

    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise NonBinaryLabelsError(
            f"label column must hold exactly 2 distinct values, got {distinct[:5]}"
        )
    d0, d1 = distinct
    # rarer value -> 1; on a tie the lexicographically smaller value -> 0
    rare, common = (d0, d1) if raw_labels.count(d0) < raw_labels.count(d1) else (d1, d0)
    mapping = {common: 0, rare: 1}
    labels = np.array([mapping[v] for v in raw_labels], dtype=np.int64)
    ds = Dataset(np.array(rows, dtype=np.float64), labels, feature_names)
    return ds, mapping


def read_utf8(path: str | os.PathLike) -> str:
    """A UTF-8 file's text, without a leading byte-order mark; a byte that
    does not decode raises UnicodeDecodeError naming the file."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        exc.reason += f" in file {path}"
        raise


def save_csv(d: Dataset, path: str | os.PathLike, label_column: str = "label") -> None:
    """Write a Dataset back to CSV, features as repr floats, label last."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(d.feature_names) + [label_column])
        for i in range(d.n_rows):
            writer.writerow([repr(float(v)) for v in d.features[i]] + [int(d.labels[i])])


def minmax_fit(d: Dataset) -> ScalerParams:
    """Per-feature min and max over the rows of ``d``."""
    return ScalerParams(d.features.min(axis=0), d.features.max(axis=0))


def minmax_transform(params: ScalerParams, d: Dataset) -> Dataset:
    """Map features through (x - min) / (max - min).

    Constant features map to 0. Values outside the fitted range are left
    unclamped so the transform stays affine and invertible.
    """
    if params.feature_min.shape[0] != d.n_features:
        raise DimensionMismatchError(
            f"scaler has {params.feature_min.shape[0]} features, dataset has {d.n_features}"
        )
    span = params.feature_max - params.feature_min
    safe = np.where(span > 0, span, 1.0)
    scaled = (d.features - params.feature_min) / safe
    scaled[:, span == 0] = 0.0
    return Dataset(scaled, d.labels, d.feature_names)


def imbalance_stats(d: Dataset) -> ImbalanceStats:
    """Class counts and majority/minority ratio."""
    n1 = int(np.sum(d.labels == 1))
    n_min, n_maj = sorted((n1, d.n_rows - n1))
    ratio = float(n_maj) / n_min if n_min > 0 else float("inf")
    return ImbalanceStats(n_min, n_maj, ratio)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def stratified_split(d: Dataset, test_fraction: float, seed: int) -> TrainTestSplit:
    """Seeded per-class shuffle-and-cut split.

    Each class contributes round-half-up(count * (1 - test_fraction)) rows
    to train, the remainder to test.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0,1), got {test_fraction}")
    if imbalance_stats(d).single_class:
        raise SingleClassError("stratified split needs both classes present")
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for c in (0, 1):
        idx = np.flatnonzero(d.labels == c)
        if idx.size < 2:
            raise TooFewRowsError(f"class {c} has {idx.size} rows; need at least 2")
        perm = rng.permutation(idx)
        n_train = min(_round_half_up(idx.size * (1.0 - test_fraction)), idx.size)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    tr = np.concatenate(train_idx)
    te = np.concatenate(test_idx)
    if te.size == 0 or tr.size == 0:
        raise TooFewRowsError("split left one side empty; dataset too small for this fraction")
    train = Dataset(d.features[tr], d.labels[tr], d.feature_names)
    test = Dataset(d.features[te], d.labels[te], d.feature_names)
    return TrainTestSplit(train, test)
