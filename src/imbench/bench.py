"""Experiment harness: dataset x sampler x classifier x seeded runs.

Every cell seed is a stable SHA-256 hash of the master seed and the cell
coordinates, so the whole benchmark is a pure function of (config, input
files) and adding a sampler never perturbs the other cells. Cells run one
after another, in task order, on one OpenBLAS thread.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import importlib
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import data
from . import gan as gan_mod
from .classifiers import (
    ForestSpec,
    GBTSpec,
    LogRegSpec,
    MLPSpec,
    predict_labels,
    train_classifier,
)
from .data import MINORITY, Dataset, minmax_fit, minmax_transform, stratified_split
from .data import require_both_classes, train_sizes
from .errors import (
    ConfigInvalidError,
    DimensionMismatchError,
    GanDivergenceError,
    IncompleteTableError,
    SingleClassError,
    TooFewRowsError,
    at_least,
    in_range,
)
from .oversamplers import adasyn, borderline_smote, random_oversample, smote

# name -> how a cell balances its scaled training split, and name -> the spec
# it trains, in default grid order; entries look their functions up in this
# module when a cell runs, so a wrapper installed here sees every call
SAMPLERS = {
    "none": lambda train, seed, gan_config: train,
    "ros": lambda train, seed, gan_config: random_oversample(train, seed=seed).data,
    "smote": lambda train, seed, gan_config: smote(train, seed=seed).data,
    "b-smote": lambda train, seed, gan_config: borderline_smote(train, seed=seed).data,
    "adasyn": lambda train, seed, gan_config: adasyn(train, seed=seed).data,
    "cgan": lambda train, seed, gan_config: _gan_balance("cgan", train, seed, gan_config),
    "sdg-gan": lambda train, seed, gan_config: _gan_balance("sdg-gan", train, seed, gan_config),
}
CLASSIFIERS = {
    "logreg": lambda seed: LogRegSpec(),
    "rf": lambda seed: ForestSpec(seed=seed),
    "gbt": lambda seed: GBTSpec(),
    "mlp": lambda seed: MLPSpec(seed=seed),
}
FORMATS = ("csv", "markdown")
METRICS = ("recall", "precision", "f1")
METRICS_CSV_HEADER = ["dataset", "sampler", "classifier", "metric", "mean", "std"]


def compute_metrics(y_true, y_pred) -> tuple[float, float, float]:
    """(recall, precision, f1) with class MINORITY positive; 0/0 counts as 0.
    Labels other than 0 and MINORITY raise, as they belong to neither class."""
    t, p = np.asarray(y_true), np.asarray(y_pred)
    if t.shape != p.shape:
        raise DimensionMismatchError(f"y_true shape {t.shape} != y_pred shape {p.shape}")
    both = np.concatenate((t.ravel(), p.ravel()))
    stray = both[(both != 0) & (both != MINORITY)]
    if stray.size:
        raise ValueError(f"labels must be 0 or {MINORITY}, got {np.unique(stray).tolist()}")
    tp = int(np.sum((t == MINORITY) & (p == MINORITY)))
    fp = int(np.sum((t == 0) & (p == MINORITY)))
    fn = int(np.sum((t == MINORITY) & (p == 0)))
    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    # harmonic mean written on raw counts so hand values come out exact
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    return recall, precision, f1


def stable_seed(*parts) -> int:
    """Platform-independent 63-bit seed from arbitrary coordinate parts."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[tuple[str, str, str], ...]  # (name, csv path, label column)
    samplers: tuple[str, ...] = tuple(SAMPLERS)
    classifiers: tuple[str, ...] = tuple(CLASSIFIERS)
    runs: int = 10
    test_fraction: float = 0.2
    master_seed: int = 0
    gan_config: gan_mod.TrainingConfig = field(default_factory=gan_mod.TrainingConfig)

    def __post_init__(self):
        at_least(1, runs=self.runs)
        in_range(0, 1, test_fraction=self.test_fraction)
        if not self.samplers or not self.classifiers:
            raise ConfigInvalidError("need at least one sampler and one classifier")
        datasets = tuple(d[0] for d in self.datasets)
        for kind, names, known in (
            ("sampler", self.samplers, tuple(SAMPLERS)),
            ("classifier", self.classifiers, tuple(CLASSIFIERS)),
            ("dataset", datasets, datasets),
        ):
            if not names:  # only datasets get here empty
                raise ConfigInvalidError(f"need at least one {kind}")
            for name in names:
                if name not in known:
                    raise ConfigInvalidError(f"unknown {kind} {name!r}; choose from {known}")
                if names.count(name) > 1:
                    raise ConfigInvalidError(f"duplicate {kind} name {name!r}")
        if not isinstance(self.gan_config, gan_mod.TrainingConfig):
            raise ConfigInvalidError(f"gan_config must be a TrainingConfig, got {self.gan_config!r}")


@dataclass(frozen=True)
class CellStats:
    mean: dict[str, float]  # metric -> mean over runs
    std: dict[str, float]


@dataclass(frozen=True)
class MetricsReport:
    # (dataset, sampler, classifier) -> CellStats
    cells: dict[tuple[str, str, str], CellStats]
    failures: dict[tuple[str, str, str], str]


@dataclass(frozen=True)
class RankTable:
    overall: dict[str, float]  # sampler -> mean rank over all ranked pairs, in sampler-name order
    per_classifier: dict[str, dict[str, float]]  # classifier -> sampler -> mean rank


def _train_gan_with_retry(kind: str, train: Dataset, config, seed: int):
    """GAN training is occasionally unstable; retry once with seed+1 before
    declaring the cell failed."""
    trainer = gan_mod.train_sdg_gan if kind == "sdg-gan" else gan_mod.train_cgan
    for attempt_seed in (seed, seed + 1):
        model = trainer(train, config, seed=attempt_seed)
        if np.all(np.isfinite(model.loss_history)):
            return model
    raise GanDivergenceError(f"{kind}: non-finite losses for seeds {seed} and {seed + 1}")


def _gan_balance(kind: str, train: Dataset, seed: int, gan_config) -> Dataset:
    model = _train_gan_with_retry(kind, train, gan_config, seed)
    return gan_mod.oversample_to_balance(model, train, seed=stable_seed(seed, "sample")).data


def _entry(table: dict, kind: str, name: str):
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}")
    return table[name]


def run_cell(
    dataset: Dataset,
    sampler: str,
    classifier: str,
    run_seed: int,
    test_fraction: float = 0.2,
    gan_config: gan_mod.TrainingConfig | None = None,
) -> tuple[float, float, float]:
    """One experiment cell: split, scale on train, balance train, fit,
    score the held-out split. Deterministic given run_seed."""
    split = stratified_split(dataset, test_fraction, stable_seed(run_seed, "split"))
    scaler = minmax_fit(split.train)
    train_s = minmax_transform(scaler, split.train)
    test_s = minmax_transform(scaler, split.test)
    balanced = _entry(SAMPLERS, "sampler", sampler)(train_s, stable_seed(run_seed, "sampler"), gan_config)
    spec = _entry(CLASSIFIERS, "classifier", classifier)(stable_seed(run_seed, "classifier"))
    model = train_classifier(balanced, spec)
    y_pred = predict_labels(model, test_s.features)
    return compute_metrics(test_s.labels, y_pred)


def _run_one(args):
    name, dataset, sampler, classifier, run_idx, cfg = args
    run_seed = stable_seed(cfg.master_seed, name, sampler, classifier, run_idx)
    return run_cell(dataset, sampler, classifier, run_seed, cfg.test_fraction, cfg.gan_config)


def _outcome(task):
    """The cell's result, or the Exception it raised; a failing cell does
    not stop the grid. The caller's warning filters act inside the cell as
    on a direct call, so a filter that makes a warning an error fails the
    cell at that warning. Each warning they let through is shown when the
    cell ends, its text followed by the cell's dataset, sampler, classifier
    and run. _run_one is looked up on each call, so a wrapper installed on
    the module sees every cell."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            result = _run_one(task)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            result = exc
    name, _, sampler, classifier, run_idx, _ = task
    for w in caught:
        text = f"{w.message} [{name}/{sampler}/{classifier}/run {run_idx}]"
        warnings.showwarning(text, w.category, w.filename, w.lineno)
    return result


# (getter, setter) of the OpenBLAS thread count, in the order tried: numpy 2
# wheels, numpy 1.2x wheels, a system OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_threads():
    """(get, set) for the thread count of the OpenBLAS numpy links, or None
    when numpy links another BLAS or the lookup fails. dlsym on numpy's own
    extension also searches the libraries it links, so no BLAS file name is
    needed."""
    # numpy 2 keeps the extension in numpy._core, numpy 1 in numpy.core
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            break
        except (ImportError, OSError, AttributeError, TypeError):
            continue
    else:
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, and restore the
    caller's count however the block ends. A grid's products are too small
    for OpenBLAS's split to shorten them, so its other threads only burn CPU.
    Any other BLAS is left alone."""
    control = _openblas_threads()
    if control is None:
        yield
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def run_benchmark(
    config: ExperimentConfig,
    loaded: dict[str, Dataset] | None = None,
    max_workers: int = 1,
) -> MetricsReport:
    """Execute the full grid and average metrics over runs.

    ``loaded`` short-circuits CSV loading for datasets already in memory
    (keyed by config dataset name; any other key is rejected before anything
    loads). A dataset no split can be made from at ``test_fraction`` raises
    ConfigInvalidError, naming it, before any cell runs. A failing cell is
    recorded in report.failures; the rest of the grid still completes.

    ``max_workers`` (>= 1) is the most cells in flight, which a grid run in
    order always meets: cells hold the GIL between numpy calls, so a thread
    pool made the grid slower, not faster.
    """
    at_least(1, workers=max_workers)
    unknown = sorted(set(loaded or ()) - {name for name, _, _ in config.datasets})
    if unknown:
        raise ConfigInvalidError(f"loaded datasets {unknown} are not in the config")
    datasets: dict[str, Dataset] = {}
    for name, path, label_col in config.datasets:
        if loaded and name in loaded:
            datasets[name] = loaded[name]
        else:
            # through the module, so a wrapper on data.load_csv sees every load
            datasets[name], _ = data.load_csv(path, label_col)
        try:  # the split's own checks, without drawing a split
            require_both_classes(datasets[name], "stratified split")
            train_sizes(datasets[name].labels, config.test_fraction)
        except (SingleClassError, TooFewRowsError) as exc:
            raise ConfigInvalidError(f"dataset {name!r}: {exc}") from exc

    # the one statement of the grid order: each cell's runs are consecutive tasks
    tasks = [
        (name, datasets[name], sampler, classifier, run_idx, config)
        for name, _, _ in config.datasets
        for sampler in config.samplers
        for classifier in config.classifiers
        for run_idx in range(config.runs)
    ]
    with _one_blas_thread():
        outcomes = list(map(_outcome, tasks))

    cells: dict[tuple[str, str, str], CellStats] = {}
    failures: dict[tuple[str, str, str], str] = {}
    for i in range(0, len(tasks), config.runs):
        name, _, sampler, classifier, _, _ = tasks[i]
        runs = outcomes[i : i + config.runs]
        errs = [r for r in runs if isinstance(r, Exception)]
        if errs:
            failures[(name, sampler, classifier)] = f"{type(errs[0]).__name__}: {errs[0]}"
            continue
        arr = np.asarray(runs, dtype=np.float64)  # runs x 3
        mean = arr.mean(axis=0)
        std = arr.std(axis=0)
        cells[(name, sampler, classifier)] = CellStats(
            dict(zip(METRICS, mean.tolist())),
            dict(zip(METRICS, std.tolist())),
        )
    return MetricsReport(cells, failures)


def mean_rank(f1_table: dict[tuple[str, str, str], float]) -> RankTable:
    """Mean ranks over the (dataset, classifier) pairs of a
    {(dataset, classifier, sampler): f1} table. Every pair present needs an
    F1 for every sampler; a pair may be absent as a whole."""
    pairs = sorted({k[:2] for k in f1_table})
    samplers = tuple(sorted({k[2] for k in f1_table}))
    if len(samplers) < 2:
        raise IncompleteTableError("ranking needs at least two samplers")
    try:  # built in d, c, s order, so the error names the first missing key
        f1 = np.array([[f1_table[(d, c, s)] for s in samplers] for d, c in pairs])
    except KeyError as exc:
        raise IncompleteTableError(f"missing F1 for {exc.args[0]}") from None
    # 1 = best; tied samplers share the mean of their positions. [p, s, t]
    # compares sampler t with s, so equal counts s. Half-integer ranks sum exactly.
    greater = (f1[:, None, :] > f1[:, :, None]).sum(axis=-1)
    equal = (f1[:, None, :] == f1[:, :, None]).sum(axis=-1)
    ranks = greater + (equal + 1) / 2
    per_classifier = {}
    for c in sorted({c for _, c in pairs}):
        rows = [i for i, pair in enumerate(pairs) if pair[1] == c]
        per_classifier[c] = dict(zip(samplers, ranks[rows].mean(axis=0).tolist()))
    overall = dict(zip(samplers, ranks.mean(axis=0).tolist()))
    return RankTable(overall, per_classifier)


def report_to_f1_table(report: MetricsReport) -> dict[tuple[str, str, str], float]:
    """Reshape a MetricsReport into the mean_rank input format."""
    return {
        (d, c, s): stats.mean["f1"] for (d, s, c), stats in report.cells.items()
    }


def synth_dataset(
    n_minority: int, n_majority: int, n_features: int, separation: float, seed: int = 0
) -> Dataset:
    """Two spherical Gaussians clipped to [0,1]: majority at 0.35, minority
    at 0.35 + separation, both with sigma 0.1 per coordinate."""
    at_least(1, n_minority=n_minority, n_majority=n_majority, n_features=n_features)
    rng = np.random.default_rng(seed)
    maj = rng.normal(0.35, 0.1, size=(n_majority, n_features))
    mino = rng.normal(0.35 + separation, 0.1, size=(n_minority, n_features))
    feats = np.clip(np.vstack([maj, mino]), 0.0, 1.0)
    labels = np.concatenate([np.zeros(n_majority, dtype=np.int64), np.ones(n_minority, dtype=np.int64)])
    names = tuple(f"f{i}" for i in range(n_features))
    return Dataset(feats, labels, names)


def write_ranks_csv(rank: RankTable, path: str | os.PathLike) -> None:
    """ranks.csv: overall, then per-classifier mean ranks, repr-formatted;
    quoted like metrics.csv."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["classifier", "sampler", "mean_rank"])
        for s, r in rank.overall.items():
            writer.writerow(["overall", s, repr(r)])
        for c in sorted(rank.per_classifier):
            for s in rank.overall:
                writer.writerow([c, s, repr(rank.per_classifier[c][s])])


def emit_report(
    report: MetricsReport,
    rank: RankTable | None,
    out_dir: str | os.PathLike,
    fmt: str = "csv",
) -> list[str]:
    """Write the report (and optional rank table); returns written paths.

    CSV columns are exactly dataset,sampler,classifier,metric,mean,std with
    float values repr-formatted so a re-parse round-trips bit-exactly; a
    name holding a comma or quote is quoted.
    """
    if not report.cells and not report.failures:
        raise ValueError("refusing to write an empty report")
    if fmt not in FORMATS:
        raise ValueError(f"format must be {' or '.join(FORMATS)}, got {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt == "csv":
        path = os.path.join(out_dir, "metrics.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(METRICS_CSV_HEADER)
            for (d, s, c) in sorted(report.cells):
                stats = report.cells[(d, s, c)]
                for m in METRICS:
                    writer.writerow([d, s, c, m, repr(stats.mean[m]), repr(stats.std[m])])
        written.append(path)
        if rank is not None:
            rpath = os.path.join(out_dir, "ranks.csv")
            write_ranks_csv(rank, rpath)
            written.append(rpath)
    else:
        path = os.path.join(out_dir, "report.md")
        lines = []
        datasets = sorted({d for d, _, _ in report.cells})
        for d in datasets:
            lines.append(f"## {d}\n")
            samplers = sorted({s for dd, s, _ in report.cells if dd == d})
            classifiers = sorted({c for dd, _, c in report.cells if dd == d})
            lines.append("| Algorithm | Metric | " + " | ".join(samplers) + " |")
            lines.append("|---|---|" + "---|" * len(samplers))
            for c in classifiers:
                for m in METRICS:
                    row = [f"{report.cells[(d, s, c)].mean[m]:.4f}" if (d, s, c) in report.cells else "-" for s in samplers]
                    lines.append(f"| {c} | {m} | " + " | ".join(row) + " |")
            lines.append("")
        if rank is not None:
            lines.append("## Mean rank (F1, lower is better)\n")
            classifiers = sorted(rank.per_classifier)
            lines.append("| Method | Overall | " + " | ".join(classifiers) + " |")
            lines.append("|---|---|" + "---|" * len(classifiers))
            for s in sorted(rank.overall, key=rank.overall.get):
                cols = " | ".join(f"{rank.per_classifier[c][s]:.2f}" for c in classifiers)
                lines.append(f"| {s} | {rank.overall[s]:.2f} | {cols} |")
            lines.append("")
        if report.failures:
            lines.append("## Failed cells\n")
            for key in sorted(report.failures):
                lines.append(f"- {key}: {report.failures[key]}")
            lines.append("")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        written.append(path)
    return written


def parse_metrics_csv(path) -> dict[tuple[str, str, str, str], tuple[float, float]]:
    """Inverse of the CSV writer: (dataset, sampler, classifier, metric) ->
    (mean, std). A key on two rows is a ValueError naming the second's line."""
    header, rows = data.read_rows(path)
    if header != METRICS_CSV_HEADER:
        raise ValueError(f"unexpected header {header!r}")
    parsed: dict[tuple[str, str, str, str], tuple[float, float]] = {}
    for line, (d, s, c, m, mean, std) in rows:
        if (d, s, c, m) in parsed:
            raise ValueError(f"line {line}: more than one row for {(d, s, c, m)}")
        parsed[d, s, c, m] = (data.finite_float(line, "mean", mean), data.finite_float(line, "std", std))
    return parsed
