"""Command-line front end: ``bench run``, ``bench synth``, ``bench rank``.

The run config file is plain ``key = value`` lines ('#' starts a comment).
Recognized keys mirror the flags: ``dataset`` (repeatable,
``name, path, label_column``), ``samplers``, ``classifiers``, ``runs``,
``seed``, ``out_dir``, ``format``, ``test_fraction``, ``gan_epochs``.
Flags override file values.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from . import bench
from .data import save_csv
from .errors import ConfigInvalidError, ImbenchError
from .gan import TrainingConfig


def _parse_config_file(path: str) -> dict:
    out: dict = {"datasets": []}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        where = f"{path}:{line_no}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalidError(f"{where}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "dataset":
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 3:
                raise ConfigInvalidError(f"{where}: dataset needs 'name, path, label_column'")
            out["datasets"].append(tuple(parts))
        elif key in ("samplers", "classifiers"):
            out[key] = tuple(p.strip() for p in value.split(",") if p.strip())
        elif key in ("runs", "seed", "gan_epochs", "test_fraction"):
            kind = float if key == "test_fraction" else int
            try:
                out[key] = kind(value)
            except ValueError:
                raise ConfigInvalidError(f"{where}: {key} must be {kind.__name__}, got {value!r}") from None
        elif key in ("out_dir", "format"):
            out[key] = value
        else:
            raise ConfigInvalidError(f"{where}: unknown key {key!r}")
    return out


def _run_settings(args) -> tuple[bench.ExperimentConfig, str, str]:
    """The experiment config, output directory and report format of ``bench run``."""
    file_cfg = _parse_config_file(args.config) if args.config else {"datasets": []}
    datasets = list(file_cfg["datasets"])
    if args.dataset:
        if not args.label_col:
            raise ConfigInvalidError("--dataset requires --label-col")
        for path in args.dataset:
            datasets.append((Path(path).stem, path, args.label_col))
    if not datasets:
        raise ConfigInvalidError("no datasets (use --dataset or a config file)")

    samplers = tuple(args.samplers.split(",")) if args.samplers else file_cfg.get("samplers", bench.SAMPLERS)
    classifiers = (
        tuple(args.classifiers.split(",")) if args.classifiers else file_cfg.get("classifiers", bench.CLASSIFIERS)
    )
    runs = args.runs if args.runs is not None else file_cfg.get("runs", 10)
    seed = args.seed if args.seed is not None else file_cfg.get("seed", 0)
    out_dir = args.out_dir or file_cfg.get("out_dir", "bench-out")
    fmt = args.format or file_cfg.get("format", "csv")
    if fmt not in ("csv", "markdown"):
        raise ConfigInvalidError(f"format must be csv or markdown, got {fmt!r}")
    gan_config = TrainingConfig()
    gan_epochs = args.gan_epochs if args.gan_epochs is not None else file_cfg.get("gan_epochs")
    if gan_epochs is not None:
        gan_config = replace(gan_config, epochs=gan_epochs)

    config = bench.ExperimentConfig(
        datasets=tuple(datasets),
        samplers=samplers,
        classifiers=classifiers,
        runs=runs,
        test_fraction=args.test_fraction if args.test_fraction is not None else file_cfg.get("test_fraction", 0.2),
        master_seed=seed,
        gan_config=gan_config,
    )
    return config, out_dir, fmt


def _cmd_run(args) -> int:
    # everything that can escape before the first cell runs is bad input:
    # the flags, the config file, or a dataset file that is missing or malformed
    try:
        config, out_dir, fmt = _run_settings(args)
        report = bench.run_benchmark(config, max_workers=args.workers)
    except (ImbenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rank = None
    if len(config.samplers) >= 2 and report.cells and not report.failures:
        rank = bench.mean_rank(bench.report_to_f1_table(report))
    paths = bench.emit_report(report, rank, out_dir, fmt)
    for p in paths:
        print(f"wrote {p}")
    if report.failures:
        for key, msg in sorted(report.failures.items()):
            print(f"FAILED cell {key}: {msg}", file=sys.stderr)
        return 1
    return 0


def _cmd_synth(args) -> int:
    ds = bench.synth_dataset(args.minority, args.majority, args.features, args.separation, args.seed)
    save_csv(ds, args.out, label_column="label")
    print(f"wrote {args.out} ({ds.n_rows} rows, {ds.n_features} features)")
    return 0


def _cmd_rank(args) -> int:
    required = {"dataset", "classifier", "sampler", "f1"}
    table: dict[tuple[str, str, str], float] = {}
    try:
        with open(args.f1_table, encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValueError(f"rank input needs columns {sorted(required)}")
            for row in reader:
                table[(row["dataset"], row["classifier"], row["sampler"])] = float(row["f1"])
        rank = bench.mean_rank(table)
    except (ValueError, OSError) as exc:  # IncompleteTableError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bench.write_ranks_csv(rank, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the benchmark grid")
    run.add_argument("--config", help="key = value config file")
    run.add_argument("--dataset", action="append", help="CSV path (repeatable)")
    run.add_argument("--label-col", help="label column for --dataset files")
    run.add_argument("--samplers", help="comma list from: " + ",".join(bench.SAMPLERS))
    run.add_argument("--classifiers", help="comma list from: " + ",".join(bench.CLASSIFIERS))
    run.add_argument("--runs", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--test-fraction", type=float, default=None)
    run.add_argument("--gan-epochs", type=int, default=None, help="override GAN epochs (desk-scale runs)")
    run.add_argument("--out-dir", default=None)
    run.add_argument("--format", choices=("csv", "markdown"), default=None)
    run.add_argument("--workers", type=int, default=1, help="concurrent cells")
    run.set_defaults(func=_cmd_run)

    synth = sub.add_parser("synth", help="write a synthetic two-Gaussian dataset")
    synth.add_argument("--minority", type=int, required=True)
    synth.add_argument("--majority", type=int, required=True)
    synth.add_argument("--features", type=int, required=True)
    synth.add_argument("--separation", type=float, required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=_cmd_synth)

    rank = sub.add_parser("rank", help="mean ranks from an F1 table CSV")
    rank.add_argument("--f1-table", required=True, help="CSV with dataset,classifier,sampler,f1")
    rank.add_argument("--out", required=True)
    rank.set_defaults(func=_cmd_rank)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
