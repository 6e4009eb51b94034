"""Command-line front end: ``bench run``, ``bench synth``, ``bench rank``.

The run config file is plain ``key = value`` lines ('#' starts a comment).
Recognized keys mirror the flags: ``dataset`` (repeatable,
``name, path, label_column``), ``samplers``, ``classifiers``, ``runs``,
``seed``, ``out_dir``, ``format``, ``test_fraction``, ``gan_epochs``.
Flags override file values.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import bench
from .data import finite_float, read_rows, read_utf8, save_csv
from .errors import ConfigInvalidError, ImbenchError
from .gan import TrainingConfig

# each run setting that a config key and a flag of the same name both set, and
# the type of its value; the lists and paths stay text until _run_settings
RUN_SETTINGS = {
    "samplers": str, "classifiers": str, "runs": int, "seed": int,
    "test_fraction": float, "gan_epochs": int, "out_dir": str, "format": str,
}


def _parse_config_file(path: str) -> dict:
    out: dict = {"datasets": []}
    for line_no, raw in enumerate(read_utf8(path).splitlines(), 1):
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
        elif key in RUN_SETTINGS:
            kind = RUN_SETTINGS[key]
            try:
                out[key] = kind(value)
            except ValueError:
                raise ConfigInvalidError(f"{where}: {key} must be {kind.__name__}, got {value!r}") from None
        else:
            raise ConfigInvalidError(f"{where}: unknown key {key!r}")
    return out


def _run_settings(args) -> tuple[bench.ExperimentConfig, str, str]:
    """The experiment config, output directory and report format of ``bench run``."""
    settings = _parse_config_file(args.config) if args.config else {"datasets": []}
    datasets = settings.pop("datasets")
    if args.dataset:
        if not args.label_col:
            raise ConfigInvalidError("--dataset requires --label-col")
        for path in args.dataset:
            datasets.append((Path(path).stem, path, args.label_col))
    if not datasets:
        raise ConfigInvalidError("no datasets (use --dataset or a config file)")

    # flags override the file; a run setting neither sets keeps ExperimentConfig's default
    for key in RUN_SETTINGS:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    for key in ("samplers", "classifiers"):
        if key in settings:
            settings[key] = tuple(p.strip() for p in settings[key].split(",") if p.strip())
    if "seed" in settings:
        settings["master_seed"] = settings.pop("seed")
    if "gan_epochs" in settings:
        settings["gan_config"] = TrainingConfig(epochs=settings.pop("gan_epochs"))
    out_dir = settings.pop("out_dir", "bench-out")
    fmt = settings.pop("format", "csv")
    if fmt not in bench.FORMATS:
        raise ConfigInvalidError(f"format must be {' or '.join(bench.FORMATS)}, got {fmt!r}")
    return bench.ExperimentConfig(datasets=tuple(datasets), **settings), out_dir, fmt


def _check_out_dir(out_dir: str) -> None:
    """Raise OSError if ``out_dir`` cannot be made and written; makes nothing."""
    if not out_dir:
        raise OSError("output directory is empty")
    probe = os.path.abspath(out_dir)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK)):
        raise OSError(f"output directory {out_dir}: {probe} is not a writable directory")


def _cmd_run(args) -> int:
    config, out_dir, fmt = _run_settings(args)
    _check_out_dir(out_dir)
    report = bench.run_benchmark(config, max_workers=args.workers)
    # rank the (dataset, classifier) pairs whose every sampler succeeded
    excluded = sorted({(d, c) for d, _, c in report.failures})
    f1 = {k: v for k, v in bench.report_to_f1_table(report).items() if k[:2] not in excluded}
    rank = bench.mean_rank(f1) if len(config.samplers) >= 2 and f1 else None
    paths = bench.emit_report(report, rank, out_dir, fmt)
    for p in paths:
        print(f"wrote {p}")
    if report.failures:
        for key, msg in sorted(report.failures.items()):
            print(f"FAILED cell {key}: {msg}", file=sys.stderr)
        for d, c in excluded:
            print(f"excluded from ranks: dataset {d!r}, classifier {c!r}", file=sys.stderr)
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
    header, rows = read_rows(args.f1_table)
    if not required.issubset(header):
        raise ValueError(f"rank input needs columns {sorted(required)}")
    for line, cells in rows:
        row = dict(zip(header, cells))
        key = (row["dataset"], row["classifier"], row["sampler"])
        f1 = finite_float(line, "f1", row["f1"])
        if key in table:
            raise ValueError(f"more than one F1 for {key}")
        table[key] = f1
    bench.write_ranks_csv(bench.mean_rank(table), args.out)
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
    run.add_argument("--format", choices=bench.FORMATS, default=None)
    run.add_argument("--workers", type=int, default=1, help="most cells in flight (>= 1); cells run one at a time")
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
    """Run one command; its bad input is one ``error:`` line and exit 2 (a file
    that is not UTF-8 raises UnicodeDecodeError, a ValueError)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ImbenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
