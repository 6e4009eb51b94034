"""One workload process: set up one grid, run it once, check its report.

    python3 perfbench/workload.py --workload pima-gan --seed 1 --out DIR \
        --t0 <time.time() when the parent started this process> [--trace] [--setup-only]

The process imports imbench from the ``src`` directory next to this one,
builds the workload's inputs from the seed, and records the wall-clock time
at which the grid schedules its first cell. With --setup-only it stops
there. Otherwise it times the grid, writes metrics.csv, checks it, and
writes ``result.json`` (and, when traced, ``spans.jsonl`` and
``trace.json``) into DIR.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import imbench  # noqa: E402
from imbench import bench, cli  # noqa: E402
from imbench import gan as gan_mod  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from spans import Tracer, patched  # noqa: E402

# spelled out, not taken from imbench, so a sampler added later does not
# change the workloads
ALL_SAMPLERS = ("none", "ros", "smote", "b-smote", "adasyn", "cgan", "sdg-gan")
ALL_CLASSIFIERS = ("logreg", "rf", "gbt", "mlp")


def blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # noqa: BLE001 - the record must not stop a run
        return f"unknown ({type(exc).__name__})"


@dataclass(frozen=True)
class Grid:
    """A prepared grid: ``run()`` executes it once."""

    run: Callable[[], object]
    cells: int  # cells the grid attempts
    workers: int  # cells run concurrently


def _in_memory(name, dataset, samplers, classifiers, seed, gan_config) -> Grid:
    config = bench.ExperimentConfig(
        datasets=((name, "", ""),),
        samplers=samplers,
        classifiers=classifiers,
        runs=1,
        master_seed=seed,
        gan_config=gan_config,
    )
    return Grid(
        lambda: bench.run_benchmark(config, loaded={name: dataset}, max_workers=1),
        len(samplers) * len(classifiers),
        1,
    )


def setup_pima_gan(seed: int, out_dir: Path) -> Grid:
    # the ROADMAP reference unit, every sampler and classifier, at half its
    # rows and half its GAN epochs so that one run holds more than one grid
    ds = bench.synth_dataset(134, 250, 8, 0.15, seed)
    return _in_memory("pima", ds, ALL_SAMPLERS, ALL_CLASSIFIERS, seed, gan_mod.TrainingConfig(epochs=50))


def setup_wide_classic(seed: int, out_dir: Path) -> Grid:
    # no GAN and no MLP: the control for nn/gan changes, dominated by trees and KNN
    ds = bench.synth_dataset(300, 1200, 16, 0.15, seed)
    return _in_memory(
        "wide", ds, ("none", "ros", "smote", "b-smote", "adasyn"), ("logreg", "rf", "gbt"), seed,
        gan_mod.TrainingConfig(),
    )


def setup_desk_cli_2w(seed: int, out_dir: Path) -> Grid:
    # the only concurrent workload, and the only one through load_csv, the CLI
    # and emit_report; the datasets are demo 05's easy and hard tables at
    # half their rows
    paths = []
    for i, (name, separation) in enumerate((("easy", 0.35), ("hard", 0.15))):
        path = out_dir / f"{name}.csv"
        imbench.save_csv(bench.synth_dataset(40, 160, 6, separation, 2 * seed + i), path, label_column="y")
        paths.append(path)
    workers = min(2, os.cpu_count() or 1)  # no more workers than cores
    argv = ["run", "--label-col", "y", "--runs", "1", "--gan-epochs", "10"]
    for path in paths:
        argv += ["--dataset", str(path)]
    argv += [
        "--samplers", ",".join(ALL_SAMPLERS),
        "--classifiers", ",".join(ALL_CLASSIFIERS),
        "--workers", str(workers),
        "--seed", str(seed),
        "--out-dir", str(out_dir),
        "--format", "csv",
    ]

    return Grid(lambda: cli.main(argv), 2 * len(ALL_SAMPLERS) * len(ALL_CLASSIFIERS), workers)


WORKLOADS = {
    "pima-gan": setup_pima_gan,
    "wide-classic": setup_wide_classic,
    "desk-cli-2w": setup_desk_cli_2w,
}


class StopAtFirstCell(BaseException):
    """Raised by the setup probe at the first cell; a BaseException so the
    grid's per-cell ``except Exception`` isolation does not swallow it."""


class Probe:
    """Light hooks kept on every run, traced or not: when the first cell
    starts, how many cells ran and raised, and the report run_benchmark
    returned. Cells may run on a thread pool, so counts take a lock.
    ``with probe.hooks():`` installs them; the traced run's wrappers go on
    top inside that block and come off first."""

    def __init__(self, stop_at_first_cell: bool = False):
        self.stop = stop_at_first_cell
        self.first_cell_time = None
        self.attempted = 0
        self.failed = 0
        self.report = None
        self._lock = threading.Lock()

    def hooks(self):
        return patched([(bench, "_run_one", self._wrap_run_one), (bench, "run_benchmark", self._wrap_run_benchmark)])

    def _wrap_run_one(self, run_one):
        def _run_one(args):
            with self._lock:
                if self.first_cell_time is None:
                    self.first_cell_time = time.time()
                self.attempted += 1
            if self.stop:
                raise StopAtFirstCell
            try:
                return run_one(args)
            except Exception:
                with self._lock:
                    self.failed += 1
                raise

        return _run_one

    def _wrap_run_benchmark(self, run_benchmark):
        def _run_benchmark(*args, **kwargs):
            self.report = run_benchmark(*args, **kwargs)
            return self.report

        return _run_benchmark


def _cpu_s() -> float:
    """User plus system CPU of this process and its waited-for children."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def run_grid(grid: Grid, trace: bool, out_dir: Path) -> dict:
    tracer = Tracer(layers.targets(imbench)) if trace else None
    cpu0 = _cpu_s()
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        grid.run()
    grid_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    # ru_maxrss is in KiB on Linux
    out = {
        "grid_s": grid_s,
        "cpu_s": cpu_s,
        "self_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "child_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = layers.layer_metrics(tracer.spans, grid_s)
        out["spans"] = len(tracer.spans)
        with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.start, s.end, s.cell, s.attrs]) + "\n")
        with open(out_dir / "trace.json", "w", encoding="utf-8") as fh:
            json.dump({"grid_s": grid_s, "layers": out["layers"], "spans": layers.span_table(tracer.spans)}, fh, indent=1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = Probe(stop_at_first_cell=args.setup_only)
    with probe.hooks():
        grid = WORKLOADS[args.workload](args.seed, out_dir)
        if args.setup_only:
            try:
                grid.run()
            except StopAtFirstCell:
                pass
            result = {}
        else:
            result = run_grid(grid, args.trace, out_dir)
    if probe.first_cell_time is None:
        print("the grid never scheduled a cell", file=sys.stderr)
        return 1
    result.update(
        setup_s=probe.first_cell_time - args.t0,
        numpy=np.__version__,
        blas=blas_library(),
        workers=grid.workers,
    )
    if not args.setup_only:
        if probe.report is not None and args.workload != "desk-cli-2w":
            bench.emit_report(probe.report, None, out_dir, "csv")
        csv_path = out_dir / "metrics.csv"
        problems = checks.check_metrics_csv(csv_path, grid.cells - probe.failed)
        if probe.attempted != grid.cells:
            problems.append(f"{probe.attempted} cells attempted, expected {grid.cells}")
        result.update(
            sha256=hashlib.sha256(csv_path.read_bytes()).hexdigest(),
            problems=problems,
            attempted=probe.attempted,
            failed=probe.failed,
        )
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
