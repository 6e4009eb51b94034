"""imbench benchmark: grid cost on three grid workloads.

    python3 perfbench/run.py --workload pima-gan --seed 1 --seconds 30 --trace 0

Run from the repository root. Each grid runs in a fresh workload process
(perfbench/workload.py), so set-up, CPU time and peak memory belong to one
grid. With --trace 0 the run starts SETUP_PROBES processes that stop at the
first cell, for set-up time, half before and half after the grids. It runs
grids until the next one would end after --seconds (always at least
MIN_GRIDS) and reports medians of the five end-to-end metrics. With
--trace 1 it runs pairs of one untraced and one traced grid instead (at
least one pair) and reports the per-layer metrics from the traced ones.
Every grid's metrics.csv is checked; the run fails when a check fails or
when the grids' metrics.csv files differ. The last stdout line is a JSON
object with the keys correct, attempted, failed and metrics. Everything
else goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pima-gan", "wide-classic", "desk-cli-2w")
SETUP_PROBES = 8
# grids per --trace 0 run at least, so that its metrics.csv files can be
# compared with each other
MIN_GRIDS = 2
# every run must end within 180 s; a child still running by then is killed
DEADLINE_S = 170.0

END_TO_END = [
    ("grid_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cell_ok_ratio", "ratio"),
]


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, out: Path, deadline: float, *flags: str) -> dict:
    """Start one workload process, wait for it, return its result.json."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    t0 = time.time()
    proc = subprocess.run(
        [*cmd, "--t0", repr(t0), *flags],
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise ChildFailed(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def git_commit() -> str:
    # the ceiling keeps git from taking the commit of a repository above ROOT
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(first: dict) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": first.get("numpy"),
        "blas": first.get("blas"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workers": first.get("workers"),
    }


def summarize(setups: list[float], plain: list[dict], traced: list[dict]) -> dict:
    """Fold the grids of one run into the printed result (without metrics
    for the mode not run) plus the notes printed beside it."""
    grids = plain + traced
    attempted = sum(g["attempted"] for g in grids)
    failed = sum(g["failed"] for g in grids)
    problems = [f"grid {i}: {p}" for i, g in enumerate(grids) for p in g["problems"]]
    digests = sorted({g["sha256"] for g in grids})
    if len(digests) > 1:
        problems.append(f"metrics.csv differs between grids of one run: {digests}")

    def median(key, gs):
        return statistics.median(g[key] for g in gs)

    end_to_end = {
        "grid_s": median("grid_s", plain),
        "cpu_s": median("cpu_s", plain),
        "setup_s": statistics.median(setups + [g["setup_s"] for g in plain]),
        "peak_rss_mb": statistics.median(g["self_rss_mb"] + g["child_rss_mb"] for g in plain),
        "cell_ok_ratio": (attempted - failed) / attempted,
    }
    per_layer = {}
    if traced:
        for name in traced[0]["layers"]:
            per_layer[name] = statistics.median(g["layers"][name] for g in traced)
        per_layer["trace.overhead_s"] = median("grid_s", traced) - end_to_end["grid_s"]
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "sha256": digests[0],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "imbench" / "__init__.py").is_file():
        print(f"error: no imbench sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)

    def probe_setups(first: int, count: int) -> list[float]:
        return [
            run_child(args.workload, args.seed, out / f"setup-{i}", deadline, "--setup-only")["setup_s"]
            for i in range(first, first + count)
        ]

    try:
        # half the set-up probes run before the grids and half after, so the
        # median does not hang on the host's speed in one short stretch
        setups = [] if args.trace else probe_setups(0, SETUP_PROBES // 2)
        plain, traced, walls = [], [], []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            n = len(plain)
            plain.append(run_child(args.workload, args.seed, out / f"grid-{n}", deadline))
            if args.trace:
                traced.append(run_child(args.workload, args.seed, out / f"traced-{n}", deadline, "--trace"))
            walls.append(time.monotonic() - began)
            enough = len(plain) >= (1 if args.trace else MIN_GRIDS)
            if enough and time.monotonic() - start + statistics.median(walls) > args.seconds:
                break
        if not args.trace:
            setups += probe_setups(SETUP_PROBES // 2, SETUP_PROBES - SETUP_PROBES // 2)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    s = summarize(setups, plain, traced)
    env = environment(plain[0])
    reference = checks.reference_status(args.workload, args.seed, s["sha256"])
    (out / "summary.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "environment": env, "reference": reference,
                    "summary": s, "grids": plain, "traced": traced, "setups": setups}, indent=1),
        encoding="utf-8",
    )

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} grid(s), {len(traced)} traced")
    print("environment " + json.dumps(env))
    print(f"metrics.csv sha256 {s['sha256']} reference: {reference}")
    if reference.startswith("MISMATCH"):
        print(f"warning: metrics.csv differs from the kept reference for seed {args.seed}", file=sys.stderr)
    print(f"cell_fail_ratio {s['failed'] / s['attempted']:.4g} ({s['failed']}/{s['attempted']})")
    for problem in s["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if args.trace:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {name: {"value": s["per_layer"][name], "unit": units[name]} for name in units}
    else:
        metrics = {name: {"value": s["end_to_end"][name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"], "failed": s["failed"], "metrics": metrics}))
    return 0 if s["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
