"""Output checks on a grid's metrics.csv, and the reference digests.

Every workload runs each cell once, so each reported mean is that cell's
own recall, precision or F1 and each std is 0.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

HEADER = ["dataset", "sampler", "classifier", "metric", "mean", "std"]
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_sha256.json"
F1_TOLERANCE = 1e-12


def check_metrics_csv(path: Path, expected_cells: int) -> list[str]:
    """Problems found in one metrics.csv; an empty list means it passed."""
    if not path.is_file():
        return [f"{path.name} was not written"]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != HEADER:
        return [f"{path.name}: unexpected header {rows[0] if rows else None}"]
    problems = []
    cells: dict[tuple[str, str, str], dict[str, float]] = {}
    for line_no, row in enumerate(rows[1:], 2):
        if len(row) != len(HEADER):
            problems.append(f"line {line_no}: {len(row)} fields")
            continue
        d, s, c, metric, mean, std = row
        try:
            value, spread = float(mean), float(std)
        except ValueError:
            problems.append(f"line {line_no}: non-numeric value")
            continue
        if not 0.0 <= value <= 1.0:
            problems.append(f"{d}/{s}/{c} {metric} = {value} outside [0, 1]")
        if spread != 0.0:
            problems.append(f"{d}/{s}/{c} {metric} std = {spread}, expected 0 for one run")
        cells.setdefault((d, s, c), {})[metric] = value
    for key, m in sorted(cells.items()):
        if sorted(m) != ["f1", "precision", "recall"]:
            problems.append(f"{'/'.join(key)}: metrics {sorted(m)}")
            continue
        p, r = m["precision"], m["recall"]
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        if not math.isclose(m["f1"], f1, rel_tol=0.0, abs_tol=F1_TOLERANCE):
            problems.append(f"{'/'.join(key)}: f1 {m['f1']!r} != 2PR/(P+R) {f1!r}")
    if len(cells) != expected_cells:
        problems.append(f"{len(cells)} cells reported, expected {expected_cells}")
    return problems


def reference_status(workload: str, seed: int, digest: str) -> str:
    """'match', 'MISMATCH (reference ...)', or 'none' when no digest is kept
    for this workload and seed."""
    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8")) if REFERENCE_FILE.is_file() else {}
    ref = table.get(workload, {}).get(str(seed))
    if ref is None:
        return "none"
    return "match" if ref == digest else f"MISMATCH (reference {ref})"
