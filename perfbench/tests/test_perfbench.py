"""Self-tests of the benchmark's own accounting: span self-times, wrapper
restoration, failed-cell counting and the metrics.csv checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import checks
import layers
import run
import workload
from spans import Span, Target, Tracer, covered, self_times, tail_percentile
from workload import bench, imbench

from imbench.gan import TrainingConfig


def _span(id, parent, start, end, name="x"):
    return Span(id, parent, name, start, end, None, None)


def test_self_time_from_synthetic_span_tree():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0),  # overlaps span 2, as cells on two threads do
        _span(4, 1, 8.0, 9.0),
        _span(5, 2, 1.0, 2.0),
        _span(6, 1, 9.5, 12.0),  # ends after its parent: only [9.5, 10] counts
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_tail_percentile_keeps_ten_values_beyond():
    p, value = tail_percentile([float(i) for i in range(1, 29)])
    assert p == 64 and value == 18.0  # ten of 28 values lie above 18
    assert tail_percentile([1.0] * 10) is None


def _tiny_config(samplers=("none", "smote", "sdg-gan"), classifiers=("logreg", "mlp", "rf")):
    return bench.ExperimentConfig(
        datasets=(("tiny", "", ""),),
        samplers=samplers,
        classifiers=classifiers,
        runs=1,
        gan_config=TrainingConfig(epochs=2),
    )


TINY = bench.synth_dataset(20, 60, 3, 0.3, seed=0)


@pytest.mark.parametrize("workers", [1, 2])
def test_wrappers_restored_after_traced_run(workers):
    targets = layers.targets(imbench)
    originals = [t.owner.__dict__[t.attr] for t in targets]
    tracer = Tracer(targets)
    with tracer:
        assert all(t.owner.__dict__[t.attr] is not o for t, o in zip(targets, originals))
        report = bench.run_benchmark(_tiny_config(), loaded={"tiny": TINY}, max_workers=workers)
    assert all(t.owner.__dict__[t.attr] is o for t, o in zip(targets, originals))
    assert len(report.cells) == 9

    grid = [s for s in tracer.spans if s.name == "bench.run_benchmark"]
    cells = [s for s in tracer.spans if s.name == "bench.cell"]
    assert len(grid) == 1 and len(cells) == 9
    # cells on pool threads still nest under the grid span
    assert all(c.parent == grid[0].id for c in cells)
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "nn.forward":
            cell = by_id[s.parent]
            while cell.name != "bench.cell":
                cell = by_id[cell.parent]
            assert s.cell == cell.cell
    m = layers.layer_metrics(tracer.spans, grid[0].duration)
    assert m["bench.cells"] == 9
    assert m["gan.trainings"] == 3 and m["gan.useful_ratio"] == pytest.approx(1 / 3)
    assert m["nn.forward.calls"] > 0 and m["classifiers.rf.nodes"] > 0
    assert set(m) | {"trace.overhead_s"} == {name for name, _, _ in layers.PER_LAYER}


def test_wrappers_restored_when_the_grid_raises():
    targets = layers.targets(imbench)
    originals = [t.owner.__dict__[t.attr] for t in targets]
    with pytest.raises(ZeroDivisionError):
        with Tracer(targets):
            1 / 0
    assert all(t.owner.__dict__[t.attr] is o for t, o in zip(targets, originals))


def test_failing_cell_counted_with_its_base(monkeypatch, tmp_path):
    def broken_smote(*args, **kwargs):
        raise RuntimeError("deliberate failure")

    monkeypatch.setattr(bench, "smote", broken_smote)
    probe = workload.Probe()
    originals = (bench._run_one, bench.run_benchmark)
    with probe.hooks():
        report = bench.run_benchmark(
            _tiny_config(samplers=("none", "smote"), classifiers=("logreg",)), loaded={"tiny": TINY}
        )
    assert (bench._run_one, bench.run_benchmark) == originals
    assert (probe.attempted, probe.failed) == (2, 1)
    assert list(report.failures) == [("tiny", "smote", "logreg")]

    bench.emit_report(report, None, tmp_path, "csv")
    grid = {
        "attempted": probe.attempted,
        "failed": probe.failed,
        "problems": checks.check_metrics_csv(tmp_path / "metrics.csv", probe.attempted - probe.failed),
        "sha256": "x",
        "grid_s": 1.0,
        "cpu_s": 1.0,
        "setup_s": 0.5,
        "self_rss_mb": 40.0,
        "child_rss_mb": 0.0,
    }
    s = run.summarize([0.5], [grid], [])
    assert s["correct"]
    assert (s["attempted"], s["failed"]) == (2, 1)
    assert s["end_to_end"]["cell_ok_ratio"] == 0.5


def test_metrics_check_flags_bad_f1_and_ranges(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text(
        "dataset,sampler,classifier,metric,mean,std\n"
        "d,none,rf,recall,0.5,0.0\n"
        "d,none,rf,precision,0.5,0.0\n"
        "d,none,rf,f1,0.6,0.0\n"
        "d,ros,rf,recall,1.5,0.0\n"
        "d,ros,rf,precision,1.0,0.0\n"
        "d,ros,rf,f1,1.2,0.0\n",
        encoding="utf-8",
    )
    problems = checks.check_metrics_csv(path, 2)
    assert any("d/none/rf: f1" in p for p in problems)
    assert any("recall = 1.5 outside" in p for p in problems)
    assert checks.check_metrics_csv(tmp_path / "missing.csv", 1) == ["missing.csv was not written"]


def test_summary_rejects_grids_whose_reports_differ():
    grid = {
        "attempted": 1, "failed": 0, "problems": [], "sha256": "a", "grid_s": 1.0, "cpu_s": 1.0,
        "setup_s": 0.1, "self_rss_mb": 1.0, "child_rss_mb": 0.0, "layers": {"bench.cells": 1},
    }
    s = run.summarize([], [grid], [{**grid, "sha256": "b", "grid_s": 1.5}])
    assert not s["correct"]
    assert s["per_layer"]["trace.overhead_s"] == pytest.approx(0.5)


def test_tracer_marks_errors_and_keeps_cell_ids():
    class Owner:
        @staticmethod
        def cell(args):
            return Owner.inner()

        @staticmethod
        def inner():
            raise ValueError("boom")

    tracer = Tracer([
        Target(Owner, "cell", "cell", cell_of=lambda args: ("d", "s", "c", 0)),
        Target(Owner, "inner", "inner"),
    ])
    with tracer, pytest.raises(ValueError):
        Owner.cell(("ignored",))
    inner, cell = tracer.spans
    assert inner.attrs == {"error": "ValueError"} and inner.parent == cell.id
    assert inner.cell == cell.cell == ("d", "s", "c", 0)


def test_benchmark_json_lists_every_printed_metric():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workload.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
