"""Which imbench calls a traced run wraps, and the per-layer metrics derived
from the spans they record.

Functions are wrapped where their callers look them up: ``bench`` imports
``stratified_split``, ``train_classifier`` and the classic samplers into its
own namespace, so those are wrapped on ``imbench.bench``; ``nn``, ``gan`` and
``data.load_csv`` are reached through their modules.
"""

from __future__ import annotations

import math

from spans import Span, Target, self_times, tail_percentile

# (name, unit, better) for every per-layer metric, in report order
PER_LAYER = [
    ("bench.cells", "count", "higher"),
    ("bench.cell_s.p50", "s", "lower"),
    ("bench.cell_s.tail", "s", "lower"),
    ("bench.cell_s.tail_pct", "%", "higher"),
    ("bench.self_s", "s", "lower"),
    ("bench.self_share", "ratio", "lower"),
    ("bench.overlap", "ratio", "higher"),
    ("data.load_csv_s", "s", "lower"),
    ("data.split_s", "s", "lower"),
    ("data.scale_s", "s", "lower"),
    ("oversamplers.ros_s", "s", "lower"),
    ("oversamplers.smote_s", "s", "lower"),
    ("oversamplers.b-smote_s", "s", "lower"),
    ("oversamplers.adasyn_s", "s", "lower"),
    ("oversamplers.knn.queries", "count", "lower"),
    ("oversamplers.knn_s", "s", "lower"),
    ("oversamplers.synthetic_rows", "count", "lower"),
    ("gan.cgan.train_s", "s", "lower"),
    ("gan.sdg-gan.train_s", "s", "lower"),
    ("gan.trainings", "count", "lower"),
    ("gan.retries", "count", "lower"),
    ("gan.useful_ratio", "ratio", "higher"),
    ("gan.steps", "count", "lower"),
    ("gan.step_ms", "ms", "lower"),
    ("gan.fm_loss_s", "s", "lower"),
    ("gan.generate_s", "s", "lower"),
    ("nn.forward.calls", "count", "lower"),
    ("nn.forward_s", "s", "lower"),
    ("nn.backward.calls", "count", "lower"),
    ("nn.backward_s", "s", "lower"),
    ("nn.adam_step.calls", "count", "lower"),
    ("nn.adam_step_s", "s", "lower"),
    ("nn.gflop", "GFLOP", "lower"),
    ("classifiers.logreg.fit_s", "s", "lower"),
    ("classifiers.rf.fit_s", "s", "lower"),
    ("classifiers.gbt.fit_s", "s", "lower"),
    ("classifiers.mlp.fit_s", "s", "lower"),
    ("classifiers.rf.nodes", "count", "lower"),
    ("classifiers.gbt.nodes", "count", "lower"),
    ("classifiers.predict_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_SPEC_KIND = {"LogRegSpec": "logreg", "ForestSpec": "rf", "GBTSpec": "gbt", "MLPSpec": "mlp"}


def _matmul_flop(net, rows: int) -> int:
    # one [rows, fan_in] @ [fan_in, fan_out] product per layer
    return sum(2 * rows * ly.weights.shape[0] * ly.weights.shape[1] for ly in net.layers)


def _forward_attrs(args, kwargs, result):
    return {"flop": _matmul_flop(args[0], result[0].shape[0])}


def _backward_attrs(args, kwargs, result):
    # per layer: the weight gradient and the input gradient, each one matmul
    return {"flop": 2 * _matmul_flop(args[0], result[1].shape[0])}


def _count_nodes(model) -> int:
    n = 0
    stack = list(model.trees)
    while stack:
        node = stack.pop()
        n += 1
        if node.left is not None:
            stack.append(node.left)
            stack.append(node.right)
    return n


def _fit_attrs(args, kwargs, result):
    kind = _SPEC_KIND[type(args[1]).__name__]
    attrs = {"kind": kind}
    if kind in ("rf", "gbt"):
        attrs["nodes"] = _count_nodes(result)
    return attrs


def _gan_attrs(args, kwargs, result):
    train = args[0]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    batch = config.batch_size if config is not None else result.config.batch_size
    return {"steps": len(result.loss_history) * math.ceil(train.n_rows / batch)}


def _synthetic_attrs(args, kwargs, result):
    return {"rows": result.n_synthetic}


def _cell_id(args):
    name, _dataset, sampler, classifier, run_idx, _cfg = args[0]
    return (name, sampler, classifier, run_idx)


def targets(imbench) -> list[Target]:
    bench, cli, data, gan, nn, ovs = (
        imbench.bench, imbench.cli, imbench.data, imbench.gan, imbench.nn, imbench.oversamplers,
    )
    return [
        Target(cli, "main", "cli.main"),
        Target(bench, "emit_report", "bench.emit_report"),
        Target(bench, "run_benchmark", "bench.run_benchmark", root=True),
        Target(bench, "_run_one", "bench.cell", cell_of=_cell_id),
        Target(bench, "run_cell", "bench.run_cell"),
        Target(data, "load_csv", "data.load_csv"),
        Target(bench, "stratified_split", "data.split"),
        Target(bench, "minmax_fit", "data.scale"),
        Target(bench, "minmax_transform", "data.scale"),
        Target(bench, "random_oversample", "oversamplers.ros", attrs=_synthetic_attrs),
        Target(bench, "smote", "oversamplers.smote", attrs=_synthetic_attrs),
        Target(bench, "borderline_smote", "oversamplers.b-smote", attrs=_synthetic_attrs),
        Target(bench, "adasyn", "oversamplers.adasyn", attrs=_synthetic_attrs),
        Target(ovs.KNNIndex, "query", "oversamplers.knn"),
        Target(bench, "_train_gan_with_retry", "bench.gan_unit"),
        Target(gan, "train_cgan", "gan.cgan.train", attrs=_gan_attrs),
        Target(gan, "train_sdg_gan", "gan.sdg-gan.train", attrs=_gan_attrs),
        Target(gan, "feature_matching_loss", "gan.fm_loss"),
        Target(gan, "generate_minority", "gan.generate"),
        Target(nn, "forward", "nn.forward", attrs=_forward_attrs),
        Target(nn, "backward", "nn.backward", attrs=_backward_attrs),
        Target(nn, "adam_step", "nn.adam_step"),
        Target(bench, "train_classifier", "classifiers.fit", attrs=_fit_attrs),
        Target(bench, "predict_labels", "classifiers.predict"),
    ]


def layer_metrics(spans: list[Span], grid_s: float) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s, from one traced grid."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(spans)

    def total(name, attr=None):
        group = by_name.get(name, [])
        if attr is None:
            return sum(s.duration for s in group)
        return sum((s.attrs or {}).get(attr, 0) for s in group)

    def count(name):
        return len(by_name.get(name, []))

    cell_s = [s.duration for s in by_name.get("bench.run_cell", [])]
    tail = tail_percentile(cell_s)
    grids = by_name.get("bench.run_benchmark", [])
    grid_self = sum(own[s.id] for s in grids)
    grid_span = sum(s.duration for s in grids)
    trainings = by_name.get("gan.cgan.train", []) + by_name.get("gan.sdg-gan.train", [])
    units = {(s.cell[0], s.cell[1], s.cell[3]) for s in trainings if s.cell is not None}
    steps = sum(s.attrs["steps"] for s in trainings if s.attrs and "steps" in s.attrs)
    train_s = sum(s.duration for s in trainings)
    fits = by_name.get("classifiers.fit", [])

    def fit_total(kind, attr=None):
        chosen = [s for s in fits if s.attrs and s.attrs.get("kind") == kind]
        if attr is None:
            return sum(s.duration for s in chosen)
        return sum(s.attrs.get(attr, 0) for s in chosen)

    m = {
        "bench.cells": len(cell_s),
        "bench.cell_s.p50": _order_stat(cell_s, 50),
        "bench.cell_s.tail": tail[1] if tail else max(cell_s, default=0.0),
        "bench.cell_s.tail_pct": tail[0] if tail else 100,
        "bench.self_s": grid_self,
        "bench.self_share": grid_self / grid_span if grid_span else 0.0,
        "bench.overlap": sum(cell_s) / grid_s if grid_s else 0.0,
        "data.load_csv_s": total("data.load_csv"),
        "data.split_s": total("data.split"),
        "data.scale_s": total("data.scale"),
        "oversamplers.ros_s": total("oversamplers.ros"),
        "oversamplers.smote_s": total("oversamplers.smote"),
        "oversamplers.b-smote_s": total("oversamplers.b-smote"),
        "oversamplers.adasyn_s": total("oversamplers.adasyn"),
        "oversamplers.knn.queries": count("oversamplers.knn"),
        "oversamplers.knn_s": total("oversamplers.knn"),
        "oversamplers.synthetic_rows": sum(
            total(n, "rows")
            for n in ("oversamplers.ros", "oversamplers.smote", "oversamplers.b-smote", "oversamplers.adasyn")
        ),
        "gan.cgan.train_s": total("gan.cgan.train"),
        "gan.sdg-gan.train_s": total("gan.sdg-gan.train"),
        "gan.trainings": len(trainings),
        "gan.retries": len(trainings) - count("bench.gan_unit"),
        "gan.useful_ratio": len(units) / len(trainings) if trainings else 0.0,
        "gan.steps": steps,
        "gan.step_ms": 1000.0 * train_s / steps if steps else 0.0,
        "gan.fm_loss_s": total("gan.fm_loss"),
        "gan.generate_s": total("gan.generate"),
        "nn.forward.calls": count("nn.forward"),
        "nn.forward_s": total("nn.forward"),
        "nn.backward.calls": count("nn.backward"),
        "nn.backward_s": total("nn.backward"),
        "nn.adam_step.calls": count("nn.adam_step"),
        "nn.adam_step_s": total("nn.adam_step"),
        "nn.gflop": (total("nn.forward", "flop") + total("nn.backward", "flop")) / 1e9,
        "classifiers.logreg.fit_s": fit_total("logreg"),
        "classifiers.rf.fit_s": fit_total("rf"),
        "classifiers.gbt.fit_s": fit_total("gbt"),
        "classifiers.mlp.fit_s": fit_total("mlp"),
        "classifiers.rf.nodes": fit_total("rf", "nodes"),
        "classifiers.gbt.nodes": fit_total("gbt", "nodes"),
        "classifiers.predict_s": total("classifiers.predict"),
        "cli.emit_s": total("bench.emit_report"),
        "cli.self_s": sum(own[s.id] for s in by_name.get("cli.main", [])),
    }
    return m


def _order_stat(values: list[float], p: int) -> float:
    if not values:
        return 0.0
    xs = sorted(values)
    return xs[max(1, math.ceil(p * len(xs) / 100)) - 1]


def span_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.id]
    return table
