"""End-to-end benchmark grid on two synthetic datasets: every sampler times
every classifier, five seeded runs each, then the cross-dataset mean-rank
table. GAN epochs are dialed down so the whole demo stays in the minutes
range; raise runs to 10 and drop the gan_config override for the published
protocol.
"""

import os
import tempfile

from imbench import ExperimentConfig, TrainingConfig, emit_report, mean_rank, run_benchmark, save_csv
from imbench.bench import report_to_f1_table, synth_dataset

tmp = tempfile.mkdtemp(prefix="imbench-demo-")
paths = []
for name, sep, seed in (("easy", 0.35, 0), ("hard", 0.15, 1)):
    ds = synth_dataset(n_minority=80, n_majority=320, n_features=6, separation=sep, seed=seed)
    path = os.path.join(tmp, f"{name}.csv")
    save_csv(ds, path, label_column="y")
    paths.append((name, path, "y"))

config = ExperimentConfig(
    datasets=tuple(paths),
    samplers=("none", "ros", "smote", "b-smote", "adasyn", "cgan", "sdg-gan"),
    classifiers=("logreg", "rf", "gbt", "mlp"),
    runs=5,
    master_seed=42,
    gan_config=TrainingConfig(epochs=10),
)
report = run_benchmark(config)
print(f"cells: {len(report.cells)}, failures: {len(report.failures)}")

rank = mean_rank(report_to_f1_table(report))
print("\nmean rank by F1 (lower is better):")
for sampler in sorted(rank.overall, key=rank.overall.get):
    per_clf = "  ".join(f"{c}={rank.per_classifier[c][sampler]:.2f}" for c in sorted(rank.per_classifier))
    print(f"  {sampler:8s} overall={rank.overall[sampler]:.2f}  {per_clf}")

written = emit_report(report, rank, tmp, fmt="markdown")
written += emit_report(report, rank, tmp, fmt="csv")
print("\nreports:")
for p in written:
    print(f"  {p}")
