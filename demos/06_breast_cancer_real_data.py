"""Mini benchmark on the Breast Cancer Wisconsin (Diagnostic) dataset, one of
the real tables the oversamplers were originally evaluated on (569 rows, 30
features, IR ~1:1.68).

scikit-learn is used purely as a local copy of the data; if it is not
installed the demo falls back to synthetic data.
"""

import os
import tempfile

import numpy as np

from imbench import ExperimentConfig, TrainingConfig, mean_rank, run_benchmark, save_csv
from imbench.bench import report_to_f1_table, synth_dataset
from imbench.data import Dataset, imbalance_stats

try:
    from sklearn.datasets import load_breast_cancer

    raw = load_breast_cancer()
    # sklearn codes malignant as 0; flip so the rarer (malignant) class is 1
    labels = (raw.target == 0).astype(np.int64)
    ds = Dataset(raw.data, labels, tuple(raw.feature_names))
    name = "breast-cancer"
except ImportError:
    print("scikit-learn not installed; using a synthetic stand-in")
    ds = synth_dataset(210, 360, 30, separation=0.25, seed=0)
    name = "synthetic"

stats = imbalance_stats(ds)
print(f"{name}: {ds.n_rows} rows, {ds.n_features} features, IR 1:{stats.ratio:.2f}")

path = os.path.join(tempfile.gettempdir(), f"{name}.csv")
save_csv(ds, path, label_column="target")

config = ExperimentConfig(
    datasets=((name, path, "target"),),
    samplers=("none", "smote", "sdg-gan"),
    classifiers=("logreg", "rf"),
    runs=5,
    master_seed=7,
    gan_config=TrainingConfig(epochs=30),
)
report = run_benchmark(config)
print(f"\n{'sampler':8s} {'classifier':10s} {'recall':>7s} {'precision':>10s} {'f1':>7s}")
for (d, s, c) in sorted(report.cells):
    m = report.cells[(d, s, c)].mean
    print(f"{s:8s} {c:10s} {m['recall']:7.3f} {m['precision']:10.3f} {m['f1']:7.3f}")

rank = mean_rank(report_to_f1_table(report))
print("\noverall mean rank:", {s: round(r, 2) for s, r in sorted(rank.overall.items(), key=lambda kv: kv[1])})
