"""Walk through the data layer: CSV ingestion, min-max scaling fitted on the
training split only, stratified splitting, and imbalance accounting."""

import os
import tempfile

import numpy as np

from imbench import (
    imbalance_stats,
    load_csv,
    minmax_fit,
    minmax_transform,
    save_csv,
    stratified_split,
    synth_dataset,
)

# fabricate an imbalanced CSV so the demo is self-contained
ds = synth_dataset(n_minority=60, n_majority=240, n_features=5, separation=0.3, seed=7)
path = os.path.join(tempfile.gettempdir(), "demo_imbalanced.csv")
save_csv(ds, path, label_column="label")
print(f"wrote {path}")

loaded, mapping = load_csv(path, "label")
print(f"loaded {loaded.n_rows} rows x {loaded.n_features} features")
print(f"label mapping (raw -> internal): {mapping}")

stats = imbalance_stats(loaded)
print(f"minority={stats.n_minority} majority={stats.n_majority} IR=1:{stats.ratio:.2f}")

split = stratified_split(loaded, test_fraction=0.2, seed=0)
for side, d in (("train", split.train), ("test", split.test)):
    s = imbalance_stats(d)
    print(f"{side}: {d.n_rows} rows, minority {s.n_minority} ({s.n_minority / d.n_rows:.1%})")

# scaler params come from the training split only; test rows may exceed [0,1]
scaler = minmax_fit(split.train)
train_s = minmax_transform(scaler, split.train)
test_s = minmax_transform(scaler, split.test)
print(f"train scaled range: [{train_s.features.min():.3f}, {train_s.features.max():.3f}]")
print(f"test scaled range:  [{test_s.features.min():.3f}, {test_s.features.max():.3f}] (unclamped)")
