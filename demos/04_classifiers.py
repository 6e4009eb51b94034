"""Fit the four downstream classifiers on one oversampled training set and
score them on a held-out split with minority-positive metrics."""

from imbench import (
    ForestSpec,
    GBTSpec,
    LogRegSpec,
    MLPSpec,
    compute_metrics,
    minmax_fit,
    minmax_transform,
    predict_labels,
    smote,
    stratified_split,
    train_classifier,
)
from imbench.bench import synth_dataset

ds = synth_dataset(n_minority=120, n_majority=480, n_features=6, separation=0.22, seed=1)
split = stratified_split(ds, test_fraction=0.2, seed=4)
scaler = minmax_fit(split.train)
train_s = minmax_transform(scaler, split.train)
test_s = minmax_transform(scaler, split.test)
balanced = smote(train_s, seed=9).data

specs = [
    ("logreg", LogRegSpec()),
    ("random forest", ForestSpec(seed=0)),
    ("gbt", GBTSpec()),
    ("mlp", MLPSpec(epochs=50, seed=0)),
]
print(f"{'classifier':14s} {'recall':>7s} {'precision':>10s} {'f1':>7s}")
for name, spec in specs:
    model = train_classifier(balanced, spec)
    pred = predict_labels(model, test_s.features)
    r, p, f1 = compute_metrics(test_s.labels, pred)
    print(f"{name:14s} {r:7.3f} {p:10.3f} {f1:7.3f}")
