"""Compare the four classic oversamplers on a 2-D toy problem and verify the
segment geometry of the interpolating ones from the synthesis log."""

import numpy as np

from imbench import adasyn, adasyn_plan, borderline_smote, imbalance_stats, random_oversample, smote
from imbench.bench import synth_dataset

train = synth_dataset(n_minority=25, n_majority=100, n_features=2, separation=0.25, seed=3)
print(f"train: {train.n_rows} rows, IR 1:{imbalance_stats(train).ratio:.2f}\n")

for name, sampler in (
    ("ros", random_oversample), ("smote", smote), ("b-smote", borderline_smote), ("adasyn", adasyn)
):
    aug = sampler(train, seed=11)
    stats = imbalance_stats(aug.data)
    synth = aug.data.features[aug.provenance]
    print(f"{name:8s} added {aug.n_synthetic:3d} rows -> IR 1:{stats.ratio:.2f}", end="")
    if aug.n_synthetic:
        print(f"  synth mean=({synth[:, 0].mean():.3f}, {synth[:, 1].mean():.3f})", end="")
    print()

# every SMOTE-family point lies between its logged source and neighbor
aug = smote(train, seed=11)
synth = aug.data.features[aug.provenance]
on_segment = 0
for row, (src, nbr) in zip(synth, aug.synthesis_log):
    a, b = train.features[src], train.features[nbr]
    d = b - a
    u = (row - a)[np.argmax(np.abs(d))] / d[np.argmax(np.abs(d))]
    on_segment += bool(-1e-9 <= u <= 1 + 1e-9 and np.allclose(row, a + u * d))
print(f"\nsmote synthetic points on their source-neighbor segment: {on_segment}/{len(synth)}")

# ADASYN concentrates synthesis where majority neighbors crowd a minority row
plan = adasyn_plan(train, k=5)
order = np.argsort(plan.counts)[::-1]
print(f"adasyn plan: total={plan.counts.sum()}, busiest rows get {plan.counts[order[:5]].tolist()}")
