"""Random test tables shared by the test modules.

Not in conftest.py: once perfbench/tests, with its own conftest.py, is on
the test path, ``from conftest import ...`` may find that module instead.
"""

import numpy as np

from imbench.data import Dataset


def random_imbalanced(rng, n_min=None, n_maj=None, n_features=None):
    """Small random dataset with distinct-ish rows, minority labeled 1."""
    n_min = n_min or int(rng.integers(2, 8))
    n_maj = n_maj or int(rng.integers(n_min, n_min + 12))
    n_features = n_features or int(rng.integers(1, 5))
    feats = rng.random((n_min + n_maj, n_features))
    labels = np.concatenate([np.ones(n_min, dtype=np.int64), np.zeros(n_maj, dtype=np.int64)])
    order = rng.permutation(n_min + n_maj)
    return Dataset(feats[order], labels[order], tuple(f"f{i}" for i in range(n_features)))
