import numpy as np
import pytest

from imbench.data import Dataset


@pytest.fixture
def make_dataset():
    def _make(features, labels, names=None):
        features = np.asarray(features, dtype=np.float64)
        if names is None:
            names = [f"f{i}" for i in range(features.shape[1])]
        return Dataset(features, np.asarray(labels), tuple(names))

    return _make
