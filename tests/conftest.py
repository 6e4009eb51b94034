import numpy as np
import pytest

from imbench.bench import _one_blas_thread
from imbench.data import Dataset


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run every test on one OpenBLAS thread, as a grid runs its cells: the
    trainers that tests call outside a grid would otherwise run OpenBLAS's
    default threads, which only burn CPU at these sizes."""
    with _one_blas_thread():
        yield


@pytest.fixture
def make_dataset():
    def _make(features, labels, names=None):
        features = np.asarray(features, dtype=np.float64)
        if names is None:
            names = [f"f{i}" for i in range(features.shape[1])]
        return Dataset(features, np.asarray(labels), tuple(names))

    return _make
