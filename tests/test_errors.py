import numpy as np
import pytest

from imbench import nn
from imbench.bench import ExperimentConfig, run_benchmark, synth_dataset
from imbench.classifiers import (
    ForestSpec,
    GBTSpec,
    LogRegSpec,
    MLPSpec,
    train_gbt,
    train_logreg,
    train_mlp_classifier,
    train_random_forest,
)
from imbench.errors import ConfigInvalidError, at_least
from imbench.gan import TrainingConfig, generate_minority, train_cgan
from imbench.oversamplers import KNNIndex, borderline_smote, smote


def table():
    return synth_dataset(8, 20, 2, 0.3, seed=0)


# every caller of at_least, each with the first setting below its bound
BOUND_SITES = {
    "runs": (lambda: ExperimentConfig(datasets=(("d", "d.csv", "y"),), runs=0).validate(),
             "runs must be >= 1, got 0"),
    "workers": (lambda: run_benchmark(ExperimentConfig(datasets=(("d", "d.csv", "y"),)), max_workers=0),
                "workers must be >= 1, got 0"),
    "synth-minority": (lambda: synth_dataset(0, 5, 2, 0.3), "n_minority must be >= 1, got 0"),
    "synth-majority": (lambda: synth_dataset(5, -1, 2, 0.3), "n_majority must be >= 1, got -1"),
    "synth-features": (lambda: synth_dataset(5, 5, 0, 0.3), "n_features must be >= 1, got 0"),
    "gan-epochs": (lambda: TrainingConfig(epochs=-1).validate(), "epochs must be >= 0, got -1"),
    "gan-batch": (lambda: TrainingConfig(batch_size=0).validate(), "batch_size must be >= 1, got 0"),
    "gan-noise": (lambda: TrainingConfig(noise_dim=0).validate(), "noise_dim must be >= 1, got 0"),
    "gan-n": (lambda: generate_minority(train_cgan(table(), TrainingConfig(epochs=0)), 0),
              "n must be >= 1, got 0"),
    "knn-k": (lambda: KNNIndex(np.eye(2)).query(np.zeros(2), 0), "k must be >= 1, got 0"),
    "smote-k": (lambda: smote(table(), k=0), "k must be >= 1, got 0"),
    "b-smote-m": (lambda: borderline_smote(table(), m=0), "m must be >= 1, got 0"),
    "fan-in": (lambda: nn.init_network([(0, 2)], ["relu"]), "fan_in must be >= 1, got 0"),
    "fan-out": (lambda: nn.init_network([(2, 0)], ["relu"]), "fan_out must be >= 1, got 0"),
    "logreg-iterations": (lambda: train_logreg(table(), LogRegSpec(iterations=-1)),
                          "iterations must be >= 0, got -1"),
    "rf-n_trees": (lambda: train_random_forest(table(), ForestSpec(n_trees=0, max_depth=-1)),
                   "n_trees must be >= 1, got 0"),
    "rf-max_depth": (lambda: train_random_forest(table(), ForestSpec(max_depth=-1)),
                     "max_depth must be >= 0, got -1"),
    "gbt-rounds": (lambda: train_gbt(table(), GBTSpec(rounds=-1, l2=-1.0)), "rounds must be >= 0, got -1"),
    "gbt-l2": (lambda: train_gbt(table(), GBTSpec(l2=-1.0, max_depth=-1)), "l2 must be >= 0, got -1.0"),
    "gbt-max_depth": (lambda: train_gbt(table(), GBTSpec(max_depth=-1)), "max_depth must be >= 0, got -1"),
    "mlp-epochs": (lambda: train_mlp_classifier(table(), MLPSpec(epochs=-1, batch_size=0)),
                   "epochs must be >= 0, got -1"),
    "mlp-batch_size": (lambda: train_mlp_classifier(table(), MLPSpec(batch_size=0)),
                       "batch_size must be >= 1, got 0"),
}


@pytest.mark.parametrize("site", BOUND_SITES)
def test_every_bound_raises_config_invalid_naming_the_value(site):
    call, message = BOUND_SITES[site]
    with pytest.raises(ConfigInvalidError) as err:
        call()
    assert str(err.value) == message


def test_at_least_names_the_first_value_below_and_skips_none():
    at_least(0, a=0, b=None, c=2.5)
    with pytest.raises(ConfigInvalidError, match="^b must be >= 1, got 0$"):
        at_least(1, a=None, b=0, c=-3)
