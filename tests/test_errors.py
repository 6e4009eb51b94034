import ast
from pathlib import Path

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

# the package's source, which the bound-site guard parses
SRC = Path(nn.__file__).parent


def table():
    return synth_dataset(8, 20, 2, 0.3, seed=0)


# every at_least call: the module and function it sits in, a call that
# reaches it with the given value, a value below the bound and its message
BOUND_SITES = {
    "runs": ("bench.ExperimentConfig.validate",
             lambda v: ExperimentConfig(datasets=(("d", "d.csv", "y"),), runs=v).validate(),
             0, "runs must be >= 1, got 0"),
    "workers": ("bench.run_benchmark",
                lambda v: run_benchmark(ExperimentConfig(datasets=(("d", "d.csv", "y"),)), max_workers=v),
                0, "workers must be >= 1, got 0"),
    "synth-minority": ("bench.synth_dataset", lambda v: synth_dataset(v, 5, 2, 0.3),
                       0, "n_minority must be >= 1, got 0"),
    "synth-majority": ("bench.synth_dataset", lambda v: synth_dataset(5, v, 2, 0.3),
                       -1, "n_majority must be >= 1, got -1"),
    "synth-features": ("bench.synth_dataset", lambda v: synth_dataset(5, 5, v, 0.3),
                       0, "n_features must be >= 1, got 0"),
    "gan-epochs": ("gan.TrainingConfig.validate", lambda v: TrainingConfig(epochs=v).validate(),
                   -1, "epochs must be >= 0, got -1"),
    "gan-batch": ("gan.TrainingConfig.validate", lambda v: TrainingConfig(batch_size=v).validate(),
                  0, "batch_size must be >= 1, got 0"),
    "gan-noise": ("gan.TrainingConfig.validate", lambda v: TrainingConfig(noise_dim=v).validate(),
                  0, "noise_dim must be >= 1, got 0"),
    "gan-n": ("gan.generate_minority",
              lambda v: generate_minority(train_cgan(table(), TrainingConfig(epochs=0)), v),
              0, "n must be >= 1, got 0"),
    "knn-k": ("oversamplers.KNNIndex.query", lambda v: KNNIndex(np.eye(2)).query(np.zeros(2), v),
              0, "k must be >= 1, got 0"),
    "smote-k": ("oversamplers._effective_k", lambda v: smote(table(), k=v), 0, "k must be >= 1, got 0"),
    "b-smote-m": ("oversamplers.borderline_smote", lambda v: borderline_smote(table(), m=v),
                  0, "m must be >= 1, got 0"),
    "fan-in": ("nn.init_network", lambda v: nn.init_network([(v, 2)], ["relu"]),
               0, "fan_in must be >= 1, got 0"),
    "fan-out": ("nn.init_network", lambda v: nn.init_network([(2, v)], ["relu"]),
                0, "fan_out must be >= 1, got 0"),
    "logreg-iterations": ("classifiers.train_logreg", lambda v: train_logreg(table(), LogRegSpec(iterations=v)),
                          -1, "iterations must be >= 0, got -1"),
    "rf-n_trees": ("classifiers.train_random_forest",
                   lambda v: train_random_forest(table(), ForestSpec(n_trees=v, max_depth=-1)),
                   0, "n_trees must be >= 1, got 0"),
    "rf-max_depth": ("classifiers.train_random_forest",
                     lambda v: train_random_forest(table(), ForestSpec(max_depth=v)),
                     -1, "max_depth must be >= 0, got -1"),
    "gbt-rounds": ("classifiers.train_gbt", lambda v: train_gbt(table(), GBTSpec(rounds=v, l2=-1.0)),
                   -1, "rounds must be >= 0, got -1"),
    "gbt-l2": ("classifiers.train_gbt", lambda v: train_gbt(table(), GBTSpec(l2=v, max_depth=-1)),
               -1.0, "l2 must be >= 0, got -1.0"),
    "gbt-max_depth": ("classifiers.train_gbt", lambda v: train_gbt(table(), GBTSpec(max_depth=v)),
                      -1, "max_depth must be >= 0, got -1"),
    "mlp-epochs": ("classifiers.train_mlp_classifier",
                   lambda v: train_mlp_classifier(table(), MLPSpec(epochs=v, batch_size=0)),
                   -1, "epochs must be >= 0, got -1"),
    "mlp-batch_size": ("classifiers.train_mlp_classifier",
                       lambda v: train_mlp_classifier(table(), MLPSpec(batch_size=v)),
                       0, "batch_size must be >= 1, got 0"),
}


@pytest.mark.parametrize("site", BOUND_SITES)
def test_every_bound_raises_config_invalid_naming_the_value(site):
    _, call, below, message = BOUND_SITES[site]
    with pytest.raises(ConfigInvalidError) as err:
        call(below)
    assert str(err.value) == message


# a forest's max_depth of None grows trees without a depth cap (the tree
# digests in test_classifiers pin those trees)
@pytest.mark.parametrize("site", [site for site in BOUND_SITES if site != "rf-max_depth"])
def test_every_bound_rejects_none(site):
    _, call, below, message = BOUND_SITES[site]
    with pytest.raises(ConfigInvalidError) as err:
        call(None)
    assert str(err.value) == message.removesuffix(f"got {below}") + "got None"


def test_at_least_names_the_first_value_below_or_none():
    at_least(0, a=0, c=2.5)
    for values, message in [
        ({"a": 1, "b": 0, "c": -3}, "b must be >= 1, got 0"),
        ({"a": None, "b": 0}, "a must be >= 1, got None"),
        ({"a": float("nan")}, "a must be >= 1, got nan"),
        ({"a": "2"}, "a must be >= 1, got 2"),
    ]:
        with pytest.raises(ConfigInvalidError) as err:
            at_least(1, **values)
        assert str(err.value) == message


def at_least_calls():
    """(module.function, keyword) for every keyword of every at_least call
    in the package, found by parsing its source."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and "at_least" in (getattr(child.func, "id", None),
                                                              getattr(child.func, "attr", None)):
                # a **mapping has keyword None, which no site can name
                calls.extend((".".join(scope), kw.arg) for kw in child.keywords)
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return calls


def test_every_at_least_keyword_has_a_bound_site():
    # one entry per (function, keyword) pair, so a new bounded setting
    # cannot skip its below-bound and None cases
    sites = [(where, message.split(" must be >= ")[0]) for where, _, _, message in BOUND_SITES.values()]
    assert sorted(at_least_calls()) == sorted(sites)
