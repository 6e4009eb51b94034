import ast
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from imbench import nn
from imbench.bench import ExperimentConfig, run_benchmark, synth_dataset
from imbench.classifiers import ForestSpec, GBTSpec, LogRegSpec, MLPSpec
from imbench.data import stratified_split
from imbench.errors import ConfigInvalidError, at_least, in_range
from imbench.gan import TrainingConfig, generate_minority, train_cgan
from imbench.oversamplers import KNNIndex, borderline_smote, smote

# the package's source, which the bound-site guard parses
SRC = Path(nn.__file__).parent
# the settings types, each of which bounds its fields when it is made
SETTINGS = (LogRegSpec, ForestSpec, GBTSpec, MLPSpec, TrainingConfig, ExperimentConfig)
ONE_DATASET = (("d", "d.csv", "y"),)


def table():
    return synth_dataset(8, 20, 2, 0.3, seed=0)


# every at_least and in_range keyword: the module and function it sits in, a
# call that reaches it with the given value, a value out of range and its
# message; a settings type's sites sit in its __post_init__, so the call is
# the construction
BOUND_SITES = {
    "runs": ("bench.ExperimentConfig.__post_init__", lambda v: ExperimentConfig(datasets=ONE_DATASET, runs=v),
             0, "runs must be an integer >= 1, got 0"),
    "test_fraction": ("bench.ExperimentConfig.__post_init__",
                      lambda v: ExperimentConfig(datasets=ONE_DATASET, test_fraction=v),
                      -0.5, "test_fraction must be in (0,1), got -0.5"),
    "split-test_fraction": ("data.stratified_split", lambda v: stratified_split(table(), v, 0),
                            1.5, "test_fraction must be in (0,1), got 1.5"),
    "workers": ("bench.run_benchmark",
                lambda v: run_benchmark(ExperimentConfig(datasets=ONE_DATASET), max_workers=v),
                0, "workers must be an integer >= 1, got 0"),
    "synth-minority": ("bench.synth_dataset", lambda v: synth_dataset(v, 5, 2, 0.3),
                       0, "n_minority must be an integer >= 1, got 0"),
    "synth-majority": ("bench.synth_dataset", lambda v: synth_dataset(5, v, 2, 0.3),
                       -1, "n_majority must be an integer >= 1, got -1"),
    "synth-features": ("bench.synth_dataset", lambda v: synth_dataset(5, 5, v, 0.3),
                       0, "n_features must be an integer >= 1, got 0"),
    "gan-epochs": ("gan.TrainingConfig.__post_init__", lambda v: TrainingConfig(epochs=v),
                   -1, "epochs must be an integer >= 0, got -1"),
    "gan-n": ("gan.generate_minority",
              lambda v: generate_minority(train_cgan(table(), TrainingConfig(epochs=0)), v),
              0, "n must be an integer >= 1, got 0"),
    "knn-k": ("oversamplers.KNNIndex.query", lambda v: KNNIndex(np.eye(2)).query(np.zeros(2), v),
              0, "k must be an integer >= 1, got 0"),
    "smote-k": ("oversamplers._effective_k", lambda v: smote(table(), k=v), 0, "k must be an integer >= 1, got 0"),
    "b-smote-m": ("oversamplers.borderline_smote", lambda v: borderline_smote(table(), m=v),
                  0, "m must be an integer >= 1, got 0"),
    "fan-in": ("nn.init_network", lambda v: nn.init_network([(v, 2)], ["relu"]),
               0, "fan_in must be an integer >= 1, got 0"),
    "fan-out": ("nn.init_network", lambda v: nn.init_network([(2, v)], ["relu"]),
                0, "fan_out must be an integer >= 1, got 0"),
    "logreg-learning_rate": ("classifiers.LogRegSpec.__post_init__", lambda v: LogRegSpec(learning_rate=v),
                             -1.0, "learning_rate must be in (0,inf), got -1.0"),
    "logreg-iterations": ("classifiers.LogRegSpec.__post_init__", lambda v: LogRegSpec(iterations=v),
                          -1, "iterations must be an integer >= 0, got -1"),
    "rf-n_trees": ("classifiers.ForestSpec.__post_init__", lambda v: ForestSpec(n_trees=v, max_depth=-1),
                   0, "n_trees must be an integer >= 1, got 0"),
    "rf-max_depth": ("classifiers.ForestSpec.__post_init__", lambda v: ForestSpec(max_depth=v),
                     -1, "max_depth must be an integer >= 0, got -1"),
    "rf-seed": ("classifiers.ForestSpec.__post_init__", lambda v: ForestSpec(seed=v),
                -1, "seed must be an integer >= 0, got -1"),
    "gbt-rounds": ("classifiers.GBTSpec.__post_init__", lambda v: GBTSpec(rounds=v, max_depth=-1),
                   -1, "rounds must be an integer >= 0, got -1"),
    "gbt-l2": ("classifiers.GBTSpec.__post_init__", lambda v: GBTSpec(l2=v, learning_rate=-1.0),
               -1.0, "l2 must be in (0,inf), got -1.0"),
    "gbt-max_depth": ("classifiers.GBTSpec.__post_init__", lambda v: GBTSpec(max_depth=v),
                      -1, "max_depth must be an integer >= 0, got -1"),
    "gbt-learning_rate": ("classifiers.GBTSpec.__post_init__", lambda v: GBTSpec(learning_rate=v),
                          -1.0, "learning_rate must be in (0,inf), got -1.0"),
    "mlp-epochs": ("classifiers.MLPSpec.__post_init__", lambda v: MLPSpec(epochs=v, seed=-1),
                   -1, "epochs must be an integer >= 0, got -1"),
    "mlp-seed": ("classifiers.MLPSpec.__post_init__", lambda v: MLPSpec(seed=v),
                 -1, "seed must be an integer >= 0, got -1"),
}


def rejects(site, value):
    """Assert that the site's call with value raises its message, naming value."""
    _, call, below, message = BOUND_SITES[site]
    with pytest.raises(ConfigInvalidError) as err:
        call(value)
    assert str(err.value) == message.removesuffix(f"got {below}") + f"got {value}"


@pytest.mark.parametrize("site", BOUND_SITES)
def test_every_bound_raises_config_invalid_naming_the_value(site):
    rejects(site, BOUND_SITES[site][2])


@pytest.mark.parametrize("site", BOUND_SITES)
def test_every_bound_rejects_nan(site):
    rejects(site, float("nan"))


# a forest's max_depth of None grows trees without a depth cap (the tree
# digests in test_classifiers pin those trees)
@pytest.mark.parametrize("site", [site for site in BOUND_SITES if site != "rf-max_depth"])
def test_every_bound_rejects_none(site):
    rejects(site, None)


@pytest.mark.parametrize("site", [site for site, entry in BOUND_SITES.items() if " must be an integer >= " in entry[3]])
def test_every_integer_bound_rejects_a_fraction(site):
    rejects(site, 2.5)


# bool subclasses int, so operator.index(True) is 1
@pytest.mark.parametrize("site", [site for site, entry in BOUND_SITES.items() if " must be an integer >= " in entry[3]])
def test_every_integer_bound_rejects_a_bool(site):
    rejects(site, True)


@pytest.mark.parametrize("site", [site for site, entry in BOUND_SITES.items() if " must be in (" in entry[3]])
def test_every_open_range_rejects_its_ends_and_inf(site):
    low, high = re.search(r" must be in \((.+),(.+)\)", BOUND_SITES[site][3]).groups()
    for value in (float(low), float(high), float("inf")):
        rejects(site, value)


def test_at_least_names_the_first_value_below_or_none():
    at_least(0, a=0, c=np.int64(2))
    for values, message in [
        ({"a": 1, "b": 0, "c": -3}, "b must be an integer >= 1, got 0"),
        ({"a": None, "b": 0}, "a must be an integer >= 1, got None"),
        ({"a": float("nan")}, "a must be an integer >= 1, got nan"),
        ({"a": "2"}, "a must be an integer >= 1, got 2"),
        ({"a": 2.0}, "a must be an integer >= 1, got 2.0"),
        ({"a": np.float64(3.0)}, "a must be an integer >= 1, got 3.0"),
        # a tuple is one value, not a list of settings
        ({"widths": (4, 1)}, "widths must be an integer >= 1, got (4, 1)"),
    ]:
        with pytest.raises(ConfigInvalidError) as err:
            at_least(1, **values)
        assert str(err.value) == message


def test_in_range_names_the_first_value_outside_the_open_range():
    in_range(0, 1, a=0.5, b=1e-12)
    in_range(0, float("inf"), a=1e300)
    for values, message in [
        ({"a": 0.5, "b": 1}, "b must be in (0,1), got 1"),
        ({"a": 0}, "a must be in (0,1), got 0"),
        ({"a": -0.0}, "a must be in (0,1), got -0.0"),
        ({"a": float("nan")}, "a must be in (0,1), got nan"),
        ({"a": None}, "a must be in (0,1), got None"),
        ({"a": "0.5"}, "a must be in (0,1), got 0.5"),
    ]:
        with pytest.raises(ConfigInvalidError) as err:
            in_range(0, 1, **values)
        assert str(err.value) == message
    with pytest.raises(ConfigInvalidError, match=r"^a must be in \(0,inf\), got inf$"):
        in_range(0, float("inf"), a=float("inf"))


def bound_calls():
    """(module.function, keyword) for every keyword of every at_least and
    in_range call in the package, found by parsing its source."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and (getattr(func, "id", None) or getattr(func, "attr", None)) in ("at_least", "in_range"):
                # a **mapping has keyword None, which no site can name
                calls.extend((".".join(scope), kw.arg) for kw in child.keywords)
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return calls


def bound_sites():
    return [(where, message.split(" must be ")[0]) for where, _, _, message in BOUND_SITES.values()]


def test_every_at_least_keyword_has_a_bound_site():
    # one entry per (function, keyword) pair, so a new bounded setting
    # cannot skip its out-of-range, NaN and None cases
    assert sorted(bound_calls()) == sorted(bound_sites())


# ExperimentConfig.master_seed may be any int: stable_seed hashes its text
# into every cell seed, so no value is out of range
UNBOUNDED = {(ExperimentConfig, "master_seed")}


@pytest.mark.parametrize("kind", SETTINGS, ids=lambda kind: kind.__name__)
def test_every_numeric_field_of_a_settings_type_is_bounded_when_made(kind):
    # an int or float field needs a bound call in the type's __post_init__
    # and a site that reaches it
    where = f"{kind.__module__.removeprefix('imbench.')}.{kind.__name__}.__post_init__"
    numeric = [f.name for f in fields(kind)
               if re.search(r"\b(int|float)\b", f.type) and (kind, f.name) not in UNBOUNDED]
    assert numeric
    bounded = set(bound_calls()) & set(bound_sites())
    assert [name for name in numeric if (where, name) not in bounded] == []
