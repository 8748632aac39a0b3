"""Every config dataclass is valid by construction: a bad value is refused
when the config is built, and again when ``dataclasses.replace`` sets it.
A value of the wrong JSON kind is refused before any range check."""

import dataclasses

import numpy as np
import pytest

from emn.adaptation import AdaptationConfig
from emn.dataio import SynthConfig, load_model, save_model, synth_shifted_blobs
from emn.errors import ConfigError
from emn.harness import BenchConfig, train_supervised
from emn.inference import build_model
from emn.memory import MAX_ROUNDS, HyperParams
from emn.topology import TopologyConfig

# (config class, valid keyword arguments, one bad value, error raised)
CASES = [
    (HyperParams, {}, {"beta": 1.0}, ConfigError),
    (HyperParams, {}, {"beta": -0.1}, ConfigError),
    (HyperParams, {}, {"sigma1": 0.0}, ConfigError),
    (HyperParams, {}, {"sigma1": float("nan")}, ConfigError),
    (HyperParams, {}, {"sigma1": float("inf")}, ConfigError),
    (HyperParams, {}, {"batch_size": 0}, ConfigError),
    (HyperParams, {}, {"rounds": 0}, ConfigError),
    (HyperParams, {}, {"rounds": MAX_ROUNDS + 1}, ConfigError),
    (HyperParams, {}, {"batch_divisor": "x"}, ConfigError),
    (TopologyConfig, {"feature_dim": 4}, {"feature_dim": 0}, ConfigError),
    (TopologyConfig, {"feature_dim": 4}, {"hub_count": 0}, ConfigError),
    (TopologyConfig, {"feature_dim": 4}, {"bridging_count": -1}, ConfigError),
    (TopologyConfig, {"feature_dim": 4}, {"bridging_in_degree": 0}, ConfigError),
    (TopologyConfig, {"feature_dim": 4}, {"bridging_in_degree": 104}, ConfigError),
    (TopologyConfig, {"feature_dim": 4}, {"seed": -1}, ConfigError),
    (TopologyConfig, {"feature_dim": 4}, {"seed": 2**64}, ConfigError),
    (AdaptationConfig, {}, {"epochs": 0}, ConfigError),
    (AdaptationConfig, {}, {"shuffle_seed": -1}, ConfigError),
    (BenchConfig, {}, {"repetitions": 0}, ConfigError),
    (BenchConfig, {}, {"shuffle_seed": -1}, ConfigError),
    (SynthConfig, {}, {"class_count": 1}, ConfigError),
    (SynthConfig, {}, {"dim": 0}, ConfigError),
    (SynthConfig, {}, {"samples_per_class": 0}, ConfigError),
    (SynthConfig, {}, {"class_mean_scale": 0.0}, ConfigError),
    (SynthConfig, {}, {"within_class_spread": -1.0}, ConfigError),
    (SynthConfig, {}, {"shift_vector_norm": -1.0}, ConfigError),
    (SynthConfig, {}, {"seed": -1}, ConfigError),
    # Field kinds: each value below passes every range check.
    (HyperParams, {}, {"rounds": 2.0}, ConfigError),
    (HyperParams, {}, {"batch_size": True}, ConfigError),
    (HyperParams, {}, {"sigma1": True}, ConfigError),
    (HyperParams, {}, {"fuzzy_enabled": "no"}, ConfigError),
    (HyperParams, {}, {"batch_size": np.int64(8)}, ConfigError),
    (HyperParams, {}, {"confidence_enabled": np.bool_(True)}, ConfigError),
    (HyperParams, {}, {"beta": "0.5"}, ConfigError),
    (TopologyConfig, {"feature_dim": 4}, {"hub_count": 3.5}, ConfigError),
    (TopologyConfig, {"feature_dim": 4}, {"seed": True}, ConfigError),
    (TopologyConfig, {"feature_dim": 4}, {"seed": np.int64(3)}, ConfigError),
    (TopologyConfig, {"feature_dim": 4}, {"feature_dim": "4"}, ConfigError),
    (AdaptationConfig, {}, {"epochs": 2.5}, ConfigError),
    (AdaptationConfig, {}, {"epochs": True}, ConfigError),
    (AdaptationConfig, {}, {"shuffle_seed": np.int64(1)}, ConfigError),
    (BenchConfig, {}, {"repetitions": 1.5}, ConfigError),
    (BenchConfig, {}, {"repetitions": True}, ConfigError),
    (BenchConfig, {}, {"shuffle_seed": np.int64(2)}, ConfigError),
    (SynthConfig, {}, {"dim": 2.5}, ConfigError),
    (SynthConfig, {}, {"seed": True}, ConfigError),
    (SynthConfig, {}, {"class_mean_scale": True}, ConfigError),
    (SynthConfig, {}, {"samples_per_class": np.int64(5)}, ConfigError),
]
IDS = [f"{cls.__name__}-{next(iter(bad.items()))}" for cls, _, bad, _ in CASES]


@pytest.mark.parametrize("cls, valid, bad, error", CASES, ids=IDS)
def test_bad_value_is_refused_at_construction(cls, valid, bad, error):
    with pytest.raises(error):
        cls(**(valid | bad))


@pytest.mark.parametrize("cls, valid, bad, error", CASES, ids=IDS)
def test_bad_value_is_refused_by_replace(cls, valid, bad, error):
    config = cls(**valid)
    with pytest.raises(error):
        dataclasses.replace(config, **bad)


def test_sigma1_is_free_when_fuzzy_is_off():
    hyper = HyperParams(fuzzy_enabled=False, sigma1=0.0)
    with pytest.raises(ConfigError):
        dataclasses.replace(hyper, fuzzy_enabled=True)


@pytest.mark.parametrize("sigma1", [float("nan"), float("inf"), float("-inf")])
def test_sigma1_is_finite_even_when_fuzzy_is_off(sigma1):
    # A model document holds sigma1 whatever fuzzy says, as strict JSON.
    with pytest.raises(ConfigError):
        HyperParams(fuzzy_enabled=False, sigma1=sigma1)
    with pytest.raises(ConfigError):
        dataclasses.replace(HyperParams(fuzzy_enabled=False), sigma1=sigma1)


# Values of the right JSON kind that are not the field's own Python type:
# an integer stands for a float, and a float subclass is a float.
ACCEPTED = [
    (HyperParams, {}, {"beta": 0}),
    (HyperParams, {}, {"sigma1": np.float64(0.5)}),
    (SynthConfig, {}, {"class_mean_scale": 2}),
    (SynthConfig, {}, {"shift_vector_norm": np.float64(0.25)}),
]


@pytest.mark.parametrize(
    "cls, valid, value", ACCEPTED,
    ids=[f"{cls.__name__}-{next(iter(v.items()))}" for cls, _, v in ACCEPTED],
)
def test_value_of_the_fields_json_kind_is_accepted(cls, valid, value):
    config = cls(**(valid | value))
    assert dataclasses.replace(cls(**valid), **value) == config


def test_model_of_accepted_values_loads_back_with_equal_configs(tmp_path):
    hyper = HyperParams(beta=0, sigma1=np.float64(0.5))
    topo = TopologyConfig(4, 5, 5, 3)
    model = build_model(topo, 2, hyper)
    source, _ = synth_shifted_blobs(SynthConfig(class_count=2, dim=4, samples_per_class=10))
    train_supervised(model, source)
    save_model(model, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    assert (loaded.hyper, loaded.topology.config) == (hyper, topo)
    assert loaded.store.hyper == hyper
