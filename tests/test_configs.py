"""Every config dataclass is valid by construction: a bad value is refused
when the config is built, and again when ``dataclasses.replace`` sets it."""

import dataclasses

import pytest

from emn.adaptation import AdaptationConfig
from emn.dataio import SynthConfig
from emn.errors import ConfigError, UsageError
from emn.harness import BenchConfig
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
    (BenchConfig, {}, {"repetitions": 0}, UsageError),
    (BenchConfig, {}, {"shuffle_seed": -1}, UsageError),
    (SynthConfig, {}, {"class_count": 1}, ConfigError),
    (SynthConfig, {}, {"dim": 0}, ConfigError),
    (SynthConfig, {}, {"samples_per_class": 0}, ConfigError),
    (SynthConfig, {}, {"class_mean_scale": 0.0}, ConfigError),
    (SynthConfig, {}, {"within_class_spread": -1.0}, ConfigError),
    (SynthConfig, {}, {"shift_vector_norm": -1.0}, ConfigError),
    (SynthConfig, {}, {"seed": -1}, ConfigError),
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
