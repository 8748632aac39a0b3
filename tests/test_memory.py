import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from emn import adaptation, memory
from emn.dataio import FeatureDataset
from emn.errors import (
    ConfigError,
    DimensionError,
    IntegrityError,
    LabelRangeError,
    NonFiniteError,
    NotTrainedError,
)
from emn.harness import train_supervised
from emn.inference import EmnModel, batch_node_votes, build_model, predict
from emn.memory import (
    CONFIDENCE_FLOOR,
    MAX_CLASSES,
    HyperParams,
    MemoryStore,
    batched_updates,
    check_label_range,
    init_memory,
    integer_labels,
    log_likelihood,
    reinforced_update,
    sound,
    supervised_update,
)
from emn.topology import TopologyConfig
from oracles import fuzzy_likelihood, softmax

Q0 = 1.0 / (2.0 * math.sqrt(3.0))  # fuzzy_likelihood(0, 1, 1, 0)


def _node(mu, sigma, **hyper):
    """One-node model (one entrance feeding one hub) with the given memory."""
    model = build_model(TopologyConfig(1, 1, 0), len(mu), HyperParams(**hyper))
    model.store.mu[0] = mu
    model.store.sigma[0] = sigma
    model.store.initialized[:] = True
    return model


def _vote(model, m_hat):
    """Posterior, label and confidence of a one-node model's node."""
    posteriors, labels, confidences = batch_node_votes(model, np.array([[m_hat]]))
    return posteriors[0, 0], int(labels[0, 0]), float(confidences[0, 0])


class TestInit:
    def test_shapes_and_lifecycle(self):
        store = init_memory(100, 31)
        assert store.mu.shape == (100, 31)
        assert not store.initialized.any()
        with pytest.raises(NotTrainedError):
            batch_node_votes(build_model(TopologyConfig(1, 1, 0), 31), np.zeros((1, 1)))

    def test_zero_counts_rejected(self):
        with pytest.raises(ConfigError):
            init_memory(100, 0)
        with pytest.raises(ConfigError):
            init_memory(0, 3)

    def test_class_count_is_at_most_max_classes(self):
        assert init_memory(1, MAX_CLASSES).class_count == MAX_CLASSES
        with pytest.raises(ConfigError, match="class_count"):
            init_memory(2, MAX_CLASSES + 1)
        with pytest.raises(ConfigError, match="class_count"):
            init_memory(2, 2**63)

    @pytest.mark.parametrize(
        "shapes",
        [
            [(4, 2), (4, 3), (4, 2)],
            [(4, 2), (4, 2), (2, 4)],
            [(3, 2), (4, 2), (4, 2)],
            [(8,), (8,), (8,)],
            [(2, 2, 2), (2, 2, 2), (2, 2, 2)],
        ],
    )
    def test_store_arrays_share_one_2d_shape(self, shapes):
        mu, sigma, initialized = (np.ones(s) for s in shapes)
        with pytest.raises(DimensionError):
            MemoryStore(mu, sigma, initialized.astype(bool), HyperParams())

    def test_bad_hyper(self):
        with pytest.raises(ConfigError):
            init_memory(4, 2, HyperParams(beta=1.0))
        with pytest.raises(ConfigError):
            init_memory(4, 2, HyperParams(sigma1=0.0))


NON_INTEGER_LABELS = [
    np.array([0.9, 2.5]),
    np.array([0.0, np.nan]),
    np.array([0.0, np.inf]),
    np.array([0.0, 2.0**63]),
    np.array([True, False]),
    np.array(["1", "0"]),
    np.array([1, None], dtype=object),
    np.array([0, 2**63], dtype=np.uint64),
]
NON_INTEGER_IDS = [
    "fractions", "nan", "inf", "float 2**63", "bools", "strings", "objects", "uint64 2**63"
]


class TestSupervisedUpdate:
    def test_ema_fixture(self):
        # beta=0.9, prior mu=1, sigma=1, class batch {2.0, 2.0}
        store = init_memory(1, 1, HyperParams(beta=0.9))
        store.mu[:] = 1.0
        store.sigma[:] = 1.0
        store.initialized[:] = True
        supervised_update(store, np.array([[2.0], [2.0]]), np.array([0, 0]))
        assert store.mu[0, 0] == pytest.approx(1.1, abs=0)
        assert store.sigma[0, 0] == pytest.approx(0.99, abs=1e-15)

    def test_batch_at_current_mean_shrinks_sigma(self):
        store = init_memory(2, 1, HyperParams(beta=0.9))
        store.mu[:] = 3.0
        store.sigma[:] = 0.5
        store.initialized[:] = True
        supervised_update(store, np.full((4, 2), 3.0), np.zeros(4, dtype=int))
        assert np.all(store.mu == 3.0)
        assert np.all(store.sigma == 0.9 * 0.5)

    def test_absent_class_untouched(self):
        store = init_memory(1, 2, HyperParams(beta=0.9))
        store.mu[:] = 5.0
        store.sigma[:] = 2.0
        store.initialized[:] = True
        supervised_update(store, np.array([[1.0]]), np.array([0]))
        assert store.mu[0, 1] == 5.0
        assert store.sigma[0, 1] == 2.0

    def test_first_update_bypasses_ema(self):
        store = init_memory(1, 1, HyperParams(beta=0.9))
        supervised_update(store, np.array([[1.0], [3.0]]), np.array([0, 0]))
        assert store.mu[0, 0] == 2.0
        assert store.sigma[0, 0] == 1.0  # mean |{1,3} - 2|
        assert store.initialized[0, 0]

    def test_label_and_dimension_errors(self):
        store = init_memory(2, 2)
        with pytest.raises(LabelRangeError):
            supervised_update(store, np.zeros((1, 2)), np.array([2]))
        with pytest.raises(DimensionError):
            supervised_update(store, np.zeros((1, 3)), np.array([0]))
        with pytest.raises(DimensionError, match="align"):
            supervised_update(store, np.zeros((2, 2)), np.array([0]))
        assert not store.initialized.any()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_permutation_invariant_within_batch(self, seed):
        rng = np.random.default_rng(seed)
        signals = rng.normal(size=(8, 3)) ** 2
        labels = rng.integers(0, 2, size=8)
        perm = rng.permutation(8)
        a = init_memory(3, 2)
        b = init_memory(3, 2)
        supervised_update(a, signals, labels)
        supervised_update(b, signals[perm], labels[perm])
        np.testing.assert_allclose(a.mu, b.mu, rtol=1e-12)
        np.testing.assert_allclose(a.sigma, b.sigma, rtol=1e-12)

    def test_sigma_never_negative(self):
        rng = np.random.default_rng(3)
        store = init_memory(4, 3)
        for _ in range(50):
            signals = np.abs(rng.normal(size=(6, 4))) * rng.uniform(0.1, 10)
            labels = rng.integers(0, 3, size=6)
            supervised_update(store, signals, labels)
            assert np.all(store.sigma >= 0.0)

    @pytest.mark.parametrize("update", [supervised_update, reinforced_update])
    @pytest.mark.parametrize("labels", NON_INTEGER_LABELS, ids=NON_INTEGER_IDS)
    def test_non_integer_labels_are_refused(self, update, labels):
        # A truncating cast would train classes 0 and 2 on [0.9, 2.5].
        store = init_memory(2, 3)
        store.mu[:], store.sigma[:], store.initialized[:] = 1.0, 1.0, True
        before = _store_bytes(store)
        with pytest.raises(LabelRangeError, match="integers"):
            update(store, np.ones((2, 2)), labels)
        assert _store_bytes(store) == before


class TestLabelRule:
    @pytest.mark.parametrize(
        "values, want",
        [
            ([0.0, 2.0], [0, 2]),
            ([], []),
            (np.array([3, 1], dtype=np.uint8), [3, 1]),
            (np.array([2**63 - 1], dtype=np.uint64), [2**63 - 1]),
            (np.array([-(2.0**63), 7.0], dtype=np.float32), [-(2**63), 7]),
            (np.array([5, 0], dtype=np.int32), [5, 0]),
        ],
    )
    def test_integer_labels_accepts_integral_values(self, values, want):
        labels = integer_labels(values)
        assert labels.dtype == np.int64
        assert labels.tolist() == want

    def test_int64_labels_are_not_copied(self):
        labels = np.array([0, 1], dtype=np.int64)
        assert integer_labels(labels) is labels

    @pytest.mark.parametrize("labels", NON_INTEGER_LABELS, ids=NON_INTEGER_IDS)
    def test_integer_labels_refuses_other_values(self, labels):
        with pytest.raises(LabelRangeError, match="labels must be integers"):
            integer_labels(labels)

    @pytest.mark.parametrize("labels", [[-1, 0], [0, 3], [2**62]])
    def test_labels_outside_zero_to_class_count_are_refused(self, labels):
        with pytest.raises(LabelRangeError, match="non-negative and below 3"):
            check_label_range(np.array(labels), 3)


def _store_bytes(store):
    return store.mu.tobytes(), store.sigma.tobytes(), store.initialized.tobytes()


class TestSoundStore:
    """``memory.sound`` is checked when a store is built and before an
    update writes it."""

    @pytest.mark.parametrize(
        "mu, sigma, fuzzy",
        [
            (np.nan, 1.0, True),
            (np.inf, 1.0, False),
            (1.0, np.inf, True),
            (1.0, np.nan, False),
            (1.0, -1.0, True),
            (1.0, -1.0, False),
            (1.0, 1e308, True),  # 2 * sigma overflows the blurred scale
        ],
    )
    def test_unsound_store_is_refused_when_built(self, mu, sigma, fuzzy):
        hyper = HyperParams(fuzzy_enabled=fuzzy)
        mus, sigmas = np.zeros((2, 3)), np.ones((2, 3))
        mus[1, 2], sigmas[1, 2] = mu, sigma
        assert not sound(hyper, mus, sigmas)
        with pytest.raises(ConfigError, match="memory"):
            MemoryStore(mus, sigmas, np.ones((2, 3), dtype=bool), hyper)

    def test_fresh_copied_and_huge_stores_build(self):
        store = init_memory(4, 3)
        assert _store_bytes(store.copy()) == _store_bytes(store)
        # The plain density's scale is 2 * sigma: 1e308 scores finitely.
        MemoryStore(
            np.zeros((2, 2)), np.full((2, 2), 1e308), np.ones((2, 2), dtype=bool),
            HyperParams(fuzzy_enabled=False),
        )
        # Each pair scores its own mu finitely, so mu at 1e300 builds; its
        # square overflows retrieval, which names the model at predict.
        topology = build_model(TopologyConfig(2, 2, 2, 3), 2).topology
        hyper = HyperParams()
        store = MemoryStore(
            np.full((4, 2), 1e300), np.ones((4, 2)), np.ones((4, 2), dtype=bool), hyper
        )
        model = EmnModel(topology, store, 2, hyper)
        with pytest.raises(IntegrityError, match="mu too large"):
            predict(model, np.zeros(2))

    def test_overflowing_supervised_update_writes_nothing(self):
        # Class 0 is trained, class 1 not: a written batch would move both.
        store = init_memory(2, 2, HyperParams(beta=0.9))
        store.mu[:, 0], store.sigma[:, 0], store.initialized[:, 0] = 1.0, 1.0, True
        before = _store_bytes(store)
        signals = np.array([[1e308, 1e308], [1e308, 1.0], [2.0, 2.0]])
        with pytest.raises(NonFiniteError, match="NaN or infinite"):
            supervised_update(store, signals, np.array([1, 1, 0]))
        assert _store_bytes(store) == before

    @pytest.mark.parametrize("divisor", ["class", "batch"])
    def test_overflowing_reinforced_update_writes_nothing(self, divisor):
        hyper = HyperParams(confidence_enabled=False, batch_divisor=divisor)
        store = init_memory(2, 2, hyper)
        store.mu[:], store.sigma[:], store.initialized[:] = 1.0, 1.0, True
        before = _store_bytes(store)
        signals = np.array([[1e308, 1e308], [1e308, 1.0], [2.0, 2.0]])
        with pytest.raises(NonFiniteError, match="NaN or infinite"):
            reinforced_update(store, signals, np.array([0, 0, 1]))
        assert _store_bytes(store) == before

    def test_update_whose_sigma_overflows_the_scale_writes_nothing(self):
        # The new mu (0) and sigma (5e307) are finite; 2 * sigma + sigma1 is not.
        store = init_memory(1, 1, HyperParams(sigma1=1e308))
        signals = np.array([[5e307], [-5e307]])
        with pytest.raises(NonFiniteError):
            supervised_update(store, signals, np.array([0, 0]))
        assert not store.initialized.any()
        store.hyper = HyperParams(sigma1=1.0)
        supervised_update(store, signals, np.array([0, 0]))
        assert store.sigma[0, 0] == 5e307

    def test_batches_before_an_overflowing_one_stay_applied(self):
        # Batch size 2; the shuffled order puts an overflowing pair second.
        order = np.random.default_rng(5).permutation(6)
        signals, labels = np.ones((6, 1)), np.zeros(6, dtype=np.int64)
        signals[order[:2]] = [[2.0], [4.0]]
        signals[order[2:4]] = 1e308
        store = init_memory(1, 1, HyperParams(batch_size=2))
        with pytest.raises(NonFiniteError):
            batched_updates(supervised_update, store, signals, labels, seed=5)
        first = init_memory(1, 1, HyperParams(batch_size=2))
        supervised_update(first, signals[order[:2]], labels[:2])
        assert _store_bytes(store) == _store_bytes(first)
        assert store.mu[0, 0] == 3.0

    def test_train_supervised_on_overflowing_rows_is_a_data_error(self):
        X = np.array([[1e307, 1e307], [-1e307, 1e307]] * 8)
        model = build_model(TopologyConfig(2), 2)
        before = _store_bytes(model.store)
        with pytest.raises(NonFiniteError, match="NaN or infinite"):
            train_supervised(model, FeatureDataset(X, np.array([0, 1] * 8)))
        assert _store_bytes(model.store) == before


class TestFuzzyLikelihood:
    def test_fixture_at_mean(self):
        assert fuzzy_likelihood(0.0, 1.0, 1.0, 0.0) == pytest.approx(Q0, abs=1e-12)
        assert Q0 == pytest.approx(0.2886751, abs=5e-8)

    def test_fixture_off_mean(self):
        expected = Q0 * math.exp(-1.0 / 3.0)
        assert fuzzy_likelihood(0.0, 1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.2068448, abs=5e-8)

    def test_maximum_at_mean_bounded_by_half(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            mu = rng.normal() * 5
            sigma = abs(rng.normal())
            sigma1 = rng.uniform(0.01, 5)
            peak = fuzzy_likelihood(mu, sigma, sigma1, mu)
            assert peak == pytest.approx(
                math.sqrt(sigma1) / (2 * math.sqrt(2 * sigma + sigma1)), rel=1e-12
            )
            assert peak <= 0.5
            assert fuzzy_likelihood(mu, sigma, sigma1, mu + 1.0) < peak

    def test_strictly_decreasing_in_distance(self):
        d = np.linspace(0, 10, 50)
        q = fuzzy_likelihood(0.0, 0.7, 1.3, d)
        assert np.all(np.diff(q) < 0)
        assert np.all(q > 0)

    def test_sigma1_must_be_positive(self):
        with pytest.raises(ConfigError):
            fuzzy_likelihood(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ConfigError):
            log_likelihood(HyperParams(sigma1=-1.0), 0.0, 1.0, 0.0)


class TestLogFuzzyLikelihood:
    def test_fixture(self):
        got = log_likelihood(HyperParams(sigma1=1.0), 0.0, 1.0, 0.0)
        assert got == pytest.approx(math.log(Q0), abs=1e-10)

    def test_agrees_with_linear_form(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            mu = rng.normal() * 3
            sigma = abs(rng.normal())
            sigma1 = rng.uniform(0.05, 4)
            m = rng.normal() * 3
            q = fuzzy_likelihood(mu, sigma, sigma1, m)
            if q > 0:
                got = log_likelihood(HyperParams(sigma1=sigma1), mu, sigma, m)
                assert math.exp(got) == pytest.approx(q, rel=1e-12)

    def test_stable_where_linear_form_underflows(self):
        assert fuzzy_likelihood(0.0, 1.0, 1.0, 100.0) == 0.0
        got = log_likelihood(HyperParams(sigma1=1.0), 0.0, 1.0, 100.0)
        assert math.isfinite(got)
        assert got == pytest.approx(math.log(Q0) - 10000.0 / 3.0, rel=1e-12)


def _formula(hyper, mu, sigma, m_hat):
    """The class log likelihood written out as allocating numpy expressions."""
    mu, sigma, m_hat = (np.asarray(a, dtype=np.float64) for a in (mu, sigma, m_hat))
    if hyper.fuzzy_enabled:
        denom = 2.0 * sigma + hyper.sigma1
        offset = 0.5 * np.log(hyper.sigma1) - np.log(2.0) - 0.5 * np.log(denom)
        return offset - (m_hat - mu) ** 2 / denom
    sigma = np.maximum(sigma, CONFIDENCE_FLOOR)
    return -0.5 * (np.log(2.0 * np.pi) + np.log(sigma)) - (m_hat - mu) ** 2 / (
        2.0 * sigma
    )


SPECIAL = [0.0, -0.0, 1.5, -2.0, 1e300, -1e300, np.inf, -np.inf, np.nan, 5e-324]


class TestLogLikelihood:
    @pytest.mark.parametrize("fuzzy", [True, False])
    def test_matches_formula_bit_for_bit(self, fuzzy):
        hyper = HyperParams(sigma1=0.7, fuzzy_enabled=fuzzy)
        rng = np.random.default_rng(5)
        values = np.array(SPECIAL)
        spreads = np.array([0.0, -0.0, 0.3, 1e300, np.inf, np.nan, 5e-324])
        mu = np.concatenate([values, rng.normal(size=6)])[:, None, None]
        sigma = np.concatenate([spreads, np.abs(rng.normal(size=4))])[None, :, None]
        m_hat = np.concatenate([values, rng.normal(size=6)])[None, None, :]
        with np.errstate(all="ignore"):
            got = log_likelihood(hyper, mu, sigma, m_hat)
            want = _formula(hyper, mu, sigma, m_hat)
        assert got.shape == (16, 11, 16)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fuzzy", [True, False])
    def test_zero_d_inputs_give_a_float(self, fuzzy):
        hyper = HyperParams(fuzzy_enabled=fuzzy)
        got = log_likelihood(hyper, np.float64(0.5), 0.0, 1)
        assert type(got) is float
        assert got == float(_formula(hyper, 0.5, 0.0, 1))

    def test_broadcasts_when_sigma_has_the_largest_shape(self):
        hyper = HyperParams(sigma1=1.3)
        sigma = np.linspace(0.0, 2.0, 12).reshape(3, 4)
        m_hat = np.array([1.0, -1.0, 0.0, 2.0])
        got = log_likelihood(hyper, 0.25, sigma, m_hat)
        assert got.shape == (3, 4)
        assert got.tobytes() == _formula(hyper, 0.25, sigma, m_hat).tobytes()


def test_reinforced_update_has_one_home():
    assert adaptation.reinforced_update is memory.reinforced_update


def test_zero_row_reinforced_update_leaves_the_store_bit_identical():
    store = init_memory(3, 2)
    store.mu[:] = [[1.0, -0.0], [2.5, 3.0], [-4.0, 0.5]]
    store.sigma[:] = [[0.5, 0.0], [1.0, 2.0], [0.25, 3.0]]
    store.initialized[:] = True
    before = store.copy()
    memory.reinforced_update(store, np.empty((0, 3)), np.empty(0, dtype=np.int64))
    for got, want in ((store.mu, before.mu), (store.sigma, before.sigma)):
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(store.initialized, before.initialized)


class TestNodePosterior:
    def test_identical_classes_give_uniform(self):
        posterior, _, _ = _vote(_node([2.0, 2.0, 2.0], [0.5, 0.5, 0.5]), 1.0)
        np.testing.assert_allclose(posterior, np.full(3, 1 / 3), rtol=1e-12)

    def test_softmax_fixture(self):
        p = softmax(np.array([-1.0, -2.0]))
        e = math.e
        np.testing.assert_allclose(p, [e / (e + 1), 1 / (e + 1)], rtol=1e-12)

    def test_ratio_fixture(self):
        # two classes with likelihoods (0.3, 0.1) -> (0.75, 0.25)
        p = softmax(np.log(np.array([0.3, 0.1])))
        np.testing.assert_allclose(p, [0.75, 0.25], rtol=1e-12)

    def test_leaves_input_untouched(self):
        logs = np.array([[-1.0, -2.0, 0.5], [3.0, 3.0, -7.0]])
        before = logs.copy()
        p = softmax(logs, axis=1)
        assert np.array_equal(logs, before)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            logs = rng.normal(size=4) * 50
            p = softmax(logs)
            assert abs(p.sum() - 1.0) < 1e-12
            np.testing.assert_allclose(p, softmax(logs + 123.4), rtol=1e-9)

    def test_requires_initialization(self):
        model = build_model(TopologyConfig(1, 1, 0), 2)
        model.store.initialized[0, 0] = True
        with pytest.raises(NotTrainedError):
            batch_node_votes(model, np.zeros((1, 1)))

    def test_plain_density_when_fuzzy_disabled(self):
        p, _, _ = _vote(_node([0.0, 4.0], [1.0, 1.0], fuzzy_enabled=False), 0.0)
        # class 0 log density -0.5 ln(2 pi); class 1 adds -16/2
        expected = softmax(np.array([0.0, -8.0]))
        np.testing.assert_allclose(p, expected, rtol=1e-12)


class TestNodePrediction:
    def test_argmax_and_confidence(self):
        _, k, c = _vote(_node([0.0, 3.0], [1.0, 1.0]), 0.0)
        assert k == 0
        assert c == pytest.approx(fuzzy_likelihood(0.0, 1.0, 1.0, 0.0), rel=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        _, k, _ = _vote(_node([1.0, 1.0], [0.5, 0.5]), 7.0)
        assert k == 0

    def test_confidence_floored_not_zero(self):
        _, k, c = _vote(_node([0.0, 1.0], [0.1, 0.1]), 1e6)
        assert c == CONFIDENCE_FLOOR
        assert c > 0.0


class TestBlurConsistency:
    def test_argmax_converges_to_plain_density_argmax(self):
        # as sigma1 -> 0+ the fuzzy posterior argmax matches the plain one
        cases = [
            ([0.0, 2.0], [0.5, 1.5], 1.3),
            ([1.0, -1.0], [0.2, 0.4], 0.4),
            ([0.0, 5.0, 2.0], [1.0, 0.3, 0.6], 2.4),
            ([3.0, 0.5], [2.0, 0.1], 0.7),
        ]
        for mu, sigma, m in cases:
            plain, _, _ = _vote(_node(mu, sigma, fuzzy_enabled=False), m)
            fuzzy, _, _ = _vote(_node(mu, sigma, fuzzy_enabled=True, sigma1=1e-9), m)
            assert int(np.argmax(plain)) == int(np.argmax(fuzzy))
