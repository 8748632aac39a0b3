"""The three benchmark workloads.

Each workload generates its inputs with `synth_shifted_blobs` from the
benchmark seed and drives emn through its public functions, always looked
up on the module at call time so that the tracer's wrappers are used.
The topology and shuffle seeds are fixed (`MODEL_SEED`): the seed varies
the data, not the program.

- pipeline-wide: d=256, C=3. Set-up writes source and target CSVs. The
  timed iteration is the `emn train` -> `emn adapt` -> `emn eval` sequence
  run through the library. Wide rows make propagation the largest cost,
  with CSV parsing second.
- adapt-narrow: d=20, C=10. Set-up trains the model. The timed iteration
  adapts a fresh copy of it for 16 unlabeled epochs, then evaluates.
  Propagation runs once over narrow rows, so memory reads (retrieval and
  fusion) dominate and C=10 scales them.
- predict-stream: d=64, C=3. Set-up trains, adapts, saves and reloads the
  model, as `emn train`, `emn adapt` and `emn predict` would. The timed
  iteration is a closed loop of single-row `predict_batch` requests from
  one client. The fixed cost of each call dominates.

Every workload reports every end-to-end metric. Where a phase is not part
of the timed iteration it is timed where the workload does it: training in
set-up (adapt-narrow, predict-stream), adaptation in set-up
(predict-stream), and single-row requests plus one `evaluate` after each
timed iteration (pipeline-wide and adapt-narrow; predict-stream).

Row counts are scaled down from the sizes first profiled (about 1000 rows
per class per domain for pipeline-wide, 600 per class for adapt-narrow) so
that one run holds several rounds. Class means are spread far enough that
target accuracy, which depends on the seed, varies little between seeds.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import numpy as np

from emn import adaptation, dataio, harness, inference
from emn.adaptation import AdaptationConfig
from emn.dataio import SynthConfig
from emn.inference import EmnModel
from emn.topology import TopologyConfig

MODEL_SEED = 42
EPOCHS = 16


def model_digest(model: EmnModel, *arrays: np.ndarray) -> str:
    """SHA-256 over the given arrays and the memory's mu and sigma bytes."""
    h = hashlib.sha256()
    for a in (*arrays, model.store.mu, model.store.sigma):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def response_ok(posterior: np.ndarray, label: int, class_count: int) -> bool:
    """A posterior is finite and sums to 1; its label is its argmax in [0, C)."""
    return (
        posterior.shape == (class_count,)
        and bool(np.isfinite(posterior).all())
        and abs(float(posterior.sum()) - 1.0) <= 1e-9
        and 0 <= label < class_count
        and label == int(np.argmax(posterior))
    )


class Requests:
    """Latencies and responses of single-row `predict_batch` requests.

    Each request counts as one operation: it fails if it raises, or if its
    response fails `response_ok` when `check` runs after the timed loop.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.rows: list[int] = []
        self.labels: list[int] = []
        self.posteriors: list[np.ndarray] = []
        self.checked = 0
        self.bursts: list[list[float]] = []  # latencies of each burst

    def send(self, ledger, model: EmnModel, X: np.ndarray, row: int) -> None:
        x = X[row : row + 1]
        start = perf_counter()
        try:
            prediction = inference.predict_batch(model, x)[0]
        except Exception as exc:  # a failed request is counted, not fatal
            ledger.fail(f"request for row {row}", exc)
            return
        self.latencies.append(perf_counter() - start)
        self.rows.append(row)
        self.labels.append(prediction.label)
        self.posteriors.append(prediction.posterior)

    def burst(self, ledger, model: EmnModel, X: np.ndarray, rows) -> float:
        """Send one request per row, each after the previous one returned."""
        first = len(self.latencies)
        start = perf_counter()
        for row in rows:
            self.send(ledger, model, X, int(row))
        wall = perf_counter() - start
        self.bursts.append(self.latencies[first:])
        return wall

    def check(self, ledger, class_count: int) -> None:
        for i in range(self.checked, len(self.labels)):
            ledger.check(
                f"response for row {self.rows[i]}",
                response_ok(self.posteriors[i], self.labels[i], class_count),
            )
        self.checked = len(self.labels)


class Workload:
    """One workload; a run repeats rounds of set-up, then timed iteration.

    Set-up is repeated every round, so `setup_s` and the phases timed in
    set-up are medians over the same stretch of time as the iterations.
    """

    name = ""
    class_count = 0
    dim = 0
    samples_per_class = 0
    class_mean_scale = 0.1
    # Single-row requests sent each round, on rows chosen by the seed.
    requests_per_round = 0
    # Layers that must record a span in the traced timed phase.
    timed_layers: tuple[str, ...] = ()

    def __init__(self, seed: int, scale: float, workdir):
        self.seed = seed
        self.workdir = workdir
        self.synth = SynthConfig(
            class_count=self.class_count,
            dim=self.dim,
            samples_per_class=max(2, round(self.samples_per_class * scale)),
            class_mean_scale=self.class_mean_scale,
            within_class_spread=0.15,
            shift_vector_norm=0.4,
            seed=seed,
        )
        rng = np.random.default_rng((seed, 1))
        self.request_rows = rng.integers(
            0,
            self.class_count * self.synth.samples_per_class,
            size=max(10, round(self.requests_per_round * scale)),
        )
        self.requests = Requests()
        self.source = None
        self.target = None
        self.model: EmnModel | None = None

    def topology_config(self) -> TopologyConfig:
        return TopologyConfig(feature_dim=self.dim, seed=MODEL_SEED)

    def setup(self) -> dict[str, float]:
        """Prepare inputs; returns the seconds of any phase it timed."""
        raise NotImplementedError

    def iteration(self, ledger) -> dict:
        """One timed unit of work; returns phase seconds and a digest."""
        raise NotImplementedError

    def serve(self, ledger) -> float:
        """The round's requests against the final model; returns their wall time."""
        wall = self.requests.burst(
            ledger, self.model, self.target.features, self.request_rows
        )
        self.requests.check(ledger, self.class_count)
        return wall


class PipelineWide(Workload):
    name = "pipeline-wide"
    class_count = 3
    dim = 256
    samples_per_class = 300
    requests_per_round = 100
    class_mean_scale = 0.2
    timed_layers = (
        "dataio",
        "topology",
        "propagation",
        "memory",
        "inference",
        "adaptation",
        "harness",
    )

    def setup(self):
        self.source, self.target = dataio.synth_shifted_blobs(self.synth)
        self.source_path = self.workdir / "source.csv"
        self.target_path = self.workdir / "target.csv"
        dataio.write_dataset(self.source, self.source_path)
        dataio.write_dataset(self.target, self.target_path)
        return {}

    def iteration(self, ledger):
        t0 = perf_counter()
        source = dataio.read_dataset(self.source_path)
        model = inference.build_model(
            self.topology_config(), int(source.labels.max()) + 1
        )
        t1 = perf_counter()
        harness.train_supervised(model, source, shuffle_seed=MODEL_SEED)
        t2 = perf_counter()
        path = self.workdir / "model.json"
        dataio.save_model(model, path)
        model = dataio.load_model(path)
        target = dataio.read_dataset(self.target_path)
        t3 = perf_counter()
        adaptation.adapt(
            model,
            target.features,
            AdaptationConfig(epochs=EPOCHS, shuffle_seed=MODEL_SEED),
            held_out_labels=target.labels,
        )
        t4 = perf_counter()
        path = self.workdir / "adapted.json"
        dataio.save_model(model, path)
        model = dataio.load_model(path)
        t5 = perf_counter()
        report = harness.evaluate(model, target)
        t6 = perf_counter()
        self.model = model
        return {
            "wall": t6 - t0,
            "train": t2 - t1,
            "adapt": t4 - t3,
            "eval": t6 - t5,
            "digest": model_digest(model, report.confusion),
        }


class AdaptNarrow(Workload):
    name = "adapt-narrow"
    class_count = 10
    dim = 20
    samples_per_class = 150
    requests_per_round = 400
    class_mean_scale = 0.3
    timed_layers = ("propagation", "memory", "inference", "adaptation", "harness")

    def setup(self):
        self.source, self.target = dataio.synth_shifted_blobs(self.synth)
        model = inference.build_model(self.topology_config(), self.class_count)
        start = perf_counter()
        harness.train_supervised(model, self.source, shuffle_seed=MODEL_SEED)
        train = perf_counter() - start
        self.trained = model
        return {"train": train}

    def iteration(self, ledger):
        t = self.trained
        model = EmnModel(t.topology, t.store.copy(), t.class_count, t.hyper, {})
        t0 = perf_counter()
        adaptation.adapt(
            model,
            self.target.features,
            AdaptationConfig(epochs=EPOCHS, shuffle_seed=MODEL_SEED),
        )
        t1 = perf_counter()
        report = harness.evaluate(model, self.target)
        t2 = perf_counter()
        self.model = model
        return {
            "wall": t2 - t0,
            "adapt": t1 - t0,
            "eval": t2 - t1,
            "digest": model_digest(model, report.confusion),
        }


class PredictStream(Workload):
    name = "predict-stream"
    class_count = 3
    dim = 64
    samples_per_class = 300
    class_mean_scale = 0.2
    requests_per_round = 500
    timed_layers = ("propagation", "memory", "inference")

    def setup(self):
        self.source, self.target = dataio.synth_shifted_blobs(self.synth)
        model = inference.build_model(self.topology_config(), self.class_count)
        t0 = perf_counter()
        harness.train_supervised(model, self.source, shuffle_seed=MODEL_SEED)
        t1 = perf_counter()
        adaptation.adapt(
            model,
            self.target.features,
            AdaptationConfig(epochs=EPOCHS, shuffle_seed=MODEL_SEED),
        )
        t2 = perf_counter()
        path = self.workdir / "model.json"
        dataio.save_model(model, path)
        self.model = dataio.load_model(path)
        return {"train": t1 - t0, "adapt": t2 - t1}

    def iteration(self, ledger):
        first = len(self.requests.labels)
        wall = self.serve(ledger)
        labels = np.array(self.requests.labels[first:], dtype=np.int64)
        return {"wall": wall, "serve": wall, "digest": model_digest(self.model, labels)}


WORKLOADS = {w.name: w for w in (PipelineWide, AdaptNarrow, PredictStream)}
