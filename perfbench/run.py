#!/usr/bin/env python3
"""Benchmark of emn: three workloads, end-to-end metrics and a traced
per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-wide --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py for why each was chosen): pipeline-wide,
adapt-narrow, predict-stream. A run repeats rounds for the measured
seconds; a round is the workload's set-up followed by its timed iteration.
Each metric is the median over rounds, so a slow stretch of a shared
machine moves it less than it would move a single long measurement. The
outputs are checked outside the timed region. A run is one process with
one client, and BLAS uses at most `nproc` threads.

With `--trace 0` the result holds the end-to-end metrics. With `--trace 1`
every other round runs with tracing on, and the result holds the per-layer
metrics: self time per layer and work counts per timed iteration, and the
tracing overhead against the untraced rounds of the same run.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A record of the run, with
the machine facts, goes to `.perfbench/` (and, when traced, every span).
The output digest of each seed is kept in `.perfbench/digests.json`; a run
whose digest differs from the first run of the same seed fails.

The exit code is 0 when every operation and check passed, 1 when one
failed, and 2 when emn cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 2
ORACLE_ROWS = 3


def limit_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)


class Ledger:
    """Operations attempted and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)

    def fail(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"{what}: {exc!r}")
        print(f"FAILED: {what}", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)


@contextmanager
def tracing(tracer, phase: str):
    if tracer is None:
        yield
        return
    tracer.phase = phase
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplier on row and request counts (small values for smoke tests)",
    )
    ap.add_argument(
        "--record-dir",
        type=Path,
        default=ROOT / ".perfbench",
        help="where records, spans and seed digests are kept",
    )
    return ap.parse_args(argv)


def rate(count: float, seconds) -> float:
    return statistics.median(count / s for s in seconds)


def end_to_end(wl, setup_s, rounds, setup_phases, post):
    from workloads import EPOCHS

    n_src, n_tgt = wl.source.n_samples, wl.target.n_samples
    # Train and adapt time from the timed iterations, or else from set-up.
    train = [r["train"] for r in rounds if "train" in r] or [
        p["train"] for p in setup_phases
    ]
    adapt = [r["adapt"] for r in rounds if "adapt" in r] or [
        p["adapt"] for p in setup_phases
    ]
    # Latency percentiles of each round's requests, then their median over
    # rounds: a slow stretch of the machine moves the pooled tail of a run
    # far more than it moves most rounds.
    cuts = [statistics.quantiles(b, n=100) for b in wl.requests.bursts if len(b) > 1]
    p50 = 1e3 * statistics.median(c[49] for c in cuts)
    p99 = 1e3 * statistics.median(c[98] for c in cuts)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "train_rows_per_s": (rate(n_src, train), "rows/s"),
        "adapt_rows_per_s": (rate(n_tgt * EPOCHS, adapt), "rows/s"),
        "eval_rows_per_s": (rate(n_tgt, (r["eval"] for r in rounds)), "rows/s"),
        "request_p50_ms": (p50, "ms"),
        "request_p99_ms": (p99, "ms"),
        "stream_rows_per_s": (
            rate(len(wl.request_rows), (r["serve"] for r in rounds)),
            "rows/s",
        ),
        "target_accuracy": (post["accuracy"], "fraction"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB",
        ),
    }


def per_layer(wl, tracer, ledger, plain_walls, traced_walls):
    from tracing import LAYERS, self_times

    spans = tracer.spans
    selfs = self_times(spans)
    k = len(traced_walls)
    timed = [(s, t) for s, t in zip(spans, selfs) if s.phase == "timed"]

    def total(names, field="self"):
        out = 0.0
        for s, t in timed:
            if s.name in names:
                out += t if field == "self" else (s.count or 0)
        return out / k

    def calls(names):
        return sum(1 for s, _ in timed if s.name in names) / k

    def per_call(name):
        """Mean seconds and last work count of a function, set-up included."""
        hits = [s for s in spans if s.name == name]
        if not hits:
            return 0.0, 0
        return statistics.fmean(s.duration for s in hits), hits[-1].count or 0

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, t in timed:
        layer_self[s.layer] += t / k
    wall = statistics.fmean(traced_walls)
    covered = sum(s.duration for s, _ in timed if s.parent < 0) / k
    untraced = wall - covered

    # Rows propagated under each adapt call, against the rows it adapted.
    adapted = sum(s.count for s in spans if s.name == "adaptation.adapt")
    propagated = 0
    for s in spans:
        if s.layer != "propagation":
            continue
        p = s.parent
        while p >= 0 and spans[p].name != "adaptation.adapt":
            p = spans[p].parent
        if p >= 0:
            propagated += s.count
    rows_per_adapted = propagated / adapted if adapted else 0.0

    propagate = {
        "propagation.propagate_batch",
        "propagation.propagate",
        "propagation.propagate_trace",
    }
    prop_rows = total(propagate, "count")
    read_s = total({"dataio.read_dataset"})
    read_bytes = total({"dataio.read_dataset"}, "count")
    build_s, edges = per_call("topology.build_topology")
    save_s, model_bytes = per_call("dataio.save_model")
    load_s, _ = per_call("dataio.load_model")
    fusion = {
        "inference.batch_node_votes",
        "inference.fused_posteriors_from_signals",
        "inference.labels_from_signals",
    }
    predict = {"inference.predict_batch", "inference.predict"}

    metrics = {
        "dataio.self_s": (layer_self["dataio"], "s"),
        "dataio.read_s": (read_s, "s"),
        "dataio.read_mib_per_s": (
            read_bytes / 2**20 / read_s if read_s > 0 else 0.0,
            "MiB/s",
        ),
        "dataio.model_save_s": (save_s, "s"),
        "dataio.model_load_s": (load_s, "s"),
        "dataio.model_bytes": (model_bytes, "bytes"),
        "topology.self_s": (layer_self["topology"], "s"),
        "topology.build_s": (build_s, "s"),
        "topology.edges": (edges, "count"),
        "propagation.s": (layer_self["propagation"], "s"),
        "propagation.calls": (calls(propagate), "count"),
        "propagation.rows": (prop_rows, "rows"),
        "propagation.us_per_row": (
            1e6 * layer_self["propagation"] / prop_rows if prop_rows else 0.0,
            "us/row",
        ),
        "propagation.rows_per_adapted_row": (rows_per_adapted, "rows/row"),
        "memory.self_s": (layer_self["memory"], "s"),
        "memory.retrieval_s": (total({"memory.store_log_likelihoods"}), "s"),
        "memory.retrieval_calls": (calls({"memory.store_log_likelihoods"}), "count"),
        "memory.retrieval_cells": (
            total({"memory.store_log_likelihoods"}, "count"),
            "cells",
        ),
        "memory.supervised_update_s": (total({"memory.supervised_update"}), "s"),
        "inference.self_s": (layer_self["inference"], "s"),
        "inference.fusion_s": (total(fusion), "s"),
        "inference.predict_self_s": (total(predict), "s"),
        "inference.calls": (calls(predict), "count"),
        "adaptation.self_s": (layer_self["adaptation"], "s"),
        "adaptation.update_s": (total({"adaptation.reinforced_update"}), "s"),
        "adaptation.update_calls": (calls({"adaptation.reinforced_update"}), "count"),
        "harness.self_s": (layer_self["harness"], "s"),
        "harness.train_self_s": (total({"harness.train_supervised"}), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_s": (untraced, "s"),
        "trace.overhead_pct": (
            100.0 * (statistics.median(traced_walls) / statistics.median(plain_walls) - 1),
            "%",
        ),
    }

    ledger.check(
        "propagation.rows_per_adapted_row is exactly 1.0", rows_per_adapted == 1.0
    )
    timed_layers = {s.layer for s, _ in timed}
    for layer in wl.timed_layers:
        ledger.check(f"a {layer} span in the timed phase", layer in timed_layers)
    traced_layers = {s.layer for s in spans}
    for layer in LAYERS:
        ledger.check(f"a {layer} span in the traced run", layer in traced_layers)
    ledger.check(
        "layer self times plus untraced time sum to the traced wall time",
        abs(sum(layer_self.values()) + untraced - wall) <= 1e-9 * wall,
    )

    # Which self time is largest, to confirm why the workload was chosen.
    shares = {
        name: metrics[name][0]
        for name in metrics
        if name.endswith(".self_s") or name == "propagation.s"
    }
    shares["memory.retrieval_s+inference.fusion_s"] = (
        metrics["memory.retrieval_s"][0] + metrics["inference.fusion_s"][0]
    )
    largest = max(shares, key=shares.get)
    rationale = {
        "largest_self_time": largest,
        "largest_share_of_wall": shares[largest] / wall,
        "untraced_share_of_wall": untraced / wall,
    }
    return metrics, rationale


def post_checks(wl, ledger, iterations, args):
    """Output checks on the final model, outside the timed region."""
    import numpy as np

    import oracle
    from emn import harness, inference, propagation
    from workloads import model_digest, response_ok

    model, target = wl.model, wl.target
    C = model.class_count
    requests = wl.requests
    report = harness.evaluate(model, target)
    preds = inference.predict_batch(model, target.features)
    labels = np.array([p.label for p in preds], dtype=np.int64)
    ledger.check(
        "target posteriors are finite, sum to 1 and give labels in [0, C)",
        all(response_ok(p.posterior, p.label, C) for p in preds),
    )
    confusion = np.zeros((C, C), dtype=np.int64)
    np.add.at(confusion, (target.labels, labels), 1)
    ledger.check(
        "evaluate agrees with predict_batch", np.array_equal(confusion, report.confusion)
    )
    if requests.labels:
        rows = np.array(requests.rows)
        ledger.check(
            "single-row responses agree with the batch prediction",
            np.array_equal(np.array(requests.labels), labels[rows])
            and np.allclose(
                np.array(requests.posteriors),
                np.array([preds[r].posterior for r in rows]),
                rtol=1e-12,
                atol=1e-15,
            ),
        )

    rng = np.random.default_rng((args.seed, 3))
    rows = rng.choice(target.n_samples, size=min(ORACLE_ROWS, target.n_samples),
                      replace=False)
    engine = propagation.propagate_batch(
        model.topology, target.features[rows], model.hyper.rounds
    )
    for got, row in zip(engine, rows):
        want = oracle.memory_signals(model.topology, target.features[row],
                                     model.hyper.rounds)
        ledger.check(
            f"propagation of target row {row} matches the scalar interpreter",
            np.array_equal(got, want),
        )

    ledger.check(
        "every timed iteration gives the same output digest",
        len({r["digest"] for r in iterations}) == 1,
    )
    digest = model_digest(model, labels)
    store = args.record_dir / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{wl.name} {wl.synth!r} requests={len(wl.request_rows)}"
    first = known.setdefault(key, digest)
    ledger.check(f"digest matches the first run of this seed: {key}", first == digest)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, store)
    return {"accuracy": report.accuracy, "digest": digest}


def measure(args, ledger, workdir):
    from emn import harness
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.scale, workdir)
    tracer = Tracer() if args.trace else None
    setup_s, setup_phases, plain, traced_iters = [], [], [], []
    start = perf_counter()
    while True:
        use = tracer if tracer is not None and len(plain) > len(traced_iters) else None
        with tracing(use, "setup"):
            t0 = perf_counter()
            setup_phases.append(wl.setup())
            setup_s.append(perf_counter() - t0)
        with tracing(use, "timed"):
            result = wl.iteration(ledger)
        if tracer is None:
            if "serve" not in result:
                result["serve"] = wl.serve(ledger)
            if "eval" not in result:
                t0 = perf_counter()
                harness.evaluate(wl.model, wl.target)
                result["eval"] = perf_counter() - t0
        (plain if use is None else traced_iters).append(result)
        ledger.check("round", True)
        rounds = len(plain) + len(traced_iters)
        if rounds >= MIN_ROUNDS and perf_counter() - start >= args.seconds:
            break

    post = post_checks(wl, ledger, plain + traced_iters, args)
    sizes = {
        "source_rows": wl.source.n_samples,
        "target_rows": wl.target.n_samples,
        "dim": wl.dim,
        "classes": wl.class_count,
        "rounds": len(plain),
        "traced_rounds": len(traced_iters),
        "requests": len(wl.requests.latencies),
        "iteration_walls": [r["wall"] for r in plain],
        "traced_iteration_walls": [r["wall"] for r in traced_iters],
    }
    if tracer is None:
        metrics = end_to_end(wl, setup_s, plain, setup_phases, post)
        extra = {}
    else:
        metrics, extra = per_layer(
            wl, tracer, ledger, [r["wall"] for r in plain], [r["wall"] for r in traced_iters]
        )
        spans_path = args.record_dir / f"{wl.name}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps([s.to_dict() for s in tracer.spans]))
    return metrics, sizes, post["digest"], extra


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_blas_threads()
    if not (ROOT / "src" / "emn" / "__init__.py").is_file():
        print(f"error: emn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import machine

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import emn: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    args.record_dir.mkdir(parents=True, exist_ok=True)
    facts = machine.facts()
    ledger = Ledger()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.record_dir))
    metrics, sizes, digest, extra = {}, {}, None, {}
    try:
        metrics, sizes, digest, extra = measure(args, ledger, workdir)
    except Exception as exc:  # report the failed run instead of a traceback only
        ledger.fail("run", exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, value in facts.items():
        print(f"machine {key}: {value}")
    for key, value in sizes.items():
        print(f"size {key}: {value}")
    for key, value in extra.items():
        print(f"rationale {key}: {value}")
    print(f"digest: {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "machine": facts,
        "sizes": sizes,
        "digest": digest,
        "failures": ledger.failures,
        "rationale": extra,
        **result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (args.record_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
