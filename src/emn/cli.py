"""Command line interface.

Subcommands: train, adapt, predict, eval, synth, bench, ablate,
export-memory. Reports are CSV to --out or standard output. A key-value
config file (--config) sets the command's valued options that its flags
leave unset; a key that names none of them is a config error.

Exit codes: 0 success, 2 usage/config error, 3 data error,
4 model/schema error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from emn import errors
from emn.adaptation import AdaptationConfig, adapt
from emn.dataio import (
    SynthConfig,
    load_model,
    read_dataset,
    save_model,
    synth_shifted_blobs,
    write_dataset,
    write_memory_csv,
    write_trace_csv,
)
from emn.harness import (
    BenchConfig,
    baseline_gnb_eval,
    baseline_gnb_train,
    bench,
    evaluate,
    run_ablation,
    train_supervised,
)
from emn.inference import build_model, predict_batch
from emn.memory import HyperParams
from emn.propagation import propagate_trace
from emn.topology import TopologyConfig

_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True)
_BOOLS |= dict.fromkeys(("0", "false", "no", "off"), False)


def _apply_config(args: argparse.Namespace) -> None:
    """Fill each configurable option that the command line left unset from
    the --config file, cast like its flag: flag > file > dataclass default.
    A key that names no configurable option of the command is refused."""
    path = args.config
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise errors.ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise errors.ConfigError(f"{path}: line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    unknown = sorted(values.keys() - args.configurable.keys())
    if unknown:
        raise errors.ConfigError(
            f"{path}: not an option of emn {args.command}: {', '.join(unknown)}"
        )
    for name, raw in values.items():
        cast = args.configurable[name]
        if getattr(args, name) is None:
            try:
                setattr(args, name, _BOOLS[raw.lower()] if cast is bool else cast(raw))
            except (KeyError, ValueError):
                raise errors.ConfigError(
                    f"config value {name} = {raw!r} is not a valid {cast.__name__}"
                ) from None


def _given(args, *names: str, **renamed: str) -> dict:
    """Keyword arguments for the options that are set. ``names`` are options
    named like their field; ``renamed`` maps field to option. Unset ones are
    left out, so each default lives on its dataclass only."""
    pairs = {n: n for n in names} | renamed
    values = {field: getattr(args, option) for field, option in pairs.items()}
    return {field: v for field, v in values.items() if v is not None}


def _hyper_from(args) -> HyperParams:
    return HyperParams(
        **_given(args, "beta", "sigma1", "batch_size", "rounds"),
        fuzzy_enabled=not getattr(args, "no_fuzzy", None),
        confidence_enabled=not getattr(args, "no_confidence", None),
    )


def _topo_from(args, feature_dim: int) -> TopologyConfig:
    return TopologyConfig(
        feature_dim,
        **_given(
            args,
            "seed",
            hub_count="hub",
            bridging_count="bridging",
            bridging_in_degree="in_degree",
        ),
    )


def _adapt_cfg_from(args) -> AdaptationConfig:
    return AdaptationConfig(**_given(args, "epochs", shuffle_seed="seed"))


def _set_update_rule(args, model) -> None:
    """--beta/--batch-size replace the loaded model's, on the model and its
    store alike, so adaptation uses them and a saved model keeps them."""
    rule = _given(args, "beta", "batch_size")
    model.hyper = model.store.hyper = dataclasses.replace(model.hyper, **rule)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        **_given(
            args,
            "dim",
            "samples_per_class",
            "seed",
            class_count="classes",
            class_mean_scale="mean_scale",
            within_class_spread="spread",
            shift_vector_norm="shift",
        )
    )
    source, target = synth_shifted_blobs(cfg)
    write_dataset(source, args.out_source, args.format)
    write_dataset(target, args.out_target, args.format)
    return 0


def cmd_train(args) -> int:
    source = read_dataset(args.source, args.format)
    seen = source.label_class_count()  # refuses an empty source, --classes or not
    class_count = seen if args.classes is None else args.classes
    topo_cfg = _topo_from(args, source.dim)
    model = build_model(topo_cfg, class_count, _hyper_from(args), {"trained_on": "source"})
    train_supervised(model, source, shuffle_seed=topo_cfg.seed)
    save_model(model, args.model)
    return 0


def cmd_adapt(args) -> int:
    model = load_model(args.model)
    _set_update_rule(args, model)
    target = read_dataset(args.target, args.format)
    history = adapt(
        model,
        target.features,
        _adapt_cfg_from(args),
        held_out_labels=target.labels,
        snapshot_dir=args.snapshot_dir,
    )
    save_model(model, args.out or args.model)
    lines = ["epoch,pseudo_label_agreement,accuracy,per_sample_update_seconds"]
    for rec in history.records:
        acc = "" if rec.accuracy is None else repr(rec.accuracy)
        lines.append(
            f"{rec.epoch},{rec.pseudo_label_agreement!r},{acc},"
            f"{rec.per_sample_update_seconds!r}"
        )
    best = history.best_epoch()
    if best is not None:
        # Best-epoch selection consults target labels: an oracle metric.
        lines.append(f"# best_epoch (oracle-selected) = {best.epoch}, "
                     f"accuracy = {best.accuracy!r}")
    print("\n".join(lines))
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    data = read_dataset(args.target, args.format)
    if args.trace_out and data.n_samples == 0:
        raise errors.UsageError("--trace-out requires at least one input row")
    preds = predict_batch(model, data.features)
    header = "row_index,predicted_label," + ",".join(
        f"p_{k}" for k in range(model.class_count)
    )
    lines = [header]
    for i, p in enumerate(preds):
        lines.append(f"{i},{p.label}," + ",".join(map(repr, p.posterior.tolist())))
    _emit(args, "\n".join(lines) + "\n")
    if args.trace_out:
        _, trace = propagate_trace(
            model.topology, data.features[0], model.hyper.rounds
        )
        write_trace_csv(trace, args.trace_out)
    return 0


def _eval_report_csv(report) -> str:
    C = report.confusion.shape[0]
    lines = [f"accuracy,{report.accuracy!r}"]
    lines.append(
        "per_class_accuracy," + ",".join(repr(float(v)) for v in report.per_class_accuracy)
    )
    lines.append("confusion_row," + ",".join(f"pred_{k}" for k in range(C)))
    for k in range(C):
        lines.append(f"true_{k}," + ",".join(str(int(v)) for v in report.confusion[k]))
    return "\n".join(lines) + "\n"


def cmd_eval(args) -> int:
    if args.baseline_gnb and args.source is None:
        raise errors.UsageError("--baseline-gnb requires --source")
    model = load_model(args.model)
    data = read_dataset(args.target, args.format)
    report = evaluate(model, data)
    text = _eval_report_csv(report)
    if args.baseline_gnb:
        src = read_dataset(args.source, args.format)
        gnb = baseline_gnb_train(src)
        gnb_report = baseline_gnb_eval(gnb, data)
        text += f"baseline_gnb_accuracy,{gnb_report.accuracy!r}\n"
    _emit(args, text)
    return 0


def cmd_bench(args) -> int:
    model = load_model(args.model)
    _set_update_rule(args, model)
    target = read_dataset(args.target, args.format)
    cfg = BenchConfig(**_given(args, "repetitions", shuffle_seed="seed"))
    record = bench(model, target, cfg).to_dict()
    lines = ["metric,value"]
    lines += [f"{k},{v!r}" for k, v in record.items() if k != "config"]
    _emit(args, "\n".join(lines) + "\n")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
    return 0


def cmd_ablate(args) -> int:
    source = read_dataset(args.source, args.format)
    target = read_dataset(args.target, args.format)
    topo_cfg = _topo_from(args, source.dim)
    variants = run_ablation(
        source,
        target,
        topo_cfg,
        _hyper_from(args),
        _adapt_cfg_from(args),
        train_seed=topo_cfg.seed,
    )
    lines = [
        "variant,fuzzy,confidence,source_accuracy,target_before,"
        "target_after,target_best,delta_vs_base"
    ]
    for v in variants:
        lines.append(
            f"{v.name},{v.fuzzy_enabled},{v.confidence_enabled},"
            f"{v.source_report.accuracy!r},{v.target_before.accuracy!r},"
            f"{v.target_after.accuracy!r},{v.target_best!r},{v.delta_vs_base!r}"
        )
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_export_memory(args) -> int:
    model = load_model(args.model)
    write_memory_csv(model, args.out or sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--format", choices=["csv", "emnf"], default=None)


def _add_values(p: argparse.ArgumentParser, cast, *flags: str) -> None:
    """Configurable options, each with one cast for flag and config-file
    values. An unset one stays None, so ``main`` may fill it from --config."""
    configurable = p.get_default("configurable") or {}
    kind = {"action": "store_true", "default": None} if cast is bool else {"type": cast}
    for flag in flags:
        configurable[p.add_argument(flag, **kind).dest] = cast
    p.set_defaults(configurable=configurable)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emn", description="Elastic memory network classifier"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic shifted-blobs task")
    _add_common(p)
    p.add_argument("--out-source", required=True)
    p.add_argument("--out-target", required=True)
    _add_values(p, int, "--classes", "--dim", "--samples-per-class", "--seed")
    _add_values(p, float, "--mean-scale", "--spread", "--shift")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on labeled source features")
    _add_common(p)
    p.add_argument("--source", required=True)
    p.add_argument("--model", required=True, help="output model path")
    _add_values(p, int, "--classes", "--hub", "--bridging", "--in-degree")
    _add_values(p, int, "--rounds", "--batch-size", "--seed")
    _add_values(p, float, "--beta", "--sigma1")
    _add_values(p, bool, "--no-fuzzy", "--no-confidence")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("adapt", help="reinforced memorization on target features")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", help="adapted model path (default: overwrite --model)")
    _add_values(p, int, "--epochs", "--batch-size", "--seed")
    _add_values(p, float, "--beta")
    p.add_argument("--snapshot-dir", help="write per-epoch memory CSV snapshots")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("predict", help="predict labels and posteriors")
    p.add_argument("--format", choices=["csv", "emnf"])
    p.add_argument("--model", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out")
    p.add_argument("--trace-out", help="activation trace CSV for the first row")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="accuracy and confusion on labeled data")
    p.add_argument("--format", choices=["csv", "emnf"])
    p.add_argument("--model", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out")
    p.add_argument("--baseline-gnb", action="store_true",
                   help="also report a Gaussian naive Bayes baseline")
    p.add_argument("--source", help="training data for --baseline-gnb")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="per-sample timing of adaptation vs inference")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out")
    p.add_argument("--json-out", help="machine-readable report path")
    _add_values(p, int, "--repetitions", "--batch-size", "--seed")
    _add_values(p, float, "--beta")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ablate", help="run the base / base+G / base+G+C variants")
    _add_common(p)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out")
    _add_values(p, int, "--hub", "--bridging", "--in-degree", "--rounds")
    _add_values(p, int, "--batch-size", "--epochs", "--seed")
    _add_values(p, float, "--beta", "--sigma1")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("export-memory", help="memory snapshot CSV (node, class, mu, sigma)")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_memory)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(args)
        return args.func(args)
    except (errors.EmnError, OSError) as exc:
        # An unusable path (missing, a directory, in the way) is a data error.
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)


if __name__ == "__main__":
    sys.exit(main())
