#!/usr/bin/env python3
"""Synthetic domain-shift experiment over the EMN ablation variants.

Per seed, ``run_ablation`` trains base, base+G (fuzzy density) and base+G+C
(plus confidence-weighted fusion) on the source blobs and adapts each on the
unlabeled target: target accuracy before, at the final epoch and at the
oracle-selected best epoch. The source-trained Gaussian naive Bayes baseline
does not adapt, so its three are equal. Last rows: means over seeds.
"""

import argparse
from collections import defaultdict

import numpy as np

from emn.adaptation import AdaptationConfig
from emn.dataio import SynthConfig, synth_shifted_blobs
from emn.harness import baseline_gnb_eval, baseline_gnb_train, run_ablation
from emn.topology import TopologyConfig


def _fmt(accuracies):
    return ",".join(f"{a:.4f}" for a in accuracies)


def run_seed(seed, args):
    """(variant, before, final, best, best epoch) rows of one seed."""
    cfg = SynthConfig(
        class_count=args.classes,
        dim=args.dim,
        samples_per_class=args.samples_per_class,
        class_mean_scale=args.mean_scale,
        within_class_spread=args.spread,
        shift_vector_norm=args.shift,
        seed=seed,
    )
    src, tgt = synth_shifted_blobs(cfg)
    topo_cfg = TopologyConfig(feature_dim=args.dim, seed=seed)
    adapt_cfg = AdaptationConfig(epochs=args.epochs, shuffle_seed=seed)
    variants = run_ablation(src, tgt, topo_cfg, adapt_cfg=adapt_cfg, train_seed=seed)
    rows = [
        (v.name, v.target_before.accuracy, v.target_after.accuracy, v.target_best,
         v.history.best_epoch().epoch)
        for v in variants
    ]
    gnb = baseline_gnb_eval(baseline_gnb_train(src), tgt).accuracy
    return rows + [("gnb", gnb, gnb, gnb, "")]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--classes", type=int, default=SynthConfig.class_count)
    ap.add_argument("--dim", type=int, default=SynthConfig.dim)
    ap.add_argument(
        "--samples-per-class", type=int, default=SynthConfig.samples_per_class
    )
    ap.add_argument("--mean-scale", type=float, default=0.1)
    ap.add_argument("--spread", type=float, default=0.15)
    ap.add_argument("--shift", type=float, default=0.4)
    ap.add_argument("--epochs", type=int, default=AdaptationConfig.epochs)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(42, 52)))
    args = ap.parse_args()

    print("seed,variant,target_before,target_final,target_best,best_epoch")
    accs = defaultdict(list)
    for seed in args.seeds:
        for name, *scores, best_epoch in run_seed(seed, args):
            accs[name].append(scores)
            print(f"{seed},{name},{_fmt(scores)},{best_epoch}")
    for name, scores in accs.items():
        print(f"# mean,{name},{_fmt(np.mean(scores, axis=0))},")


if __name__ == "__main__":
    main()
