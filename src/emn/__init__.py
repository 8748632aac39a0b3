"""Elastic memory network: gradient-free classifier with impulse-based
random projection, per-node Gaussian memories, confidence-fused retrieval,
and self-supervised reinforced memorization for domain adaptation."""

from emn.adaptation import AdaptationConfig, AdaptationHistory, adapt, pseudo_label
from emn.dataio import (
    FeatureDataset,
    SynthConfig,
    load_model,
    read_csv,
    read_emnf,
    save_model,
    synth_shifted_blobs,
    write_csv,
    write_emnf,
)
from emn.harness import (
    BenchConfig,
    EvalReport,
    baseline_gnb_eval,
    baseline_gnb_train,
    bench,
    evaluate,
    run_ablation,
    train_supervised,
)
from emn.inference import EmnModel, Prediction, build_model, predict, predict_batch
from emn.memory import (
    HyperParams,
    MemoryStore,
    init_memory,
    supervised_update,
)
from emn.propagation import (
    PropagationTrace,
    propagate,
    propagate_batch,
    propagate_trace,
)
from emn.topology import (
    NetworkTopology,
    TopologyConfig,
    build_topology,
    topology_stats,
)

__version__ = "0.1.0"
