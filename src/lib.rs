//! # ctlm — Continuous Transfer Learning for real-time cluster scheduling
//!
//! Facade crate for the reproduction of *“Enhancing Cluster Scheduling in
//! HPC: A Continuous Transfer Learning for Real-Time Optimization”*
//! (Sliwko & Mizera-Pietraszko, IEEE IPDPSW 2025). It re-exports the
//! workspace crates under one roof:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`sim`] | `ctlm-sim` | deterministic discrete-event simulation kernel |
//! | [`trace`] | `ctlm-trace` | synthetic GCD-like workload traces |
//! | [`agocs`] | `ctlm-agocs` | AGOCS-style replay simulator + dataset generation |
//! | [`tensor`] | `ctlm-tensor` | dense/sparse matrix substrate |
//! | [`nn`] | `ctlm-nn` | the PyTorch-slice NN framework |
//! | [`data`] | `ctlm-data` | CO compaction, CO-EL/CO-VV encodings, metrics |
//! | [`baselines`] | `ctlm-baselines` | MLP / Ridge / SGD / Voting baselines |
//! | [`core`] | `ctlm-core` | **the CTLM growing model and pipeline** |
//! | [`sched`] | `ctlm-sched` | the Fig. 3 enhanced scheduler (kernel components) |
//! | [`autoscale`] | `ctlm-autoscale` | elastic fleet control plane (policies, warm pools, drain) |
//! | [`telemetry`] | `ctlm-telemetry` | deterministic metrics, bounded tracing, host/perf attribution |
//! | [`lab`] | `ctlm-lab` | declarative experiment harness (specs, sweeps, reports) |
//!
//! ## Quickstart
//!
//! ```
//! use ctlm::prelude::*;
//!
//! // 1. Generate a scaled-down clusterdata-2019c-like trace.
//! let trace = TraceGenerator::generate_cell(
//!     CellSet::C2019c,
//!     Scale { machines: 100, collections: 300, seed: 42 },
//! );
//! // 2. Replay it: constraint matching, anomaly correction, datasets.
//! let replay = Replayer::default().replay(&trace);
//! assert!(!replay.steps.is_empty());
//! // 3. Continuously train the growing model across the steps.
//! let cfg = TrainConfig { epochs_limit: 30, max_attempts: 2, ..TrainConfig::default() };
//! let run = run_model_over_steps(ModelKind::Growing, &replay.steps, cfg, 7);
//! assert!(run.avg_accuracy > 0.5);
//! ```

pub use ctlm_agocs as agocs;
pub use ctlm_autoscale as autoscale;
pub use ctlm_baselines as baselines;
pub use ctlm_core as core;
pub use ctlm_data as data;
pub use ctlm_lab as lab;
pub use ctlm_nn as nn;
pub use ctlm_sched as sched;
pub use ctlm_sim as sim;
pub use ctlm_telemetry as telemetry;
pub use ctlm_tensor as tensor;
pub use ctlm_trace as trace;

/// The most common imports in one place.
pub mod prelude {
    pub use ctlm_agocs::{ReplayConfig, Replayer};
    pub use ctlm_core::pipeline::{
        run_baseline_over_steps, run_model_over_steps, BaselineKind, ModelKind,
    };
    pub use ctlm_core::{GrowingModel, ModelRegistry, TaskCoAnalyzer, TrainConfig};
    pub use ctlm_data::dataset::{group_for_count, Dataset, NUM_GROUPS};
    pub use ctlm_data::metrics::Evaluation;
    pub use ctlm_sched::engine::{arrivals_from_trace, SimConfig, Simulator};
    pub use ctlm_sched::scheduler::{LiveRegistry, MainOnly, OracleEnhanced, Scheduler};
    pub use ctlm_trace::{CellSet, Scale, TraceGenerator};
}
