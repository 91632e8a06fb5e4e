//! # ctlm-core — the Continuous Transfer Learning Method
//!
//! The paper's primary contribution: a two-layer classifier over CO-VV
//! feature vectors that predicts a task's suitable-node group, kept
//! current *without full retraining* as the cluster's attribute
//! vocabulary grows.
//!
//! * [`trainer`] — the Fig. 2 training routine: weighted cross-entropy
//!   (Group 0 × 200), Adam at lr 0.05, early exit at accuracy > 0.95 ∧
//!   Group-0 F1 > 0.9, a 100-epoch limit, and the ten-attempt fail-fast
//!   restart.
//! * [`growing`] — the Growing model: Listing 1 (restore + freeze),
//!   Listing 2 (zero-pad `fc1.weight` to the widened feature array) and
//!   Listing 3 (gradient multiplier 0.1 on pre-trained input columns).
//! * [`full_retrain`] — the Fully-Retrain comparison variant.
//! * [`pipeline`] — runs a model (or a baseline) across the dataset steps
//!   of a replayed trace, producing Table X / Table XI material.
//! * [`analyzer`] — the Task CO Analyzer of Fig. 3: classifies incoming
//!   tasks in real time and flags restrictive ones for the
//!   high-priority scheduler; hot-swappable via [`analyzer::ModelRegistry`]
//!   so retraining never blocks the main scheduler.
//!
//! ## The analyzer seam
//!
//! The Fig. 3 loop crosses this crate at two points, and each has one
//! definition:
//!
//! * **requirements → verdict** is [`TaskCoAnalyzer::group_of`]: the only
//!   place a CO-VV row is encoded and the network called.
//!   [`TaskCoAnalyzer::predict_group`] is `collapse` + `group_of`; the
//!   `ctlm-sched` routers, whose queues already hold collapsed
//!   requirements, call `group_of` directly. It encodes into a private
//!   per-thread scratch and runs the network's one forward pass
//!   (`Net::forward_into`) into that scratch's buffers, so a warm
//!   prediction allocates nothing (`tests/zero_alloc.rs`); the trainer's
//!   per-epoch evaluation runs the same pass through its training
//!   `Workspace`.
//! * **trained model → analyzer** is [`GrowingModel::analyzer`]: the only
//!   place a model is paired with a vocabulary, zero-padding `fc1.weight`
//!   when the vocabulary has outgrown the last trained width.
//!   `TaskCoAnalyzer::new` remains for a hand-built `Net`.

pub mod analyzer;
pub mod full_retrain;
pub mod growing;
pub mod pipeline;
pub mod trainer;

pub use analyzer::{ModelRegistry, TaskCoAnalyzer};
pub use full_retrain::FullRetrainModel;
pub use growing::GrowingModel;
pub use pipeline::{
    run_baseline_over_steps, run_model_over_steps, BaselineKind, RunSummary, StepRecord,
};
pub use trainer::{StepOutcome, StepPhases, TrainConfig};
