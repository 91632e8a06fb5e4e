//! # ctlm-agocs — the AGOCS-style cluster-scheduling simulator
//!
//! The paper's experimental substrate is AGOCS (“Accurate Google Cloud
//! Simulator”), which parses GCD traces and replays scheduler operations.
//! This crate reimplements the behaviours §III describes:
//!
//! * **event replay** over a time-sorted trace ([`replay`]);
//! * **cluster state** tracking machines, attributes, and task markers
//!   ([`state`]);
//! * **constraint matching** — counting the machines suitable for a task
//!   ([`matcher`]), which provides the ground-truth group labels, served
//!   by an incrementally maintained inverted attribute index ([`index`]);
//! * **anomaly auto-correction** ([`corrector`]) — offsetting mis-timed
//!   task updates to after creation, and deleting task markers when their
//!   terminated collection finishes;
//! * **dataset generation** ([`replay`]) — emitting cumulative CO-VV
//!   dataset snapshots at every feature-array extension (the “steps” of
//!   Table XI), and the whole replay's CO-EL dataset once, at the end;
//! * **workload statistics** ([`stats`]) — the tasks-with-CO ratios of
//!   Table IX.

pub mod corrector;
pub mod index;
pub mod matcher;
pub mod replay;
pub mod state;
pub mod stats;

pub use corrector::{correct_stream, CorrectionReport};
pub use index::AttrIndex;
pub use matcher::{count_suitable, count_suitable_linear, suitable_machines};
pub use replay::{
    DatasetStep, Observed, ReplayConfig, ReplayHandle, ReplayOutput, ReplaySession, Replayer,
};
pub use state::ClusterState;
pub use stats::{CoDistribution, CoStatsCollector};
