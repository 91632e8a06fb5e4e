//! # ctlm-autoscale — the elastic fleet control plane
//!
//! Every scenario the repro could express before this crate ran against
//! a *fixed* fleet: churn drained and restored existing machines, but
//! capacity never grew. This crate closes that gap with a control-plane
//! component on the `ctlm-sim` kernel that watches a scheduling cell's
//! live signals and drives its fleet size through a machine lifecycle —
//! the regime where the paper's latency bands meet capacity planning.
//!
//! ## Signals
//!
//! On a configurable evaluation cadence the autoscaler samples, from
//! the cell's [`EngineState`](ctlm_sched::engine::EngineState):
//!
//! * **queue pressure** — pending main + high-priority tasks, plus
//!   `NoCapacity` placement outcomes since the last tick (the
//!   `can_admit`-failure signal: suitable machines existed, none had
//!   room);
//! * **fleet utilisation** — the cluster's O(1) incremental CPU
//!   utilisation;
//! * **admission latency** — mean scheduling latency over recently
//!   placed tasks.
//!
//! ## Policy
//!
//! Sizing is [`ThresholdStep`]'s alarm-driven step scaling, a pure
//! function of the signals; the [`Autoscaler`] clamps its answer to the
//! configured `[min, max]` band and drives the lifecycle:
//! provisioning (deterministic [`ProvisionDelay`] sampling) → warm
//! standby / active → draining (running tasks requeue through the
//! engine's churn path — nothing is ever stranded) → decommissioned.
//!
//! ## Determinism and coordination
//!
//! All randomness flows through a seeded RNG, so identical spec + seed
//! produce bit-identical fleet timelines. Fleet mutations are engine
//! methods that claim the machine on the cell's one claim table
//! ([`ctlm_sched::lifecycle`]), which keeps a churn scenario on the same
//! timeline from failing a machine mid-provision or mid-drain (and the
//! autoscaler from draining a machine churn holds).
//!
//! The declarative harness (`ctlm-lab`) exposes all of this as an
//! `autoscale` block per cell — see `experiments/elastic_burst.json`
//! for a bursty workload absorbed by scale-up and shrunk back by
//! drain-based scale-down.

pub mod delay;
pub mod fleet;
pub mod policy;

pub use delay::ProvisionDelay;
pub use fleet::{AutoscaleConfig, AutoscaleStats, Autoscaler, FleetSample, MachineTemplate};
pub use policy::{Signals, ThresholdStep};
