//! # ctlm-sched — enhanced cluster job scheduling (paper Fig. 3)
//!
//! The deployment architecture the paper proposes around the CTLM model,
//! hosted on the `ctlm-sim` discrete-event kernel:
//!
//! ```text
//!            ┌────────────────────┐   group ≤ 0   ┌────────────────────────┐
//! tasks ───▶ │  Task CO Analyzer  │ ────────────▶ │ High-Priority Scheduler │──┐
//!            │  (ctlm-core)       │               └────────────────────────┘  │
//!            └─────────┬──────────┘                                           ▼
//!                      │ otherwise  ┌────────────────────────┐           ┌─────────┐
//!                      └──────────▶ │ Main Cluster Scheduler │ ────────▶ │ cluster │
//!                                   └────────────────────────┘           └─────────┘
//! ```
//!
//! ## The component model
//!
//! The simulation is a set of `ctlm_sim::Component`s on one deterministic
//! timeline. One [`stream::ArrivalFeed`] per cell admits tasks at their
//! arrival instant — from a *borrowed* arrival list or from chunks
//! pulled off an [`stream::ArrivalStream`], attached through the single
//! [`engine::Simulator::attach_cell`] — [`engine::CycleTimer`] fires the
//! scheduler pass, and [`engine::EngineComponent`] owns the cluster, the
//! two queues and the task ledger. Scenario components ([`scenario`]) join
//! the same timeline: machine churn, all-or-nothing gang arrivals,
//! staged attribute rollouts, and (in examples) live trace feeds that
//! drive retraining mid-run. Everything that acts on its own schedule —
//! those, the feed, the timer, the fault plane, the autoscaler — is a
//! [`timed::TimedSource`] behind the one walker [`timed::attach`]
//! registers. Retraining runs on the simulation clock too: a model is
//! trained and installed into the `ModelRegistry` at the simulated
//! instant its dataset step completes, taking no simulated time, so the
//! scheduler never waits for it and the crate starts no OS threads.
//!
//! Policies are open: the [`scheduler::Scheduler`] trait routes each
//! arriving task to the high-priority or main queue
//! ([`scheduler::MainOnly`], [`scheduler::OracleEnhanced`], and
//! [`scheduler::LiveRegistry`], which routes through whatever analyzer
//! its `ModelRegistry` holds — one trained before the run, or each model
//! a retrainer hot-swaps in during it); placement is pluggable through
//! the [`placement::Placer`] trait instead of hardwired best-fit.
//!
//! ## Modules
//!
//! * [`cluster`] — the slot-indexed machine table with capacity
//!   accounting, the capacity index a probe walks without a hash lookup,
//!   churn (offline/restore), and the copy-on-write fleet that lets each
//!   policy of an A/B comparison run on its own cheap clone;
//! * [`queue`] — the pending task record;
//! * [`scheduler`] — the open routing-policy trait and its impls;
//! * [`placement`] — placement strategies: best-fit and the
//!   Kubernetes-style preemption fallback;
//! * [`gang`] — atomic (all-or-nothing) gang placement;
//! * [`engine`] — the kernel-hosted simulation measuring scheduling
//!   latency per suitable-node group. It only schedules; the cell's
//!   [`Ledger`] alone decides what each lifecycle transition records
//!   (counters, result, live-task table, retry budgets, spans, event
//!   ring, arena-slot release) — the private `ledger` module's doc holds
//!   the transition table — and every observer reads it through
//!   [`engine::EngineState::ledger`];
//! * [`stream`] — the arrival feed and its two inputs
//!   ([`stream::Arrivals`]): a borrowed list, or chunked task decode
//!   ([`stream::ArrivalStream`]) into the engine's task arena without
//!   materialising the whole workload;
//! * [`timed`] — the timed-source seam: the trait, the one component
//!   that wakes / fires / re-arms a source, and `attach`;
//! * [`scenario`] — churn, gang and rollout event sources;
//! * [`faults`] — the fault plane: seeded machine crashes (abrupt, task
//!   losing — distinct from [`scenario`]'s graceful drains, which
//!   requeue), correlated failure-domain outages with MTTR recovery,
//!   and the retry/backoff policies that decide between rescheduling and
//!   dead-lettering lost work;
//! * [`lifecycle`] — the engine's machine-ownership claims keeping churn,
//!   the fault plane and `ctlm-autoscale` off each other's machines;
//! * [`latency`] — latency statistics.

mod arena;
pub mod cluster;
pub mod engine;
pub mod faults;
pub mod gang;
mod idmap;
pub mod latency;
mod ledger;
pub mod lifecycle;
pub mod placement;
pub mod queue;
pub mod scenario;
pub mod scheduler;
pub mod stream;
pub mod timed;

pub use cluster::{CapacityFit, SchedCluster};
pub use engine::{CellHandle, EngineStats, Ledger, SchedEvent, SimConfig, SimResult, Simulator};
pub use faults::{
    ExponentialBackoff, FaultAction, FaultPlan, FaultPlane, FaultStats, FixedRetry, RetryPolicy,
};
pub use latency::LatencyStats;
pub use lifecycle::{LifecycleOwner, OwnershipGuard};
pub use placement::{BestFit, PlaceCtx, Placer, PreemptiveBestFit};
pub use queue::PendingTask;
pub use scheduler::{LiveRegistry, MainOnly, OracleEnhanced, Scheduler};
pub use stream::{ArrivalStream, Arrivals, SliceStream};
pub use timed::{attach, TimedSource};
