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
//! registers.
//!
//! Policies are open: the [`scheduler::Scheduler`] trait routes each
//! arriving task to the high-priority or main queue
//! ([`scheduler::MainOnly`], [`scheduler::Enhanced`],
//! [`scheduler::OracleEnhanced`], and the hot-swapping
//! [`scheduler::LiveRegistry`]); placement is pluggable through the
//! [`placement::Placer`] trait instead of hardwired best-fit.
//!
//! ## Modules
//!
//! * [`cluster`] — the slot-indexed machine table with capacity
//!   accounting, the capacity index a probe walks without a hash lookup,
//!   churn (offline/restore) and the cheap
//!   [`cluster::SchedCluster::reset`] path for A/B policy runs;
//! * [`queue`] — the pending task record;
//! * [`scheduler`] — the open routing-policy trait and its impls;
//! * [`placement`] — placement strategies: best-fit, first-fit, soft
//!   affinity, and the Kubernetes-style preemption fallback;
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
//!   degraded-dependency injection, and the retry/backoff policies that
//!   decide between rescheduling and dead-lettering lost work;
//! * [`lifecycle`] — the machine-ownership guard coordinating churn
//!   with the `ctlm-autoscale` control plane;
//! * [`updater`] — the background model-update thread (“updating ML model
//!   runs in parallel and won't block or slow down the main cluster
//!   scheduler”), feeding [`scheduler::LiveRegistry`] mid-run;
//! * [`latency`] — latency statistics.

mod arena;
pub mod cluster;
pub mod engine;
pub mod faults;
pub mod gang;
pub mod latency;
mod ledger;
pub mod lifecycle;
pub mod placement;
pub mod queue;
pub mod scenario;
pub mod scheduler;
pub mod stream;
pub mod timed;
pub mod updater;

pub use cluster::{CapacityFit, SchedCluster};
pub use engine::{CellHandle, EngineStats, Ledger, SchedEvent, SimConfig, SimResult, Simulator};
pub use faults::{
    ExponentialBackoff, FaultAction, FaultPlan, FaultPlane, FaultStats, FixedRetry, RetryPolicy,
};
pub use latency::LatencyStats;
pub use lifecycle::{LifecycleOwner, OwnershipGuard};
pub use placement::{BestFit, PlaceCtx, Placer, PreemptiveBestFit};
pub use queue::PendingTask;
pub use scheduler::{Enhanced, LiveRegistry, MainOnly, OracleEnhanced, Scheduler};
pub use stream::{ArrivalStream, Arrivals, SliceStream};
pub use timed::{attach, TimedSource};
