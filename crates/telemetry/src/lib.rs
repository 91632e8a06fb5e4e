//! # ctlm-telemetry — deterministic metrics, tracing, and perf attribution
//!
//! Observability for the workspace, split into two strictly separated
//! planes:
//!
//! - **Sim plane** (deterministic): a [`Metrics`] registry of counters,
//!   gauges, and fixed log-bucket [`Histogram`]s keyed by names, fed from
//!   sim-time state only. Enabling it never changes report bytes, and its
//!   own JSON export is byte-identical for any `execution.threads` —
//!   every value is a function of the (deterministic) simulation, not of
//!   the host. The bounded [`TraceRing`] lives on this plane too: it
//!   keeps the last-N steps of a cell's task ledger for debugging
//!   divergences. The [`SpanLog`] flight recorder extends the plane with
//!   causal lifecycle spans and decision audits per task/machine.
//! - **Host plane** (wall-clock): [`PerfReport`] carries per-shard
//!   `run_before` / barrier-wait / outbox-drain timings from the parallel
//!   coordinator plus a [`HostFingerprint`] (cpu model, core count). It is
//!   emitted only into a `_perf` section that `--no-meta` and byte-compare
//!   gates exclude, so host noise can never leak into gated output.
//!
//! The simulator never writes a [`Metrics`] registry while it runs: it
//! keeps plain counters, fixed-array [`Histogram`]s, the optional
//! [`TraceRing`] and [`SpanLog`] (all allocation-free in steady state),
//! and the lab harness snapshots them into a `Metrics` registry at end of
//! run. That keeps the zero-allocation scheduling-pass invariant intact
//! with metrics enabled.

mod histogram;
mod host;
mod metrics;
mod perf;
mod spans;
mod trace;

pub use histogram::Histogram;
pub use host::HostFingerprint;
pub use metrics::Metrics;
pub use perf::{PerfReport, ShardPerf};
pub use spans::{SpanLog, SpanRecord, SCHEMA_VERSION};
pub use trace::{TraceEvent, TraceRing};
