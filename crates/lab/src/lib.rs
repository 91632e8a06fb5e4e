//! # ctlm-lab — the declarative experiment harness
//!
//! Turns a JSON **scenario spec** into fully assembled `ctlm-sim` runs:
//! no experiment-specific Rust, just data. A spec describes
//!
//! * **topology** — machine groups with capacities (or a generated
//!   GCD-like trace slice from `ctlm-trace`);
//! * **arrivals** — replayed trace submissions, or synthetic streams
//!   with uniform/exponential/bounded-Pareto gaps and Pareto-sized
//!   requests;
//! * **scenario intensities** — churn waves, gang size/frequency,
//!   online-retraining cadence, autoscaling and the fault plane;
//! * **policies** — scheduler and placer selection by name through a
//!   registry over the open `ctlm-sched` traits;
//! * **multi-cell runs** — several engine cells sharing one kernel
//!   timeline, joined by a spillover router that forwards tasks a cell
//!   cannot admit;
//! * **sweeps** — cartesian grids over any numeric knob (addressed by
//!   dotted path) × seeds × repeats, executed in parallel on the rayon
//!   worker pool.
//!
//! The output is one structured JSON [`report::LabReport`]: every run's
//! per-cell, per-scheduler latency statistics (Fig. 3-style group
//! bands) plus per-point medians. Reports are pure functions of the
//! spec — identical spec + seed ⇒ byte-identical report.
//!
//! ```
//! let spec = r#"{
//!     "name": "doc",
//!     "sim": {"cycle": 500000, "attempts_per_cycle": 3,
//!              "mean_runtime": 5000000, "horizon": 60000000, "seed": 7},
//!     "schedulers": ["main_only", "oracle"],
//!     "workload": {"Synthetic": {
//!         "machines": [{"count": 6, "cpu": 1.0, "memory": 1.0}],
//!         "tasks": 150,
//!         "arrival": {"Uniform": {"gap": 30000}},
//!         "restrictive": {"count": 2, "start": 4000000,
//!                          "period": 5000000, "cpu": 0.2, "priority": 6}
//!     }}
//! }"#;
//! let report = ctlm_lab::run_spec_json(spec).unwrap();
//! assert_eq!(report.runs.len(), 1);
//! assert_eq!(report.runs[0].schedulers.len(), 2);
//! ```
//!
//! Checked-in example specs live under `experiments/`; the `ctlm-lab`
//! binary runs one: `cargo run --release -p ctlm-lab --
//! experiments/fig3_ab.json`.

use std::fmt;

pub mod build;
pub mod flight;
pub mod memtrack;
pub mod observe;
pub mod paper;
pub mod registry;
pub mod report;
pub mod run;
pub mod spec;
pub mod stream;
pub mod sweep;

pub use observe::Observations;
pub use report::LabReport;
pub use spec::ExperimentSpec;
pub use sweep::{run_spec, run_spec_json, run_spec_observed};

/// Harness-level failure: a malformed spec, an unknown registry name, a
/// bad knob path.
#[derive(Clone, Debug)]
pub struct LabError(pub String);

impl LabError {
    /// An error with the given message.
    pub fn msg(m: impl Into<String>) -> Self {
        Self(m.into())
    }
}

impl fmt::Display for LabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctlm-lab: {}", self.0)
    }
}

impl std::error::Error for LabError {}

impl From<serde::Error> for LabError {
    fn from(e: serde::Error) -> Self {
        Self(e.to_string())
    }
}
