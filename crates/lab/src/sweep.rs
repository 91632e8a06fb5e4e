//! Sweep expansion and parallel execution.
//!
//! The grid is the cartesian product of every knob's values crossed with
//! `seeds` × `repeats`. Each grid point is materialized by rewriting the
//! *normalized* spec document (defaults filled in) at the knob paths,
//! then re-deserializing — so a knob can address any numeric field the
//! schema exposes without per-knob plumbing. Points run concurrently on
//! the rayon shim's persistent worker pool.

use rayon::prelude::*;
use serde::Deserialize;
use serde_json::Value;

use crate::observe::Observations;
use crate::report::{knob_settings, summarize, LabReport, RunReport, SchedulerRun};
use crate::run::{run_schedulers_observed, ArrivalMode};
use crate::spec::ExperimentSpec;
use crate::LabError;

/// One expanded grid point, ready to execute.
struct Point {
    knob_choice: Vec<usize>,
    seed: u64,
    repeat: usize,
    spec: ExperimentSpec,
}

/// Parses, expands and executes a spec from JSON text, returning the
/// full report.
pub fn run_spec_json(text: &str) -> Result<LabReport, LabError> {
    let spec = ExperimentSpec::from_json(text)?;
    run_spec(&spec)
}

/// Expands and executes a parsed spec. Synthetic arrivals stream
/// (decoded chunk by chunk at attach time) wherever nothing needs the
/// whole population up front.
pub fn run_spec(spec: &ExperimentSpec) -> Result<LabReport, LabError> {
    run_spec_observed(spec, ArrivalMode::Streaming).map(|(report, _)| report)
}

/// Expands and executes a spec, also returning the accumulated
/// observations: the deterministic metrics registry (and traces, when
/// the spec enabled them) plus the wall-clock shard profile when
/// `observability.profile` is on. Per-point observations are merged in
/// grid order, so the metrics side is byte-identical however the points
/// were scheduled onto workers — and for every `execution.threads`.
pub fn run_spec_observed(
    spec: &ExperimentSpec,
    mode: ArrivalMode,
) -> Result<(LabReport, Observations), LabError> {
    spec.validate()?;
    // Normalize: serialize the parsed spec so every defaulted field
    // exists in the document and knob paths always resolve.
    let base = spec.to_value();
    let points = expand(spec, &base)?;
    let runs: Vec<Result<(RunReport, Observations), LabError>> = points
        .par_iter()
        .map(|p| {
            let mut obs = Observations::default();
            let mut schedulers = Vec::new();
            // `threads == 0` means "pool width" (the ParallelSim
            // convention); record the width that actually ran so
            // `_perf.threads` is meaningful.
            let threads = match p.spec.execution.threads {
                0 => rayon::current_num_threads().max(1),
                n => n,
            };
            run_schedulers_observed(&p.spec, mode, |name, (outcomes, perf)| {
                obs.record_run(name, &outcomes, perf.as_ref(), threads);
                schedulers.push(SchedulerRun {
                    scheduler: name.to_string(),
                    cells: outcomes
                        .iter()
                        .map(crate::report::CellRun::from_outcome)
                        .collect(),
                });
            })?;
            Ok((
                RunReport {
                    knobs: p
                        .spec
                        .sweep
                        .as_ref()
                        .map(|s| knob_settings(&s.knobs, &p.knob_choice))
                        .unwrap_or_default(),
                    seed: p.seed,
                    repeat: p.repeat,
                    schedulers,
                },
                obs,
            ))
        })
        .collect();
    // `collect` preserved point order, so this fold is deterministic no
    // matter which workers ran which points.
    let mut runs_out = Vec::with_capacity(runs.len());
    let mut obs = Observations::default();
    for r in runs {
        let (run, o) = r?;
        runs_out.push(run);
        obs.merge(&o);
    }
    let summary = summarize(&runs_out);
    Ok((
        LabReport {
            name: spec.name.clone(),
            runs: runs_out,
            summary,
            _meta: None,
        },
        obs,
    ))
}

impl ExperimentSpec {
    /// The spec as a normalized `Value` document (all defaults present).
    pub fn to_value(&self) -> Value {
        serde::Serialize::to_value(self)
    }
}

/// Expands the sweep grid into concrete per-point specs.
fn expand(spec: &ExperimentSpec, base: &Value) -> Result<Vec<Point>, LabError> {
    let (knobs, seeds, repeats) = match &spec.sweep {
        Some(s) => (
            s.knobs.clone(),
            if s.seeds.is_empty() {
                vec![spec.sim.seed]
            } else {
                s.seeds.clone()
            },
            s.repeats.max(1),
        ),
        None => (Vec::new(), vec![spec.sim.seed], 1),
    };
    let mut points = Vec::new();
    let mut choice = vec![0usize; knobs.len()];
    loop {
        for &seed in &seeds {
            for repeat in 0..repeats {
                let mut doc = base.clone();
                for (k, &i) in knobs.iter().zip(&choice) {
                    set_path(&mut doc, &k.path, Value::Num(k.values[i]))?;
                }
                // Repeats differentiate by seed (a deterministic kernel
                // re-run under the same seed is byte-identical); mixed
                // multiplicatively so repeat seeds never collide with
                // other listed sweep seeds. Assigned on the parsed spec,
                // NOT through the document: the JSON value model carries
                // numbers as f64, which would round distinct u64 seeds
                // above 2^53 to the same value.
                let effective = seed ^ (repeat as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut spec: ExperimentSpec =
                    Deserialize::from_value(&doc).map_err(LabError::from)?;
                spec.sim.seed = effective;
                // A point is a spec: a knob swept to a value the parser
                // would refuse fails the same way, before anything runs.
                spec.validate()?;
                points.push(Point {
                    knob_choice: choice.clone(),
                    seed: effective,
                    repeat,
                    spec,
                });
            }
        }
        // Odometer increment over the knob value indices.
        let mut dim = knobs.len();
        loop {
            if dim == 0 {
                return Ok(points);
            }
            dim -= 1;
            choice[dim] += 1;
            if choice[dim] < knobs[dim].values.len() {
                break;
            }
            choice[dim] = 0;
        }
    }
}

/// Rewrites the document at a dotted path (`"scenario.churn.failures"`,
/// array indices as numeric segments: `"cells.0.workload.Synthetic.tasks"`).
/// The path must already exist — sweeps rewrite knobs, they do not
/// invent fields.
pub fn set_path(doc: &mut Value, path: &str, new: Value) -> Result<(), LabError> {
    let mut cursor = doc;
    let mut walked = String::new();
    for seg in path.split('.') {
        if !walked.is_empty() {
            walked.push('.');
        }
        walked.push_str(seg);
        cursor = match cursor {
            Value::Object(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == seg)
                .map(|(_, v)| v)
                .ok_or_else(|| {
                    LabError::msg(format!("knob path {path:?}: no field at {walked:?}"))
                })?,
            Value::Array(items) => {
                let idx: usize = seg.parse().map_err(|_| {
                    LabError::msg(format!(
                        "knob path {path:?}: {walked:?} indexes an array but is not a number"
                    ))
                })?;
                items.get_mut(idx).ok_or_else(|| {
                    LabError::msg(format!("knob path {path:?}: index {walked:?} out of range"))
                })?
            }
            _ => {
                return Err(LabError::msg(format!(
                    "knob path {path:?}: {walked:?} is a leaf, cannot descend"
                )))
            }
        };
    }
    match cursor {
        Value::Num(_) | Value::Null => {
            *cursor = new;
            Ok(())
        }
        other => Err(LabError::msg(format!(
            "knob path {path:?} points at non-numeric value {other:?}"
        ))),
    }
}
