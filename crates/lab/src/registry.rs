//! Name → implementation registries over the open `ctlm-sched` traits.
//!
//! Specs select policies by string; the registries here resolve those
//! strings into [`Scheduler`] / [`Placer`] instances. Both model-backed
//! schedulers are a [`LiveRegistry`], and their models are *trained
//! here, from the spec's own workload* — no experiment-specific Rust:
//! `enhanced` trains a [`TaskCoAnalyzer`] on the cell's arrivals before
//! the run and installs it in a registry only its scheduler holds, and
//! `live_registry` starts cold and receives hot-swapped models from the
//! in-timeline retraining component
//! ([`RetrainSource`](crate::run::RetrainSource)).

use ctlm_autoscale::{AutoscalePolicy, MachineTemplate, Predictive, TargetTracking, ThresholdStep};
use ctlm_core::{GrowingModel, ModelRegistry, TaskCoAnalyzer, TrainConfig};
use ctlm_data::compaction::collapse;
use ctlm_sched::placement::{BestFit, FirstFit, Placer, PreemptiveBestFit, SoftAffinityBestFit};
use ctlm_sched::scheduler::{LiveRegistry, MainOnly, OracleEnhanced, Scheduler};
use ctlm_sched::SimConfig;
use ctlm_trace::{AttrValue, ConstraintOp, TaskConstraint};

use crate::build::BuiltCell;
use crate::spec::{PlacerSpec, PolicyParams, SoftAffinitySpec, SoftOpSpec, TrainSpec};
use crate::LabError;

/// A resolved scheduler plus the model registry backing it (present only
/// for `live_registry`, where the retraining component installs into it).
pub struct SchedulerInstance {
    /// The routing policy under test.
    pub scheduler: Box<dyn Scheduler>,
    /// Hot-swap handle for in-timeline retraining and the fault plane's
    /// registry outages. `None` for `enhanced`: its registry is private
    /// to its scheduler, so its pre-trained model stays installed for
    /// the whole run.
    pub registry: Option<ModelRegistry>,
}

/// Scheduler registry names, in registration order.
pub const SCHEDULER_NAMES: &[&str] = &["main_only", "oracle", "enhanced", "live_registry"];

/// Placer registry names, in registration order.
pub const PLACER_NAMES: &[&str] = &[
    "best_fit",
    "first_fit",
    "preemptive_best_fit",
    "best_fit_soft",
];

/// Autoscaling-policy registry names, in registration order.
pub const AUTOSCALE_POLICY_NAMES: &[&str] = &["threshold", "target_tracking", "predictive"];

/// Validates a scheduler name without building it (that needs a cell).
pub fn check_scheduler(name: &str) -> Result<(), LabError> {
    if SCHEDULER_NAMES.contains(&name) {
        return Ok(());
    }
    Err(unknown("scheduler", name, SCHEDULER_NAMES))
}

/// The error for a `kind` name missing from its `registry`.
fn unknown(kind: &str, name: &str, registry: &[&str]) -> LabError {
    let names = registry.join(", ");
    LabError::msg(format!("unknown {kind} {name:?} (registry: {names})"))
}

/// Builds an autoscaling policy by registry name. Unset [`PolicyParams`]
/// fields take the documented defaults; the predictive policy derives
/// its workload estimates from the spec's mean runtime and the
/// provisioning template's capacity.
pub fn build_autoscale_policy(
    name: &str,
    params: &PolicyParams,
    sim: &SimConfig,
    template: &MachineTemplate,
) -> Result<Box<dyn AutoscalePolicy>, LabError> {
    match name {
        "threshold" => Ok(Box::new(ThresholdStep {
            up_pending: params.up_pending.unwrap_or(8) as usize,
            up_latency: params.up_latency,
            down_util: params.down_util.unwrap_or(0.3),
            step: params.step.unwrap_or(2) as usize,
        })),
        "target_tracking" => Ok(Box::new(TargetTracking {
            target_util: params.target_util.unwrap_or(0.6),
            tolerance: params.tolerance.unwrap_or(0.1),
        })),
        "predictive" => Ok(Box::new(Predictive::new(
            params.window.unwrap_or(6) as usize,
            params.headroom.unwrap_or(1.2),
            params.task_cpu.unwrap_or(0.25),
            sim.mean_runtime,
            template.cpu,
        ))),
        other => Err(unknown("autoscale policy", other, AUTOSCALE_POLICY_NAMES)),
    }
}

/// Builds a scheduler instance for one cell.
pub fn build_scheduler(
    name: &str,
    cell: &BuiltCell,
    train: &TrainSpec,
    seed: u64,
) -> Result<SchedulerInstance, LabError> {
    match name {
        "main_only" => Ok(SchedulerInstance {
            scheduler: Box::new(MainOnly),
            registry: None,
        }),
        "oracle" => Ok(SchedulerInstance {
            scheduler: Box::new(OracleEnhanced),
            registry: None,
        }),
        "enhanced" => {
            let registry = ModelRegistry::new();
            registry.install(train_analyzer(cell, train, seed));
            Ok(SchedulerInstance {
                scheduler: Box::new(LiveRegistry::new(registry)),
                registry: None,
            })
        }
        "live_registry" => {
            let registry = ModelRegistry::new();
            Ok(SchedulerInstance {
                scheduler: Box::new(LiveRegistry::new(registry.clone())),
                registry: Some(registry),
            })
        }
        other => Err(unknown("scheduler", other, SCHEDULER_NAMES)),
    }
}

/// Builds a placer by registry name. The `best_fit_soft` strategy takes
/// its preference set from the spec's `placers.soft` list instead of a
/// hard-coded default — soft affinity is experiment data, not code.
pub fn build_placer(name: &str, spec: &PlacerSpec) -> Result<Box<dyn Placer>, LabError> {
    match name {
        "best_fit" => Ok(Box::new(BestFit)),
        "first_fit" => Ok(Box::new(FirstFit)),
        "preemptive_best_fit" => Ok(Box::new(PreemptiveBestFit)),
        "best_fit_soft" => Ok(Box::new(SoftAffinityBestFit {
            soft: soft_requirements(&spec.soft)?,
        })),
        other => Err(unknown("placer", other, PLACER_NAMES)),
    }
}

/// Collapses the spec's soft-affinity terms into the requirement form
/// the placer scores against.
pub fn soft_requirements(
    soft: &[SoftAffinitySpec],
) -> Result<Vec<ctlm_data::compaction::AttrRequirement>, LabError> {
    let constraints: Vec<TaskConstraint> = soft
        .iter()
        .map(|s| {
            let op = match &s.op {
                SoftOpSpec::Equal(v) => ConstraintOp::Equal(Some(AttrValue::Int(*v))),
                SoftOpSpec::EqualStr(v) => ConstraintOp::Equal(Some(AttrValue::Str(v.clone()))),
                SoftOpSpec::LessThan(v) => ConstraintOp::LessThan(*v),
                SoftOpSpec::GreaterThan(v) => ConstraintOp::GreaterThan(*v),
                SoftOpSpec::LessThanEqual(v) => ConstraintOp::LessThanEqual(*v),
                SoftOpSpec::GreaterThanEqual(v) => ConstraintOp::GreaterThanEqual(*v),
            };
            TaskConstraint::new(s.attr, op)
        })
        .collect();
    collapse(&constraints)
        .map_err(|e| LabError::msg(format!("unsatisfiable soft-affinity set: {e:?}")))
}

/// Trains a [`TaskCoAnalyzer`] on the cell's own arrival population —
/// its [`BuiltCell::training_set`]: CO-VV rows against the cell's machine
/// vocabulary, labelled with the ground-truth suitable-node groups the
/// builder computed.
pub fn train_analyzer(cell: &BuiltCell, train: &TrainSpec, seed: u64) -> TaskCoAnalyzer {
    let mut model = GrowingModel::new(train_config(train));
    model.step(cell.training_set(), seed);
    model.analyzer(cell.vocab.clone())
}

/// The spec's training budget over the paper's defaults.
pub fn train_config(train: &TrainSpec) -> TrainConfig {
    TrainConfig {
        epochs_limit: train.epochs_limit,
        max_attempts: train.max_attempts,
        ..TrainConfig::default()
    }
}
