//! Name → implementation registries over the open `ctlm-sched` traits.
//!
//! Specs select policies by string; the registries here resolve those
//! strings into [`Scheduler`] / [`Placer`] instances and the
//! autoscaler's [`ThresholdStep`]. Every name is selected by a
//! checked-in spec under `experiments/` or `benchmark/specs/`
//! (`tests/registry_coverage.rs` fails otherwise).
//!
//! Both model-backed schedulers are a [`LiveRegistry`], and their models
//! are *trained here, from the spec's own workload* — no
//! experiment-specific Rust: `enhanced` trains a [`TaskCoAnalyzer`] on
//! the cell's arrivals before the run and installs it in a registry only
//! its scheduler holds, and `live_registry` starts cold and receives
//! hot-swapped models from the in-timeline retraining component
//! ([`RetrainSource`](crate::run::RetrainSource)).

use ctlm_autoscale::ThresholdStep;
use ctlm_core::{GrowingModel, ModelRegistry, TaskCoAnalyzer, TrainConfig};
use ctlm_sched::placement::{BestFit, Placer, PreemptiveBestFit};
use ctlm_sched::scheduler::{LiveRegistry, MainOnly, OracleEnhanced, Scheduler};

use crate::build::BuiltCell;
use crate::spec::{PolicyParams, TrainSpec};
use crate::LabError;

/// A resolved scheduler plus the model registry backing it (present only
/// for `live_registry`, where the retraining component installs into it).
pub struct SchedulerInstance {
    /// The routing policy under test.
    pub scheduler: Box<dyn Scheduler>,
    /// Hot-swap handle for in-timeline retraining. `None` for
    /// `enhanced`: its registry is private to its scheduler, so its
    /// pre-trained model stays installed for the whole run.
    pub registry: Option<ModelRegistry>,
}

/// Scheduler registry names, in registration order.
pub const SCHEDULER_NAMES: &[&str] = &["main_only", "oracle", "enhanced", "live_registry"];

/// Placer registry names, in registration order.
pub const PLACER_NAMES: &[&str] = &["best_fit", "preemptive_best_fit"];

/// Autoscaling-policy registry names, in registration order.
pub const AUTOSCALE_POLICY_NAMES: &[&str] = &[ThresholdStep::NAME];

/// Retry-policy names ([`RetrySpec::policy`](crate::spec::RetrySpec::policy)),
/// in registration order.
pub const RETRY_POLICY_NAMES: &[&str] = &["fixed", "exponential"];

/// Validates a scheduler name without building it (that needs a cell).
pub fn check_scheduler(name: &str) -> Result<(), LabError> {
    if SCHEDULER_NAMES.contains(&name) {
        return Ok(());
    }
    Err(unknown("scheduler", name, SCHEDULER_NAMES))
}

/// The error for a `kind` name missing from its `registry`.
pub(crate) fn unknown(kind: &str, name: &str, registry: &[&str]) -> LabError {
    let names = registry.join(", ");
    LabError::msg(format!("unknown {kind} {name:?} (registry: {names})"))
}

/// Builds the autoscaling policy by registry name. Unset [`PolicyParams`]
/// fields take the documented defaults.
pub fn build_autoscale_policy(
    name: &str,
    params: &PolicyParams,
) -> Result<ThresholdStep, LabError> {
    if name != ThresholdStep::NAME {
        return Err(unknown("autoscale policy", name, AUTOSCALE_POLICY_NAMES));
    }
    let d = ThresholdStep::default();
    Ok(ThresholdStep {
        up_pending: params.up_pending.map_or(d.up_pending, |v| v as usize),
        down_util: params.down_util.unwrap_or(d.down_util),
        step: params.step.map_or(d.step, |v| v as usize),
    })
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

/// Builds a placer by registry name.
pub fn build_placer(name: &str) -> Result<Box<dyn Placer>, LabError> {
    match name {
        "best_fit" => Ok(Box::new(BestFit)),
        "preemptive_best_fit" => Ok(Box::new(PreemptiveBestFit)),
        other => Err(unknown("placer", other, PLACER_NAMES)),
    }
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
