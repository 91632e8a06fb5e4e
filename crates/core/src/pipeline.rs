//! The continuous-learning evaluation pipeline.
//!
//! Drives a model (Growing, Fully-Retrain, or a scikit-learn-style
//! baseline) across the [`DatasetStep`]s a replayed trace produced —
//! training/retraining at every feature-array extension and recording
//! per-step accuracy, Group-0 F1, epochs and wall time. One run of this
//! pipeline is one column of Table X; its step records are the rows of
//! Table XI.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use ctlm_agocs::replay::DatasetStep;
use ctlm_baselines::{Classifier, MlpClassifier, RidgeClassifier, SgdClassifier, VotingClassifier};
use ctlm_data::dataset::NUM_GROUPS;
use ctlm_data::metrics::Evaluation;
use ctlm_data::split::{stratified_split, SplitConfig};

use crate::full_retrain::FullRetrainModel;
use crate::growing::GrowingModel;
use crate::trainer::{StepOutcome, TrainConfig};

/// Per-step record (one Table XI row).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StepRecord {
    /// Step index.
    pub step: usize,
    /// `day HH:MM` simulation-time label.
    pub label: String,
    /// Feature width at the step.
    pub features: usize,
    /// Newly added features.
    pub new_features: usize,
    /// Cumulative dataset rows.
    pub rows: usize,
    /// Test evaluation.
    pub evaluation: Evaluation,
    /// Epochs run (0 where the notion does not apply).
    pub epochs: usize,
    /// Wall time of the step.
    pub wall_time: Duration,
}

/// Aggregate of one model across all steps (one Table X cell group).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunSummary {
    /// Model display name.
    pub model: String,
    /// Mean accuracy across steps.
    pub avg_accuracy: f64,
    /// Mean Group-0 F1 across the steps that had Group 0 test samples.
    pub avg_group0_f1: Option<f64>,
    /// Total epochs across steps.
    pub epochs_total: usize,
    /// Total wall time across steps.
    pub wall_time_total: Duration,
    /// The per-step records.
    pub steps: Vec<StepRecord>,
}

impl RunSummary {
    fn from_steps(model: String, steps: Vec<StepRecord>) -> Self {
        assert!(!steps.is_empty(), "a run needs at least one step");
        let avg_accuracy =
            steps.iter().map(|s| s.evaluation.accuracy).sum::<f64>() / steps.len() as f64;
        let f1s: Vec<f64> = steps
            .iter()
            .filter_map(|s| s.evaluation.group0_f1)
            .collect();
        let avg_group0_f1 = if f1s.is_empty() {
            None
        } else {
            Some(f1s.iter().sum::<f64>() / f1s.len() as f64)
        };
        let epochs_total = steps.iter().map(|s| s.epochs).sum();
        let wall_time_total = steps.iter().map(|s| s.wall_time).sum();
        Self {
            model,
            avg_accuracy,
            avg_group0_f1,
            epochs_total,
            wall_time_total,
            steps,
        }
    }
}

/// Which of the paper's two models to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// The Growing (transfer) model.
    Growing,
    /// The Fully-Retrain variant.
    FullyRetrain,
}

/// Runs Growing or Fully-Retrain across the steps.
pub fn run_model_over_steps(
    kind: ModelKind,
    steps: &[DatasetStep],
    config: TrainConfig,
    seed: u64,
) -> RunSummary {
    run_model_over_steps_observed(kind, steps, config, seed, |_| {})
}

/// [`run_model_over_steps`], showing `on_step` every step's full
/// [`StepOutcome`] — the host-plane figures (attempts, the phase
/// breakdown of the wall time) that a [`StepRecord`] deliberately does
/// not carry, because records are compared byte for byte across runs.
pub fn run_model_over_steps_observed(
    kind: ModelKind,
    steps: &[DatasetStep],
    config: TrainConfig,
    seed: u64,
    mut on_step: impl FnMut(&StepOutcome),
) -> RunSummary {
    assert!(!steps.is_empty(), "no dataset steps to run over");
    let mut growing = GrowingModel::new(config);
    let mut retrain = FullRetrainModel::new(config);
    let mut records = Vec::with_capacity(steps.len());
    for (i, step) in steps.iter().enumerate() {
        let outcome = match kind {
            ModelKind::Growing => growing.step(&step.vv, seed.wrapping_add(i as u64)),
            ModelKind::FullyRetrain => retrain.step(&step.vv, seed.wrapping_add(i as u64)),
        };
        on_step(&outcome);
        records.push(StepRecord {
            step: step.index,
            label: step.label.clone(),
            features: step.features_count,
            new_features: step.new_features,
            rows: step.vv.len(),
            evaluation: outcome.evaluation,
            epochs: outcome.epochs,
            wall_time: outcome.wall_time,
        });
    }
    let name = match kind {
        ModelKind::Growing => "Growing",
        ModelKind::FullyRetrain => "Fully Retrain",
    };
    RunSummary::from_steps(name.to_string(), records)
}

/// The scikit-learn baseline set of §V.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BaselineKind {
    /// `MLPClassifier` (30 hidden units, Adam).
    Mlp,
    /// `RidgeClassifier`.
    Ridge,
    /// `SGDClassifier` (linear SVM).
    Sgd,
    /// Hard-voting ensemble of the above.
    Ensemble,
}

impl BaselineKind {
    /// All four baselines in paper order.
    pub fn all() -> [BaselineKind; 4] {
        [
            BaselineKind::Mlp,
            BaselineKind::Ridge,
            BaselineKind::Sgd,
            BaselineKind::Ensemble,
        ]
    }

    fn build(self, seed: u64) -> Box<dyn Classifier + Send> {
        match self {
            BaselineKind::Mlp => Box::new(MlpClassifier::paper_default(NUM_GROUPS, seed)),
            BaselineKind::Ridge => Box::new(RidgeClassifier::new(NUM_GROUPS)),
            BaselineKind::Sgd => Box::new(SgdClassifier::new(NUM_GROUPS, seed)),
            BaselineKind::Ensemble => Box::new(VotingClassifier::paper_default(NUM_GROUPS, seed)),
        }
    }
}

/// Runs a baseline across the steps — trained from scratch at each step,
/// as the paper does ("except for the Growing model, all models were
/// trained from scratch").
pub fn run_baseline_over_steps(
    kind: BaselineKind,
    steps: &[DatasetStep],
    test_fraction: f64,
    seed: u64,
) -> RunSummary {
    assert!(!steps.is_empty(), "no dataset steps to run over");
    let mut records = Vec::with_capacity(steps.len());
    let mut name = "";
    for (i, step) in steps.iter().enumerate() {
        let t0 = Instant::now();
        let step_seed = seed.wrapping_add(i as u64);
        let (train_idx, test_idx) = stratified_split(
            &step.vv.y,
            SplitConfig {
                test_fraction,
                seed: step_seed,
            },
        );
        let train = step.vv.select(&train_idx);
        let test = step.vv.select(&test_idx);
        let mut clf = kind.build(step_seed);
        name = clf.name();
        let report = clf.fit(&train.x, &train.y);
        let pred = clf.predict(&test.x);
        let evaluation = Evaluation::compute(&test.y, &pred, NUM_GROUPS);
        records.push(StepRecord {
            step: step.index,
            label: step.label.clone(),
            features: step.features_count,
            new_features: step.new_features,
            rows: step.vv.len(),
            evaluation,
            epochs: report.epochs,
            wall_time: t0.elapsed(),
        });
    }
    RunSummary::from_steps(name.to_string(), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_agocs::Replayer;
    use ctlm_trace::{CellSet, Scale, TraceGenerator};

    fn small_steps() -> Vec<DatasetStep> {
        // The Table XI configuration (scaled 2019c cell): large enough
        // that the 26 groups are learnable, so acceptance fires and the
        // transfer-vs-scratch epoch gap is observable.
        let trace = TraceGenerator::generate_cell(
            CellSet::C2019c,
            Scale {
                machines: 260,
                collections: 1_600,
                seed: 42,
            },
        );
        Replayer::default().replay(&trace).steps
    }

    #[test]
    fn growing_pipeline_runs_and_scores_well() {
        let steps = small_steps();
        let cfg = TrainConfig {
            epochs_limit: 100,
            max_attempts: 3,
            ..TrainConfig::default()
        };
        let run = run_model_over_steps(ModelKind::Growing, &steps, cfg, 7);
        assert_eq!(run.steps.len(), steps.len());
        assert!(
            run.avg_accuracy > 0.90,
            "growing model degraded badly: {}",
            run.avg_accuracy
        );
        assert!(run.epochs_total > 0);
    }

    #[test]
    fn growing_uses_fewer_epochs_than_full_retrain() {
        // The paper's headline: 40–91 % fewer epochs.
        let steps = small_steps();
        let cfg = TrainConfig {
            epochs_limit: 100,
            max_attempts: 3,
            ..TrainConfig::default()
        };
        let g = run_model_over_steps(ModelKind::Growing, &steps, cfg, 7);
        let f = run_model_over_steps(ModelKind::FullyRetrain, &steps, cfg, 7);
        assert!(
            (g.epochs_total as f64) < 0.9 * f.epochs_total as f64,
            "growing {} epochs vs full retrain {}",
            g.epochs_total,
            f.epochs_total
        );
        // Accuracy stays comparable (within a few points).
        assert!(g.avg_accuracy > f.avg_accuracy - 0.08);
    }

    #[test]
    fn baselines_run_over_steps() {
        let steps = small_steps();
        // Ridge is the fastest baseline; it stands in for the set here.
        let run = run_baseline_over_steps(BaselineKind::Ridge, &steps, 0.25, 3);
        assert_eq!(run.model, "Ridge Classifier");
        assert_eq!(run.steps.len(), steps.len());
        assert!(
            run.avg_accuracy > 0.7,
            "ridge accuracy {}",
            run.avg_accuracy
        );
        assert_eq!(run.epochs_total, 0, "ridge reports no epochs");
    }
}
