//! The Fully-Retrain variant.
//!
//! The paper's main comparison point for the Growing model: the same
//! two-layer architecture, the same loss, optimizer and acceptance
//! thresholds — but trained from scratch on every feature-array
//! extension. Accuracy is comparable; the epoch count (and so wall time)
//! is what differs.

use serde::{Deserialize, Serialize};

use ctlm_data::dataset::Dataset;
use ctlm_nn::{Net, StateDict};

use crate::trainer::{fresh_two_layer, train_step, StepOutcome, TrainConfig};

/// A model retrained from scratch at every step.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FullRetrainModel {
    config: TrainConfig,
    state: Option<StateDict>,
    features: usize,
}

impl FullRetrainModel {
    /// A new variant with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Self {
            config,
            state: None,
            features: 0,
        }
    }

    /// True once trained.
    pub fn is_trained(&self) -> bool {
        self.state.is_some()
    }

    /// Feature width of the last trained model.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Materialises the current model.
    ///
    /// # Panics
    /// Panics before the first step.
    pub fn to_net(&self) -> Net {
        let sd = self.state.as_ref().expect("model not trained yet");
        Net::from_state_dict(sd).expect("own state dict must load")
    }

    /// Trains from scratch on the step's dataset.
    pub fn step(&mut self, dataset: &Dataset, seed: u64) -> StepOutcome {
        let cfg = self.config;
        let width = dataset.features_count();
        let (outcome, net) = train_step(dataset, &cfg, seed, None, |s| {
            fresh_two_layer(width, &cfg, s)
        });
        self.state = Some(net.state_dict());
        self.features = width;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::tests::synthetic_dataset;

    #[test]
    fn never_uses_transfer() {
        let ds = synthetic_dataset(600, 40, 20);
        let mut m = FullRetrainModel::new(TrainConfig::default());
        let a = m.step(&ds, 1);
        assert!(!a.used_transfer);
        let mut wide = ds.clone();
        wide.widen(46);
        let b = m.step(&wide, 2);
        assert!(
            !b.used_transfer,
            "fully-retrain must always start from scratch"
        );
        assert!(b.accepted);
        assert_eq!(m.features(), 46);
    }

    #[test]
    fn reaches_acceptance_on_learnable_data() {
        let ds = synthetic_dataset(700, 50, 21);
        let mut m = FullRetrainModel::new(TrainConfig::default());
        let out = m.step(&ds, 3);
        assert!(out.accepted);
        assert!(out.evaluation.accuracy > 0.95);
    }
}
