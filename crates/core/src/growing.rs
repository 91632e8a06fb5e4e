//! The Growing model — the paper's headline mechanism.
//!
//! Between dataset steps the CO-VV feature array widens. Instead of
//! retraining from scratch, the Growing model:
//!
//! 1. restores the saved state dict (Listing 1);
//! 2. pads `fc1.weight` on the right with zero columns to the new width
//!    (Listing 2) — reshaping *within the state dict* before restoring,
//!    exactly as the paper does;
//! 3. trains with everything frozen except `fc1`, whose pre-trained
//!    weight columns receive gradients scaled by 0.1 while the new
//!    columns train at full rate (Listing 3);
//! 4. on acceptance-failure after 100 epochs, discards the pre-trained
//!    model and reinitialises (fail-fast), up to ten attempts.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use ctlm_data::dataset::Dataset;
use ctlm_data::vocab::ValueVocab;
use ctlm_nn::state_dict::pad_input_weight;
use ctlm_nn::{Layer, Net, StateDict};
use ctlm_tensor::Csr;

use crate::analyzer::TaskCoAnalyzer;
use crate::trainer::{fresh_two_layer, train_rows, StepOutcome, TrainConfig, Warmth};

/// The continuously-growing CTLM model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GrowingModel {
    config: TrainConfig,
    state: Option<StateDict>,
    features: usize,
}

impl GrowingModel {
    /// A new (untrained) growing model.
    pub fn new(config: TrainConfig) -> Self {
        Self {
            config,
            state: None,
            features: 0,
        }
    }

    /// Feature width of the saved model (0 before first training).
    pub fn features(&self) -> usize {
        self.features
    }

    /// True once a model has been trained and saved.
    #[cfg(test)]
    pub fn is_trained(&self) -> bool {
        self.state.is_some()
    }

    /// The saved state dict, when trained.
    pub fn state_dict(&self) -> Option<&StateDict> {
        self.state.as_ref()
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Materialises the current model as a network (for the analyzer).
    ///
    /// # Panics
    /// Panics when called before any training step.
    pub fn to_net(&self) -> Net {
        let sd = self.state.as_ref().expect("model not trained yet");
        Net::from_state_dict(sd).expect("own state dict must load")
    }

    /// Like [`GrowingModel::to_net`] but zero-padded to `width` — the
    /// Listing-2 surgery, done inside a copy of the state dict before
    /// restoring it. A warm training step starts from this network, and
    /// [`GrowingModel::analyzer`] scores with it when the vocabulary has
    /// grown past the last trained width; the padded columns contribute
    /// nothing until they are trained.
    ///
    /// # Panics
    /// Panics when untrained or when `width < features()`.
    pub fn to_net_padded(&self, width: usize) -> Net {
        assert!(width >= self.features, "cannot shrink to width {width}");
        if width == self.features {
            return self.to_net();
        }
        let sd = self.state.as_ref().expect("model not trained yet");
        let mut padded = sd.clone();
        pad_input_weight(&mut padded, "fc1.weight", width).expect("own fc1.weight must pad");
        Net::from_state_dict(&padded).expect("padded state dict must load")
    }

    /// The current model as a [`TaskCoAnalyzer`] over `vocab` — the one
    /// place a trained model becomes an analyzer. The vocabulary may have
    /// outgrown the last trained width (values observed after the
    /// training snapshot): `fc1.weight` is then zero-padded to it, and the
    /// new columns contribute nothing until the next training step.
    ///
    /// # Panics
    /// Panics when untrained or when `vocab` is narrower than
    /// [`features`](Self::features).
    pub fn analyzer(&self, vocab: impl Into<Arc<ValueVocab>>) -> TaskCoAnalyzer {
        let vocab = vocab.into();
        TaskCoAnalyzer::new(self.to_net_padded(vocab.len()), vocab)
    }

    /// Runs one training step on the (cumulative) dataset of a feature-
    /// extension step, transferring knowledge from the previous step's
    /// model when possible.
    ///
    /// # Panics
    /// Panics if the configuration's `max_attempts` is 0.
    pub fn step(&mut self, dataset: &Dataset, seed: u64) -> StepOutcome {
        self.step_rows(&dataset.x, &dataset.y, seed)
    }

    /// [`GrowingModel::step`] on the first `y.len()` rows of `x`, borrowed
    /// — for a caller that keeps one append-only training set and trains
    /// on ever longer prefixes of it (see
    /// [`train_rows`]).
    pub fn step_rows(&mut self, x: &Csr, y: &[u8], seed: u64) -> StepOutcome {
        let new_width = x.cols();
        let warm = (self.features > 0 && new_width >= self.features).then(|| {
            // Listing 2: reshape inside the state dict, then restore.
            let mut net = self.to_net_padded(new_width);
            // Listing 1/3 freezing: every layer frozen except fc1 (whose
            // weight gets the multiplier and whose bias trains freely).
            for layer in net.dense_layers_mut() {
                if let Layer::Linear(l) = layer {
                    l.freeze();
                }
            }
            let pretrained_cols = self.features;
            (net, Warmth::Transfer { pretrained_cols })
        });
        let cfg = self.config;
        let (outcome, net) = train_rows(x, y, &cfg, seed, warm, |s| {
            fresh_two_layer(new_width, &cfg, s)
        });
        self.state = Some(net.state_dict());
        self.features = new_width;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::tests::synthetic_dataset;
    use ctlm_data::dataset::NUM_GROUPS;

    fn quick_config() -> TrainConfig {
        TrainConfig {
            epochs_limit: 60,
            ..TrainConfig::default()
        }
    }

    /// Widens a synthetic dataset by appending noise columns, keeping the
    /// learned signal in the original prefix — the CO-VV growth pattern.
    fn widened(base: &Dataset, extra: usize) -> Dataset {
        let mut d = base.clone();
        d.widen(base.features_count() + extra);
        d
    }

    #[test]
    fn first_step_trains_from_scratch() {
        let ds = synthetic_dataset(700, 50, 10);
        let mut m = GrowingModel::new(quick_config());
        assert!(!m.is_trained());
        let out = m.step(&ds, 1);
        assert!(out.accepted, "initial training failed");
        assert!(!out.used_transfer);
        assert!(m.is_trained());
        assert_eq!(m.features(), 50);
    }

    #[test]
    fn second_step_uses_transfer_and_fewer_epochs() {
        let ds = synthetic_dataset(700, 50, 11);
        let mut m = GrowingModel::new(quick_config());
        let first = m.step(&ds, 1);
        assert!(first.accepted);

        // The feature array grows; old rows gain implicit zero columns.
        let ds2 = widened(&ds, 6);
        let out = m.step(&ds2, 2);
        assert!(out.used_transfer, "second step must warm-start");
        assert!(out.accepted, "transfer step failed acceptance");
        assert!(
            out.epochs <= first.epochs,
            "transfer ({} epochs) should not need more than scratch ({})",
            out.epochs,
            first.epochs
        );
        assert_eq!(m.features(), 56);
    }

    #[test]
    fn padded_model_predicts_identically_on_old_features() {
        // Zero-padding must leave behaviour on the old feature prefix
        // unchanged — the core Listing-2 invariant.
        let ds = synthetic_dataset(400, 40, 12);
        let mut m = GrowingModel::new(quick_config());
        m.step(&ds, 3);
        let net_before = m.to_net();
        let pred_before = net_before.predict(&ds.x);

        // Pad manually (no retraining) and re-predict on widened rows.
        let mut padded = m.state_dict().unwrap().clone();
        pad_input_weight(&mut padded, "fc1.weight", 48).unwrap();
        let net_after = Net::from_state_dict(&padded).unwrap();
        let ds_wide = widened(&ds, 8);
        let pred_after = net_after.predict(&ds_wide.x);
        assert_eq!(
            pred_before, pred_after,
            "zero padding changed old-prefix behaviour"
        );
    }

    #[test]
    fn state_dict_roundtrips_through_serde() {
        let ds = synthetic_dataset(300, 30, 13);
        let mut m = GrowingModel::new(quick_config());
        m.step(&ds, 4);
        let json = serde_json::to_string(&m).unwrap();
        let back: GrowingModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.features(), m.features());
        let a = m.to_net().predict(&ds.x);
        let b = back.to_net().predict(&ds.x);
        assert_eq!(a, b);
    }

    #[test]
    fn labels_stay_in_range_after_steps() {
        let ds = synthetic_dataset(500, 45, 14);
        let mut m = GrowingModel::new(quick_config());
        m.step(&ds, 5);
        let pred = m.to_net().predict(&ds.x);
        assert!(pred.iter().all(|&p| (p as usize) < NUM_GROUPS));
    }
}
