//! The training routine (paper Fig. 2 and Listing 3).
//!
//! One routine serves both fresh initialisation and transfer fine-tuning:
//!
//! 1. stratified train/test split (when every class allows it);
//! 2. weighted cross-entropy (`[GROUP_0_CLASS_WEIGHT] + [1]*25`);
//! 3. `torch.optim.Adam(lr=0.05)`;
//! 4. optionally (growing mode) the per-column gradient multiplier on
//!    `fc1.weight` with everything except `fc1` frozen;
//! 5. after every epoch, evaluate; **early-exit** once accuracy exceeds
//!    0.95 *and* the Group-0 F1 exceeds 0.9;
//! 6. if the thresholds are not met within 100 epochs, discard and
//!    reinitialise (fail-fast), giving up after ten attempts.
//!
//! The routine copies no training data. [`train_rows`] borrows a feature
//! matrix and a label slice, takes the first `y.len()` rows as the
//! step's dataset, and trains straight from the split's index lists:
//! each mini-batch is gathered from the borrowed matrix into one reused
//! buffer, and only the test rows are gathered — once per step — for the
//! per-epoch evaluation. A caller holding one append-only training set
//! (the lab's in-timeline retrainer) therefore pays per step for the
//! split and the training itself, never for re-assembling rows it has
//! already seen. [`train_step`] is the same call over a whole
//! [`Dataset`].
//!
//! CO-VV data repeats rows (every unconstrained task is the empty row),
//! and work that depends only on a row runs once per distinct row:
//! `Net::train_batch` forwards each distinct `(row, label)` pair of a
//! batch once, and the test rows are numbered where they lie and only
//! the distinct ones gathered, so each epoch predicts those — through
//! the training step's `Workspace`, with no allocation — and maps the
//! predictions back. No float moves: a row's prediction does not depend
//! on the rows beside it.
//!
//! Where a step's time goes is reported beside it: [`StepOutcome::phases`]
//! splits `wall_time` into split, gather, forward + backward, gradient
//! scaling, optimiser and evaluation, and forward + backward further into
//! the stages of `Net::train_batch` ([`StageTimes`]) (host plane only —
//! it never reaches a serialised record).

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use ctlm_data::dataset::{Dataset, NUM_GROUPS};
use ctlm_data::metrics::Evaluation;
use ctlm_data::split::{stratified_split, SplitConfig};
use ctlm_nn::grad_scale::ColumnGradScale;
use ctlm_nn::{Adam, BatchIter, CrossEntropyLoss, Lap, Net, RowSlots, StageTimes, Workspace};
use ctlm_tensor::init::seeded_rng;
use ctlm_tensor::Csr;

/// Hyper-parameters, defaulting to the paper's values.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Hidden-layer width (paper: 30 neurons).
    pub hidden: usize,
    /// Class count (paper: 26 groups).
    pub n_classes: usize,
    /// Adam learning rate (paper: 0.05).
    pub lr: f32,
    /// Class weight for Group 0 (paper: 200).
    pub group0_class_weight: f32,
    /// Gradient multiplier for pre-trained input columns (paper: 0.1;
    /// above 0.2–0.3 "negated training effects", 0 "reduced accuracy").
    pub pretrained_gradient_rate: f32,
    /// Epoch cap per attempt (paper: 100).
    pub epochs_limit: usize,
    /// Early-exit accuracy threshold (paper: 0.95).
    pub accepted_accuracy: f64,
    /// Early-exit Group-0 F1 threshold (paper: 0.9).
    pub accepted_group0_f1: f64,
    /// Fail-fast attempt cap (paper: 10).
    pub max_attempts: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Test fraction for the stratified split.
    pub test_fraction: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            hidden: 30,
            n_classes: NUM_GROUPS,
            lr: 0.05,
            group0_class_weight: 200.0,
            pretrained_gradient_rate: 0.1,
            epochs_limit: 100,
            accepted_accuracy: 0.95,
            accepted_group0_f1: 0.9,
            max_attempts: 10,
            batch_size: 128,
            test_fraction: 0.25,
        }
    }
}

/// Where one training step's wall time went. The parts cover the step
/// from the split to the last evaluation; what they leave out of
/// [`StepOutcome::wall_time`] is per-attempt set-up (building the
/// network, sizing buffers). Host-dependent like `wall_time`, so it stays
/// on the outcome and is never copied into a
/// [`StepRecord`](crate::pipeline::StepRecord).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepPhases {
    /// Stratified split, plus gathering the test rows and finding the
    /// distinct ones.
    pub split: Duration,
    /// Mini-batch gathers (`select_rows_into` + labels).
    pub gather: Duration,
    /// `Net::train_batch`: zero-grad, forward, loss, backward.
    pub forward_backward: Duration,
    /// `forward_backward` by stage, as `Net::train_batch` clocked it.
    pub batch: StageTimes,
    /// The Listing-3 multiplier on `fc1.weight`'s gradient.
    pub grad_scale: Duration,
    /// `Adam::step`.
    pub optimiser: Duration,
    /// Per-epoch test prediction and scoring.
    pub evaluate: Duration,
}

impl StepPhases {
    /// The parts by name, in the order a step runs them.
    pub fn parts(&self) -> [(&'static str, Duration); 6] {
        [
            ("split", self.split),
            ("gather", self.gather),
            ("forward+backward", self.forward_backward),
            ("grad-scale", self.grad_scale),
            ("optimiser", self.optimiser),
            ("evaluate", self.evaluate),
        ]
    }

    /// Sum of the parts.
    pub fn total(&self) -> Duration {
        self.parts().iter().map(|&(_, d)| d).sum()
    }

    /// Adds another step's parts to these.
    pub fn add(&mut self, other: &StepPhases) {
        self.split += other.split;
        self.gather += other.gather;
        self.forward_backward += other.forward_backward;
        self.batch.add(&other.batch);
        self.grad_scale += other.grad_scale;
        self.optimiser += other.optimiser;
        self.evaluate += other.evaluate;
    }
}

/// Result of one training step (one row of Table XI).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StepOutcome {
    /// Test-set evaluation after training.
    pub evaluation: Evaluation,
    /// Total epochs run in this step (across attempts).
    pub epochs: usize,
    /// Attempts used (1 = first attempt accepted).
    pub attempts: usize,
    /// Whether transfer learning was used (false = trained from scratch).
    pub used_transfer: bool,
    /// Whether the acceptance thresholds were met.
    pub accepted: bool,
    /// Wall time of the whole step, including splitting and evaluation —
    /// the quantity the paper reports in minutes per step.
    pub wall_time: Duration,
    /// Where `wall_time` went.
    pub phases: StepPhases,
    /// Feature-array width trained at.
    pub features_count: usize,
}

/// How the network entering [`train_step`] was prepared.
pub enum Warmth {
    /// Fresh network, all parameters trainable.
    Fresh,
    /// Transfer-loaded network; input columns below `pretrained_cols`
    /// train at the reduced gradient rate, deeper layers are frozen.
    Transfer {
        /// Boundary between pre-trained and new input columns.
        pretrained_cols: usize,
    },
}

/// Splits, trains and evaluates one dataset step: [`train_rows`] over
/// the whole dataset.
///
/// # Panics
/// Panics if `config.max_attempts` is 0 or the dataset is empty.
pub fn train_step(
    dataset: &Dataset,
    config: &TrainConfig,
    seed: u64,
    warm: Option<(Net, Warmth)>,
    make_fresh: impl FnMut(u64) -> Net,
) -> (StepOutcome, Net) {
    train_rows(&dataset.x, &dataset.y, config, seed, warm, make_fresh)
}

/// Splits, trains and evaluates one step on the first `y.len()` rows of
/// `x` — the whole matrix, or a prefix of a longer append-only one. No
/// row is copied except into the mini-batch and test buffers.
///
/// `make_fresh` constructs a new network for (re)initialisation attempts;
/// `warm` optionally supplies a transfer-loaded network for the first
/// attempt. Returns the outcome plus the final network.
///
/// # Panics
/// Panics if `config.max_attempts` is 0 (no attempt, so no network to
/// return — `ExperimentSpec::validate` rejects such a spec before it gets
/// here), if `y` is empty or longer than `x` has rows.
pub fn train_rows(
    x: &Csr,
    y: &[u8],
    config: &TrainConfig,
    seed: u64,
    warm: Option<(Net, Warmth)>,
    mut make_fresh: impl FnMut(u64) -> Net,
) -> (StepOutcome, Net) {
    assert!(config.max_attempts > 0, "max_attempts must be at least 1");
    assert!(y.len() <= x.rows(), "more labels than feature rows");
    let t_start = Instant::now();
    let mut lap = Lap::start();
    let mut phases = StepPhases::default();
    let (train_idx, test_idx) = stratified_split(
        y,
        SplitConfig {
            test_fraction: config.test_fraction,
            seed,
        },
    );
    // The test side is read whole once per epoch, so it is gathered once,
    // each distinct row stored once: the rows are numbered where they
    // lie, only the distinct ones are copied, and an epoch predicts
    // those and maps the predictions back. The training side is only
    // ever read a mini-batch at a time.
    let test_y: Vec<u8> = test_idx.iter().map(|&i| y[i]).collect();
    let mut test_slots = RowSlots::new();
    test_slots.assign_subset(x, &test_idx);
    let distinct: Vec<usize> = test_slots.firsts().iter().map(|&i| test_idx[i]).collect();
    let test_x = x.select_rows(&distinct);
    let mut pred: Vec<u8> = Vec::with_capacity(test_y.len());
    phases.split = lap.lap();
    let loss_fn = CrossEntropyLoss::group0_boosted(config.n_classes, config.group0_class_weight);

    let mut total_epochs = 0usize;
    let mut attempts = 0usize;
    let mut used_transfer = false;
    let mut best: Option<(Evaluation, Net)> = None;
    let mut accepted = false;

    // Steady-state buffers, reused across every batch, epoch and attempt:
    // the batch's row numbers, the gathered mini-batch, its labels, and
    // the forward/backward workspace. After the first batch warms their
    // capacities, training runs without heap allocation.
    let mut ws = Workspace::new();
    let mut rows: Vec<usize> = Vec::with_capacity(config.batch_size);
    let mut xb = Csr::empty(0, x.cols());
    let mut yb: Vec<u8> = Vec::with_capacity(config.batch_size);

    let mut pending_warm = warm;
    while attempts < config.max_attempts {
        attempts += 1;
        let (mut net, warmth) = match pending_warm.take() {
            Some((net, w)) => {
                used_transfer = matches!(w, Warmth::Transfer { .. });
                (net, w)
            }
            None => (
                make_fresh(seed.wrapping_add(attempts as u64 * 7919)),
                Warmth::Fresh,
            ),
        };
        let multiplier = match warmth {
            Warmth::Transfer { pretrained_cols } => Some(ColumnGradScale::new(
                pretrained_cols,
                x.cols(),
                config.pretrained_gradient_rate,
            )),
            Warmth::Fresh => None,
        };
        let mut opt = Adam::new(config.lr);
        let mut batches =
            BatchIter::new(train_idx.len(), config.batch_size, seed ^ attempts as u64);

        let mut eval = Evaluation {
            accuracy: 0.0,
            group0_f1: None,
        };
        lap.lap();
        for _epoch in 0..config.epochs_limit {
            total_epochs += 1;
            for batch in batches.batches() {
                rows.clear();
                rows.extend(batch.iter().map(|&i| train_idx[i]));
                x.select_rows_into(&rows, &mut xb);
                yb.clear();
                yb.extend(rows.iter().map(|&r| y[r]));
                phases.gather += lap.lap();
                net.train_batch(&xb, &yb, &loss_fn, &mut ws);
                phases.forward_backward += lap.lap();
                if let Some(m) = &multiplier {
                    // Listing 3: scale pre-trained fc1.weight gradients in
                    // place before the optimizer step.
                    m.apply(net.input_layer_mut());
                    phases.grad_scale += lap.lap();
                }
                opt.step(&mut net);
                phases.optimiser += lap.lap();
            }
            // model.eval(); evaluate; early-exit when acceptable. The
            // forward pass reuses the training step's buffers.
            let logits = net.forward_into(&test_x, &mut ws);
            pred.clear();
            pred.extend(
                test_slots
                    .slot_of()
                    .iter()
                    .map(|&s| logits.argmax_row(s as usize) as u8),
            );
            eval = Evaluation::compute(&test_y, &pred, config.n_classes);
            phases.evaluate += lap.lap();
            if accept(&eval, config) {
                accepted = true;
                break;
            }
        }
        let better = match &best {
            None => true,
            Some((b, _)) => eval.accuracy > b.accuracy,
        };
        if better {
            best = Some((eval, net));
        }
        if accepted {
            break;
        }
        // Fail-fast: discard this model; the next attempt reinitialises.
    }

    phases.batch = ws.stage_times();
    let (evaluation, net) = best.expect("max_attempts > 0, so an attempt ran");
    (
        StepOutcome {
            evaluation,
            epochs: total_epochs,
            attempts,
            used_transfer,
            accepted,
            wall_time: t_start.elapsed(),
            phases,
            features_count: x.cols(),
        },
        net,
    )
}

/// The paper's acceptance predicate. The Group-0 F1 condition applies
/// only when the test split actually contains Group 0 samples (Table XI
/// omits the score otherwise).
fn accept(eval: &Evaluation, config: &TrainConfig) -> bool {
    let acc_ok = eval.accuracy > config.accepted_accuracy;
    let f1_ok = match eval.group0_f1 {
        Some(f1) => f1 > config.accepted_group0_f1,
        None => true,
    };
    acc_ok && f1_ok
}

/// Builds a fresh paper-architecture network for a feature width.
pub fn fresh_two_layer(features: usize, config: &TrainConfig, seed: u64) -> Net {
    let mut rng = seeded_rng(seed ^ 0xF2E5_11AA);
    Net::two_layer(features, config.hidden, config.n_classes, &mut rng)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ctlm_data::dataset::DatasetBuilder;

    /// A dataset whose group label is trivially decodable from which
    /// block of columns is marked — the shape of CO-VV data.
    pub(crate) fn synthetic_dataset(n: usize, features: usize, seed: u64) -> Dataset {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        let mut b = DatasetBuilder::new(features, NUM_GROUPS);
        for _ in 0..n {
            // ~2% group 0, the rest spread over groups 1..26.
            let group: u8 = if rng.gen_bool(0.03) {
                0
            } else {
                rng.gen_range(1..NUM_GROUPS as u8)
            };
            // Mark `group`-proportional prefix of the feature block.
            let marks = 2 + (group as usize * (features - 4)) / NUM_GROUPS;
            let entries: Vec<(usize, f32)> = (0..marks).map(|c| (c, 1.0)).collect();
            b.push(entries, group);
        }
        b.snapshot(features)
    }

    #[test]
    fn fresh_training_reaches_acceptance() {
        let ds = synthetic_dataset(800, 60, 1);
        let cfg = TrainConfig {
            epochs_limit: 60,
            ..TrainConfig::default()
        };
        let (out, _net) = train_step(&ds, &cfg, 1, None, |s| {
            fresh_two_layer(ds.features_count(), &cfg, s)
        });
        assert!(out.accepted, "training failed: acc {:?}", out.evaluation);
        assert!(out.evaluation.accuracy > 0.95);
        assert_eq!(out.features_count, 60);
        assert!(!out.used_transfer);
    }

    #[test]
    fn early_exit_keeps_epochs_low_on_easy_data() {
        let ds = synthetic_dataset(600, 40, 2);
        let cfg = TrainConfig::default();
        let (out, _) = train_step(&ds, &cfg, 2, None, |s| {
            fresh_two_layer(ds.features_count(), &cfg, s)
        });
        assert!(out.accepted);
        assert!(
            out.epochs < cfg.epochs_limit,
            "early exit expected, ran {} epochs",
            out.epochs
        );
    }

    #[test]
    fn fail_fast_respects_attempt_cap() {
        // An unlearnable dataset: random labels, no features.
        use rand::Rng;
        let mut rng = seeded_rng(3);
        let mut b = DatasetBuilder::new(4, NUM_GROUPS);
        for _ in 0..200 {
            b.push([(rng.gen_range(0..4), 1.0)], rng.gen_range(0..26));
        }
        let ds = b.snapshot(4);
        let cfg = TrainConfig {
            epochs_limit: 2,
            max_attempts: 3,
            ..TrainConfig::default()
        };
        let (out, _) = train_step(&ds, &cfg, 3, None, |s| {
            fresh_two_layer(ds.features_count(), &cfg, s)
        });
        assert!(!out.accepted);
        assert_eq!(out.attempts, 3, "must stop after max_attempts");
        assert_eq!(out.epochs, 6, "2 epochs × 3 attempts");
    }

    #[test]
    fn phases_sum_to_the_wall_time() {
        let ds = synthetic_dataset(4_000, 120, 4);
        let cfg = TrainConfig {
            epochs_limit: 6,
            max_attempts: 1,
            accepted_accuracy: 2.0,
            ..TrainConfig::default()
        };
        let (out, _) = train_step(&ds, &cfg, 4, None, |s| {
            fresh_two_layer(ds.features_count(), &cfg, s)
        });
        let (parts, wall) = (out.phases.total(), out.wall_time);
        assert!(parts <= wall, "parts {parts:?} exceed the step's {wall:?}");
        assert!(
            parts.as_secs_f64() >= 0.95 * wall.as_secs_f64(),
            "phases account for {parts:?} of {wall:?}: {:?}",
            out.phases
        );
        assert_eq!(out.phases.grad_scale, Duration::ZERO, "fresh start");
        // The stages tile each `train_batch` call inside the trainer's
        // lap around it.
        let stage_parts = out.phases.batch.parts();
        let (stages, step) = (
            stage_parts.iter().map(|p| p.1).sum::<Duration>(),
            out.phases.forward_backward,
        );
        assert!(stages <= step, "stages {stages:?} exceed {step:?}");
        assert!(
            stages.as_secs_f64() >= 0.9 * step.as_secs_f64(),
            "stages account for {stages:?} of {step:?}: {stage_parts:?}"
        );
        assert!(
            stage_parts.iter().all(|p| p.1 > Duration::ZERO),
            "{stage_parts:?}"
        );
        assert!(
            out.phases
                .parts()
                .iter()
                .filter(|p| p.1 > Duration::ZERO)
                .count()
                == 5
        );
    }

    /// Training on a row prefix of a longer matrix is training on a
    /// dataset holding exactly those rows.
    #[test]
    fn a_row_prefix_trains_like_its_own_dataset() {
        let full = synthetic_dataset(900, 50, 5);
        let n = 600;
        let prefix = full.select(&(0..n).collect::<Vec<_>>());
        let cfg = TrainConfig {
            epochs_limit: 3,
            max_attempts: 2,
            ..TrainConfig::default()
        };
        let fresh = |s| fresh_two_layer(50, &cfg, s);
        let (a, net_a) = train_rows(&full.x, &full.y[..n], &cfg, 5, None, fresh);
        let (b, net_b) = train_step(&prefix, &cfg, 5, None, fresh);
        assert_eq!(net_a.state_dict(), net_b.state_dict());
        assert_eq!(a.evaluation.accuracy, b.evaluation.accuracy);
        assert_eq!((a.epochs, a.attempts), (b.epochs, b.attempts));
    }

    /// Scoring each distinct test row once and mapping the predictions
    /// back is scoring every test row: on data shaped like CO-VV (mostly
    /// the empty row, the rest a few repeated rows), after every epoch.
    #[test]
    fn deduplicated_evaluation_equals_scoring_every_test_row() {
        use ctlm_data::split::{stratified_split, SplitConfig};
        use rand::Rng;
        let mut rng = seeded_rng(8);
        let mut b = DatasetBuilder::new(40, NUM_GROUPS);
        for _ in 0..600 {
            if rng.gen_bool(0.8) {
                b.push(std::iter::empty::<(usize, f32)>(), 25);
            } else {
                let set = rng.gen_range(0..8usize);
                b.push((set..40).step_by(3).map(|c| (c, 1.0)), set as u8);
            }
        }
        let ds = b.snapshot(40);
        let seed = 8;
        let base = TrainConfig {
            max_attempts: 1,
            accepted_accuracy: 2.0,
            ..TrainConfig::default()
        };
        let split = SplitConfig {
            test_fraction: base.test_fraction,
            seed,
        };
        let (_, test_idx) = stratified_split(&ds.y, split);
        let test_x = ds.x.select_rows(&test_idx);
        let test_y: Vec<u8> = test_idx.iter().map(|&i| ds.y[i]).collect();
        for epochs in 1..=4 {
            let cfg = TrainConfig {
                epochs_limit: epochs,
                ..base
            };
            let (out, net) = train_step(&ds, &cfg, seed, None, |s| fresh_two_layer(40, &cfg, s));
            assert_eq!(out.epochs, epochs);
            let direct = Evaluation::compute(&test_y, &net.predict(&test_x), cfg.n_classes);
            assert_eq!(out.evaluation, direct, "after epoch {epochs}");
        }
    }

    #[test]
    #[should_panic(expected = "max_attempts must be at least 1")]
    fn zero_attempts_is_a_documented_panic() {
        let ds = synthetic_dataset(100, 20, 6);
        let cfg = TrainConfig {
            max_attempts: 0,
            ..TrainConfig::default()
        };
        let _ = train_step(&ds, &cfg, 6, None, |s| fresh_two_layer(20, &cfg, s));
    }

    #[test]
    fn acceptance_predicate_handles_missing_group0() {
        let cfg = TrainConfig::default();
        let ok = Evaluation {
            accuracy: 0.99,
            group0_f1: None,
        };
        assert!(
            accept(&ok, &cfg),
            "missing Group 0 must not block acceptance"
        );
        let bad_f1 = Evaluation {
            accuracy: 0.99,
            group0_f1: Some(0.5),
        };
        assert!(!accept(&bad_f1, &cfg));
        let bad_acc = Evaluation {
            accuracy: 0.90,
            group0_f1: Some(1.0),
        };
        assert!(!accept(&bad_acc, &cfg));
    }
}
