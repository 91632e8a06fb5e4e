//! The Task CO Analyzer (paper Fig. 3).
//!
//! “It can enhance cluster orchestration systems by rerouting
//! high-priority tasks to specialized allocation strategies before the
//! main cluster scheduler processes the pending job queue. … Additionally,
//! updating ML model runs in parallel and won't block or slow down the
//! main cluster scheduler.”
//!
//! [`TaskCoAnalyzer`] scores one task's constraints in real time;
//! [`ModelRegistry`] is the hot-swap point: the training pipeline installs
//! refreshed analyzers while schedulers keep reading the previous one
//! lock-free-ish (a brief `RwLock` read).

use std::sync::Arc;

use std::sync::RwLock;

use ctlm_data::compaction::{collapse, AttrRequirement, CompactionError};
use ctlm_data::encode::co_vv::CoVvEncoder;
use ctlm_data::vocab::ValueVocab;
use ctlm_nn::Net;
use ctlm_tensor::CsrBuilder;
use ctlm_trace::TaskConstraint;

/// Real-time constraint classifier: CO-VV encoding + the trained network.
#[derive(Clone, Debug)]
pub struct TaskCoAnalyzer {
    net: Arc<Net>,
    /// Shared, not owned: a retrainer hot-swapping analyzers over one
    /// vocabulary hands each the same `Arc` instead of a deep copy.
    vocab: Arc<ValueVocab>,
    /// Groups at or below this threshold are flagged high-priority
    /// (paper: Group 0 — tasks allocable to a single node).
    pub priority_threshold: u8,
}

impl TaskCoAnalyzer {
    /// Builds an analyzer from a trained network and the vocabulary it
    /// was trained against (owned, or an `Arc` shared with other
    /// analyzers).
    ///
    /// # Panics
    /// Panics when the network width disagrees with the vocabulary.
    pub fn new(net: Net, vocab: impl Into<Arc<ValueVocab>>) -> Self {
        let vocab = vocab.into();
        assert_eq!(
            net.in_features(),
            vocab.len(),
            "network width must match vocabulary width"
        );
        Self {
            net: Arc::new(net),
            vocab,
            priority_threshold: 0,
        }
    }

    /// Scores an already-collapsed requirement set: CO-VV row, one network
    /// call; an unconstrained task scores the top group without one. This
    /// is the only place the analyzer encodes and classifies —
    /// [`Self::predict_group`] and the schedulers (whose queues hold
    /// collapsed requirements) both end here.
    pub fn group_of(&self, reqs: &[AttrRequirement]) -> u8 {
        if reqs.is_empty() {
            return (ctlm_data::dataset::NUM_GROUPS - 1) as u8;
        }
        let mut b = CsrBuilder::new(self.vocab.len());
        b.push_row(CoVvEncoder.encode_requirements(reqs, &self.vocab));
        self.net.predict(&b.finish())[0]
    }

    /// Predicts the suitable-node group for a task's raw constraints:
    /// [`collapse`], then [`Self::group_of`].
    pub fn predict_group(&self, constraints: &[TaskConstraint]) -> Result<u8, CompactionError> {
        Ok(self.group_of(&collapse(constraints)?))
    }

    /// True when the task should be routed to the high-priority
    /// scheduler.
    pub fn is_high_priority(&self, constraints: &[TaskConstraint]) -> bool {
        match self.predict_group(constraints) {
            Ok(g) => g <= self.priority_threshold,
            // Contradictory constraints can never schedule; surface them
            // to the priority path where a human-visible error is raised
            // quickly rather than letting them sit in the main queue.
            Err(_) => true,
        }
    }

    /// Feature width the analyzer scores at.
    pub fn features(&self) -> usize {
        self.vocab.len()
    }
}

/// Hot-swappable analyzer handle shared between the training pipeline and
/// the schedulers.
#[derive(Clone, Debug, Default)]
pub struct ModelRegistry {
    current: Arc<RwLock<Option<Arc<TaskCoAnalyzer>>>>,
    /// Bumped on every install; readers cache the analyzer and re-read
    /// only when this moves, making the per-task fast path one atomic
    /// load instead of an `RwLock` acquisition.
    version: Arc<std::sync::atomic::AtomicU64>,
}

impl ModelRegistry {
    /// An empty registry (schedulers fall back to treating every task as
    /// normal priority until a model is installed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a new analyzer; readers see it on their next lookup.
    pub fn install(&self, analyzer: TaskCoAnalyzer) {
        *self.current.write().expect("registry lock poisoned") = Some(Arc::new(analyzer));
        self.version
            .fetch_add(1, std::sync::atomic::Ordering::Release);
    }

    /// Monotone install counter: 0 until the first model lands, bumped on
    /// every hot swap. Schedulers use it to detect swaps cheaply.
    pub fn version(&self) -> u64 {
        self.version.load(std::sync::atomic::Ordering::Acquire)
    }

    /// The current analyzer, if any.
    pub fn get(&self) -> Option<Arc<TaskCoAnalyzer>> {
        self.current.read().expect("registry lock poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growing::GrowingModel;
    use crate::trainer::TrainConfig;
    use ctlm_data::dataset::{DatasetBuilder, NUM_GROUPS};
    use ctlm_trace::{AttrValue, ConstraintOp as Op};

    /// Builds a vocabulary for attribute 0 with integer values 0..n and a
    /// dataset labelling tasks by how many values their constraints
    /// reject — a miniature CO-VV world.
    fn trained_analyzer() -> TaskCoAnalyzer {
        let (model, vocab) = trained_model();
        model.analyzer(vocab)
    }

    /// The model and vocabulary behind [`trained_analyzer`].
    fn trained_model() -> (GrowingModel, ValueVocab) {
        let mut vocab = ValueVocab::new();
        for v in 0..24 {
            vocab.observe(0, &AttrValue::Int(v));
        }
        let width = vocab.len(); // 25: (none) + 24 values
        let enc = CoVvEncoder;
        let mut b = DatasetBuilder::new(width, NUM_GROUPS);
        // Tasks `node < k` leave k acceptable values → group by k.
        for k in 1..24i64 {
            for _rep in 0..30 {
                let cs = vec![TaskConstraint::new(0, Op::LessThan(k))];
                let reqs = collapse(&cs).unwrap();
                let row = enc.encode_requirements(&reqs, &vocab);
                let group = ctlm_data::dataset::group_for_count(k as usize, 1);
                b.push(row, group);
            }
        }
        let ds = b.snapshot(width);
        let mut m = GrowingModel::new(TrainConfig {
            epochs_limit: 80,
            ..TrainConfig::default()
        });
        let out = m.step(&ds, 5);
        assert!(out.accepted, "toy training failed: {:?}", out.evaluation);
        (m, vocab)
    }

    #[test]
    fn single_node_tasks_are_high_priority() {
        let a = trained_analyzer();
        let g0 = vec![TaskConstraint::new(0, Op::LessThan(1))]; // 1 suitable value
        assert_eq!(a.predict_group(&g0).unwrap(), 0);
        assert!(a.is_high_priority(&g0));
        let wide = vec![TaskConstraint::new(0, Op::LessThan(20))];
        let g = a.predict_group(&wide).unwrap();
        assert!(g > 0, "wide task predicted group {g}");
        assert!(!a.is_high_priority(&wide));
    }

    #[test]
    fn unconstrained_tasks_score_top_group() {
        let a = trained_analyzer();
        assert_eq!(a.predict_group(&[]).unwrap(), (NUM_GROUPS - 1) as u8);
        assert!(!a.is_high_priority(&[]));
    }

    #[test]
    fn contradictions_route_to_priority_path() {
        let a = trained_analyzer();
        let bad = vec![
            TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(1)))),
            TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(2)))),
        ];
        assert!(a.predict_group(&bad).is_err());
        assert!(a.is_high_priority(&bad));
    }

    /// `GrowingModel::analyzer` over a vocabulary that has outgrown the
    /// trained width pads `fc1.weight`; the new columns carry zero
    /// weights, so every training row scores as it did unpadded — even
    /// though the wider vocabulary marks new (rejected) values on it.
    #[test]
    fn analyzer_over_a_wider_vocabulary_pads_and_predicts_identically() {
        let (model, vocab) = trained_model();
        let narrow = model.analyzer(vocab.clone());
        let mut wide_vocab = vocab;
        for v in 24..31 {
            wide_vocab.observe(0, &AttrValue::Int(v));
        }
        wide_vocab.observe(1, &AttrValue::from("gpu"));
        let wide = model.analyzer(wide_vocab);
        assert_eq!(narrow.features(), model.features());
        assert_eq!(wide.features(), model.features() + 7 + 2);
        for k in 1..24i64 {
            let cs = vec![TaskConstraint::new(0, Op::LessThan(k))];
            assert_eq!(
                wide.predict_group(&cs).unwrap(),
                narrow.predict_group(&cs).unwrap(),
                "node < {k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn analyzer_over_a_narrower_vocabulary_panics() {
        let (model, _) = trained_model();
        let mut narrow = ValueVocab::new();
        narrow.observe(0, &AttrValue::Int(0));
        model.analyzer(narrow);
    }

    #[test]
    fn registry_hot_swaps() {
        let reg = ModelRegistry::new();
        assert!(reg.get().is_none());
        let a = trained_analyzer();
        reg.install(a);
        assert!(reg.get().is_some());
        let held = reg.get().unwrap();
        // Install a second analyzer; the held Arc stays valid (readers
        // are never blocked or invalidated).
        let b = trained_analyzer();
        reg.install(b);
        assert_eq!(held.features(), 25);
        assert!(reg.get().is_some());
    }
}
