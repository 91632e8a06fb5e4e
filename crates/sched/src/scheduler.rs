//! The open scheduling-policy surface.
//!
//! The engine used to switch over a closed `Policy` enum; policies are
//! now impls of the [`Scheduler`] trait, so new routing strategies plug
//! in without touching the engine. A scheduler's single job is admission
//! routing: decide, per arriving task, whether it goes to the
//! high-priority queue (served with preemption fallback ahead of the
//! main queue) or the main FIFO queue.

use std::collections::HashMap;
use std::sync::Arc;

use ctlm_core::{ModelRegistry, TaskCoAnalyzer};
use ctlm_data::compaction::AttrRequirement;

use crate::queue::PendingTask;

/// Admission router: the policy under test.
///
/// `route` takes `&mut self` so stateful schedulers (e.g. ones tracking
/// queue pressure, or re-reading a hot-swapped model) fit the trait.
pub trait Scheduler: Send {
    /// True routes the task to the high-priority scheduler.
    fn route_high_priority(&mut self, task: &PendingTask) -> bool;
}

/// Conventional baseline: one FIFO queue, nothing is high-priority.
#[derive(Clone, Copy, Debug, Default)]
pub struct MainOnly;

impl Scheduler for MainOnly {
    fn route_high_priority(&mut self, _task: &PendingTask) -> bool {
        false
    }
}

/// Ablation: perfect (oracle) routing by ground-truth group.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleEnhanced;

impl Scheduler for OracleEnhanced {
    fn route_high_priority(&mut self, task: &PendingTask) -> bool {
        task.truth_group == 0
    }
}

/// Fig. 3's model-backed scheduler: the Task CO Analyzer currently
/// installed in a [`ModelRegistry`] flags restrictive tasks for the
/// high-priority queue. The analyzer sees constraints only — never the
/// ground-truth group.
///
/// A model trained once before the run is a registry with one install
/// that nothing else writes to. In the online loop a retrainer
/// hot-swaps models *during* the simulated run — at the simulated
/// instant each one is trained — and routing changes from the next task
/// on. Until a first model lands, every task goes to the main queue (the
/// paper's cold-start behavior).
#[derive(Clone, Debug)]
pub struct LiveRegistry {
    registry: ModelRegistry,
    /// Cached analyzer, refreshed only when the registry version moves —
    /// keeps the per-task cost at one atomic load.
    cached: Option<(u64, Arc<TaskCoAnalyzer>)>,
    /// The cached analyzer's decisions, memoised per distinct collapsed
    /// requirement set — a decision is a pure function of the set, and a
    /// trace repeats a few hundred sets across thousands of tasks. Only
    /// looked up, never iterated, so hash order reaches no output.
    /// Cleared on every refresh, so each install routes afresh.
    decisions: HashMap<Vec<AttrRequirement>, bool>,
}

impl LiveRegistry {
    /// A scheduler reading from `registry`.
    pub fn new(registry: ModelRegistry) -> Self {
        Self {
            registry,
            cached: None,
            decisions: HashMap::new(),
        }
    }
}

impl Scheduler for LiveRegistry {
    /// The model-backed routing rule: a constrained task whose predicted
    /// group is at or below the analyzer's priority threshold. The queue
    /// stores collapsed requirements, so a miss is
    /// [`TaskCoAnalyzer::group_of`] directly — no second collapse.
    fn route_high_priority(&mut self, task: &PendingTask) -> bool {
        let v = self.registry.version();
        if self.cached.as_ref().map(|(cv, _)| *cv) != Some(v) {
            self.cached = self.registry.get().map(|a| (v, a));
            self.decisions.clear();
        }
        let Some((_, analyzer)) = &self.cached else {
            return false;
        };
        if task.reqs.is_empty() {
            return false;
        }
        if let Some(&flag) = self.decisions.get(task.reqs.as_slice()) {
            return flag;
        }
        let flag = analyzer.group_of(&task.reqs) <= analyzer.priority_threshold;
        self.decisions.insert(task.reqs.clone(), flag);
        flag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(truth_group: u8) -> PendingTask {
        PendingTask {
            id: 1,
            collection: 1,
            cpu: 0.1,
            memory: 0.1,
            priority: 0,
            reqs: vec![],
            arrival: ctlm_sim::SimTime::ZERO,
            truth_group,
        }
    }

    #[test]
    fn main_only_never_routes() {
        assert!(!MainOnly.route_high_priority(&task(0)));
    }

    #[test]
    fn oracle_routes_exactly_group0() {
        let mut s = OracleEnhanced;
        assert!(s.route_high_priority(&task(0)));
        assert!(!s.route_high_priority(&task(1)));
    }

    #[test]
    fn live_registry_routes_nothing_until_install() {
        let mut s = LiveRegistry::new(ModelRegistry::new());
        assert!(!s.route_high_priority(&task(0)));
    }

    /// An analyzer whose network answers `group` for every row: a
    /// zero-weight input layer and an output bias that picks the class.
    fn constant_analyzer(group: usize) -> TaskCoAnalyzer {
        use ctlm_data::vocab::ValueVocab;
        use ctlm_nn::{Layer, Linear, Net, SparseLinear};
        use ctlm_trace::AttrValue;
        let mut vocab = ValueVocab::new();
        vocab.observe(0, &AttrValue::Int(0));
        let mut out = Linear::zeros(1, ctlm_data::dataset::NUM_GROUPS);
        out.bias[group] = 1.0;
        let net = Net::from_layers(
            SparseLinear::zeros(vocab.len(), 1),
            vec![Layer::Linear(out)],
        );
        TaskCoAnalyzer::new(net, vocab)
    }

    fn pinned_task() -> PendingTask {
        use ctlm_data::compaction::collapse;
        use ctlm_trace::{AttrValue, ConstraintOp as Op, TaskConstraint};
        PendingTask {
            reqs: collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(0))))]).unwrap(),
            ..task(0)
        }
    }

    /// Two models disagree on one set; the scheduler's per-set memo must
    /// follow whichever model is current at each moment — install A,
    /// install B, install A again.
    #[test]
    fn live_registry_decisions_follow_the_current_model() {
        let registry = ModelRegistry::new();
        let mut s = LiveRegistry::new(registry.clone());
        let t = pinned_task();
        registry.install(constant_analyzer(0));
        assert!(s.route_high_priority(&t), "A flags group 0");
        assert!(s.route_high_priority(&t), "A, memoised");
        registry.install(constant_analyzer(5));
        assert!(!s.route_high_priority(&t), "B predicts group 5");
        registry.install(constant_analyzer(0));
        assert!(s.route_high_priority(&t), "A again");
    }
}
