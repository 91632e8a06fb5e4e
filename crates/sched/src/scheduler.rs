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
pub trait Scheduler {
    /// True routes the task to the high-priority scheduler.
    fn route_high_priority(&mut self, task: &PendingTask) -> bool;

    /// Policy name, for reports.
    fn name(&self) -> &'static str;
}

/// Conventional baseline: one FIFO queue, nothing is high-priority.
#[derive(Clone, Copy, Debug, Default)]
pub struct MainOnly;

impl Scheduler for MainOnly {
    fn route_high_priority(&mut self, _task: &PendingTask) -> bool {
        false
    }
    fn name(&self) -> &'static str {
        "main_only"
    }
}

/// Fig. 3: the Task CO Analyzer flags restrictive tasks. The analyzer
/// sees constraints only — never the ground-truth group.
#[derive(Clone, Debug)]
pub struct Enhanced {
    analyzer: Arc<TaskCoAnalyzer>,
    decisions: Decisions,
}

impl Enhanced {
    /// An enhanced scheduler around a trained analyzer.
    pub fn new(analyzer: Arc<TaskCoAnalyzer>) -> Self {
        Self {
            analyzer,
            decisions: Decisions::default(),
        }
    }
}

impl Scheduler for Enhanced {
    fn route_high_priority(&mut self, task: &PendingTask) -> bool {
        self.decisions.flags(&self.analyzer, task)
    }
    fn name(&self) -> &'static str {
        "enhanced"
    }
}

/// Ablation: perfect (oracle) routing by ground-truth group.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleEnhanced;

impl Scheduler for OracleEnhanced {
    fn route_high_priority(&mut self, task: &PendingTask) -> bool {
        task.truth_group == 0
    }
    fn name(&self) -> &'static str {
        "oracle"
    }
}

/// The online-loop scheduler: routes through whatever analyzer is
/// currently installed in the [`ModelRegistry`], so a retrainer that
/// hot-swaps models *during* the simulated run — at the simulated instant
/// each one is trained — changes routing from the next task on. Until a
/// first model lands, every task goes to the main queue (the paper's
/// cold-start behavior).
#[derive(Clone, Debug)]
pub struct LiveRegistry {
    registry: ModelRegistry,
    /// Cached analyzer, refreshed only when the registry version moves —
    /// keeps the per-task cost at one atomic load.
    cached: Option<(u64, Arc<TaskCoAnalyzer>)>,
    /// Decisions of the cached analyzer; cleared on every refresh, so an
    /// install, a poison and a heal each route afresh.
    decisions: Decisions,
}

impl LiveRegistry {
    /// A scheduler reading from `registry`.
    pub fn new(registry: ModelRegistry) -> Self {
        Self {
            registry,
            cached: None,
            decisions: Decisions::default(),
        }
    }

    /// The registry version this scheduler last routed with. It counts
    /// every registry bump — installs, poisons and heals — and reads 0
    /// until the first install lands and while the registry is degraded.
    pub fn model_version(&self) -> u64 {
        self.cached.as_ref().map(|(v, _)| *v).unwrap_or(0)
    }
}

impl Scheduler for LiveRegistry {
    fn route_high_priority(&mut self, task: &PendingTask) -> bool {
        let v = self.registry.version();
        if self.cached.as_ref().map(|(cv, _)| *cv) != Some(v) {
            self.cached = self.registry.get().map(|a| (v, a));
            self.decisions.clear();
        }
        match &self.cached {
            Some((_, analyzer)) => self.decisions.flags(analyzer, task),
            None => false,
        }
    }
    fn name(&self) -> &'static str {
        "live_registry"
    }
}

/// One analyzer's routing decisions, memoised per distinct collapsed
/// requirement set — the decision is a pure function of the set, and a
/// trace repeats a few hundred sets across thousands of tasks. Only
/// looked up, never iterated, so hash order reaches no output. The owner
/// clears it whenever its analyzer changes.
#[derive(Clone, Debug, Default)]
struct Decisions(HashMap<Vec<AttrRequirement>, bool>);

impl Decisions {
    /// The model-backed routing rule: a constrained task whose predicted
    /// group is at or below the analyzer's priority threshold. The queue
    /// stores collapsed requirements, so a miss is
    /// [`TaskCoAnalyzer::group_of`] directly — no second collapse.
    fn flags(&mut self, analyzer: &TaskCoAnalyzer, task: &PendingTask) -> bool {
        if task.reqs.is_empty() {
            return false;
        }
        if let Some(&flag) = self.0.get(task.reqs.as_slice()) {
            return flag;
        }
        let flag = analyzer.group_of(&task.reqs) <= analyzer.priority_threshold;
        self.0.insert(task.reqs.clone(), flag);
        flag
    }

    fn clear(&mut self) {
        self.0.clear();
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
            arrival: 0,
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
        assert_eq!(s.model_version(), 0);
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
    /// install B, poison, heal.
    #[test]
    fn live_registry_decisions_follow_the_current_model() {
        let registry = ModelRegistry::new();
        let mut s = LiveRegistry::new(registry.clone());
        let t = pinned_task();
        registry.install(constant_analyzer(0));
        assert!(s.route_high_priority(&t), "A flags group 0");
        assert!(s.route_high_priority(&t), "A, memoised");
        assert_eq!(s.model_version(), 1);
        registry.install(constant_analyzer(5));
        assert!(!s.route_high_priority(&t), "B predicts group 5");
        assert_eq!(s.model_version(), 2);
        registry.poison();
        assert!(!s.route_high_priority(&t), "degraded: no model");
        assert_eq!(s.model_version(), 0);
        registry.heal();
        assert!(!s.route_high_priority(&t), "healed back to B");
        assert_eq!(s.model_version(), 4);
        registry.install(constant_analyzer(0));
        assert!(s.route_high_priority(&t), "A again");
    }
}
