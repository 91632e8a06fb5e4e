//! The open scheduling-policy surface.
//!
//! The engine used to switch over a closed `Policy` enum; policies are
//! now impls of the [`Scheduler`] trait, so new routing strategies plug
//! in without touching the engine. A scheduler's single job is admission
//! routing: decide, per arriving task, whether it goes to the
//! high-priority queue (served with preemption fallback ahead of the
//! main queue) or the main FIFO queue.

use std::sync::Arc;

use ctlm_core::{ModelRegistry, TaskCoAnalyzer};

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
}

impl Enhanced {
    /// An enhanced scheduler around a trained analyzer.
    pub fn new(analyzer: Arc<TaskCoAnalyzer>) -> Self {
        Self { analyzer }
    }
}

impl Scheduler for Enhanced {
    fn route_high_priority(&mut self, task: &PendingTask) -> bool {
        flags(&self.analyzer, task)
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
/// currently installed in the [`ModelRegistry`], so a background
/// [`crate::updater::ModelUpdater`] hot-swapping models *during* the
/// simulated run changes routing live. Until a first model lands, every
/// task goes to the main queue (the paper's cold-start behavior).
#[derive(Clone, Debug)]
pub struct LiveRegistry {
    registry: ModelRegistry,
    /// Cached analyzer, refreshed only when the registry version moves —
    /// keeps the per-task cost at one atomic load.
    cached: Option<(u64, Arc<TaskCoAnalyzer>)>,
}

impl LiveRegistry {
    /// A scheduler reading from `registry`.
    pub fn new(registry: ModelRegistry) -> Self {
        Self {
            registry,
            cached: None,
        }
    }

    /// Number of distinct model versions this scheduler has routed with
    /// (0 until the first install lands).
    pub fn model_version(&self) -> u64 {
        self.cached.as_ref().map(|(v, _)| *v).unwrap_or(0)
    }
}

impl Scheduler for LiveRegistry {
    fn route_high_priority(&mut self, task: &PendingTask) -> bool {
        let v = self.registry.version();
        if self.cached.as_ref().map(|(cv, _)| *cv) != Some(v) {
            self.cached = self.registry.get().map(|a| (v, a));
        }
        match &self.cached {
            Some((_, analyzer)) => flags(analyzer, task),
            None => false,
        }
    }
    fn name(&self) -> &'static str {
        "live_registry"
    }
}

/// The model-backed routing rule: a constrained task whose predicted
/// group is at or below the analyzer's priority threshold. The queue
/// stores collapsed requirements, so this is
/// [`TaskCoAnalyzer::group_of`] directly — no second collapse.
fn flags(analyzer: &TaskCoAnalyzer, task: &PendingTask) -> bool {
    !task.reqs.is_empty() && analyzer.group_of(&task.reqs) <= analyzer.priority_threshold
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
}
