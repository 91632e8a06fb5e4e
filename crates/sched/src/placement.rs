//! Placement strategies: best-fit, and the preemption fallback.
//!
//! The main scheduler uses best-fit over suitable machines (Borg moved to
//! “a hybrid fairness and best-fit model to reduce fragmentation”). The
//! high-priority scheduler adds a Kubernetes-style preemption fallback:
//! when no suitable machine has room, lower-priority tasks are evicted to
//! make room — the mechanism the paper contrasts its approach with.
//!
//! ## Hot-path contract
//!
//! Best-fit resolves through the cluster's maintained capacity ordering
//! ([`SchedCluster::tightest_fit`]) instead of materialising and
//! scanning the suitable set, and every strategy receives a reusable
//! [`PlaceCtx`] scratch, so a steady-state scheduling pass performs
//! **zero heap allocations** (pinned by
//! `crates/sched/tests/zero_alloc_pass.rs`). Tie-breaks are defined over
//! `(capacity_bucket(free_cpu), id)` — see [`capacity_bucket`] — which makes
//! the answer independent of visit order. The preemption fallback, which
//! has to examine every candidate, receives them from
//! [`SchedCluster::suitable_visit`] as
//! [`MachineView`](crate::cluster::MachineView)s already resolved to the
//! machine table's rows, so it pays no lookup per machine visited.
//! [`best_fit_linear`] retains the pre-index full scan as the
//! equivalence reference for property tests and the `placement` bench
//! family.

use ctlm_trace::{MachineId, TaskId};

use crate::cluster::{capacity_bucket, CapacityFit, SchedCluster};
use crate::queue::PendingTask;

/// Outcome of a placement attempt.
#[derive(Clone, Debug, PartialEq)]
pub enum Placement {
    /// Placed on the machine.
    Placed(MachineId),
    /// Placed after evicting these tasks from the machine.
    PlacedWithPreemption(MachineId, Vec<TaskId>),
    /// No suitable machine exists at all (affinity-infeasible).
    Infeasible,
    /// Suitable machines exist but none has capacity (and preemption was
    /// not allowed or not sufficient).
    NoCapacity,
}

/// Reusable scratch buffers threaded through every placement attempt so
/// the per-pass hot loop never allocates. One instance lives in the
/// engine state; standalone callers create one per run.
#[derive(Debug, Default)]
pub struct PlaceCtx {
    /// Preemption-candidate scratch (per machine scanned).
    cands: Vec<(TaskId, f64, f64, u8)>,
    /// Eviction list being trialled on the current machine.
    trial: Vec<TaskId>,
    /// Best eviction list found so far.
    best: Vec<TaskId>,
    /// Gang-assignment scratch (`(task, machine)` pairs), used by the
    /// engine's all-or-nothing gang path.
    pub(crate) gang: Vec<(u64, u64)>,
}

impl PlaceCtx {
    /// Fresh scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A pluggable placement strategy — the engine no longer hardwires
/// best-fit. Strategies are consulted once per placement attempt and may
/// propose preemptions; the engine performs the actual reservation and
/// eviction bookkeeping. The `ctx` scratch is owned by the caller and
/// reused across attempts (strategies must not assume it carries state
/// between calls).
pub trait Placer {
    /// Proposes a placement for `task` on the current cluster state.
    fn place(&self, cluster: &SchedCluster, task: &PendingTask, ctx: &mut PlaceCtx) -> Placement;

    /// Strategy name, for reports.
    fn name(&self) -> &'static str;
}

/// [`best_fit`] as a strategy — the main scheduler's default.
#[derive(Clone, Copy, Debug, Default)]
pub struct BestFit;

impl Placer for BestFit {
    fn place(&self, cluster: &SchedCluster, task: &PendingTask, _ctx: &mut PlaceCtx) -> Placement {
        best_fit(cluster, task)
    }
    fn name(&self) -> &'static str {
        "best_fit"
    }
}

/// Best-fit with a preemption fallback — the high-priority scheduler's
/// default (Kubernetes-style eviction): when no suitable machine has
/// room, it evicts the fewest / lowest-priority tasks that make room.
#[derive(Clone, Copy, Debug, Default)]
pub struct PreemptiveBestFit;

impl Placer for PreemptiveBestFit {
    fn place(&self, cluster: &SchedCluster, task: &PendingTask, ctx: &mut PlaceCtx) -> Placement {
        best_fit_with_preemption(cluster, task, ctx)
    }
    fn name(&self) -> &'static str {
        "best_fit_with_preemption"
    }
}

/// Best-fit placement: among suitable machines with room, pick the one
/// whose free CPU is smallest (quantized to capacity buckets; ties:
/// lowest id). Resolved from the cluster's maintained capacity ordering
/// — no candidate list is materialised and no machine scan is needed.
pub fn best_fit(cluster: &SchedCluster, task: &PendingTask) -> Placement {
    match cluster.tightest_fit(&task.reqs, task.cpu, task.memory) {
        CapacityFit::Fit(id) => Placement::Placed(id),
        CapacityFit::NoCapacity => Placement::NoCapacity,
        CapacityFit::Infeasible => Placement::Infeasible,
    }
}

/// The pre-index reference for [`best_fit`]: materialises the suitable
/// set and scans it linearly. Same answer by construction (identical
/// `(capacity_bucket(free_cpu), id)` objective); retained as the
/// equivalence oracle for `tests/placement_equivalence.rs` and the
/// baseline side of the `placement` bench family.
pub fn best_fit_linear(cluster: &SchedCluster, task: &PendingTask) -> Placement {
    let suitable = cluster.suitable(&task.reqs);
    if suitable.is_empty() {
        return Placement::Infeasible;
    }
    let mut best: Option<(usize, MachineId)> = None;
    for id in suitable {
        if cluster.fits(id, task.cpu, task.memory) {
            let key = (capacity_bucket(cluster.free_cpu(id)), id);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
    }
    match best {
        Some((_, id)) => Placement::Placed(id),
        None => Placement::NoCapacity,
    }
}

/// Best-fit with a preemption fallback (the high-priority path).
///
/// When no suitable machine has free room, the suitable machine where the
/// fewest / lowest-priority evictions suffice is chosen; the evicted task
/// ids are returned so the engine can requeue them (Kubernetes reschedules
/// preempted pods). The fallback streams candidates through the `ctx`
/// scratch; only a successful preemption allocates (the returned eviction
/// list), which keeps the no-preemption steady state allocation-free.
fn best_fit_with_preemption(
    cluster: &SchedCluster,
    task: &PendingTask,
    ctx: &mut PlaceCtx,
) -> Placement {
    match best_fit(cluster, task) {
        Placement::NoCapacity => {}
        other => return other,
    }
    let mut best: Option<(usize, MachineId)> = None;
    let PlaceCtx {
        cands,
        trial,
        best: best_evictions,
        ..
    } = ctx;
    cluster.suitable_visit(&task.reqs, |m| {
        let mut free_cpu = m.free_cpu();
        let mut free_mem = m.free_mem();
        m.preemption_candidates_into(task.priority, cands);
        trial.clear();
        for &(victim, vc, vm, _p) in cands.iter() {
            if free_cpu >= task.cpu && free_mem >= task.memory {
                break;
            }
            free_cpu += vc;
            free_mem += vm;
            trial.push(victim);
        }
        if free_cpu >= task.cpu && free_mem >= task.memory && !trial.is_empty() {
            let key = (trial.len(), m.id());
            if best.is_none_or(|b| key < b) {
                best = Some(key);
                std::mem::swap(trial, best_evictions);
            }
        }
        true
    });
    match best {
        Some((_, id)) => Placement::PlacedWithPreemption(id, best_evictions.clone()),
        None => Placement::NoCapacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_data::compaction::collapse;
    use ctlm_trace::{AttrValue, ConstraintOp as Op, Machine, TaskConstraint};

    fn cluster() -> SchedCluster {
        let mut ms = Vec::new();
        for i in 0..4u64 {
            let mut m = Machine::new(i, 1.0, 1.0);
            m.set_attr(0, AttrValue::Int(i as i64));
            ms.push(m);
        }
        SchedCluster::from_machines(ms)
    }

    fn task(id: u64, cpu: f64, prio: u8, lt: Option<i64>) -> PendingTask {
        let reqs = match lt {
            Some(v) => collapse(&[TaskConstraint::new(0, Op::LessThan(v))]).unwrap(),
            None => vec![],
        };
        PendingTask {
            id,
            collection: 0,
            cpu,
            memory: cpu,
            priority: prio,
            reqs,
            arrival: 0,
            truth_group: 25,
        }
    }

    #[test]
    fn best_fit_prefers_tightest_machine() {
        let mut c = cluster();
        c.place(2, 99, 0.7, 0.7, 0); // machine 2 has least room that still fits 0.2
        let p = best_fit(&c, &task(1, 0.2, 0, None));
        assert_eq!(p, Placement::Placed(2));
        assert_eq!(best_fit_linear(&c, &task(1, 0.2, 0, None)), p);
    }

    #[test]
    fn constraint_restricts_candidates() {
        let c = cluster();
        let p = best_fit(&c, &task(1, 0.2, 0, Some(1)));
        assert_eq!(p, Placement::Placed(0));
    }

    #[test]
    fn infeasible_when_no_machine_matches() {
        let c = cluster();
        let reqs =
            collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(99))))]).unwrap();
        let t = PendingTask {
            reqs,
            ..task(1, 0.1, 0, None)
        };
        assert_eq!(best_fit(&c, &t), Placement::Infeasible);
        assert_eq!(best_fit_linear(&c, &t), Placement::Infeasible);
    }

    #[test]
    fn no_capacity_without_preemption() {
        let mut c = cluster();
        for i in 0..4u64 {
            c.place(i, 100 + i, 0.95, 0.95, 5);
        }
        assert_eq!(best_fit(&c, &task(1, 0.2, 9, None)), Placement::NoCapacity);
        assert_eq!(
            best_fit_linear(&c, &task(1, 0.2, 9, None)),
            Placement::NoCapacity
        );
    }

    #[test]
    fn preemption_evicts_lower_priority() {
        let mut c = cluster();
        for i in 0..4u64 {
            c.place(i, 100 + i, 0.95, 0.95, if i == 2 { 1 } else { 8 });
        }
        let mut ctx = PlaceCtx::new();
        let p = best_fit_with_preemption(&c, &task(1, 0.2, 5, None), &mut ctx);
        match p {
            Placement::PlacedWithPreemption(id, evicted) => {
                assert_eq!(id, 2, "only machine 2 holds a preemptible task");
                assert_eq!(evicted, vec![102]);
            }
            other => panic!("expected preemption, got {other:?}"),
        }
    }

    #[test]
    fn preemption_cannot_evict_higher_priority() {
        let mut c = cluster();
        for i in 0..4u64 {
            c.place(i, 100 + i, 0.95, 0.95, 9);
        }
        let mut ctx = PlaceCtx::new();
        assert_eq!(
            best_fit_with_preemption(&c, &task(1, 0.2, 5, None), &mut ctx),
            Placement::NoCapacity,
            "Kubernetes-style preemption only evicts lower priority"
        );
    }
}
