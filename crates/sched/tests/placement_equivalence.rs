//! Property tests: capacity-indexed best-fit equals the retained linear
//! reference scan — over randomized clusters, task shapes, and
//! admit/complete/drain/restore churn sequences that exercise the
//! incremental maintenance of the free-capacity ordering.
//!
//! Two size families. Eighths sum exactly, so a machine in the request's
//! capacity bucket always holds the request. Tenths do not
//! (`1.0 − 4 × 0.2 < 0.2`): accumulated rounding leaves machines in the
//! bucket that miss by an ulp, and with memory drawn independently of
//! CPU (`mem > cpu` included) machines that have the CPU and not the
//! memory — the cases the index's per-bucket bounds exist for. A third
//! family draws CPU below a bucket's width, so the index's in-place
//! update path runs.
//!
//! The index orders a bucket by each machine's rank: its position in id
//! order among every machine the cluster has seen. A fleet whose ids
//! join scrambled, and churn that joins ids below the largest known one
//! or re-adds known ids, re-ranks; the last property covers that.

use proptest::prelude::*;

use ctlm_data::compaction::collapse;
use ctlm_sched::cluster::capacity_bucket;
use ctlm_sched::placement::{best_fit, best_fit_linear, Placement};
use ctlm_sched::{CapacityFit, PendingTask, SchedCluster};
use ctlm_trace::{AttrValue, ConstraintOp as Op, Machine, MachineId, TaskConstraint};

/// One churn step applied between placement queries.
#[derive(Clone, Debug)]
enum ChurnOp {
    /// Place a task (cpu, mem quantized) on the tightest machine, if any.
    Admit { cpu: f64, mem: f64, priority: u8 },
    /// Complete (release) the k-th oldest live task, if any.
    Complete(usize),
    /// Drain the machine `k % fleet` (tasks evaporate for this test —
    /// the engine requeues them; here only index consistency matters).
    Drain(usize),
    /// Restore the k-th drained machine, if any.
    Restore(usize),
}

/// `(cpu, mem)` in eighths of a unit machine: every sum is exact.
fn eighths() -> impl Strategy<Value = (f64, f64)> {
    (1u32..8, 1u32..8).prop_map(|(c, m)| (c as f64 / 8.0, m as f64 / 8.0))
}

/// `(cpu, mem)` in tenths (fifths among them), memory up to 0.8
/// whatever the CPU: sums round, and half the draws are memory-bound.
fn tenths() -> impl Strategy<Value = (f64, f64)> {
    (1u32..6, 1u32..9).prop_map(|(c, m)| (c as f64 / 10.0, m as f64 / 10.0))
}

/// CPU below a capacity bucket's width (1/1024 core), memory in
/// tenths: most placements leave the machine in its bucket, so the index
/// is updated in place and memory alone decides who fits.
fn crumbs() -> impl Strategy<Value = (f64, f64)> {
    (1u32..4, 1u32..9).prop_map(|(c, m)| (c as f64 / 4096.0, m as f64 / 10.0))
}

fn arb_op<S>(size: fn() -> S) -> impl Strategy<Value = ChurnOp>
where
    S: Strategy<Value = (f64, f64)> + 'static,
{
    let admit = || {
        (size(), 0u8..10).prop_map(|((cpu, mem), priority)| ChurnOp::Admit { cpu, mem, priority })
    };
    prop_oneof![
        admit(),
        admit(),
        (0usize..64).prop_map(ChurnOp::Complete),
        (0usize..64).prop_map(ChurnOp::Complete),
        (0usize..64).prop_map(ChurnOp::Drain),
        (0usize..64).prop_map(ChurnOp::Restore),
    ]
}

fn arb_reqs() -> impl Strategy<Value = Vec<TaskConstraint>> {
    prop_oneof![
        Just(vec![]),
        (0i64..24).prop_map(|v| vec![TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(v))))]),
        (0i64..24, 1i64..12).prop_map(|(lo, w)| vec![
            TaskConstraint::new(0, Op::GreaterThanEqual(lo)),
            TaskConstraint::new(0, Op::LessThan(lo + w)),
        ]),
        Just(vec![TaskConstraint::new(1, Op::Present)]),
        Just(vec![TaskConstraint::new(1, Op::NotPresent)]),
    ]
}

fn fleet(n: usize) -> SchedCluster {
    let mut ms = Vec::new();
    for i in 0..n as u64 {
        let mut m = Machine::new(i, 1.0, 1.0);
        m.set_attr(0, AttrValue::Int(i as i64));
        if i % 3 == 0 {
            m.set_attr(1, AttrValue::Int(1));
        }
        ms.push(m);
    }
    SchedCluster::from_machines(ms)
}

fn probe(reqs: &[TaskConstraint], cpu: f64, mem: f64) -> PendingTask {
    PendingTask {
        id: u64::MAX,
        collection: 0,
        cpu,
        memory: mem,
        priority: 5,
        reqs: collapse(reqs).unwrap(),
        arrival: ctlm_sim::SimTime::ZERO,
        truth_group: 25,
    }
}

/// Asserts the indexed path and the linear reference agree for a probe.
fn assert_equivalent(cluster: &SchedCluster, task: &PendingTask) {
    let indexed = best_fit(cluster, task);
    let linear = best_fit_linear(cluster, task);
    assert_eq!(
        indexed, linear,
        "indexed best-fit diverged from the linear reference"
    );
    // `tightest_fit` (the engine's can_admit probe) tells the same story.
    let fit = cluster.tightest_fit(&task.reqs, task.cpu, task.memory);
    match (&indexed, fit) {
        (Placement::Placed(m), CapacityFit::Fit(f)) => assert_eq!(*m, f),
        (Placement::NoCapacity, CapacityFit::NoCapacity) => {}
        (Placement::Infeasible, CapacityFit::Infeasible) => {}
        other => panic!("best_fit and tightest_fit disagree: {other:?}"),
    }
}

/// Applies `ops` to a fresh fleet, checking every probe against the
/// linear reference after every step.
fn check_churn(
    machines: usize,
    ops: Vec<ChurnOp>,
    probes: Vec<(Vec<TaskConstraint>, (f64, f64))>,
) -> Result<(), TestCaseError> {
    let mut cluster = fleet(machines);
    let mut live: Vec<(u64, MachineId)> = Vec::new();
    let mut drained: Vec<MachineId> = Vec::new();
    let mut next_task = 0u64;
    let check = |cluster: &SchedCluster| {
        for (reqs, (cpu, mem)) in &probes {
            assert_equivalent(cluster, &probe(reqs, *cpu, *mem));
        }
    };
    for op in ops {
        match op {
            ChurnOp::Admit { cpu, mem, priority } => {
                let t = probe(&[], cpu, mem);
                if let Placement::Placed(m) = best_fit(&cluster, &t) {
                    cluster.place(m, next_task, cpu, mem, priority);
                    live.push((next_task, m));
                    next_task += 1;
                }
            }
            ChurnOp::Complete(k) => {
                if !live.is_empty() {
                    let (task, m) = live.remove(k % live.len());
                    prop_assert!(cluster.release(m, task));
                }
            }
            ChurnOp::Drain(k) => {
                let id = (k % machines) as MachineId;
                if cluster.remove_machine(id).is_some() {
                    live.retain(|&(_, m)| m != id);
                    drained.push(id);
                }
            }
            ChurnOp::Restore(k) => {
                if !drained.is_empty() {
                    let id = drained.remove(k % drained.len());
                    prop_assert!(cluster.restore_machine(id));
                }
            }
        }
        check(&cluster);
    }
    Ok(())
}

/// A machine-lifecycle step on a fleet whose ids are not in join order.
#[derive(Clone, Debug)]
enum JoinOp {
    /// Any [`ChurnOp`] (drain and restore pick among the known ids).
    Churn(ChurnOp),
    /// Add id `4k + 1`: unknown the first time, mostly below the largest
    /// known id, a re-add after that.
    Join(u64),
    /// Re-add the k-th known id, with a new capacity.
    ReAdd(usize, f64),
    /// Take the k-th drained machine offline for good.
    Take(usize),
    /// Add the k-th taken id back.
    Rejoin(usize),
}

fn arb_join_op() -> impl Strategy<Value = JoinOp> {
    prop_oneof![
        arb_op(tenths).prop_map(JoinOp::Churn),
        arb_op(tenths).prop_map(JoinOp::Churn),
        (0u64..160).prop_map(JoinOp::Join),
        (0usize..256, 1u32..5).prop_map(|(k, c)| JoinOp::ReAdd(k, c as f64 / 2.0)),
        (0usize..64).prop_map(JoinOp::Take),
        (0usize..64).prop_map(JoinOp::Rejoin),
    ]
}

fn machine(id: MachineId, capacity: f64) -> Machine {
    let mut m = Machine::new(id, capacity, capacity);
    m.set_attr(0, AttrValue::Int(id as i64 / 4));
    if id.is_multiple_of(3) {
        m.set_attr(1, AttrValue::Int(1));
    }
    m
}

/// Asserts `machines_by_free_cpu_desc` is the online fleet sorted by
/// (capacity bucket descending, id ascending).
fn assert_emptiest_first(cluster: &SchedCluster, online: &[MachineId]) {
    let mut want: Vec<_> = online
        .iter()
        .map(|&id| (std::cmp::Reverse(capacity_bucket(cluster.free_cpu(id))), id))
        .collect();
    want.sort_unstable();
    let mut got = Vec::new();
    cluster.machines_by_free_cpu_desc(&mut got);
    assert!(
        got.iter().eq(want.iter().map(|(_, id)| id)),
        "emptiest-first order diverged from the sort"
    );
}

/// Builds a fleet of `machines` ids joined in the scrambled order
/// `i ↦ (a·i + b) mod 251` (ids `4·that + 2`), applies `ops`, and after
/// every step checks each probe against the linear reference and the
/// emptiest-first order against a sort.
fn check_out_of_order(
    machines: u64,
    (a, b): (u64, u64),
    ops: Vec<JoinOp>,
    probes: Vec<(Vec<TaskConstraint>, (f64, f64))>,
) -> Result<(), TestCaseError> {
    let ids = (0..machines).map(|i| (a * i + b) % 251 * 4 + 2);
    let mut known: Vec<MachineId> = ids.clone().collect();
    let mut cluster = SchedCluster::from_machines(ids.map(|id| machine(id, 1.0)));
    let (mut drained, mut taken): (Vec<MachineId>, Vec<MachineId>) = (Vec::new(), Vec::new());
    let mut live: Vec<(u64, MachineId)> = Vec::new();
    let mut next_task = 0u64;
    let check = |cluster: &SchedCluster,
                 drained: &[MachineId],
                 taken: &[MachineId],
                 known: &[MachineId]| {
        for (reqs, (cpu, mem)) in &probes {
            assert_equivalent(cluster, &probe(reqs, *cpu, *mem));
        }
        let online: Vec<_> = known
            .iter()
            .copied()
            .filter(|id| !drained.contains(id) && !taken.contains(id))
            .collect();
        assert_eq!(cluster.len(), online.len());
        assert_emptiest_first(cluster, &online);
    };
    check(&cluster, &drained, &taken, &known);
    for op in ops {
        // The id whose tasks and parked copy the step drops, if any.
        let mut readded = None;
        match op {
            JoinOp::Churn(ChurnOp::Admit { cpu, mem, priority }) => {
                if let Placement::Placed(m) = best_fit(&cluster, &probe(&[], cpu, mem)) {
                    cluster.place(m, next_task, cpu, mem, priority);
                    live.push((next_task, m));
                    next_task += 1;
                }
            }
            JoinOp::Churn(ChurnOp::Complete(k)) => {
                if !live.is_empty() {
                    let (task, m) = live.remove(k % live.len());
                    prop_assert!(cluster.release(m, task));
                }
            }
            JoinOp::Churn(ChurnOp::Drain(k)) => {
                let id = known[k % known.len()];
                if cluster.remove_machine(id).is_some() {
                    live.retain(|&(_, m)| m != id);
                    drained.push(id);
                }
            }
            JoinOp::Churn(ChurnOp::Restore(k)) => {
                if !drained.is_empty() {
                    let id = drained.remove(k % drained.len());
                    prop_assert!(cluster.restore_machine(id));
                }
            }
            JoinOp::Join(k) => {
                let id = 4 * k + 1;
                cluster.add_machine(machine(id, 1.0));
                readded = Some(id);
            }
            JoinOp::ReAdd(k, capacity) => {
                let id = known[k % known.len()];
                cluster.add_machine(machine(id, capacity));
                readded = Some(id);
            }
            JoinOp::Take(k) => {
                if !drained.is_empty() {
                    let id = drained.remove(k % drained.len());
                    prop_assert!(cluster.take_offline(id).is_some());
                    taken.push(id);
                }
            }
            JoinOp::Rejoin(k) => {
                if !taken.is_empty() {
                    let id = taken[k % taken.len()];
                    cluster.add_machine(machine(id, 1.0));
                    readded = Some(id);
                }
            }
        }
        if let Some(id) = readded {
            live.retain(|&(_, m)| m != id);
            drained.retain(|&m| m != id);
            taken.retain(|&m| m != id);
            if !known.contains(&id) {
                known.push(id);
            }
        }
        check(&cluster, &drained, &taken, &known);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The capacity index stays equivalent to the linear scan across
    /// random admit/complete/drain/restore sequences, for every probe
    /// shape, at every step.
    #[test]
    fn indexed_best_fit_tracks_linear_reference_under_churn(
        machines in 2usize..24,
        ops in prop::collection::vec(arb_op(eighths), 0..60),
        probes in prop::collection::vec((arb_reqs(), eighths()), 1..6),
    ) {
        check_churn(machines, ops, probes)?;
    }

    /// The same under decimal and memory-bound sizes, where machines in
    /// the request's bucket can fail the exact `free ≥ request` test.
    #[test]
    fn near_miss_and_memory_bound_sizes_track_linear_reference_under_churn(
        machines in 2usize..24,
        ops in prop::collection::vec(arb_op(tenths), 0..80),
        probes in prop::collection::vec((arb_reqs(), tenths()), 1..6),
    ) {
        check_churn(machines, ops, probes)?;
    }

    /// The same when placements do not move machines between buckets.
    #[test]
    fn in_place_updates_track_linear_reference_under_churn(
        machines in 2usize..8,
        ops in prop::collection::vec(arb_op(crumbs), 0..80),
        probes in prop::collection::vec((arb_reqs(), crumbs()), 1..6),
    ) {
        check_churn(machines, ops, probes)?;
    }

    /// The same on a fleet whose ids joined scrambled, through joins
    /// below the largest known id, re-adds, take-offline and rejoins —
    /// and the emptiest-first order always equals the sort it stands
    /// for.
    #[test]
    fn out_of_order_ids_track_linear_reference_under_churn(
        machines in 1u64..140,
        scramble in (1u64..251, 0u64..251),
        ops in prop::collection::vec(arb_join_op(), 0..80),
        probes in prop::collection::vec((arb_reqs(), tenths()), 1..6),
    ) {
        check_out_of_order(machines, scramble, ops, probes)?;
    }

    /// Saturation boundary: filling the fleet flips probes from Placed to
    /// NoCapacity identically on both paths.
    #[test]
    fn saturation_agrees_on_both_paths(
        machines in 1usize..10,
        load in 1u32..8,
    ) {
        let mut cluster = fleet(machines);
        let chunk = load as f64 / 8.0;
        let mut id = 0u64;
        loop {
            let t = probe(&[], chunk, chunk);
            assert_equivalent(&cluster, &t);
            match best_fit(&cluster, &t) {
                Placement::Placed(m) => {
                    cluster.place(m, id, chunk, chunk, 1);
                    id += 1;
                }
                Placement::NoCapacity => break,
                other => prop_assert!(false, "unexpected {other:?}"),
            }
            prop_assert!(id < 10_000, "saturation must terminate");
        }
    }
}
