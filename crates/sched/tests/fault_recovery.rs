//! Task conservation under randomized crash/retry schedules.
//!
//! The fault plane loses work on purpose — these tests pin down the
//! promise that it never loses *accounting*: across seeds × retry
//! policies × crash plans, every admitted task terminates in exactly
//! one of {placed (finished or still resident), unplaced (still
//! queued), dead-lettered}, and the fault counters balance — a lost
//! task is always either rescheduled or dead-lettered, never silently
//! hung.

use proptest::prelude::*;

use ctlm_data::compaction::collapse;
use ctlm_sched::engine::{SimConfig, SimResult, Simulator};
use ctlm_sched::faults::{ExponentialBackoff, FaultPlan, FaultPlane, FixedRetry, RetryPolicy};
use ctlm_sched::scenario::{ChurnAction, ChurnPlan, ChurnSource};
use ctlm_sched::scheduler::MainOnly;
use ctlm_sched::{attach, FaultStats, PendingTask, SchedCluster};
use ctlm_sim::{SimDuration, SimTime};
use ctlm_trace::{AttrValue, ConstraintOp as Op, Machine, MachineId, TaskConstraint};

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

fn d(us: u64) -> SimDuration {
    SimDuration::from_micros(us)
}

fn cluster(n: u64) -> (SchedCluster, Vec<MachineId>) {
    let mut ms = Vec::new();
    for i in 0..n {
        let mut m = Machine::new(i, 1.0, 1.0);
        m.set_attr(0, AttrValue::Int(i as i64));
        ms.push(m);
    }
    let ids = ms.iter().map(|m| m.id).collect();
    (SchedCluster::from_machines(ms), ids)
}

fn task(id: u64, arrival: u64, cpu: f64) -> PendingTask {
    PendingTask {
        id,
        collection: 1,
        cpu,
        memory: cpu,
        priority: 2,
        reqs: vec![],
        arrival: t(arrival),
        truth_group: 25,
    }
}

fn pinned(id: u64, arrival: u64, machine: i64) -> PendingTask {
    let reqs = collapse(&[TaskConstraint::new(
        0,
        Op::Equal(Some(AttrValue::Int(machine))),
    )])
    .unwrap();
    PendingTask {
        reqs,
        truth_group: 0,
        ..task(id, arrival, 0.2)
    }
}

/// One randomized configuration of the crash/retry space.
#[derive(Clone, Debug)]
struct FaultCase {
    sim_seed: u64,
    plan_seed: u64,
    zones: usize,
    crashes: usize,
    mttr: u64,
    tasks: u64,
    pins: u64,
    policy_fixed: bool,
    budget: u32,
    base: u64,
}

fn arb_case() -> impl Strategy<Value = FaultCase> {
    (
        (1u64..32, 0u64..32, 1usize..=6, 1usize..5),
        (1_000_000u64..40_000_000, 10u64..40, 0u64..4),
        (0u32..2, 0u32..4, 200_000u64..4_000_000),
    )
        .prop_map(
            |(
                (sim_seed, plan_seed, zones, crashes),
                (mttr, tasks, pins),
                (fixed, budget, base),
            )| {
                FaultCase {
                    sim_seed,
                    plan_seed,
                    zones,
                    crashes,
                    mttr,
                    tasks,
                    pins,
                    policy_fixed: fixed == 1,
                    budget,
                    base,
                }
            },
        )
}

fn policy(case: &FaultCase) -> Box<dyn RetryPolicy> {
    if case.policy_fixed {
        Box::new(FixedRetry {
            delay: d(case.base),
            budget: case.budget,
        })
    } else {
        Box::new(ExponentialBackoff {
            base: d(case.base),
            cap: d(case.base * 8),
            budget: case.budget,
            jitter: 0.5,
        })
    }
}

/// Runs one randomized case to the horizon, returning the result plus
/// the engine's admission count and fault counters.
fn run_case(case: &FaultCase) -> (SimResult, u64, FaultStats) {
    let (cluster, ids) = cluster(6);
    let mut arrivals: Vec<PendingTask> =
        (0..case.tasks).map(|k| task(k, k * 400_000, 0.3)).collect();
    for p in 0..case.pins {
        arrivals.push(pinned(1000 + p, 1_000_000 + p * 2_000_000, (p % 6) as i64));
    }
    arrivals.sort_by_key(|t| (t.arrival, t.id));
    let config = SimConfig {
        cycle: 500_000,
        attempts_per_cycle: 6,
        mean_runtime: 15_000_000,
        horizon: 90_000_000,
        seed: case.sim_seed,
    };
    let plan = FaultPlan::zone_crashes(
        case.plan_seed,
        &ids,
        case.zones,
        case.crashes,
        (t(5_000_000), t(60_000_000)),
        d(case.mttr),
    );
    let simulator = Simulator::new(config);
    let mut scheduler = MainOnly;
    let mut harness = simulator.harness(cluster, &arrivals, &mut scheduler);
    harness
        .state_mut()
        .ledger_mut()
        .enable_faults(policy(case), case.sim_seed);
    let plane = FaultPlane::new(plan);
    attach(&mut harness.sim, plane);
    let (_, result) = harness.run();
    let state = harness.state();
    let admitted = state.ledger().stats().admitted_arrivals;
    let stats = state
        .ledger()
        .fault_stats()
        .cloned()
        .expect("fault runtime enabled");
    (result, admitted, stats)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every admitted task terminates in exactly one bucket — placed
    /// (with dead-letters a marked subset of placed) or unplaced — and
    /// every loss event resolves to a retry or a dead-letter.
    #[test]
    fn tasks_conserve_under_crash_retry_schedules(case in arb_case()) {
        let (result, admitted, stats) = run_case(&case);

        // Conservation: admission = placed + unplaced, exactly.
        prop_assert_eq!(
            admitted as usize,
            result.placed.len() + result.unplaced,
            "admitted {} != placed {} + unplaced {}",
            admitted, result.placed.len(), result.unplaced
        );
        // Dead-letters are a terminal subset of placed work (a task must
        // have been placed once to be crash-lost).
        prop_assert!(result.failed_permanently <= result.placed.len());
        prop_assert_eq!(stats.dead_lettered as usize, result.failed_permanently);
        // Every loss event resolved: retried under budget or
        // dead-lettered (infeasible retries dead-letter too, so the
        // right-hand side can only exceed the losses).
        prop_assert!(
            stats.retries_scheduled + stats.dead_lettered >= stats.tasks_lost,
            "lost {} > retried {} + dead-lettered {}",
            stats.tasks_lost, stats.retries_scheduled, stats.dead_lettered
        );
        // Histogram bookkeeping matches the counters.
        prop_assert_eq!(stats.backoff.count(), stats.retries_scheduled);
        prop_assert!(stats.reschedule.count() + stats.dead_lettered <= stats.retries_scheduled + stats.tasks_lost);
    }

    /// The whole fault pipeline is a pure function of its seeds.
    #[test]
    fn fault_runs_are_bit_deterministic(case in arb_case()) {
        let (r1, a1, s1) = run_case(&case);
        let (r2, a2, s2) = run_case(&case);
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(a1, a2);
        prop_assert_eq!(s1, s2);
    }
}

/// A crash landing on a machine the churn plan is draining must void
/// the drain claim: the churn source skips its stale Restore, the fault
/// plane owns recovery, and the counters still balance.
#[test]
fn crash_overrides_inflight_drain_and_conservation_holds() {
    let (cluster, ids) = cluster(6);
    let arrivals: Vec<PendingTask> = (0..18u64).map(|k| task(k, 0, 0.3)).collect();
    let config = SimConfig {
        cycle: 500_000,
        attempts_per_cycle: 20,
        mean_runtime: 400_000_000, // effectively never finish naturally
        horizon: 80_000_000,
        seed: 2,
    };
    // Churn drains machine 0 at t=10s (restore planned at t=50s); the
    // fault plane crashes the same machine at t=20s while it is drained
    // (capacity-inert) and recovers it at t=40s.
    let churn_plan = ChurnPlan::new(vec![
        (t(10_000_000), ChurnAction::Fail(0)),
        (t(50_000_000), ChurnAction::Restore(0)),
    ]);
    let fault_plan = FaultPlan::new(vec![
        (t(20_000_000), ctlm_sched::FaultAction::Crash(0)),
        (t(40_000_000), ctlm_sched::FaultAction::Recover(0)),
        // A second, online machine crashes too, so tasks are lost.
        (t(22_000_000), ctlm_sched::FaultAction::Crash(3)),
        (t(45_000_000), ctlm_sched::FaultAction::Recover(3)),
    ]);
    let simulator = Simulator::new(config);
    let mut scheduler = MainOnly;
    let mut harness = simulator.harness(cluster, &arrivals, &mut scheduler);
    harness.state_mut().ledger_mut().enable_faults(
        Box::new(FixedRetry {
            delay: d(2_000_000),
            budget: 3,
        }),
        7,
    );
    let churn = ChurnSource::new(churn_plan);
    attach(&mut harness.sim, churn);
    let plane = FaultPlane::new(fault_plan);
    attach(&mut harness.sim, plane);
    let (cluster_after, result) = harness.run();
    let state = harness.state();
    let stats = state.ledger().fault_stats().cloned().unwrap();
    assert!(stats.crashed_machines >= 1, "online machine 3 crashed");
    assert!(stats.tasks_lost >= 1, "machine 3 carried running tasks");
    assert_eq!(
        state.ledger().stats().admitted_arrivals as usize,
        result.placed.len() + result.unplaced
    );
    assert_eq!(stats.dead_lettered as usize, result.failed_permanently);
    // Recovery belongs to the fault plane; the churn source's stale
    // Restore was skipped, and nobody holds a leaked claim at the end.
    assert!(
        state.claims().owner(0).is_none(),
        "no claim leaked on machine 0"
    );
    assert_eq!(
        cluster_after.len(),
        6,
        "crash-recovered machines rejoin the fleet"
    );
    assert!(!ids.is_empty());
}

/// Without a fault runtime, a crash dead-letters its running tasks
/// immediately (loss is never silent even when nobody configured
/// retries).
#[test]
fn crash_without_retry_runtime_dead_letters_immediately() {
    let (cluster, _) = cluster(3);
    let arrivals: Vec<PendingTask> = (0..9u64).map(|k| task(k, 0, 0.3)).collect();
    let config = SimConfig {
        cycle: 500_000,
        attempts_per_cycle: 20,
        mean_runtime: 400_000_000,
        horizon: 40_000_000,
        seed: 4,
    };
    let plan = FaultPlan::new(vec![(t(10_000_000), ctlm_sched::FaultAction::Crash(1))]);
    let simulator = Simulator::new(config);
    let mut scheduler = MainOnly;
    let mut harness = simulator.harness(cluster, &arrivals, &mut scheduler);
    let plane = FaultPlane::new(plan);
    attach(&mut harness.sim, plane);
    let (_, result) = harness.run();
    let state = harness.state();
    assert!(
        result.failed_permanently >= 1,
        "lost tasks must surface as failed_permanently, got {}",
        result.failed_permanently
    );
    assert_eq!(
        state.ledger().stats().admitted_arrivals as usize,
        result.placed.len() + result.unplaced
    );
}

/// A retry backoff as long as the time axis lands its retry at the end
/// of time: the lost tasks wait out the run in `retry_wait` instead of
/// wrapping back to before the crash.
#[test]
fn a_backoff_past_the_end_of_time_never_elapses() {
    let never: [Box<dyn RetryPolicy>; 2] = [
        Box::new(FixedRetry {
            delay: d(u64::MAX),
            budget: 3,
        }),
        Box::new(ExponentialBackoff {
            base: d(u64::MAX),
            cap: d(u64::MAX),
            budget: 3,
            jitter: 0.0,
        }),
    ];
    for policy in never {
        let (cluster, _) = cluster(3);
        let arrivals: Vec<PendingTask> = (0..9u64).map(|k| task(k, 0, 0.3)).collect();
        let config = SimConfig {
            cycle: 500_000,
            attempts_per_cycle: 20,
            mean_runtime: 400_000_000,
            horizon: 40_000_000,
            seed: 4,
        };
        let plan = FaultPlan::new(vec![(t(10_000_000), ctlm_sched::FaultAction::Crash(1))]);
        let simulator = Simulator::new(config);
        let mut scheduler = MainOnly;
        let mut harness = simulator.harness(cluster, &arrivals, &mut scheduler);
        let name = policy.name();
        let ledger = harness.state_mut().ledger_mut();
        ledger.enable_faults(policy, 7);
        ledger.enable_spans();
        let plane = FaultPlane::new(plan);
        attach(&mut harness.sim, plane);
        harness.run();
        let state = harness.state_mut();
        let stats = state.ledger().fault_stats().cloned().unwrap();
        assert!(
            stats.retries_scheduled >= 1,
            "{name}: a retry was scheduled"
        );
        let spans = state.ledger_mut().take_spans().unwrap();
        let waits: Vec<_> = spans.records().filter(|r| r.kind == "retry_wait").collect();
        assert_eq!(waits.len() as u64, stats.retries_scheduled, "{name}");
        assert!(
            waits
                .iter()
                .all(|r| (r.start, r.end, r.outcome) == (10_000_000, 40_000_000, "horizon")),
            "{name}: every wait outlasts the run: {waits:?}"
        );
    }
}
