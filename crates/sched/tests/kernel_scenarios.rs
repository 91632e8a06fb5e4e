//! Kernel-engine scenario tests: determinism across every `Scheduler`
//! impl, the preemption fallback, machine churn, and atomic gang
//! placement — paths the old monolithic loop either hardcoded or could
//! not express.

use std::sync::Arc;

use ctlm_core::{GrowingModel, ModelRegistry, TaskCoAnalyzer, TrainConfig};
use ctlm_data::compaction::collapse;
use ctlm_data::dataset::{DatasetBuilder, NUM_GROUPS};
use ctlm_data::encode::co_vv::CoVvEncoder;
use ctlm_data::vocab::ValueVocab;
use ctlm_sched::engine::{SimConfig, SimResult, Simulator};
use ctlm_sched::placement::PreemptiveBestFit;
use ctlm_sched::scenario::{ChurnAction, ChurnPlan, ChurnSource, GangSource};
use ctlm_sched::scheduler::{Enhanced, LiveRegistry, MainOnly, OracleEnhanced, Scheduler};
use ctlm_sched::{attach, PendingTask, SchedCluster};
use ctlm_trace::{AttrValue, ConstraintOp as Op, Machine, TaskConstraint};

fn cluster(n: u64) -> SchedCluster {
    let mut ms = Vec::new();
    for i in 0..n {
        let mut m = Machine::new(i, 1.0, 1.0);
        m.set_attr(0, AttrValue::Int(i as i64));
        ms.push(m);
    }
    SchedCluster::from_machines(ms)
}

fn task(id: u64, arrival: u64, cpu: f64, priority: u8) -> PendingTask {
    PendingTask {
        id,
        collection: 1,
        cpu,
        memory: cpu,
        priority,
        reqs: vec![],
        arrival,
        truth_group: 25,
    }
}

fn pinned(id: u64, arrival: u64, cpu: f64, priority: u8, machine: i64) -> PendingTask {
    let reqs = collapse(&[TaskConstraint::new(
        0,
        Op::Equal(Some(AttrValue::Int(machine))),
    )])
    .unwrap();
    PendingTask {
        reqs,
        truth_group: 0,
        collection: 2,
        ..task(id, arrival, cpu, priority)
    }
}

/// A mixed workload with enough contention that routing matters.
fn workload() -> Vec<PendingTask> {
    let mut arrivals = Vec::new();
    for k in 0..300u64 {
        arrivals.push(task(k, k * 40_000, 0.12, 2));
    }
    for (j, at) in [(0u64, 4_000_000u64), (1, 9_000_000), (2, 14_000_000)] {
        arrivals.push(pinned(2000 + j, at, 0.2, 6, (j % 6) as i64));
    }
    arrivals.sort_by_key(|t| t.arrival);
    arrivals
}

fn sim() -> Simulator {
    Simulator::new(SimConfig {
        cycle: 500_000,
        attempts_per_cycle: 3,
        mean_runtime: 6_000_000,
        horizon: 120_000_000,
        seed: 11,
    })
}

/// A deterministically trained analyzer over a tiny synthetic CO-VV
/// vocabulary (attribute 0, integer values) — enough for `Enhanced` and
/// `LiveRegistry` to exercise the model path.
fn tiny_analyzer() -> TaskCoAnalyzer {
    let mut vocab = ValueVocab::new();
    for v in 0..8 {
        vocab.observe(0, &AttrValue::Int(v));
    }
    let width = vocab.len();
    let enc = CoVvEncoder;
    let mut b = DatasetBuilder::new(width, NUM_GROUPS);
    for k in 1..8i64 {
        for _ in 0..40 {
            let reqs = collapse(&[TaskConstraint::new(0, Op::LessThan(k))]).unwrap();
            let row = enc.encode_requirements(&reqs, &vocab);
            b.push(row, ctlm_data::dataset::group_for_count(k as usize, 1));
        }
    }
    let ds = b.snapshot(width);
    let mut model = GrowingModel::new(TrainConfig {
        epochs_limit: 60,
        max_attempts: 2,
        ..TrainConfig::default()
    });
    model.step(&ds, 3);
    model.analyzer(vocab)
}

fn run_twice(mut make: impl FnMut() -> Box<dyn Scheduler>) -> (SimResult, SimResult) {
    let arrivals = workload();
    let mut c1 = cluster(6);
    let r1 = sim().run(&mut c1, &arrivals, make().as_mut());
    let mut c2 = cluster(6);
    let r2 = sim().run(&mut c2, &arrivals, make().as_mut());
    (r1, r2)
}

#[test]
fn every_scheduler_impl_is_bit_deterministic() {
    // MainOnly and OracleEnhanced: pure routing.
    let (a, b) = run_twice(|| Box::new(MainOnly));
    assert_eq!(a, b, "MainOnly must be bit-identical across runs");
    assert!(!a.placed.is_empty());

    let (a, b) = run_twice(|| Box::new(OracleEnhanced));
    assert_eq!(a, b, "OracleEnhanced must be bit-identical across runs");

    // Enhanced: the trained-model path.
    let analyzer = Arc::new(tiny_analyzer());
    let (a, b) = {
        let analyzer = analyzer.clone();
        run_twice(move || Box::new(Enhanced::new(analyzer.clone())))
    };
    assert_eq!(a, b, "Enhanced must be bit-identical across runs");

    // LiveRegistry with a pre-installed model (no background racing):
    // routing reads through the hot-swap point deterministically.
    let (a, b) = run_twice(|| {
        let registry = ModelRegistry::new();
        registry.install(tiny_analyzer());
        Box::new(LiveRegistry::new(registry))
    });
    assert_eq!(a, b, "LiveRegistry must be bit-identical across runs");
}

#[test]
fn preemption_fallback_fires_on_the_hp_path() {
    // Saturate the fleet with low-priority work, then a pinned
    // high-priority task arrives: the HP path must evict to place.
    let mut arrivals: Vec<PendingTask> = (0..12u64).map(|k| task(k, 0, 0.45, 1)).collect();
    arrivals.push(pinned(99, 2_000_000, 0.5, 9, 0));
    let config = SimConfig {
        cycle: 500_000,
        attempts_per_cycle: 20,
        mean_runtime: 300_000_000,
        horizon: 20_000_000,
        seed: 5,
    };
    let mut c = cluster(6);
    let r = Simulator::new(config).run(&mut c, &arrivals, &mut OracleEnhanced);
    assert!(r.preemptions > 0, "expected eviction");
    let rec = r
        .placed
        .iter()
        .find(|p| p.task == 99)
        .expect("pinned placed");
    assert_eq!(rec.truth_group, 0);
    // The victims' records are marked — one per eviction, all of them
    // low-priority fillers — and the preemptor's is not.
    assert!(!rec.was_preempted, "the preemptor was never evicted");
    let victims: Vec<u64> = (r.placed.iter().filter(|p| p.was_preempted))
        .map(|p| p.task)
        .collect();
    assert_eq!(victims.len(), r.preemptions);
    assert!(victims.iter().all(|&id| id < 12), "victims: {victims:?}");
}

#[test]
fn preemptive_placer_pluggable_on_the_main_queue() {
    // The placement strategy is a parameter now: give the *main* queue
    // the preemptive strategy and MainOnly routing still evicts.
    let mut arrivals: Vec<PendingTask> = (0..12u64).map(|k| task(k, 0, 0.45, 1)).collect();
    arrivals.push(task(99, 2_000_000, 0.5, 9));
    let config = SimConfig {
        cycle: 500_000,
        attempts_per_cycle: 20,
        mean_runtime: 300_000_000,
        horizon: 20_000_000,
        seed: 5,
    };
    let mut c = cluster(6);
    let r = Simulator::new(config)
        .with_placers(Box::new(PreemptiveBestFit), Box::new(PreemptiveBestFit))
        .run(&mut c, &arrivals, &mut MainOnly);
    assert!(
        r.preemptions > 0,
        "preemptive strategy on the main queue must evict"
    );
    assert!(r.placed.iter().any(|p| p.task == 99));
}

#[test]
fn churn_drains_machines_and_requeues_their_tasks() {
    // Long-running tasks fill 6 machines; three machines fail mid-run and
    // return later. Their tasks must re-enter the queue and the result
    // must count the reschedules.
    let arrivals: Vec<PendingTask> = (0..18u64).map(|k| task(k, 0, 0.3, 2)).collect();
    let config = SimConfig {
        cycle: 500_000,
        attempts_per_cycle: 20,
        mean_runtime: 400_000_000, // effectively never finish naturally
        horizon: 60_000_000,
        seed: 2,
    };
    let plan = ChurnPlan::new(vec![
        (10_000_000, ChurnAction::Fail(0)),
        (12_000_000, ChurnAction::Fail(1)),
        (14_000_000, ChurnAction::Fail(2)),
        (30_000_000, ChurnAction::Restore(0)),
        (30_000_000, ChurnAction::Restore(1)),
        (32_000_000, ChurnAction::Restore(2)),
    ]);
    let simulator = Simulator::new(config);
    let mut scheduler = MainOnly;
    let mut harness = simulator.harness(cluster(6), &arrivals, &mut scheduler);
    let churn = ChurnSource::new(plan, harness.engine);
    attach(&mut harness.sim, "churn", churn);
    let (cluster_after, result) = harness.run();
    assert!(
        result.churn_rescheduled >= 9,
        "3 machines × ~3 tasks each must requeue, got {}",
        result.churn_rescheduled
    );
    assert_eq!(
        cluster_after.len(),
        6,
        "restored machines must rejoin the fleet"
    );
    // Rescheduled tasks keep one placed record each (first placement).
    assert_eq!(result.placed.len(), 18);
}

#[test]
fn a_requeued_task_that_turns_infeasible_is_counted_once() {
    // Pinned to machine 0, the task places there; machine 0 then drains
    // for good, so the requeued task has no machine left that suits it
    // and is dropped as infeasible. It holds its one placed record
    // already — counting it unplaced too would break
    // `admitted == placed + unplaced`.
    let arrivals = vec![pinned(7, 0, 0.5, 2, 0)];
    let simulator = Simulator::new(SimConfig {
        cycle: 500_000,
        attempts_per_cycle: 4,
        mean_runtime: 400_000_000,
        horizon: 20_000_000,
        seed: 1,
    });
    let mut scheduler = MainOnly;
    let mut harness = simulator.harness(cluster(2), &arrivals, &mut scheduler);
    let plan = ChurnPlan::new(vec![(5_000_000, ChurnAction::Fail(0))]);
    let churn = ChurnSource::new(plan, harness.engine);
    attach(&mut harness.sim, "churn", churn);
    let state = harness.state();
    let (_, result) = harness.run();
    let state = state.borrow();
    assert_eq!(result.churn_rescheduled, 1);
    assert_eq!(state.ledger().stats().infeasible, 1);
    assert_eq!((result.placed.len(), result.unplaced), (1, 0));
    assert_eq!(
        state.ledger().admitted() as usize,
        result.placed.len() + result.unplaced
    );
    assert_eq!(result.failed_permanently, 0, "no fault plane ran");
}

#[test]
fn churned_cluster_resets_for_ab_runs() {
    // After a churn run, `reset` must bring back drained machines so an
    // A/B comparison on the same cluster object stays fair.
    let arrivals: Vec<PendingTask> = (0..6u64).map(|k| task(k, 0, 0.3, 2)).collect();
    let simulator = Simulator::new(SimConfig {
        cycle: 500_000,
        attempts_per_cycle: 8,
        mean_runtime: 400_000_000,
        horizon: 20_000_000,
        seed: 3,
    });
    let mut scheduler = MainOnly;
    let mut harness = simulator.harness(cluster(6), &arrivals, &mut scheduler);
    let plan = ChurnPlan::new(vec![(5_000_000, ChurnAction::Fail(4))]);
    let churn = ChurnSource::new(plan, harness.engine);
    attach(&mut harness.sim, "churn", churn);
    let (mut cluster_after, _) = harness.run();
    assert_eq!(cluster_after.len(), 5, "machine 4 still drained");
    cluster_after.reset();
    assert_eq!(cluster_after.len(), 6, "reset restores the fleet");
    assert_eq!(cluster_after.cpu_utilisation(), 0.0);
}

#[test]
fn capacity_index_stays_consistent_through_kernel_churn() {
    // Run a full kernel simulation with churn (drain/restore mid-run),
    // then check the incrementally maintained capacity index still
    // answers placement queries exactly like the linear reference on the
    // post-churn cluster — the end-to-end form of the property tests in
    // `placement_equivalence.rs`.
    use ctlm_sched::placement::{best_fit, best_fit_linear};
    let arrivals: Vec<PendingTask> = (0..24u64).map(|k| task(k, k * 250_000, 0.3, 2)).collect();
    let config = SimConfig {
        cycle: 500_000,
        attempts_per_cycle: 6,
        mean_runtime: 20_000_000,
        horizon: 60_000_000,
        seed: 13,
    };
    let simulator = Simulator::new(config);
    let mut scheduler = MainOnly;
    let mut harness = simulator.harness(cluster(6), &arrivals, &mut scheduler);
    let plan = ChurnPlan::new(vec![
        (5_000_000, ChurnAction::Fail(1)),
        (8_000_000, ChurnAction::Fail(4)),
        (20_000_000, ChurnAction::Restore(1)),
        (25_000_000, ChurnAction::Restore(4)),
        (30_000_000, ChurnAction::Fail(2)),
    ]);
    let churn = ChurnSource::new(plan, harness.engine);
    attach(&mut harness.sim, "churn", churn);
    let (cluster_after, result) = harness.run();
    assert!(result.placed.len() > 12, "most tasks place despite churn");
    assert_eq!(cluster_after.len(), 5, "machine 2 still drained");
    for cpu in [0.1, 0.3, 0.7, 1.0] {
        for pin in [None, Some(0), Some(2), Some(5)] {
            let reqs = match pin {
                Some(v) => {
                    collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(v))))]).unwrap()
                }
                None => vec![],
            };
            let probe = PendingTask {
                reqs,
                ..task(9999, 0, cpu, 2)
            };
            assert_eq!(
                best_fit(&cluster_after, &probe),
                best_fit_linear(&cluster_after, &probe),
                "post-churn index diverged for cpu={cpu} pin={pin:?}"
            );
        }
    }
}

#[test]
fn gangs_place_all_or_nothing_on_the_kernel() {
    // A 4-member gang needing 0.8 CPU each on a 6-machine cluster that
    // has only 3 free machines at arrival: nothing places until enough
    // capacity frees, then the whole gang lands in one cycle.
    let arrivals: Vec<PendingTask> = (0..3u64).map(|k| task(k, 0, 0.8, 2)).collect();
    // Gang members arrive only through the gang source — owned tasks,
    // never in the individual admission path.
    let gang_members: Vec<PendingTask> = (0..4u64)
        .map(|g| task(100 + g, 1_000_000, 0.8, 5))
        .collect();
    let config = SimConfig {
        cycle: 500_000,
        attempts_per_cycle: 8,
        mean_runtime: 8_000_000, // blockers drain after ~8 s
        horizon: 60_000_000,
        seed: 7,
    };
    let simulator = Simulator::new(config);
    let mut scheduler = MainOnly;
    let mut harness = simulator.harness(cluster(6), &arrivals, &mut scheduler);
    let gangs = GangSource::new(vec![(1_000_000, gang_members)], harness.engine);
    attach(&mut harness.sim, "gangs", gangs);
    let (_, result) = harness.run();
    assert_eq!(result.gangs_placed, 1, "gang must eventually place whole");
    let placed_members = result
        .placed
        .iter()
        .filter(|p| p.task >= 100)
        .collect::<Vec<_>>();
    assert_eq!(placed_members.len(), 4, "all members place");
    let latencies: Vec<u64> = placed_members.iter().map(|p| p.latency).collect();
    assert!(
        latencies.iter().all(|&l| l == latencies[0]),
        "atomic placement: one cycle, identical latency {latencies:?}"
    );
}

/// Routes everything to the main queue and logs each task the first
/// time it is routed (a requeue routes again): `(constrained, truth_group)`
/// in admission order.
#[derive(Default)]
struct AdmissionLog {
    seen: std::collections::HashSet<u64>,
    admitted: Vec<(bool, u8)>,
}

impl Scheduler for AdmissionLog {
    fn route_high_priority(&mut self, task: &PendingTask) -> bool {
        if self.seen.insert(task.id) {
            self.admitted
                .push((!task.reqs.is_empty(), task.truth_group));
        }
        false
    }
    fn name(&self) -> &'static str {
        "admission_log"
    }
}

#[test]
fn online_feed_emits_the_steps_replay_does_and_labels_tasks_with_their_rows() {
    use ctlm_agocs::{correct_stream, ReplayConfig, ReplayHandle, Replayer};
    use ctlm_sched::scenario::OnlineTraceFeed;
    use ctlm_trace::{CellSet, Scale, TraceGenerator};

    let trace = TraceGenerator::generate_cell(
        CellSet::C2019c,
        Scale {
            machines: 60,
            collections: 250,
            seed: 19,
        },
    );
    let folded = Replayer::default().replay(&trace);
    assert!(
        folded.steps.len() >= 2,
        "the trace must grow its vocabulary"
    );

    // The same corrected stream, walked inside a scheduling simulation.
    let (events, correction) = correct_stream(&trace.events);
    let end = events.last().unwrap().time;
    let mut step_widths = Vec::new();
    let replay = ReplayHandle::new(ReplayConfig::default(), trace.group_width)
        .on_step(|step, vocab| step_widths.push((step.index, vocab.len())));
    let simulator = Simulator::new(SimConfig {
        cycle: 3_600_000_000, // hourly passes over the month-long trace
        attempts_per_cycle: 64,
        mean_runtime: 60_000_000,
        horizon: end + 3_600_000_000,
        seed: 19,
    });
    let mut log = AdmissionLog::default();
    let mut harness = simulator.harness(SchedCluster::new(), &[], &mut log);
    let feed = OnlineTraceFeed::new(events, trace.group_width, harness.engine, replay.clone());
    attach(&mut harness.sim, "online_feed", feed);
    let (_, result) = harness.run();
    let online = replay.finish(correction);

    // The fold and the timeline agree, step for step.
    assert_eq!(online.steps.len(), folded.steps.len());
    for (a, b) in online.steps.iter().zip(&folded.steps) {
        assert_eq!(
            (a.index, a.time, a.features_count, a.vv.len()),
            (b.index, b.time, b.features_count, b.vv.len())
        );
        assert_eq!(a.vv.x, b.vv.x);
        assert_eq!(a.vv.y, b.vv.y);
    }
    // The callback saw every step, trailing flush included, each with
    // the vocabulary as of that step.
    let widths: Vec<(usize, usize)> = online
        .steps
        .iter()
        .map(|s| (s.index, s.features_count))
        .collect();
    assert_eq!(step_widths, widths);

    // One labelling per task: the constrained tasks the feed admitted
    // are, in order, the dataset's rows, under the same labels.
    let row_labels: Vec<u8> = log
        .admitted
        .iter()
        .filter(|&&(constrained, _)| constrained)
        .map(|&(_, group)| group)
        .collect();
    assert_eq!(row_labels, online.steps.last().unwrap().vv.y);
    assert!(
        log.admitted.len() > row_labels.len(),
        "unconstrained tasks admit too"
    );
    assert_eq!(result.placed.len() + result.unplaced, log.admitted.len());
}
