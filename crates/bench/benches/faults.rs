//! Fault-plane hot paths: the per-loss retry decision and the whole
//! crash → requeue → replace round trip on the kernel.
//!
//! Retry policies run once per crash-lost task, inside the engine's
//! crash handler — `faults/retry_*_x16` prices that decision (batched
//! ×16 like the autoscale policy benches; a single call is too small to
//! gate against noise). `faults/crash_recovery_roundtrip` prices the
//! full robustness loop end to end: a zone crash loses running tasks,
//! the retry policy backs them off and requeues, the autoscaler reads
//! the capacity loss as a scale-up signal and orders replacements, and
//! the recovered machines rejoin — the scenario every chaos spec in
//! `experiments/` exercises. Its ratio to `autoscale/elastic_small` (the
//! same loop without crashes) spreads too widely on a shared host to
//! gate, so `e2e_bench`'s `chaos_mix` workload covers the path.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use ctlm_autoscale::{AutoscaleConfig, Autoscaler, ProvisionDelay, ThresholdStep};
use ctlm_sched::engine::{SimConfig, Simulator};
use ctlm_sched::faults::{ExponentialBackoff, FaultPlan, FaultPlane, FixedRetry, RetryPolicy};
use ctlm_sched::scheduler::MainOnly;
use ctlm_sched::{attach, PendingTask, SchedCluster};
use ctlm_sim::{SimDuration, SimTime};
use ctlm_trace::Machine;

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

fn d(us: u64) -> SimDuration {
    SimDuration::from_micros(us)
}

/// Prices one retry decision: 16 policy calls across a rotating attempt
/// number, summing the granted delays (dead-letters contribute zero).
fn bench_retry_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("faults");
    group.bench_function("retry_fixed_x16", |b| {
        let policy = FixedRetry {
            delay: d(2_000_000),
            budget: 3,
        };
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            (0..16u32)
                .map(|k| {
                    policy
                        .delay(std::hint::black_box(k % 5), &mut rng)
                        .map_or(0, SimDuration::as_micros)
                })
                .sum::<u64>()
        })
    });
    group.bench_function("retry_backoff_x16", |b| {
        let policy = ExponentialBackoff {
            base: d(1_000_000),
            cap: d(60_000_000),
            budget: 3,
            jitter: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            (0..16u32)
                .map(|k| {
                    policy
                        .delay(std::hint::black_box(k % 5), &mut rng)
                        .map_or(0, SimDuration::as_micros)
                })
                .sum::<u64>()
        })
    });
    group.finish();
}

/// The full crash → requeue → replace loop: 120 tasks on 6 machines,
/// two zone crashes mid-run with exponential-backoff retries, and a
/// threshold autoscaler ordering replacement capacity for the loss.
fn bench_crash_recovery_roundtrip(c: &mut Criterion) {
    let config = SimConfig {
        cycle: 500_000,
        attempts_per_cycle: 8,
        mean_runtime: 12_000_000,
        horizon: 90_000_000,
        seed: 11,
    };
    let arrivals: Vec<PendingTask> = (0..120u64)
        .map(|k| PendingTask {
            id: k,
            collection: 1,
            cpu: 0.3,
            memory: 0.3,
            priority: 2,
            reqs: vec![],
            arrival: t(k * 150_000),
            truth_group: 25,
        })
        .collect();
    let machine_ids: Vec<u64> = (0..6).collect();
    let mut group = c.benchmark_group("faults");
    group.sample_size(10);
    group.bench_function("crash_recovery_roundtrip", |b| {
        b.iter(|| {
            let simulator = Simulator::new(config);
            let mut scheduler = MainOnly;
            let cluster =
                SchedCluster::from_machines(machine_ids.iter().map(|&i| Machine::new(i, 1.0, 1.0)));
            let mut harness = simulator.harness(cluster, &arrivals, &mut scheduler);
            harness.state_mut().ledger_mut().enable_faults(
                Box::new(ExponentialBackoff {
                    base: d(1_000_000),
                    cap: d(8_000_000),
                    budget: 3,
                    jitter: 0.5,
                }),
                config.seed,
            );
            let plan = FaultPlan::zone_crashes(
                13,
                &machine_ids,
                3,
                2,
                (t(10_000_000), t(50_000_000)),
                d(20_000_000),
            );
            let plane = FaultPlane::new(plan);
            attach(&mut harness.sim, plane);
            let cfg = AutoscaleConfig {
                warm_pool: 1,
                delay: ProvisionDelay::Fixed(3_000_000),
                ..AutoscaleConfig::new(4, 12, d(2_000_000), &config)
            };
            attach(
                &mut harness.sim,
                Autoscaler::new(cfg, ThresholdStep::default()),
            );
            let (_, result) = harness.run();
            let lost = harness
                .state()
                .ledger()
                .fault_stats()
                .map(|f| f.tasks_lost)
                .unwrap_or(0);
            assert!(lost > 0, "the crashes must cost running work");
            result.placed.len() + result.failed_permanently
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_retry_policies,
    bench_crash_recovery_roundtrip
);
criterion_main!(benches);
