//! Autoscale hot paths: the per-tick policy decision and placement into
//! a fleet that mutates under it.
//!
//! Two costs matter when a control plane joins the kernel: the policy
//! evaluation itself (`autoscale/policy_threshold_x16` — the pure
//! sizing function over sampled signals), and what fleet mutation does
//! to the placement hot loop (`autoscale/grow_place_10000` — a join →
//! place → release → drain round trip against the incremental
//! capacity/attribute indexes). The latter is the acceptance guard for PR-5: placement
//! medians must stay at indexed speed while machines come and go
//! mid-run. `autoscale/elastic_small` prices a whole elastic scenario
//! on the kernel. Neither is gated in CI: the ratio to
//! `placement/indexed_churn/10000` spreads too widely on a shared host,
//! so `e2e_bench`'s `chaos_mix` workload covers both paths.

use criterion::{criterion_group, criterion_main, Criterion};

use ctlm_autoscale::{AutoscaleConfig, Autoscaler, ProvisionDelay, Signals, ThresholdStep};
use ctlm_sched::engine::{SimConfig, Simulator};
use ctlm_sched::placement::{best_fit, Placement};
use ctlm_sched::scheduler::MainOnly;
use ctlm_sched::{attach, PendingTask, SchedCluster};
use ctlm_trace::Machine;

/// A rotating, deterministic signal mix: idle, loaded, backlogged.
fn signal_mix() -> Vec<Signals> {
    (0..16u64)
        .map(|k| Signals {
            fleet: 8 + (k % 5) as usize,
            pending: ((k * 7) % 23) as usize,
            utilisation: ((k * 13) % 100) as f64 / 100.0,
            no_capacity_delta: (k * 3) % 9,
            recent_latency_mean: Some(250_000.0 + k as f64 * 10_000.0),
        })
        .collect()
}

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("autoscale");
    let mix = signal_mix();
    // Each iteration runs the whole 16-signal mix: single decisions sit
    // around a nanosecond, too small to gate against run-to-run noise.
    group.bench_function("policy_threshold_x16", |b| {
        let p = ThresholdStep::default();
        b.iter(|| {
            mix.iter()
                .map(|s| p.desired_fleet(std::hint::black_box(s)))
                .sum::<usize>()
        })
    });
    group.finish();
}

/// Placement while the fleet mutates: each iteration joins a machine,
/// places into the grown fleet (capacity + attribute indexes update
/// incrementally), releases, then drains the joiner back out — the
/// full add/place/remove cycle an elastic cell exercises continuously.
fn bench_grow_place(c: &mut Criterion) {
    let n = 10_000usize;
    let mut cluster = SchedCluster::from_machines((0..n as u64).map(|i| {
        let mut m = Machine::new(i, 1.0, 1.0);
        m.set_attr(0, ctlm_trace::AttrValue::Int(i as i64));
        m
    }));
    let probe = PendingTask {
        id: u64::MAX,
        collection: 0,
        cpu: 0.25,
        memory: 0.25,
        priority: 5,
        reqs: vec![],
        arrival: 0,
        truth_group: 25,
    };
    let joiner_id = (1u64 << 48) + 1;
    let mut group = c.benchmark_group("autoscale");
    group.bench_function("grow_place_10000", |b| {
        b.iter(|| {
            cluster.add_machine(Machine::new(joiner_id, 1.0, 1.0));
            match best_fit(&cluster, std::hint::black_box(&probe)) {
                Placement::Placed(m) => {
                    cluster.place(m, u64::MAX, probe.cpu, probe.memory, probe.priority);
                    assert!(cluster.release(m, u64::MAX));
                }
                other => panic!("fleet must fit the probe: {other:?}"),
            }
            cluster.remove_machine(joiner_id);
            cluster.take_offline(joiner_id).expect("joiner parked");
        })
    });
    group.finish();
}

/// A small end-to-end elastic scenario: 150 bursty tasks against a
/// 3-machine fleet, threshold policy, warm pool, drain-based
/// scale-down — the whole control loop on the kernel.
fn bench_elastic_small(c: &mut Criterion) {
    let config = SimConfig {
        cycle: 500_000,
        attempts_per_cycle: 8,
        mean_runtime: 8_000_000,
        horizon: 90_000_000,
        seed: 11,
    };
    let arrivals: Vec<PendingTask> = (0..150u64)
        .map(|k| PendingTask {
            id: k,
            collection: 1,
            cpu: 0.3,
            memory: 0.3,
            priority: 2,
            reqs: vec![],
            arrival: 5_000_000 + k * 80_000,
            truth_group: 25,
        })
        .collect();
    let mut group = c.benchmark_group("autoscale");
    group.sample_size(10);
    group.bench_function("elastic_small", |b| {
        b.iter(|| {
            let simulator = Simulator::new(config);
            let mut scheduler = MainOnly;
            let cluster = SchedCluster::from_machines((0..3u64).map(|i| Machine::new(i, 1.0, 1.0)));
            let mut harness = simulator.harness(cluster, &arrivals, &mut scheduler);
            let cfg = AutoscaleConfig {
                warm_pool: 1,
                delay: ProvisionDelay::Fixed(3_000_000),
                ..AutoscaleConfig::new(2, 12, 2_000_000, &config)
            };
            let (scaler, stats) = Autoscaler::new(cfg, ThresholdStep::default(), harness.state());
            attach(&mut harness.sim, "autoscaler", scaler);
            let (_, result) = harness.run();
            let peak = stats.borrow().peak_active();
            assert!(peak > 3, "the burst must grow the fleet");
            result.placed.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_policies,
    bench_grow_place,
    bench_elastic_small
);
criterion_main!(benches);
