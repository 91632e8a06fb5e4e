//! Kernel-level autoscaler scenarios: burst absorption, warm-pool
//! activation, the churn/autoscaler ownership guard (including the
//! drain-while-provisioning regression), determinism, and the
//! never-strand-a-task property.

use proptest::prelude::*;

use ctlm_autoscale::{
    AutoscaleConfig, AutoscaleStats, Autoscaler, MachineTemplate, ProvisionDelay, ThresholdStep,
};
use ctlm_sched::engine::{SimConfig, Simulator};
use ctlm_sched::scenario::{ChurnAction, ChurnPlan, ChurnSource};
use ctlm_sched::{attach, PendingTask, SchedCluster, SimResult};
use ctlm_sim::{SimDuration, SimTime};
use ctlm_trace::Machine;

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

fn d(us: u64) -> SimDuration {
    SimDuration::from_micros(us)
}

fn fleet(n: usize) -> SchedCluster {
    SchedCluster::from_machines((0..n as u64).map(|i| Machine::new(i, 1.0, 1.0)))
}

fn burst_arrivals(count: usize, start: u64, gap: u64, cpu: f64) -> Vec<PendingTask> {
    (0..count)
        .map(|k| PendingTask {
            id: k as u64,
            collection: 1,
            cpu,
            memory: cpu,
            priority: 2,
            reqs: vec![],
            arrival: t(start + k as u64 * gap),
            truth_group: 25,
        })
        .collect()
}

fn sim_config(horizon: u64, seed: u64) -> SimConfig {
    SimConfig {
        cycle: 500_000,
        attempts_per_cycle: 16,
        mean_runtime: 10_000_000,
        horizon,
        seed,
    }
}

/// Runs `arrivals` against an `initial`-machine fleet with the given
/// autoscaler, returning `(cluster, result, stats)`.
fn run_autoscaled(
    initial: usize,
    arrivals: &[PendingTask],
    config: SimConfig,
    cfg: AutoscaleConfig,
    policy: ThresholdStep,
    churn: Option<ChurnPlan>,
) -> (SchedCluster, SimResult, AutoscaleStats) {
    let simulator = Simulator::new(config);
    let mut scheduler = ctlm_sched::scheduler::MainOnly;
    let mut scaler = Autoscaler::new(cfg, policy);
    let (cluster, result) = {
        let mut harness = simulator.harness(fleet(initial), arrivals, &mut scheduler);
        if let Some(plan) = churn {
            attach(&mut harness.sim, ChurnSource::new(plan));
        }
        attach(&mut harness.sim, &mut scaler);
        harness.run()
    };
    (cluster, result, scaler.stats)
}

fn threshold_cfg(min: usize, max: usize, sim: &SimConfig) -> AutoscaleConfig {
    AutoscaleConfig {
        warm_pool: 2,
        delay: ProvisionDelay::Fixed(3_000_000),
        template: MachineTemplate {
            cpu: 1.0,
            memory: 1.0,
        },
        ..AutoscaleConfig::new(min, max, d(2_000_000), sim)
    }
}

#[test]
fn burst_grows_the_fleet_then_drain_shrinks_it() {
    // 4 machines face a burst worth ~35 concurrent CPUs: the fleet must
    // grow toward max during the burst and shed back after it drains.
    let config = sim_config(240_000_000, 5);
    let arrivals = burst_arrivals(300, 20_000_000, 66_000, 0.25);
    let policy = ThresholdStep {
        up_pending: 5,
        down_util: 0.25,
        step: 4,
    };
    let (cluster, result, stats) = run_autoscaled(
        4,
        &arrivals,
        config,
        threshold_cfg(2, 20, &config),
        policy,
        None,
    );
    assert!(
        result.placed.len() + result.unplaced == arrivals.len(),
        "every task accounted: {} placed + {} unplaced vs {}",
        result.placed.len(),
        result.unplaced,
        arrivals.len()
    );
    let peak = stats.peak_active();
    assert!(peak > 4, "burst must grow the fleet (peak {peak})");
    assert!(
        stats.final_active() < peak,
        "post-burst drain must shrink from peak {peak} (final {})",
        stats.final_active()
    );
    assert!(stats.scale_ups > 0 && stats.scale_downs > 0);
    assert!(stats.drained > 0, "scale-down goes through drain");
    assert!(
        stats.warm_activations > 0,
        "a stocked warm pool serves part of the burst instantly"
    );
    assert_eq!(cluster.len(), stats.final_active());
    // The fleet floor held at every recorded point.
    assert!(stats.timeline.iter().all(|s| s.active >= 2));
}

/// A provisioning delay past the end of the time axis saturates: the
/// orders are placed and never complete (the parent wrapped `ready_at`
/// into the past in release builds and overflowed in debug ones).
#[test]
fn a_delay_past_the_end_of_time_is_an_order_that_never_completes() {
    let config = sim_config(120_000_000, 5);
    let arrivals = burst_arrivals(200, 20_000_000, 66_000, 0.25);
    let policy = ThresholdStep {
        up_pending: 5,
        step: 4,
        ..ThresholdStep::default()
    };
    let cfg = AutoscaleConfig {
        delay: ProvisionDelay::Fixed(u64::MAX),
        ..threshold_cfg(2, 20, &config)
    };
    let (cluster, _, stats) = run_autoscaled(4, &arrivals, config, cfg, policy, None);
    assert!(stats.provisioned > 0, "the burst must order machines");
    assert_eq!(stats.warm_activations, 0, "no order ever completed");
    assert!(stats.peak_active() <= 4 && cluster.len() <= 4);
}

#[test]
fn identical_runs_are_bit_identical() {
    let config = sim_config(180_000_000, 77);
    let arrivals = burst_arrivals(220, 10_000_000, 80_000, 0.3);
    let mut cfg = threshold_cfg(2, 16, &config);
    cfg.delay = ProvisionDelay::Exponential { mean: 4_000_000 };
    let run = || {
        run_autoscaled(
            3,
            &arrivals,
            config,
            cfg.clone(),
            ThresholdStep::default(),
            None,
        )
    };
    let (_, ra, sa) = run();
    let (_, rb, sb) = run();
    assert_eq!(ra, rb, "sim results must be bit-identical");
    assert_eq!(sa, sb, "fleet timelines must be bit-identical");
}

/// The drain-while-provisioning regression: churn names a machine that
/// is still provisioning. The ownership guard makes churn skip the
/// outage (and its paired restore) instead of racing the autoscaler —
/// the machine comes online on schedule and nothing is resurrected.
#[test]
fn churn_cannot_drain_a_machine_mid_provisioning() {
    let config = sim_config(60_000_000, 3);
    // Heavy pressure from t=0 so the very first evaluation (t=2 s)
    // orders machines; 10 s provisioning delay keeps them in the
    // Provisioning state until t=12 s.
    let arrivals = burst_arrivals(200, 0, 50_000, 0.3);
    let mut cfg = AutoscaleConfig::new(2, 6, d(2_000_000), &config);
    cfg.delay = ProvisionDelay::Fixed(10_000_000);
    let provisioned_id = cfg.id_base; // first ordered machine
    let plan = ChurnPlan::new(vec![
        (t(5_000_000), ChurnAction::Fail(provisioned_id)),
        (t(8_000_000), ChurnAction::Restore(provisioned_id)),
    ]);
    let policy = ThresholdStep {
        up_pending: 4,
        down_util: 0.0, // never shed — isolates the provisioning path
        step: 4,
    };
    let (cluster, result, stats) = run_autoscaled(2, &arrivals, config, cfg, policy, Some(plan));
    assert!(stats.provisioned >= 1, "pressure must order machines");
    assert_eq!(
        result.churn_rescheduled, 0,
        "the churn outage on a provisioning machine must be skipped"
    );
    assert!(
        cluster.len() > 2,
        "provisioned machines still came online (fleet {})",
        cluster.len()
    );
    // The fleet only ever grew: no sample dips below the initial 2.
    assert!(stats.timeline.iter().all(|s| s.active >= 2));
}

/// The reverse race: churn claims a machine in the same instant the
/// autoscaler evaluates a scale-down. The autoscaler must skip the
/// claimed machine (counting the conflict) rather than double-draining.
#[test]
fn autoscaler_skips_churn_claimed_machines() {
    let config = sim_config(30_000_000, 1);
    let plan = ChurnPlan::new(vec![
        (t(4_000_000), ChurnAction::Fail(0)),
        (t(20_000_000), ChurnAction::Restore(0)),
    ]);
    let policy = ThresholdStep {
        up_pending: 1000,
        down_util: 0.9, // idle fleet: shed every evaluation
        step: 1,
    };
    let cfg = AutoscaleConfig::new(1, 8, d(4_000_000), &config);
    let (_, _, stats) = run_autoscaled(3, &[], config, cfg, policy, Some(plan));
    assert_eq!(
        stats.conflicts_skipped, 1,
        "the same-instant claim must be detected exactly once"
    );
    assert!(stats.drained >= 1, "the unclaimed sibling still drains");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Scale-down never strands a task: whatever the workload shape and
    /// however aggressive the shedding, every task is either placed or
    /// counted unplaced (drained machines requeue everything before
    /// parking), and the online fleet never drops below `min`.
    #[test]
    fn scale_down_never_strands_tasks(
        initial in 2usize..8,
        min in 1usize..3,
        tasks in 10usize..150,
        gap in 20_000u64..200_000,
        cpu_pct in 10u32..45,
        seed in 0u64..1000,
        down_util in 0u32..95,
    ) {
        let config = sim_config(90_000_000, seed);
        let arrivals = burst_arrivals(tasks, 1_000_000, gap, cpu_pct as f64 / 100.0);
        let policy = ThresholdStep {
            up_pending: 6,
            down_util: down_util as f64 / 100.0,
            step: 2,
        };
        let mut cfg = threshold_cfg(min, 12, &config);
        cfg.warm_pool = 1;
        let (cluster, result, stats) =
            run_autoscaled(initial, &arrivals, config, cfg, policy, None);
        prop_assert_eq!(
            result.placed.len() + result.unplaced,
            arrivals.len(),
            "placed {} + unplaced {} must cover all {} tasks",
            result.placed.len(),
            result.unplaced,
            arrivals.len()
        );
        for s in &stats.timeline {
            prop_assert!(
                s.active >= min.min(initial),
                "fleet {} dipped below min {} at t={}",
                s.active,
                min,
                s.time
            );
        }
        prop_assert_eq!(cluster.len(), stats.final_active());
        // Drains and decommissions stay consistent: nothing is
        // decommissioned that was never drained or cancelled.
        prop_assert!(stats.decommissioned <= stats.drained);
    }
}
