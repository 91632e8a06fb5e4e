//! The online loop on one event timeline — replay, scheduling, machine
//! churn, a staged kernel rollout and *live* model retraining in a
//! single `ctlm-sim` kernel run.
//!
//! The old codebase ran Fig. 3 and the Table XI replay as two separate
//! monolithic loops; on one timeline they compose:
//!
//! 1. An [`OnlineTraceFeed`] walks the corrected trace stream. Every
//!    event is observed by the feed's replay session (vocabulary,
//!    dataset rows, Table XI steps) and mirrored at the scheduler engine
//!    (machine joins, attribute updates, task admissions labelled with
//!    live ground truth).
//! 2. Each dataset step retrains a [`GrowingModel`] and hot-swaps the
//!    analyzer into the [`ModelRegistry`] at the simulated instant the
//!    step completes. Training takes no simulated time, so the scheduler
//!    never waits for it — the [`LiveRegistry`] scheduler starts routing
//!    restrictive tasks to the high-priority queue as soon as the first
//!    model lands.
//! 3. A [`ChurnPlan`] drains machines mid-run: their tasks re-enter the
//!    queue and the fleet recovers minutes later.
//! 4. A staged kernel rollout (synthetic `MachineAttrUpdate` events
//!    merged into the stream) grows the attribute vocabulary mid-run,
//!    triggering further retraining steps — the paper's "feature array
//!    extended" moments, now happening *during* scheduling.
//!
//! ```text
//! cargo run --release --example online_simulation
//! ```

use ctlm::prelude::*;
use ctlm::sched::scenario::{ChurnPlan, ChurnSource, OnlineTraceFeed};
use ctlm::sched::{attach, SchedCluster};
use ctlm::sim::{SimDuration, SimTime};
use ctlm::trace::event::compress_times;
use ctlm::trace::generator::attrs;
use ctlm::trace::{AttrValue, EventPayload, TraceEvent};

fn main() {
    let cell = CellSet::C2019c;
    let trace = TraceGenerator::generate_cell(
        cell,
        Scale {
            machines: 120,
            collections: 700,
            seed: 21,
        },
    );
    let (mut events, correction) = ctlm::agocs::correct_stream(&trace.events);

    // Compress the multi-week trace onto a loaded 30-minute window.
    let window = 30 * 60 * 1_000_000;
    compress_times(&mut events, window);

    // Staged kernel rollout: three waves of a brand-new kernel version
    // wash over slices of the fleet mid-run, growing the vocabulary and
    // driving retraining steps the original trace never contained.
    let kernel_attr = trace.catalog.get(attrs::KERNEL).expect("kernel attr");
    let mut fleet_caps: Vec<(u64, f64)> = events
        .iter()
        .filter_map(|e| match &e.payload {
            EventPayload::MachineAdd(m) => Some((m.id, m.cpu)),
            _ => None,
        })
        .collect();
    let fleet: Vec<u64> = fleet_caps.iter().map(|&(id, _)| id).collect();
    for (stage, minute) in [10u64, 15, 20].iter().enumerate() {
        let t = minute * 60 * 1_000_000;
        let slice = fleet.len() / 4;
        for &m in fleet.iter().skip(stage * slice).take(slice) {
            events.push(TraceEvent::new(
                t,
                EventPayload::MachineAttrUpdate {
                    machine: m,
                    attr: kernel_attr,
                    value: Some(AttrValue::Str(format!("k-rollout-{stage}"))),
                },
            ));
        }
    }
    events.sort_by_key(|e| e.time); // stable: same-time stream order kept

    // Retraining on the simulation clock: each dataset step trains the
    // growing model and hot-swaps its analyzer into the registry at the
    // step's simulated instant.
    let registry = ModelRegistry::new();
    let mut model = GrowingModel::new(TrainConfig {
        epochs_limit: 40,
        max_attempts: 2,
        ..TrainConfig::default()
    });
    let replay = ctlm::agocs::ReplayHandle::new(
        ctlm::agocs::ReplayConfig {
            min_rows_for_step0: 30,
            step_merge_window: 2 * 60 * 1_000_000, // 2 sim-minutes
        },
        trace.group_width,
    )
    .on_step(|step, vocab| {
        println!(
            "  [t={}] dataset step {}: {} rows, {} features (+{}) → retraining",
            step.label,
            step.index,
            step.vv.len(),
            step.features_count,
            step.new_features
        );
        model.step(&step.vv, step.index as u64);
        registry.install(model.analyzer(vocab.clone()));
    });

    // The simulation: LiveRegistry routes with whatever model is
    // currently installed; the cluster starts empty — machines join
    // through the feed, exactly as the trace says.
    let mut scheduler = LiveRegistry::new(registry.clone());
    let sim = Simulator::new(SimConfig {
        cycle: 1_000_000,
        attempts_per_cycle: 4,
        mean_runtime: 60_000_000,
        horizon: window + 5 * 60 * 1_000_000,
        seed: 21,
    });
    // The feed stays here, attached by `&mut`, so its replay session
    // can be finished after the run.
    let mut feed = OnlineTraceFeed::new(events, trace.group_width, replay);

    // Mid-run churn: 8 machines drain in minutes 8–22, back ~3 minutes
    // later; their tasks re-enter the queue. Best-fit packs the
    // smallest-capacity machines first, so churn that loaded end of the
    // heterogeneous fleet.
    fleet_caps.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let drain_pool: Vec<u64> = fleet_caps.iter().take(16).map(|&(id, _)| id).collect();
    let minute = |m: u64| SimTime::from_micros(m * 60 * 1_000_000);
    let plan = ChurnPlan::random_drain(
        9,
        &drain_pool,
        8,
        (minute(8), minute(22)),
        SimDuration::from_micros(3 * 60 * 1_000_000),
    );

    println!("online simulation: replay + scheduling + churn + rollout on one timeline\n");
    let (cluster, result) = {
        let mut harness = sim.harness(SchedCluster::new(), &[], &mut scheduler);
        attach(&mut harness.sim, &mut feed);
        attach(&mut harness.sim, ChurnSource::new(plan));
        harness.run()
    };
    // Read before `finish`: its trailing flush may retrain once more,
    // after the run.
    let swapped = registry.version();
    let replay_out = feed.into_replay().finish(correction);

    println!("\nsimulation finished:");
    println!(
        "  fleet: {} machines online, {} dataset rows encoded, {} retraining steps",
        cluster.len(),
        replay_out.total_rows,
        replay_out.steps.len(),
    );
    println!("  model versions hot-swapped during the run: {swapped}");
    println!(
        "  placed {} tasks ({} unplaced), churn rescheduled {}, preemptions {}",
        result.placed.len(),
        result.unplaced,
        result.churn_rescheduled,
        result.preemptions,
    );
    match (result.group0_latency(), result.other_latency()) {
        (Some(g0), Some(rest)) => println!(
            "  latency: Group 0 mean {:.1} ms (n={}) vs others {:.1} ms (n={})",
            g0.mean / 1000.0,
            g0.count,
            rest.mean / 1000.0,
            rest.count
        ),
        _ => println!("  latency: insufficient samples per group"),
    }
    assert!(
        !result.placed.is_empty(),
        "online loop must place tasks end-to-end"
    );
}
