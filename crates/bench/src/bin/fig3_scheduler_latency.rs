//! Fig. 3 — enhanced cluster job scheduling with the Task CO Analyzer.
//!
//! End-to-end: replay a trace, train the Growing model on its dataset
//! steps, build a `TaskCoAnalyzer`, then push identical task arrivals
//! through (a) a conventional FIFO/best-fit scheduler and (b) the
//! enhanced pipeline where the analyzer routes predicted-Group-0 tasks to
//! the High-Priority Scheduler. Reports scheduling latency per group —
//! the "minimizes task scheduling latency by prioritizing tasks with
//! fewer suitable nodes" claim.

use ctlm_bench::{replay_cell, rule, Cli};
use ctlm_core::{GrowingModel, ModelRegistry, TrainConfig};
use ctlm_sched::engine::{arrivals_from_trace, compress_timeline, SimConfig, Simulator};
use ctlm_sched::latency::LatencyStats;
use ctlm_sched::scheduler::{LiveRegistry, MainOnly, OracleEnhanced, Scheduler};
use ctlm_trace::{CellSet, TraceGenerator};

fn show(name: &str, stats: Option<LatencyStats>) {
    match stats {
        Some(s) => println!(
            "{:<34} {:>7} {:>12.1} {:>10} {:>10} {:>10}",
            name,
            s.count,
            s.mean / 1000.0,
            s.p50 / 1000,
            s.p95 / 1000,
            s.p99 / 1000
        ),
        None => println!("{name:<34} (no samples)"),
    }
}

fn main() {
    let cli = Cli::parse();
    println!("FIG. 3 EXPERIMENT: ENHANCED CLUSTER JOB SCHEDULING WITH THE TASK CO ANALYZER\n");
    let cell = CellSet::C2019c;
    let out = replay_cell(&cli, cell);

    // Train the CTLM model over the trace's dataset steps.
    let mut model = GrowingModel::new(TrainConfig::default());
    for (i, step) in out.steps.iter().enumerate() {
        model.step(&step.vv, cli.seed.wrapping_add(i as u64));
    }
    let analyzer = model.analyzer(out.vocab.clone());
    println!(
        "analyzer trained: {} features, priority threshold = group {}\n",
        analyzer.features(),
        analyzer.priority_threshold
    );

    // Identical arrivals, three policies. The 31-day trace is compressed
    // onto a 20-minute window so the main queue actually backs up — the
    // loaded regime where head-of-line blocking hurts restrictive tasks.
    let trace = TraceGenerator::generate_cell(cell, cli.trace_scale(cell));
    let (cluster, mut arrivals) = arrivals_from_trace(&trace, 6_000);
    compress_timeline(
        &mut arrivals,
        ctlm_sim::SimTime::from_micros(20 * 60 * 1_000_000),
    );
    let sim = Simulator::new(SimConfig {
        cycle: 1_000_000,
        attempts_per_cycle: 4,
        mean_runtime: 60_000_000,
        horizon: 3_600_000_000,
        seed: cli.seed,
    });
    // One fleet, three policy runs, each on its own copy-on-write clone
    // of the cluster — no per-policy deep copy happens.
    let registry = ModelRegistry::new();
    registry.install(analyzer);
    let run =
        |scheduler: &mut dyn Scheduler| sim.harness(cluster.clone(), &arrivals, scheduler).run().1;
    let base = run(&mut MainOnly);
    let enhanced = run(&mut LiveRegistry::new(registry));
    let oracle = run(&mut OracleEnhanced);

    println!(
        "{:<34} {:>7} {:>12} {:>10} {:>10} {:>10}",
        "policy / population", "n", "mean (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)"
    );
    rule(88);
    show("main-only: Group 0 tasks", base.group0_latency());
    show("enhanced (CTLM): Group 0 tasks", enhanced.group0_latency());
    show("enhanced (oracle): Group 0 tasks", oracle.group0_latency());
    rule(88);
    show("main-only: other tasks", base.other_latency());
    show("enhanced (CTLM): other tasks", enhanced.other_latency());
    show("enhanced (oracle): other tasks", oracle.other_latency());
    rule(88);
    println!(
        "preemptions: base {}, enhanced {}, oracle {} — unplaced: {}/{}/{} of {}",
        base.preemptions,
        enhanced.preemptions,
        oracle.preemptions,
        base.unplaced,
        enhanced.unplaced,
        oracle.unplaced,
        arrivals.len()
    );
    println!("\nshape target: enhanced Group-0 latency well below main-only, other tasks close to unchanged.");
}
