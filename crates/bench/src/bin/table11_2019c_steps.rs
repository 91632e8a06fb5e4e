//! Table XI — detailed per-step run on clusterdata-2019c.
//!
//! Each row is one feature-array extension (simulation day/hour/minute,
//! width, new columns) with the Growing and Fully-Retrain models'
//! accuracy, Group-0 F1 and epoch count at that step.

use ctlm_bench::{opt_f1, replay_cell, rule, Cli};
use ctlm_core::pipeline::{run_model_over_steps_observed, ModelKind};
use ctlm_core::{StepPhases, TrainConfig};
use ctlm_trace::CellSet;

/// One model's host-plane totals over all steps: attempts, and where the
/// training wall time went.
#[derive(Default)]
struct HostTotals {
    attempts: usize,
    phases: StepPhases,
}

fn main() {
    let cli = Cli::parse();
    println!("TABLE XI. MODEL EVALUATION RESULTS FOR CLUSTERDATA-2019C\n");
    let out = replay_cell(&cli, CellSet::C2019c);
    let cfg = TrainConfig::default();
    let run = |kind| {
        let mut host = HostTotals::default();
        let summary = run_model_over_steps_observed(kind, &out.steps, cfg, cli.seed, |step| {
            host.attempts += step.attempts;
            host.phases.add(&step.phases);
        });
        (summary, host)
    };
    let (growing, growing_host) = run(ModelKind::Growing);
    let (retrain, retrain_host) = run(ModelKind::FullyRetrain);

    println!(
        "{:<5} {:<9} {:>8} {:>5} {:>6} | {:>9} {:>9} {:>6} | {:>9} {:>9} {:>6}",
        "step",
        "time",
        "features",
        "new",
        "rows",
        "G acc",
        "G G0-F1",
        "G ep",
        "FR acc",
        "FR G0-F1",
        "FR ep"
    );
    println!("{:<43} | {:^26} | {:^26}", "", "Growing", "Fully Retrain");
    rule(100);
    for (g, f) in growing.steps.iter().zip(retrain.steps.iter()) {
        println!(
            "{:<5} {:<9} {:>8} {:>5} {:>6} | {:>9.5} {:>9} {:>6} | {:>9.5} {:>9} {:>6}",
            g.step,
            g.label,
            g.features,
            g.new_features,
            g.rows,
            g.evaluation.accuracy,
            opt_f1(g.evaluation.group0_f1),
            g.epochs,
            f.evaluation.accuracy,
            opt_f1(f.evaluation.group0_f1),
            f.epochs,
        );
    }
    rule(100);
    println!(
        "totals: Growing {} epochs / {:.2?} — Fully Retrain {} epochs / {:.2?}",
        growing.epochs_total,
        growing.wall_time_total,
        retrain.epochs_total,
        retrain.wall_time_total
    );
    // Host plane: never part of a step record, printed here only.
    for (name, summary, host) in [
        ("Growing", &growing, &growing_host),
        ("Fully Retrain", &retrain, &retrain_host),
    ] {
        let wall = summary.wall_time_total.as_secs_f64();
        let shares = |parts: &[(&str, std::time::Duration)]| {
            parts
                .iter()
                .map(|(part, d)| format!("{part} {:.1}%", 100.0 * d.as_secs_f64() / wall))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!(
            "{name}: {} attempts; wall time by phase: {}; forward+backward by stage: {}",
            host.attempts,
            shares(&host.phases.parts()),
            shares(&host.phases.batch.parts())
        );
    }
    let saved = 100.0 * (1.0 - growing.epochs_total as f64 / retrain.epochs_total.max(1) as f64);
    println!("epoch reduction: {saved:.0}% (paper reports 40–91% across cells)");
}
