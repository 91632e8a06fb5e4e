//! Fig. 1 walk-through: how AGOCS turns a work trace into the CO-EL and
//! CO-VV experimental datasets.
//!
//! ```text
//! cargo run --release --example dataset_explorer
//! ```

use ctlm::data::compaction::collapse;
use ctlm::prelude::*;
use ctlm::trace::{AttrValue, ConstraintOp, TaskConstraint};

fn main() {
    // --- Constraint compaction (Table V) -------------------------------
    println!("== constraint compaction ==");
    let cs = vec![
        TaskConstraint::new(0, ConstraintOp::LessThan(8)),
        TaskConstraint::new(0, ConstraintOp::LessThan(3)),
        TaskConstraint::new(0, ConstraintOp::GreaterThan(0)),
        TaskConstraint::new(1, ConstraintOp::NotEqual(AttrValue::from("a"))),
        TaskConstraint::new(1, ConstraintOp::NotEqual(AttrValue::from("b"))),
    ];
    for c in &cs {
        println!("  input: {c}");
    }
    for r in collapse(&cs).unwrap() {
        println!("  collapsed: {r}");
    }

    // --- Trace replay and dataset generation ---------------------------
    println!("\n== trace replay ==");
    let trace = TraceGenerator::generate_cell(
        CellSet::C2019a,
        Scale {
            machines: 130,
            collections: 700,
            seed: 3,
        },
    );
    let replay = Replayer::default().replay(&trace);
    println!(
        "corrections: {} mistimed updates offset, {} tasks missing termination healed",
        replay.correction.mistimed_updates_fixed, replay.correction.tasks_missing_termination
    );
    println!(
        "skipped: {} contradictory, {} transiently unschedulable",
        replay.skipped_contradictions, replay.skipped_unschedulable
    );

    println!("\n== dataset steps (feature-array extensions) ==");
    println!(
        "{:<5} {:<9} {:>8} {:>5} {:>7}",
        "step", "time", "width", "new", "rows"
    );
    for s in &replay.steps {
        println!(
            "{:<5} {:<9} {:>8} {:>5} {:>7}",
            s.index,
            s.label,
            s.features_count,
            s.new_features,
            s.vv.len()
        );
    }

    let last = replay.steps.last().unwrap();
    println!("\n== final datasets ==");
    println!(
        "CO-VV: {} × {} ({} nnz, density {:.4}%)",
        last.vv.len(),
        last.vv.features_count(),
        last.vv.x.nnz(),
        100.0 * last.vv.x.density()
    );
    let el = &Replayer::default().co_el(&trace);
    println!("CO-EL: {} × {} labels", el.len(), el.features_count());
    println!("class distribution: {:?}", last.vv.class_counts());

    // --- Multi-format export (§III: "generate datasets in various
    //     formats simultaneously for use in ML frameworks") -------------
    use ctlm::data::export::{export_string, ExportFormat};
    let preview = last.vv.select(&[0, 1]);
    println!("\n== export formats (first two rows) ==");
    for (name, fmt) in [
        ("svmlight", ExportFormat::SvmLight),
        ("jsonl", ExportFormat::Jsonl),
    ] {
        println!("--- {name} ---");
        for line in export_string(&preview, fmt).lines() {
            let shown: String = line.chars().take(100).collect();
            println!("{shown}{}", if line.len() > 100 { " …" } else { "" });
        }
    }

    // --- Table IX statistics --------------------------------------------
    let d = replay.stats;
    println!("\n== tasks-with-CO distribution (Table IX shape) ==");
    println!(
        "volume {:.1}/{:.1}/{:.1}%  cpu {:.1}/{:.1}/{:.1}%  mem {:.1}/{:.1}/{:.1}%  (min/max/avg)",
        100.0 * d.by_volume.min,
        100.0 * d.by_volume.max,
        100.0 * d.by_volume.avg,
        100.0 * d.by_cpu.min,
        100.0 * d.by_cpu.max,
        100.0 * d.by_cpu.avg,
        100.0 * d.by_memory.min,
        100.0 * d.by_memory.max,
        100.0 * d.by_memory.avg,
    );
}
