//! Quickstart: trace → replay → continuous training → task analysis.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ctlm::prelude::*;
use ctlm::trace::{AttrValue, ConstraintOp, TaskConstraint};

fn main() {
    // 1. A scaled-down clusterdata-2019c-like cell: 150 machines, ~31
    //    simulated days of collections, constraint operators, machine
    //    churn and vocabulary growth.
    let trace = TraceGenerator::generate_cell(
        CellSet::C2019c,
        Scale {
            machines: 150,
            collections: 800,
            seed: 7,
        },
    );
    println!(
        "generated {}: {} events, {} tasks ({} constrained)",
        trace.profile.name,
        trace.events.len(),
        trace.total_tasks,
        trace.constrained_tasks
    );

    // 2. AGOCS-style replay: anomaly correction, constraint matching,
    //    CO-VV dataset generation at every feature-array extension.
    let replay = Replayer::default().replay(&trace);
    println!(
        "replayed: {} dataset steps, {} rows, final feature width {}",
        replay.steps.len(),
        replay.total_rows,
        replay.vocab.len()
    );

    // 3. Continuous transfer learning across the steps.
    let mut model = GrowingModel::new(TrainConfig::default());
    for (i, step) in replay.steps.iter().enumerate() {
        let out = model.step(&step.vv, i as u64);
        println!(
            "step {i:>2} @ {}: width {:>4} (+{:<3}) acc {:.4} G0-F1 {} epochs {:>3} {}",
            step.label,
            step.features_count,
            step.new_features,
            out.evaluation.accuracy,
            out.evaluation
                .group0_f1
                .map(|f| format!("{f:.3}"))
                .unwrap_or_else(|| "  — ".into()),
            out.epochs,
            if out.used_transfer {
                "(transfer)"
            } else {
                "(scratch)"
            },
        );
    }

    // 4. Real-time task analysis: route restrictive tasks to the
    //    high-priority scheduler.
    let analyzer = model.analyzer(replay.vocab.clone());
    let node = trace.catalog.get("node_index").expect("attribute exists");
    let pinned = vec![TaskConstraint::new(
        node,
        ConstraintOp::Equal(Some(AttrValue::Int(12))),
    )];
    let broad = vec![TaskConstraint::new(
        node,
        ConstraintOp::GreaterThanEqual(10),
    )];
    println!(
        "\npinned-to-one-node task  → predicted group {} (high priority: {})",
        analyzer.predict_group(&pinned).unwrap(),
        analyzer.is_high_priority(&pinned)
    );
    println!(
        "broad task (most nodes)  → predicted group {} (high priority: {})",
        analyzer.predict_group(&broad).unwrap(),
        analyzer.is_high_priority(&broad)
    );
}
