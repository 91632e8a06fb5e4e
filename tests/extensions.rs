//! Integration tests for the implemented §VI future-work extensions:
//! hybrid analysis, attribute expiry, and multi-format export — exercised
//! on real replayed traces rather than synthetic fixtures.

use ctlm::core::expiry::{retire, UsageTracker};
use ctlm::core::hybrid::HybridAnalyzer;
use ctlm::core::trainer::fresh_two_layer;
use ctlm::data::export::{export_string, ExportFormat};
use ctlm::prelude::*;
use ctlm::trace::generator::attrs;
use ctlm::trace::{AttrValue, ConstraintOp, TaskConstraint};

fn trained_setup() -> (
    ctlm::trace::GeneratedTrace,
    ctlm::agocs::ReplayOutput,
    GrowingModel,
) {
    let trace = TraceGenerator::generate_cell(
        CellSet::C2019c,
        Scale {
            machines: 120,
            collections: 600,
            seed: 77,
        },
    );
    let replay = Replayer::default().replay(&trace);
    let cfg = TrainConfig {
        epochs_limit: 50,
        max_attempts: 2,
        ..TrainConfig::default()
    };
    let mut model = GrowingModel::new(cfg);
    for (i, step) in replay.steps.iter().enumerate() {
        model.step(&step.vv, i as u64);
    }
    (trace, replay, model)
}

#[test]
fn hybrid_analyzer_rules_over_a_trace_trained_model() {
    let (trace, replay, model) = trained_setup();
    let analyzer = model.analyzer(replay.vocab.clone());
    let node = trace
        .catalog
        .get(attrs::NODE_INDEX)
        .expect("node_index exists");
    let hybrid = HybridAnalyzer::new(analyzer, [node]);

    // Pinning to one node is rule-decided Group 0 regardless of model.
    let pinned = vec![TaskConstraint::new(
        node,
        ConstraintOp::Equal(Some(AttrValue::Int(3))),
    )];
    let v = hybrid.predict(&pinned).unwrap();
    assert_eq!(v.group, 0);
    assert!(hybrid.is_high_priority(&pinned));

    // A 2-node window can never exceed group 1 even if the model errs.
    let narrow = vec![
        TaskConstraint::new(node, ConstraintOp::GreaterThanEqual(10)),
        TaskConstraint::new(node, ConstraintOp::LessThanEqual(11)),
    ];
    let v = hybrid.predict(&narrow).unwrap();
    assert!(v.group <= 1, "2-node window predicted group {}", v.group);
}

#[test]
fn expiry_then_regrow_full_lifecycle_on_trace_vocab() {
    let (_trace, replay, model) = trained_setup();
    let vocab = replay.vocab.clone();
    let width = vocab.len();

    // Everything stale except the first 80% of columns.
    let mut tracker = UsageTracker::new();
    let keep_until = width * 4 / 5;
    for c in 0..keep_until {
        tracker.touch_machine(c, 1_000);
    }
    let mut sd = model.state_dict().unwrap().clone();
    let r = retire(&vocab, &mut sd, &tracker, 500, 0.5).unwrap();
    assert!(r.retired > 0, "some idle columns must retire");
    assert_eq!(r.vocab.len(), width - r.retired);
    // Remap is a bijection onto surviving columns.
    let mapped: std::collections::BTreeSet<usize> = r.remap.iter().flatten().copied().collect();
    assert_eq!(mapped.len(), r.vocab.len());

    // The compacted model loads and predicts at the reduced width.
    let mut net = fresh_two_layer(r.vocab.len(), model.config(), 0);
    net.load_state_dict(&sd).unwrap();
    assert_eq!(net.in_features(), r.vocab.len());

    // Growing resumes afterwards by padding the compacted dict.
    ctlm::nn::state_dict::pad_input_weight(&mut sd, "fc1.weight", r.vocab.len() + 5).unwrap();
    let mut regrown = fresh_two_layer(r.vocab.len() + 5, model.config(), 1);
    regrown.load_state_dict(&sd).unwrap();
}

#[test]
fn exports_round_numbers_match_dataset() {
    let (_trace, replay, _model) = trained_setup();
    let last = replay.steps.last().unwrap();
    let ds = &last.vv;

    let svm = export_string(ds, ExportFormat::SvmLight);
    assert_eq!(svm.lines().count(), ds.len());
    // Every svmlight line starts with its label.
    for (line, &y) in svm.lines().zip(ds.y.iter()) {
        let first = line.split_whitespace().next().unwrap();
        assert_eq!(first.parse::<u8>().unwrap(), y);
    }

    let csv = export_string(ds, ExportFormat::Csv);
    assert_eq!(csv.lines().count(), ds.len() + 1, "header + rows");
    let header_cols = csv.lines().next().unwrap().split(',').count();
    assert_eq!(header_cols, ds.features_count() + 1, "features + label");

    let jsonl = export_string(ds, ExportFormat::Jsonl);
    for (line, &y) in jsonl.lines().zip(ds.y.iter()) {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(v["y"], serde_json::json!(y));
    }
}
