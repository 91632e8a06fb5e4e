//! The “almost in real time” claim: per-task analyzer scoring latency.
//!
//! The Growing model “operates almost in real time, enabling rapid
//! evaluation of cluster task queues as tasks arrive”. This bench
//! measures single-task prediction and batch scoring.
//!
//! `inference/group_of/*` scores an already-collapsed requirement set —
//! the path `LiveRegistry` and every lab scheduler take — for a window
//! task and a single-node task, at two widths: `tables`, the vocabulary
//! of the table binaries' default replay (C2019c, 260 machines, 1 600
//! collections), and `lab`, `fig3_trace`'s 1 211-column machine
//! vocabulary. `inference/allocating/single_node/lab` is the same
//! prediction through the formula `group_of` replaced — a fresh
//! `CsrBuilder` row and `Net::predict` — which the CI gate holds it
//! against.

use criterion::{criterion_group, criterion_main, Criterion};

use ctlm_agocs::Replayer;
use ctlm_core::{GrowingModel, TaskCoAnalyzer, TrainConfig};
use ctlm_data::compaction::{collapse, AttrRequirement};
use ctlm_data::encode::co_vv::CoVvEncoder;
use ctlm_data::vocab::ValueVocab;
use ctlm_nn::Net;
use ctlm_tensor::init::seeded_rng;
use ctlm_tensor::CsrBuilder;
use ctlm_trace::{
    AttrValue, CellSet, ConstraintOp, EventPayload, Scale, TaskConstraint, TraceGenerator,
};

/// A window task (`10 ≤ node_index < 60`) and a single-node task
/// (`node_index == 17`) on the trace catalogue's `node_index` attribute.
fn task_shapes(node_attr: u32) -> [(&'static str, Vec<TaskConstraint>); 2] {
    [
        (
            "window",
            vec![
                TaskConstraint::new(node_attr, ConstraintOp::GreaterThanEqual(10)),
                TaskConstraint::new(node_attr, ConstraintOp::LessThan(60)),
            ],
        ),
        (
            "single_node",
            vec![TaskConstraint::new(
                node_attr,
                ConstraintOp::Equal(Some(AttrValue::Int(17))),
            )],
        ),
    ]
}

/// The two vocabularies `group_of` is timed at, with the `node_index`
/// attribute of each trace.
fn vocabularies() -> [(&'static str, ValueVocab, u32); 2] {
    let cell = CellSet::C2019c;
    let tables = TraceGenerator::generate_cell(
        cell,
        Scale {
            machines: 260,
            collections: 1_600,
            seed: 42,
        },
    );
    let tables_vocab = Replayer::default().replay(&tables).vocab;
    // The lab builds its vocabulary from the machines the trace adds.
    let lab = TraceGenerator::generate_cell(
        cell,
        Scale {
            machines: 1_040,
            collections: 6_400,
            seed: 42,
        },
    );
    let mut lab_vocab = ValueVocab::new();
    for ev in &lab.events {
        if let EventPayload::MachineAdd(m) = &ev.payload {
            for (attr, value) in &m.attributes {
                lab_vocab.observe(*attr, value);
            }
        }
    }
    let node =
        |t: &ctlm_trace::GeneratedTrace| t.catalog.get("node_index").expect("known attribute");
    [
        ("tables", tables_vocab, node(&tables)),
        ("lab", lab_vocab, node(&lab)),
    ]
}

/// `group_of` on collapsed sets. A prediction's cost depends on the row
/// and the widths, not on the weights, so the network is the paper's
/// shape untrained.
fn bench_group_of(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference");
    for (width, vocab, node_attr) in vocabularies() {
        let net = Net::two_layer(vocab.len(), 30, 26, &mut seeded_rng(5));
        let analyzer = TaskCoAnalyzer::new(net.clone(), vocab.clone());
        for (task, constraints) in task_shapes(node_attr) {
            let reqs: Vec<AttrRequirement> = collapse(&constraints).expect("consistent");
            group.bench_function(format!("group_of/{task}/{width}"), |b| {
                b.iter(|| analyzer.group_of(std::hint::black_box(&reqs)))
            });
            if (task, width) == ("single_node", "lab") {
                group.bench_function(format!("allocating/{task}/{width}"), |b| {
                    b.iter(|| {
                        let reqs = std::hint::black_box(&reqs);
                        let mut row = CsrBuilder::new(vocab.len());
                        row.push_row(CoVvEncoder.encode_requirements(reqs, &vocab));
                        net.predict(&row.finish())[0]
                    })
                });
            }
        }
    }
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let trace = TraceGenerator::generate_cell(
        CellSet::C2019c,
        Scale {
            machines: 150,
            collections: 900,
            seed: 78,
        },
    );
    let out = Replayer::default().replay(&trace);
    let cfg = TrainConfig {
        epochs_limit: 40,
        max_attempts: 2,
        ..TrainConfig::default()
    };
    let mut model = GrowingModel::new(cfg);
    for (i, s) in out.steps.iter().enumerate() {
        model.step(&s.vv, i as u64);
    }
    let analyzer = model.analyzer(out.vocab.clone());
    let node_attr = trace.catalog.get("node_index").expect("known attribute");
    let constraints = vec![
        TaskConstraint::new(node_attr, ConstraintOp::GreaterThanEqual(10)),
        TaskConstraint::new(node_attr, ConstraintOp::LessThan(60)),
    ];
    let single = vec![TaskConstraint::new(
        node_attr,
        ConstraintOp::Equal(Some(AttrValue::Int(17))),
    )];

    let mut group = c.benchmark_group("inference");
    group.bench_function("predict_group_window_task", |b| {
        b.iter(|| {
            analyzer
                .predict_group(std::hint::black_box(&constraints))
                .unwrap()
        })
    });
    group.bench_function("predict_group_single_node_task", |b| {
        b.iter(|| {
            analyzer
                .predict_group(std::hint::black_box(&single))
                .unwrap()
        })
    });
    let last = &out.steps.last().expect("steps").vv;
    group.bench_function("batch_predict_full_dataset", |b| {
        let net = model.to_net();
        b.iter(|| net.predict(std::hint::black_box(&last.x)))
    });
    group.finish();
}

criterion_group!(benches, bench_inference, bench_group_of);
criterion_main!(benches);
