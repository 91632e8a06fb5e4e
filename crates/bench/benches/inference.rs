//! The “almost in real time” claim: per-task analyzer scoring latency.
//!
//! The Growing model “operates almost in real time, enabling rapid
//! evaluation of cluster task queues as tasks arrive”. This bench
//! measures single-task prediction and batch scoring.

use criterion::{criterion_group, criterion_main, Criterion};

use ctlm_agocs::Replayer;
use ctlm_core::{GrowingModel, TrainConfig};
use ctlm_trace::{AttrValue, CellSet, ConstraintOp, Scale, TaskConstraint, TraceGenerator};

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

criterion_group!(benches, bench_inference);
criterion_main!(benches);
