//! Constraint-matching throughput — the AGOCS replay hot loop.
//!
//! Ground-truth labels require counting suitable machines per constrained
//! task. This bench measures the inverted-index path (`count_suitable`)
//! against the retained linear scan (`count_suitable_linear`) at
//! increasing cluster sizes, in the same run — the PR-1 speedup target
//! (≥5× at 10k machines) reads straight off these ids. `build/*` times
//! indexing a whole fleet.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ctlm_agocs::matcher::count_suitable_linear;
use ctlm_agocs::{count_suitable, AttrIndex, ClusterState};
use ctlm_data::compaction::collapse;
use ctlm_trace::{AttrValue, ConstraintOp, Machine, TaskConstraint};

/// `n` machines with a unique integer, one of 40 integers and one of 7
/// strings.
fn machines(n: usize) -> Vec<Machine> {
    (0..n as u64)
        .map(|i| {
            let attributes = vec![
                (0, AttrValue::Int(i as i64)),
                (1, AttrValue::Int((i % 40) as i64)),
                (2, AttrValue::Str(format!("k{}", i % 7))),
            ];
            Machine::with_attributes(i, 0.5, 0.5, attributes)
        })
        .collect()
}

fn cluster(n: usize) -> ClusterState {
    let mut s = ClusterState::new();
    for m in machines(n) {
        s.add_machine(m);
    }
    s
}

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    for n in [100usize, 1_000, 10_000] {
        let state = cluster(n);
        // A selective window plus a negative string constraint — the mix
        // real constrained tasks carry after compaction.
        let window = collapse(&[
            TaskConstraint::new(0, ConstraintOp::GreaterThanEqual(5)),
            TaskConstraint::new(0, ConstraintOp::LessThan(5 + n as i64 / 50)),
            TaskConstraint::new(2, ConstraintOp::NotEqual(AttrValue::from("k3"))),
        ])
        .unwrap();
        // A single-machine pin — the Group 0 shape the paper's analyzer
        // exists to catch.
        let pin = collapse(&[TaskConstraint::new(
            0,
            ConstraintOp::Equal(Some(AttrValue::Int(n as i64 / 2))),
        )])
        .unwrap();
        assert_eq!(
            count_suitable(&state, &window),
            count_suitable_linear(&state, &window)
        );
        assert_eq!(
            count_suitable(&state, &pin),
            count_suitable_linear(&state, &pin)
        );

        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| count_suitable(std::hint::black_box(&state), std::hint::black_box(&window)))
        });
        group.bench_with_input(BenchmarkId::new("linear", n), &n, |b, _| {
            b.iter(|| {
                count_suitable_linear(std::hint::black_box(&state), std::hint::black_box(&window))
            })
        });
        group.bench_with_input(BenchmarkId::new("indexed_pin", n), &n, |b, _| {
            b.iter(|| count_suitable(std::hint::black_box(&state), std::hint::black_box(&pin)))
        });
        group.bench_with_input(BenchmarkId::new("linear_pin", n), &n, |b, _| {
            b.iter(|| {
                count_suitable_linear(std::hint::black_box(&state), std::hint::black_box(&pin))
            })
        });
    }
    // Building the index over a fleet: what a machine joining costs.
    for n in [1_000usize, 10_000] {
        let fleet = machines(n);
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| {
                let mut index = AttrIndex::new();
                for m in std::hint::black_box(&fleet) {
                    index.add_machine(m);
                }
                index
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
