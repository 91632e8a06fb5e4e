//! Parallel-dispatch overhead of the rayon shim.
//!
//! The shim feeds a persistent worker pool. This bench isolates the
//! per-call dispatch cost on a small payload:
//!
//! ```text
//! RAYON_NUM_THREADS=4 cargo bench -p ctlm-bench --bench par_dispatch
//! ```
//!
//! On a single-core host without `RAYON_NUM_THREADS`, everything runs
//! inline (the fast path spawns nothing).

use criterion::{criterion_group, criterion_main, Criterion};
use rayon::prelude::*;

fn bench_dispatch(c: &mut Criterion) {
    let data: Vec<f32> = (0..4096).map(|i| i as f32 * 0.5).collect();
    let mut group = c.benchmark_group("par_dispatch");
    group.bench_function("pool/map_collect_4096", |b| {
        b.iter(|| {
            let v: Vec<f32> = data.par_iter().map(|x| x * 2.0 + 1.0).collect();
            v
        })
    });
    group.bench_function("pool/sum_4096", |b| {
        b.iter(|| data.par_iter().map(|x| x * x).sum::<f32>())
    });
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
