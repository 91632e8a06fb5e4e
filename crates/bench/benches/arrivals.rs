//! Arrival generation: the streaming decoder against the materialised
//! build, plus the steady-state chunk-refill cost the engine pays.
//!
//! Three questions, on a synthetic workload with Pareto-sized tasks,
//! exponential gaps and a restrictive (Group-0) run to merge:
//!
//! * **`materialise_*`** — drain the generator into one
//!   capacity-reserved list, exactly what `build_cell` does on the
//!   classic path (the old full-list `sort_by_key` is gone: the two
//!   pre-sorted runs merge in one pass, so this is the lower bound for
//!   any up-front build).
//! * **`stream_*`** — same tasks through an 8192-task recycled chunk
//!   buffer: what a streaming cell pays in total, with peak memory one
//!   chunk instead of the whole population.
//! * **`chunk_refill_8192`** — one refill from a long-lived stream: the
//!   per-epoch latency bump a streaming cell sees when its buffer runs
//!   dry mid-run.
//!
//! Record with `CTLM_BENCH_JSON=$PWD/out.json cargo bench -p ctlm-bench
//! --bench arrivals`; CI gates `stream_1m : materialise_1m` by a same-run
//! `bench_check --max-ratio`.

use criterion::{criterion_group, criterion_main, Criterion};
use ctlm_lab::spec::{ArrivalProcess, MachineGroup, RestrictiveSpec, SizeDist, SyntheticWorkload};
use ctlm_lab::stream::SyntheticStream;
use ctlm_sched::{ArrivalStream, SimConfig};

const CHUNK: usize = 8_192;

fn workload(tasks: usize) -> SyntheticWorkload {
    SyntheticWorkload {
        machines: vec![MachineGroup {
            count: 1_000,
            cpu: 1.0,
            memory: 1.0,
        }],
        tasks,
        arrival: ArrivalProcess::Exponential { mean_gap: 2_000 },
        cpu: SizeDist::Pareto {
            lo: 0.02,
            hi: 0.5,
            alpha: 1.2,
        },
        memory: SizeDist::Fixed(0.05),
        priority: 2,
        restrictive: Some(RestrictiveSpec {
            count: 100,
            start: 1_000_000,
            period: 2_000_000,
            cpu: 0.2,
            priority: 6,
        }),
    }
}

fn bench_arrivals(c: &mut Criterion) {
    let mut group = c.benchmark_group("arrivals");
    group.sample_size(10);
    let sim = SimConfig {
        seed: 7,
        ..SimConfig::default()
    };
    for (label, tasks) in [("100k", 100_000usize), ("1m", 1_000_000)] {
        let w = workload(tasks);
        group.bench_function(format!("materialise_{label}"), |b| {
            b.iter(|| {
                let mut all = Vec::with_capacity(tasks + 128);
                let mut s = SyntheticStream::new(&w, &sim, 0, 0, 65_536).expect("stream");
                while s.refill(&mut all) > 0 {}
                all.len()
            })
        });
        group.bench_function(format!("stream_{label}"), |b| {
            b.iter(|| {
                let mut buf = Vec::with_capacity(CHUNK);
                let mut s = SyntheticStream::new(&w, &sim, 0, 0, CHUNK).expect("stream");
                let mut total = 0usize;
                loop {
                    buf.clear();
                    let got = s.refill(&mut buf);
                    if got == 0 {
                        break;
                    }
                    total += got;
                }
                total
            })
        });
    }
    // Steady-state refill: the stream is built once (the construction
    // burn is setup, not the measurement) and rebuilt only when a
    // 10M-task population runs dry.
    let deep = workload(10_000_000);
    let mut s = SyntheticStream::new(&deep, &sim, 0, 0, CHUNK).expect("stream");
    let mut buf = Vec::with_capacity(CHUNK);
    group.bench_function("chunk_refill_8192", |b| {
        b.iter(|| {
            buf.clear();
            if s.refill(&mut buf) == 0 {
                s = SyntheticStream::new(&deep, &sim, 0, 0, CHUNK).expect("stream");
                s.refill(&mut buf);
            }
            buf.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_arrivals);
criterion_main!(benches);
