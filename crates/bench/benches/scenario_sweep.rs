//! Sweep-dispatch overhead of the `ctlm-lab` declarative harness.
//!
//! Measures what the harness *adds* around the kernel: spec
//! normalization, grid expansion (document rewriting + re-parse per
//! point), parallel fan-out on the rayon pool, and report aggregation.
//! The workload itself is kept tiny so the numbers track dispatch, not
//! simulation — compare `single_point` (one run, no grid) against
//! `grid_8_points` (2 knob values × 2 seeds × 2 repeats of the same
//! run) to see the per-point cost. Record with
//! `CTLM_BENCH_JSON=… cargo bench -p ctlm-bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use ctlm_lab::{run_spec, ExperimentSpec};

const TINY: &str = r#"{
    "name": "bench-tiny",
    "sim": {"cycle": 500000, "attempts_per_cycle": 3,
             "mean_runtime": 2000000, "horizon": 10000000, "seed": 3},
    "schedulers": ["main_only"],
    "workload": {"Synthetic": {
        "machines": [{"count": 4, "cpu": 1.0, "memory": 1.0}],
        "tasks": 40,
        "arrival": {"Uniform": {"gap": 100000}}
    }}
}"#;

const SWEEP: &str = r#"{
    "name": "bench-sweep",
    "sim": {"cycle": 500000, "attempts_per_cycle": 3,
             "mean_runtime": 2000000, "horizon": 10000000, "seed": 3},
    "schedulers": ["main_only"],
    "workload": {"Synthetic": {
        "machines": [{"count": 4, "cpu": 1.0, "memory": 1.0}],
        "tasks": 40,
        "arrival": {"Uniform": {"gap": 100000}}
    }},
    "sweep": {"knobs": [{"path": "sim.attempts_per_cycle", "values": [2, 4]}],
               "seeds": [3, 4], "repeats": 2}
}"#;

fn bench_sweep(c: &mut Criterion) {
    let single = ExperimentSpec::from_json(TINY).expect("tiny spec parses");
    let sweep = ExperimentSpec::from_json(SWEEP).expect("sweep spec parses");
    let mut group = c.benchmark_group("scenario_sweep");
    group.bench_function("single_point", |b| {
        b.iter(|| run_spec(&single).expect("single run"))
    });
    group.bench_function("grid_8_points", |b| {
        b.iter(|| run_spec(&sweep).expect("sweep run"))
    });
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
