//! Epoch-sharded multi-cell execution: kernel sharding and barrier
//! costs under the `ctlm-lab` harness.
//!
//! Two questions, at a fixed total workload (64 machines, 3200 tasks —
//! split evenly across cells so only the topology changes):
//!
//! * **Sharding matrix** — `cellsN_threadsT`: the same fleet as 1 cell
//!   (classic single-timeline path), then 4 and 8 cells under the
//!   epoch-barrier coordinator at 1/2/4 worker threads. Reports are
//!   bit-identical across T by construction; the medians price the
//!   coordination (and, on multi-core hosts, the speedup).
//! * **Barrier floor** — `barrier_overhead_empty_*`: an 8-cell fleet
//!   with zero tasks, so each epoch carries exactly one cycle-timer
//!   event per cell and the run is ~pure barrier machinery (120 busy
//!   epochs at the 500 ms cycle / 250 µs-aligned epoch). The
//!   sequential-vs-threads-4 gap divided by 120 is the per-epoch
//!   dispatch overhead.
//!
//! Record with `CTLM_BENCH_JSON=$PWD/out.json cargo bench -p ctlm-bench
//! --bench multicell`. CI gates the barrier floor by a same-run
//! `bench_check --max-ratio` (`..._t4 : ..._seq`); the sharding matrix
//! spreads too widely on a shared host to gate, so `e2e_bench`'s
//! `scale_steady` workload covers it.

use criterion::{criterion_group, criterion_main, Criterion};
use ctlm_lab::{run_spec, ExperimentSpec};

const TOTAL_MACHINES: usize = 64;
const TOTAL_TASKS: usize = 3200;

/// A fleet of `cells` equal cells holding the fixed total workload.
fn fleet_spec(cells: usize, threads: usize, tasks_total: usize) -> ExperimentSpec {
    let machines = TOTAL_MACHINES / cells;
    let tasks = tasks_total / cells;
    // Fixed total arrival rate: per-cell gaps stretch with the split.
    let gap = 15_000 * cells;
    let cell_json = |i: usize| {
        format!(
            r#"{{"name": "cell-{i}", "workload": {{"Synthetic": {{
                "machines": [{{"count": {machines}, "cpu": 1.0, "memory": 1.0}}],
                "tasks": {tasks},
                "arrival": {{"Uniform": {{"gap": {gap}}}}},
                "cpu": {{"Fixed": 0.3}}, "memory": {{"Fixed": 0.3}},
                "priority": 2}}}}}}"#
        )
    };
    let cells_json: Vec<String> = (0..cells).map(cell_json).collect();
    let json = format!(
        r#"{{
        "name": "bench-multicell-{cells}",
        "sim": {{"cycle": 500000, "attempts_per_cycle": 64,
                 "mean_runtime": 5000000, "horizon": 60000000, "seed": 9}},
        "schedulers": ["main_only"],
        "execution": {{"threads": {threads}, "epoch_us": 250000}},
        "cells": [{}]
    }}"#,
        cells_json.join(",")
    );
    ExperimentSpec::from_json(&json).expect("bench spec parses")
}

fn bench_multicell(c: &mut Criterion) {
    let mut group = c.benchmark_group("multicell");
    group.sample_size(10);
    let single = fleet_spec(1, 1, TOTAL_TASKS);
    group.bench_function("cells1_threads1", |b| {
        b.iter(|| run_spec(&single).expect("run"))
    });
    for cells in [4usize, 8] {
        for threads in [1usize, 2, 4] {
            let spec = fleet_spec(cells, threads, TOTAL_TASKS);
            group.bench_function(format!("cells{cells}_threads{threads}"), |b| {
                b.iter(|| run_spec(&spec).expect("run"))
            });
        }
    }
    // Empty-traffic barrier floor: 8 cells, no tasks, only cycle timers.
    let empty_seq = fleet_spec(8, 1, 0);
    let empty_t4 = fleet_spec(8, 4, 0);
    group.bench_function("barrier_overhead_empty_seq", |b| {
        b.iter(|| run_spec(&empty_seq).expect("run"))
    });
    group.bench_function("barrier_overhead_empty_t4", |b| {
        b.iter(|| run_spec(&empty_t4).expect("run"))
    });
    group.finish();
}

criterion_group!(benches, bench_multicell);
criterion_main!(benches);
