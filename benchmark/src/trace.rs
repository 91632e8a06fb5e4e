//! The traced run: one repetition composed from the next level of
//! public functions, a span around each call, the counts each layer
//! reports attached, then the standalone layer probes. Prints every
//! per-layer metric `BENCHMARK.json` lists and writes the spans as
//! Chrome trace-event JSON under `<root>/out/`.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::probes::{put, Layer};
use crate::spans::Recorder;
use crate::{host, manifest, stats, Options, RunResult, Workload};

/// Untraced repetitions run beside the traced pass: the base of
/// `trace.overhead_ratio` and of `host.rep_spread`.
const UNTRACED_REPS: usize = 3;

pub fn run_traced(name: &'static str, opts: &Options) -> RunResult {
    println!("== {name} · seed {} · traced", opts.seed);
    crate::print_host_line();
    let manifest = manifest::load().unwrap_or_else(|e| crate::fail(name, &e));
    let mut out = Layer::new();
    put(&mut out, "host.loadavg_start", host::loadavg());

    let mut w = Workload::prepare(name, &opts.root, opts.seed, false)
        .unwrap_or_else(|e| crate::fail(name, &e));
    w.warm_up();
    let work = w.work();
    let mut failures = Vec::new();

    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut reference = None;
    for _ in 0..UNTRACED_REPS {
        let t = Instant::now();
        match w.repetition() {
            Ok(o) => reference = Some(o),
            Err(e) => failures.push(format!("untraced repetition: {e}")),
        }
        walls.push(t.elapsed().as_secs_f64());
    }
    let untraced_s = walls.iter().copied().fold(f64::INFINITY, f64::min);

    let mut rec = Recorder::new();
    rec.rep = UNTRACED_REPS as u32;
    let traced = match &w {
        Workload::Lab(l) => l.traced(&mut rec, &mut out),
        Workload::Ctl(c) => c.traced(&mut rec, &mut out),
    };
    let cpu_over_wall = (host::cpu_seconds() - cpu0) / t0.elapsed().as_secs_f64();
    match (&traced, &reference) {
        (Err(e), _) => failures.push(format!("traced pass: {e}")),
        (Ok(t), Some(r)) => {
            // A composed pass must reproduce the top-level call exactly.
            let same_bytes = t.bytes == 0 || (t.digest, t.bytes) == (r.digest, r.bytes);
            if !same_bytes || !crate::same_facts(&t.facts, &r.facts) {
                failures
                    .push("traced pass: results differ from the untraced repetition's".to_string());
            }
        }
        (Ok(_), None) => {}
    }
    if cpu_over_wall > 1.02 {
        failures.push(format!(
            "host.cpu_over_wall {cpu_over_wall:.3} > 1.02: something ran in parallel"
        ));
    }

    let pass = rec.find("pass").expect("traced pass recorded");
    let pass_s = rec.spans[pass].seconds();
    put(&mut out, "trace.overhead_ratio", pass_s / untraced_s);
    put(&mut out, "trace.coverage", rec.coverage(pass));
    let q = stats::quartiles(&walls);
    put(&mut out, "host.rep_spread", (q[2] - q[0]) / q[0]);
    put(&mut out, "host.cpu_over_wall", cpu_over_wall);

    // Recording beside running: what the recorders cost, and what the
    // exports add on top.
    if let Workload::Lab(l) = &w {
        if l.observed() {
            match l.probe_recorder_cost(&mut rec) {
                Ok((plain_s, recording_s)) => {
                    put(
                        &mut out,
                        "telemetry.record_overhead_ratio",
                        recording_s / plain_s,
                    );
                    put(
                        &mut out,
                        "telemetry.total_overhead_ratio",
                        untraced_s / plain_s,
                    );
                }
                Err(e) => failures.push(format!("recorder probe: {e}")),
            }
        }
    }
    // The two width comparisons are informational: one pass each, on a
    // shared two-vCPU guest, in a child process because the pool shim
    // reads its width once per process.
    let child = |threads: &str| child_pass(name, opts, threads);
    match name {
        "scale_steady" => match child("2") {
            Ok(s) => put(&mut out, "sim.parallel.t2_speedup", untraced_s / s),
            Err(e) => failures.push(e),
        },
        "fig3_trace" => match child("default") {
            Ok(s) => put(&mut out, "rayon.default_width_ratio", s / untraced_s),
            Err(e) => failures.push(e),
        },
        _ => {}
    }

    write_chrome_trace(&opts.root, name, &rec);
    println!("self time by layer (traced pass {pass_s:.4} s, untraced {untraced_s:.4} s):");
    for (layer, s) in rec.self_by_layer(pass) {
        println!("  {layer:<10} {s:>9.4} s");
    }
    for f in &failures {
        println!("FAILED {f}");
    }

    // Every listed metric is printed; one this workload does not
    // exercise reads 0.
    let mut metrics = Vec::with_capacity(manifest.per_layer.len());
    for (metric, unit) in &manifest.per_layer {
        let value = out
            .iter()
            .rev()
            .find(|(n, _)| n == metric)
            .map_or(0.0, |&(_, v)| v);
        println!("layer  {metric:<34} {value} {unit}");
        metrics.push((metric.clone(), value, unit.clone()));
    }
    for (n, _) in &out {
        if !manifest.per_layer.iter().any(|(m, _)| m == n) {
            failures.push(format!(
                "{n} is measured but BENCHMARK.json does not list it"
            ));
            println!("FAILED {}", failures.last().expect("just pushed"));
        }
    }
    let failed = if failures.is_empty() { 0 } else { work };
    RunResult {
        correct: failures.is_empty(),
        attempted: work,
        failed,
        metrics,
    }
}

/// One pass of the workload in a child process with the pool pin
/// lifted; returns its wall time in seconds.
fn child_pass(name: &str, opts: &Options, threads: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("child pass: {e}"))?;
    let output = Command::new(exe)
        .args(["child-pass", "--workload", name, "--threads", threads])
        .args(["--seed", &opts.seed.to_string()])
        .arg("--root")
        .arg(&opts.root)
        .output()
        .map_err(|e| format!("child pass: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines()
        .last()
        .and_then(|l| l.trim().parse::<f64>().ok())
        .filter(|_| output.status.success())
        .ok_or_else(|| {
            format!(
                "child pass failed: {}",
                String::from_utf8_lossy(&output.stderr).trim()
            )
        })
}

/// The child side of [`child_pass`]: one repetition at `threads` shard
/// workers (or the pool's default width), its wall time printed.
pub fn child_main(name: &'static str, opts: &Options, threads: &str) {
    let mut w = Workload::prepare(name, &opts.root, opts.seed, false)
        .unwrap_or_else(|e| crate::fail(name, &e));
    if let (Workload::Lab(l), Ok(n)) = (&mut w, threads.parse::<usize>()) {
        l.spec.execution.threads = n;
    }
    w.warm_up();
    let t = Instant::now();
    if let Err(e) = w.repetition() {
        crate::fail(name, &e);
    }
    println!("{}", t.elapsed().as_secs_f64());
}

fn write_chrome_trace(root: &Path, name: &str, rec: &Recorder) {
    let dir = root.join("out");
    let path = dir.join(format!("{name}.trace.json"));
    let text = serde_json::to_string(&rec.chrome_trace()).expect("finite span times");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("spans: {} written to {path:?}", rec.spans.len()),
        Err(e) => println!("spans: cannot write {path:?}: {e}"),
    }
}
