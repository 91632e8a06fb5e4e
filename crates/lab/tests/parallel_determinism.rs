//! The parallel-execution determinism contract, pinned: for a given
//! (spec, seed, epoch length), everything a run writes — report,
//! metrics and spans — is **bit-identical** for any `execution.threads`
//! value and any pool width. Every spec — a one-cell spec is one shard
//! — runs the epoch-sharded semantics, so thread count can only move
//! work between OS threads, never reorder events. Every top-level
//! checked-in experiment spec is covered, through the `ctlm-lab` binary
//! itself.

mod common;

use std::path::Path;
use std::process::{Command, Output};

use ctlm_lab::report::to_pretty_json;
use ctlm_lab::{run_spec, ExperimentSpec};
use serde_json::Value;

/// Runs `ctlm-lab` and returns its output, failing on a non-zero exit.
fn ctlm_lab(args: &[&str], pool_width: usize) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_ctlm-lab"))
        .args(args)
        .env("RAYON_NUM_THREADS", pool_width.to_string())
        .output()
        .expect("ctlm-lab runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// One spec's three outputs at `threads` worker threads and pool width.
fn exports(spec: &Path, threads: usize, dir: &Path) -> [Vec<u8>; 3] {
    let name = spec.file_stem().unwrap().to_string_lossy();
    let metrics = dir.join(format!("{name}.t{threads}.metrics.json"));
    let spans = dir.join(format!("{name}.t{threads}.spans.json"));
    let threads_arg = threads.to_string();
    let out = ctlm_lab(
        &[
            spec.to_str().unwrap(),
            "--threads",
            &threads_arg,
            "--no-meta",
            "--json",
            "--metrics",
            metrics.to_str().unwrap(),
            "--spans",
            spans.to_str().unwrap(),
            "--trace",
        ],
        threads,
    );
    let read = |p: &Path| std::fs::read(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
    [out.stdout, read(&metrics), read(&spans)]
}

#[test]
fn every_checked_in_spec_exports_identically_across_thread_counts() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("parallel_determinism");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for spec in common::files(&common::experiments_dir(), "json") {
        // The three runs are independent processes; running them side
        // by side keeps the suite's wall time near one run per spec.
        let (spec, dir) = (spec.as_path(), dir.as_path());
        let [baseline, runs @ ..] = std::thread::scope(|s| {
            [1, 2, 4]
                .map(|threads| s.spawn(move || exports(spec, threads, dir)))
                .map(|run| run.join().expect("export run"))
        });
        for (threads, other) in [2, 4].into_iter().zip(runs) {
            for (part, (a, b)) in ["report", "metrics", "spans"]
                .iter()
                .zip(baseline.iter().zip(&other))
            {
                assert!(
                    a == b,
                    "{}: {part} changed at threads={threads}",
                    spec.display()
                );
            }
        }
        let metrics = std::str::from_utf8(&baseline[1]).expect("utf-8 metrics");
        serde_json::from_str::<Value>(metrics)
            .unwrap_or_else(|e| panic!("{}: metrics file is not JSON: {e}", spec.display()));
    }
    check_flight_recording(&dir.join("chaos_spillover.t1.spans.json"));
}

/// The chaos spec's spans file is a valid trace-event document that
/// records crash retries and their flow arrows, and `explain` narrates
/// it: the worst-latency view names each task once.
fn check_flight_recording(spans: &Path) {
    let text = std::fs::read_to_string(spans).expect("spans file");
    let doc: Value = serde_json::from_str(&text).expect("spans file is JSON");
    assert_eq!(
        doc.get_field("schema_version").as_f64(),
        Some(ctlm_telemetry::SCHEMA_VERSION as f64)
    );
    let Value::Array(events) = doc.get_field("traceEvents") else {
        panic!("spans file has no traceEvents array");
    };
    let ph = |e: &Value| e.get_field("ph").as_str().unwrap_or("").to_string();
    for e in events {
        assert!(
            matches!(ph(e).as_str(), "X" | "M" | "s" | "f"),
            "unexpected event phase {:?}",
            ph(e)
        );
    }
    assert!(
        events
            .iter()
            .any(|e| ph(e) == "X" && e.get_field("name").as_str() == Some("retry_wait")),
        "no retry_wait span"
    );
    assert!(events.iter().any(|e| ph(e) == "s"), "no flow arrows");

    let out = ctlm_lab(
        &["explain", spans.to_str().unwrap(), "--worst-latency", "3"],
        1,
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 narrative");
    let mut tasks: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| l.split_whitespace().nth(2).expect("`#k task N` header"))
        .collect();
    assert_eq!(tasks.len(), 3, "three worst tasks:\n{text}");
    tasks.sort_unstable();
    tasks.dedup();
    assert_eq!(tasks.len(), 3, "a task listed twice:\n{text}");
}

/// Runs `spec` once per thread count and asserts every report serializes
/// to the same bytes as the first.
fn assert_identical_across(spec: &ExperimentSpec, thread_counts: &[usize], label: &str) {
    let mut baseline: Option<String> = None;
    for &threads in thread_counts {
        let mut spec = spec.clone();
        spec.execution.threads = threads;
        let json = to_pretty_json(&run_spec(&spec).expect("spec runs"));
        match &baseline {
            None => baseline = Some(json),
            Some(expected) => assert_eq!(
                &json, expected,
                "{label}: report changed at threads={threads}"
            ),
        }
    }
}

/// Epoch-boundary spillover delivery must not depend on how shards are
/// scheduled onto workers: odd thread counts chunk the three cells
/// differently (3, 2+1, 1+1+1), and 0 resolves to the pool's configured
/// width — all must reproduce the sequential report exactly.
#[test]
fn spillover_delivery_is_independent_of_worker_scheduling() {
    let spec = common::load(&common::experiments_dir().join("three_cell_spillover.json"));
    assert_identical_across(&spec, &[1, 2, 3, 4, 5, 0], "three_cell_spillover");
}
