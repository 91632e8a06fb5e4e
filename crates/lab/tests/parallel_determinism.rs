//! The parallel-execution determinism contract, pinned: for a given
//! (spec, seed, epoch length), lab reports are **bit-identical** for any
//! `execution.threads` value. Every spec — a one-cell spec is one shard
//! — runs the epoch-sharded semantics, so thread count can only move
//! work between OS threads, never reorder events. Every checked-in
//! experiment spec is covered (the scaled
//! scenarios under `experiments/scale/` are release-profile material and
//! excluded).

use ctlm_lab::report::to_pretty_json;
use ctlm_lab::{run_spec, ExperimentSpec};

fn experiments_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments")
}

fn load(path: &std::path::Path) -> ExperimentSpec {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    ExperimentSpec::from_json(&text).unwrap_or_else(|e| panic!("parse {path:?}: {e}"))
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

#[test]
fn every_checked_in_spec_is_bit_identical_across_thread_counts() {
    let mut files: Vec<_> = std::fs::read_dir(experiments_dir())
        .expect("experiments directory")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "json").then_some(p)
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no experiment specs found");
    for path in files {
        let spec = load(&path);
        assert_identical_across(&spec, &[1, 2, 4], &path.display().to_string());
    }
}

/// Epoch-boundary spillover delivery must not depend on how shards are
/// scheduled onto workers: odd thread counts chunk the three cells
/// differently (3, 2+1, 1+1+1), and 0 resolves to the pool's configured
/// width — all must reproduce the sequential report exactly.
#[test]
fn spillover_delivery_is_independent_of_worker_scheduling() {
    let spec = load(&experiments_dir().join("three_cell_spillover.json"));
    assert_identical_across(&spec, &[1, 2, 3, 4, 5, 0], "three_cell_spillover");
}
