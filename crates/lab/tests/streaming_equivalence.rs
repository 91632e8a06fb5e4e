//! The streaming-arrivals contract, pinned: decoding synthetic arrivals
//! chunk by chunk ([`run_spec`], what every run does) produces
//! **bit-identical** reports to building every arrival list up front
//! and feeding it borrowed through the same arrival feed
//! ([`ArrivalMode::Materialised`], the oracle kept for this file) — for
//! every checked-in spec, for any chunk size, and across a randomized
//! family of small synthetic scenarios. Combined with
//! `parallel_determinism.rs` (threads never change a report), this is
//! what lets million-machine specs stream with no semantic risk.

mod common;

use ctlm_lab::report::to_pretty_json;
use ctlm_lab::run::ArrivalMode;
use ctlm_lab::{run_spec, run_spec_observed, ExperimentSpec};

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
    for path in common::files(&common::experiments_dir(), "json") {
        let spec = common::load(&path);
        assert_stream_matches(&spec, &path.display().to_string());
    }
}

/// Chunk size is a memory knob, never a semantic one: refill boundaries
/// must not shift any arrival, spill, or admission decision.
#[test]
fn chunk_size_never_changes_the_report() {
    let spec = common::load(&common::experiments_dir().join("streaming_smoke.json"));
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
