//! Telemetry determinism gates over the checked-in experiment specs.
//!
//! Two invariants anchor the observability design:
//!
//! 1. **Enabling telemetry never changes the report.** Metrics, traces,
//!    the flight recorder and shard profiling are read-only observers
//!    of the simulation; with all four switched on, every checked-in
//!    spec must produce a report body byte-identical to the unobserved
//!    run.
//! 2. **The metrics and spans exports are thread-count independent.**
//!    Counters, histograms, traces and span logs are pure functions of
//!    the deterministic event sequence, folded in grid order — so the
//!    serialized registry and the trace-event document must not change
//!    between `execution.threads` 1, 2 and 4.
//!
//! Both rest on one seam: the cell's ledger turns each step into its
//! counters, span and ring entry, so the ring and the counters can never
//! tell two stories about one run.

use std::path::{Path, PathBuf};

use ctlm_lab::report::to_pretty_json;
use ctlm_lab::run::ArrivalMode;
use ctlm_lab::spec::ExperimentSpec;
use ctlm_lab::{run_spec_observed, Observations};

fn experiments_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments")
}

/// Every top-level checked-in spec (the `scale/` tier is exercised by
/// dedicated smoke runs — too large for the debug-build test suite).
fn checked_in_specs() -> Vec<PathBuf> {
    let mut specs: Vec<PathBuf> = std::fs::read_dir(experiments_dir())
        .expect("experiments/ directory")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    specs.sort();
    assert!(!specs.is_empty(), "no checked-in specs found");
    specs
}

fn load_spec(path: &Path) -> ExperimentSpec {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ExperimentSpec::from_json(&text)
        .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

/// Ring large enough that no checked-in spec's cell wraps it, so every
/// step a cell took is still in its ring.
const WHOLE_RUN: usize = 1 << 15;

/// Each cell's ring holds exactly the steps its counters count. Only
/// meaningful for a single run: counters add up over a sweep's points,
/// while the ring keeps the last point's.
fn assert_ring_matches_counters(obs: &Observations, path: &Path) {
    for (key, ring) in &obs.traces {
        assert!(
            ring.recorded() as usize <= WHOLE_RUN,
            "{key} wrapped its ring in {}",
            path.display()
        );
        let steps = |kind: &str| ring.iter().filter(|e| e.kind == kind).count() as u64;
        let counter = |name: &str| obs.metrics.counter_value(&format!("{key}.{name}"));
        for (kind, name) in [
            ("admit_arrival", "engine.admitted_arrivals"),
            ("admit_dynamic", "engine.admitted_dynamic"),
            ("admit_gang", "engine.admitted_gang_members"),
            ("spilled", "engine.spill_requests"),
            ("pass", "engine.cycles"),
            ("no_capacity", "engine.no_capacity"),
            ("infeasible", "engine.infeasible"),
            ("machine_crashed", "faults.crashed_machines"),
        ] {
            assert_eq!(
                steps(kind),
                counter(name).unwrap_or(0),
                "{key}: ring `{kind}` vs counter `{name}` in {}",
                path.display()
            );
        }
        let placed = counter("engine.placed").unwrap_or(0)
            + counter("engine.placed_with_preemption").unwrap_or(0);
        assert!(
            steps("placed") >= placed,
            "{key}: fewer ring placements than counted in {}",
            path.display()
        );
    }
}

#[test]
fn observability_never_changes_report_bytes() {
    for path in checked_in_specs() {
        let mut spec = load_spec(&path);
        spec.observability = Default::default();
        let (plain, _) = run_spec_observed(&spec, ArrivalMode::Streaming)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        spec.observability.metrics = true;
        spec.observability.trace_events = WHOLE_RUN;
        spec.observability.profile = true;
        spec.observability.spans = true;
        let (observed, obs) = run_spec_observed(&spec, ArrivalMode::Streaming)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            to_pretty_json(&plain),
            to_pretty_json(&observed),
            "telemetry changed the report body for {}",
            path.display()
        );
        assert!(
            obs.metrics.counters_sorted().iter().any(|&(_, v)| v > 0),
            "metrics registry stayed empty for {}",
            path.display()
        );
        assert!(
            !obs.traces.is_empty(),
            "no traces recorded for {}",
            path.display()
        );
        if spec.sweep.is_none() {
            assert_ring_matches_counters(&obs, &path);
        }
        assert!(
            obs.spans.iter().any(|(_, log)| !log.is_empty()),
            "no spans recorded for {}",
            path.display()
        );
        // A task is in one lifecycle state at a time and the ledger
        // closes every span before it opens the next, so the recorder
        // never has to close one implicitly.
        let mut records = obs.spans.iter().flat_map(|(_, log)| log.records());
        assert!(
            !records.any(|r| r.outcome == "superseded"),
            "a span was superseded in {}",
            path.display()
        );
    }
}

#[test]
fn metrics_export_identical_across_thread_counts() {
    for name in ["streaming_smoke.json", "three_cell_spillover.json"] {
        let mut spec = load_spec(&experiments_dir().join(name));
        spec.observability.metrics = true;
        spec.observability.trace_events = 512;
        spec.observability.spans = true;
        let mut exports: Vec<(String, Vec<String>, String)> = Vec::new();
        for threads in [1usize, 2, 4] {
            spec.execution.threads = threads;
            let (_, obs) = run_spec_observed(&spec, ArrivalMode::Streaming)
                .unwrap_or_else(|e| panic!("{name} at {threads} threads: {e}"));
            let mut traces: Vec<&(String, ctlm_telemetry::TraceRing)> = obs.traces.iter().collect();
            traces.sort_by(|a, b| a.0.cmp(&b.0));
            exports.push((
                to_pretty_json(&obs.metrics),
                traces
                    .iter()
                    .map(|(k, ring)| format!("{k}: {}", to_pretty_json(ring)))
                    .collect(),
                // The sim-plane spans document (no host track) must be
                // byte-identical across thread counts.
                to_pretty_json(&ctlm_lab::flight::trace_document(&obs, false)),
            ));
        }
        assert_eq!(
            exports[0], exports[1],
            "{name}: metrics export differs between 1 and 2 threads"
        );
        assert_eq!(
            exports[0], exports[2],
            "{name}: metrics export differs between 1 and 4 threads"
        );
    }
}
