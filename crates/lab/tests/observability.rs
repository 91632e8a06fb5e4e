//! Telemetry gates over the checked-in experiment specs.
//!
//! 1. **Enabling telemetry never changes the report.** Metrics, traces,
//!    the flight recorder and shard profiling are read-only observers
//!    of the simulation; with all four switched on, every checked-in
//!    spec must produce a report body byte-identical to the unobserved
//!    run.
//! 2. **The observers tell one story.** The cell's ledger turns each
//!    step into its counters, span and ring entry, so each cell's ring
//!    holds exactly the steps its counters count, no span is ever
//!    closed implicitly, and a machine's availability window ends at
//!    its next join.
//!
//! That the exports are thread-count independent is pinned, through
//! the binary, in `parallel_determinism.rs`.

mod common;

use std::path::Path;

use ctlm_lab::report::to_pretty_json;
use ctlm_lab::run::ArrivalMode;
use ctlm_lab::{run_spec_observed, Observations};

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

/// No `machine_drain` span runs past a later join of the same machine:
/// every join closes the machine's open window first. Returns the number
/// of joins seen. In today's specs every join is a fresh autoscaler
/// machine: the autoscaler restocks its warm pool on every evaluation,
/// so a machine it drains is decommissioned, never parked and rejoined.
/// `kernel_scenarios.rs` in `ctlm-sched` drives that rejoin directly.
fn assert_drains_close_at_joins(obs: &Observations, path: &Path) -> usize {
    let mut seen = 0;
    for (key, log) in &obs.spans {
        let joins: Vec<(u64, u64)> = log
            .records()
            .filter(|r| r.kind == "machine_join")
            .map(|r| (r.subject, r.start))
            .collect();
        seen += joins.len();
        for drain in log.records().filter(|r| r.kind == "machine_drain") {
            let late: Vec<u64> = joins
                .iter()
                .filter(|&&(m, t)| m == drain.subject && drain.start < t && t < drain.end)
                .map(|&(_, t)| t)
                .collect();
            assert!(
                late.is_empty(),
                "{key}: machine {} drained {}..{} across joins at {late:?} in {}",
                drain.subject,
                drain.start,
                drain.end,
                path.display()
            );
        }
    }
    seen
}

#[test]
fn observability_never_changes_report_bytes() {
    let mut joins = 0;
    for path in common::files(&common::experiments_dir(), "json") {
        let mut spec = common::load(&path);
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
        joins += assert_drains_close_at_joins(&obs, &path);
    }
    assert!(joins > 0, "no checked-in spec records a machine join");
}
