//! Sim-plane telemetry collection: folding per-cell run outcomes into
//! one [`Metrics`] registry (plus the per-cell event traces) and the
//! host-plane shard profile into a [`PerfReport`].
//!
//! Everything the metrics side records is read from simulation state —
//! counters, histograms and traces are pure functions of the
//! deterministic event sequence — and the fold happens sequentially in
//! spec order, so the registry's JSON export is byte-identical for
//! every `execution.threads` value. The perf side is wall-clock and
//! host-dependent; it never enters the registry and surfaces only in
//! the report's `_meta._perf` block.

use ctlm_sim::ParallelPerf;
use ctlm_telemetry::{Metrics, PerfReport, ShardPerf, SpanLog, TraceRing};

use crate::run::CellOutcome;

/// Sim-plane observations accumulated over a spec's runs: the metrics
/// registry and, when tracing was enabled, the per-cell event traces
/// keyed `scheduler.cell` (later runs of the same key replace earlier
/// ones — with sweeps the last grid point's trace wins, deterministically).
#[derive(Clone, Debug, Default)]
pub struct Observations {
    /// The deterministic metrics registry.
    pub metrics: Metrics,
    /// `(key, ring)` event traces in first-appearance key order.
    pub traces: Vec<(String, TraceRing)>,
    /// `(key, log)` flight-recorder span logs keyed `scheduler.cell`,
    /// first-appearance order; same-key reruns replace (like traces).
    pub spans: Vec<(String, SpanLog)>,
    /// Merged wall-clock shard profile (host plane), when profiling ran.
    pub perf: Option<PerfReport>,
    /// `(scheduler, profile)` raw per-round shard profiles — the host
    /// track of the spans export. Same-key reruns replace; never
    /// serialized into `_meta._perf` (that block carries totals only).
    pub host_rounds: Vec<(String, ParallelPerf)>,
}

impl Observations {
    /// Folds one scheduler run's per-cell outcomes (and optional shard
    /// profile) into the accumulated observations.
    pub fn record_run(
        &mut self,
        scheduler: &str,
        outcomes: &[CellOutcome],
        perf: Option<&ParallelPerf>,
        threads: usize,
    ) {
        for o in outcomes {
            let key = format!("{scheduler}.{}", o.cell);
            record_cell(&mut self.metrics, &key, o);
            if let Some(ring) = &o.telemetry.trace {
                upsert(&mut self.traces, &key, ring);
            }
            if let Some(log) = &o.telemetry.spans {
                upsert(&mut self.spans, &key, log);
            }
        }
        if let Some(p) = perf {
            let report = perf_report(p, threads);
            match &mut self.perf {
                Some(acc) => acc.merge(&report),
                None => self.perf = Some(report),
            }
            upsert(&mut self.host_rounds, scheduler, p);
        }
    }

    /// Merges another accumulation into this one (counters add, gauges
    /// and same-key traces take `other`'s value, perf accumulates).
    /// Callers merge per-point observations in grid order, keeping the
    /// result independent of how the points were scheduled onto workers.
    pub fn merge(&mut self, other: &Observations) {
        self.metrics.merge(&other.metrics);
        for (key, ring) in &other.traces {
            upsert(&mut self.traces, key, ring);
        }
        for (key, log) in &other.spans {
            upsert(&mut self.spans, key, log);
        }
        if let Some(p) = &other.perf {
            match &mut self.perf {
                Some(acc) => acc.merge(p),
                None => self.perf = Some(p.clone()),
            }
        }
        for (key, p) in &other.host_rounds {
            upsert(&mut self.host_rounds, key, p);
        }
    }
}

/// Last write wins under `key`; a new key goes to the end, so the list
/// stays in first-appearance order.
fn upsert<T: Clone>(list: &mut Vec<(String, T)>, key: &str, value: &T) {
    match list.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value.clone(),
        None => list.push((key.to_string(), value.clone())),
    }
}

/// Converts the coordinator's raw nanosecond accumulators into the
/// serializable per-shard profile.
fn perf_report(p: &ParallelPerf, threads: usize) -> PerfReport {
    PerfReport {
        rounds: p.rounds,
        drain_ns: p.drain_ns,
        threads,
        shards: p
            .shard_run_ns
            .iter()
            .zip(&p.shard_barrier_ns)
            .map(|(&run_ns, &barrier_ns)| ShardPerf { run_ns, barrier_ns })
            .collect(),
        host: None,
    }
}

/// Records one cell's telemetry under `p.*` names (`p` is the cell's
/// `scheduler.cell` key). Counter deltas accumulate across runs (sweep
/// points, seeds, repeats); gauges keep the last run's value in fold
/// order.
fn record_cell(m: &mut Metrics, p: &str, o: &CellOutcome) {
    let t = &o.telemetry;
    let s = &t.stats;
    for (name, v) in [
        ("placed", s.placed),
        ("placed_with_preemption", s.placed_with_preemption),
        ("infeasible", s.infeasible),
        ("no_capacity", s.no_capacity),
        ("admitted_arrivals", s.admitted_arrivals),
        ("admitted_dynamic", s.admitted_dynamic),
        ("admitted_gang_members", s.admitted_gang_members),
        ("spill_requests", s.spill_requests),
        ("cycles", s.cycles),
    ] {
        m.counter(format!("{p}.engine.{name}"), v);
    }
    m.histogram(format!("{p}.engine.hp_depth"), &s.hp_depth);
    m.histogram(format!("{p}.engine.main_depth"), &s.main_depth);
    let l = &t.lanes;
    for (name, v) in [
        ("push_wheel", l.push_wheel),
        ("push_heap", l.push_heap),
        ("batch_wheel", l.batch_wheel),
        ("batch_sorted", l.batch_sorted),
        ("pop_wheel", l.pop_wheel),
        ("pop_sorted", l.pop_sorted),
        ("pop_heap", l.pop_heap),
    ] {
        m.counter(format!("{p}.kernel.{name}"), v);
    }
    m.counter(format!("{p}.slab.retired"), t.slab_retired);
    m.gauge(format!("{p}.slab.resident"), t.slab_resident as f64);
    m.counter(format!("{p}.spill.in"), o.spilled_in as u64);
    m.counter(format!("{p}.spill.out"), o.spilled_out as u64);
    if let Some(auto) = &o.autoscale {
        auto.record_into(m, &format!("{p}.autoscale"));
    }
    if let Some(f) = &t.faults {
        for (name, v) in [
            ("crashed_machines", f.crashed_machines),
            ("tasks_lost", f.tasks_lost),
            ("retries_scheduled", f.retries_scheduled),
            ("dead_lettered", f.dead_lettered),
            ("lost_work_us", f.lost_work_us),
            ("replacements_ordered", f.replacements_ordered),
        ] {
            m.counter(format!("{p}.faults.{name}"), v);
        }
        m.histogram(format!("{p}.faults.reschedule_us"), &f.reschedule);
        m.histogram(format!("{p}.faults.backoff_us"), &f.backoff);
    }
    if let Some(r) = &o.recovery {
        m.counter(format!("{p}.faults.link_timeouts"), r.link_timeouts);
        m.counter(
            format!("{p}.faults.unavailable_machine_us"),
            r.unavailable_machine_us,
        );
    }
}
