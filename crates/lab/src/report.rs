//! Structured experiment reports: per-run records plus per-point
//! medians, serialized as one JSON document.
//!
//! Reports are pure functions of the spec (no wall-clock, no host
//! state), so identical specs produce byte-identical reports — the
//! determinism tests serialize and compare them directly.

use serde::{Deserialize, Serialize};

use ctlm_autoscale::AutoscaleStats;
use ctlm_sched::LatencyStats;
use ctlm_telemetry::{HostFingerprint, PerfReport};

use crate::run::CellOutcome;
use crate::spec::KnobSpec;

/// The Fig. 3-style suitable-node-group latency bands reports break
/// out: Group 0 alone, then widening bands.
pub const GROUP_BANDS: &[(u8, u8)] = &[(0, 0), (1, 5), (6, 15), (16, 25)];

/// The full document the runner emits.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LabReport {
    /// Experiment name from the spec.
    pub name: String,
    /// Every executed run (sweep grid × seeds × repeats; a single entry
    /// for non-sweep specs).
    pub runs: Vec<RunReport>,
    /// Per-(point, scheduler, cell) medians across seeds × repeats.
    pub summary: Vec<SummaryRow>,
    /// Host-side measurements, attached by the `ctlm-lab` binary after
    /// the run — never by `run_spec` itself, so library-level reports
    /// stay pure functions of the spec. Informational only: `--diff`
    /// shows the delta but never gates on it.
    #[serde(default)]
    pub _meta: Option<ReportMeta>,
}

/// Host-side measurement block (see [`LabReport::_meta`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReportMeta {
    /// Peak resident set (`VmHWM`) in bytes, when the platform exposes
    /// it (Linux).
    pub peak_rss_bytes: Option<u64>,
    /// Counting-allocator high-water mark in bytes (zero unless the
    /// binary installed [`crate::memtrack::TrackingAlloc`]).
    pub alloc_peak_bytes: u64,
    /// Fingerprint of the host that produced the report (cpu model,
    /// core count). Lets `--diff` flag cross-host comparisons. Absent
    /// in reports from older snapshots — readers must tolerate that.
    #[serde(default)]
    pub host: Option<HostFingerprint>,
    /// Wall-clock shard profile (per-shard run/barrier time and
    /// coordinator drain time per epoch round), when the run profiled.
    /// Host-dependent and informational only; like the rest of `_meta`
    /// it is dropped by `--no-meta` and excluded from byte-compares.
    #[serde(default)]
    pub _perf: Option<PerfReport>,
}

/// One executed run: one grid point under one seed/repeat.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Knob values applied for this run (empty for non-sweep specs).
    pub knobs: Vec<KnobSetting>,
    /// Effective kernel seed.
    pub seed: u64,
    /// Repeat index under that seed.
    pub repeat: usize,
    /// One entry per scheduler name in the spec.
    pub schedulers: Vec<SchedulerRun>,
}

/// One applied knob value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KnobSetting {
    /// Dotted path into the spec.
    pub path: String,
    /// The value applied.
    pub value: f64,
}

/// One scheduler's outcome across all cells.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchedulerRun {
    /// Scheduler registry name.
    pub scheduler: String,
    /// Per-cell results, in spec order.
    pub cells: Vec<CellRun>,
}

/// One cell's structured result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellRun {
    /// Cell name.
    pub cell: String,
    /// Tasks placed within the horizon.
    pub placed: usize,
    /// Tasks never placed.
    pub unplaced: usize,
    /// Preemption evictions.
    pub preemptions: usize,
    /// Churn-driven reschedules.
    pub churn_rescheduled: usize,
    /// Gangs placed atomically.
    pub gangs_placed: usize,
    /// Tasks received from sibling cells (spillover).
    pub spilled_in: usize,
    /// Tasks forwarded to sibling cells (spillover).
    pub spilled_out: usize,
    /// Latency over Group-0 (single-suitable-node) tasks.
    pub group0: Option<LatencyStats>,
    /// Latency over everything else.
    pub other: Option<LatencyStats>,
    /// Latency per suitable-node-group band ([`GROUP_BANDS`]).
    pub bands: Vec<BandStats>,
    /// The cell's autoscaler outcome — fleet-size timeline, lifecycle
    /// counters — when the scenario ran one.
    pub autoscale: Option<AutoscaleStats>,
    /// Recovery accounting — lost/retried/dead-lettered tasks, lost
    /// work, link timeouts — when the scenario ran a fault plane.
    /// Serialized only when present, so fault-free reports stay
    /// byte-identical to earlier snapshots.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub recovery: Option<RecoveryReport>,
}

/// Fault-plane recovery accounting for one cell.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Crash events that removed an online machine.
    pub machines_crashed: u64,
    /// Running tasks severed by crashes.
    pub tasks_lost: u64,
    /// Retries scheduled under the policy's budget.
    pub retries: u64,
    /// Tasks whose retry budget ran out (the engine's
    /// `failed_permanently` terminal state).
    pub dead_lettered: u64,
    /// Run time severed by crashes (µs of lost work).
    pub lost_work_us: u64,
    /// Mean time from task loss to successful re-placement (µs), when
    /// any lost task was re-placed.
    pub reschedule_mean_us: Option<f64>,
    /// Outbound spill requests that timed out in a link-outage window
    /// and bounced back to the home queue.
    pub link_timeouts: u64,
    /// Planned machine downtime over the horizon (µs·machine).
    pub unavailable_machine_us: u64,
}

/// Latency within one suitable-node-group band.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BandStats {
    /// Lowest group in the band (inclusive).
    pub lo: u8,
    /// Highest group in the band (inclusive).
    pub hi: u8,
    /// Stats over the band's placed tasks.
    pub stats: Option<LatencyStats>,
}

impl CellRun {
    /// Collapses an engine outcome into the report form.
    pub fn from_outcome(o: &CellOutcome) -> Self {
        let bands = GROUP_BANDS
            .iter()
            .map(|&(lo, hi)| BandStats {
                lo,
                hi,
                stats: o.result.latency_where(|g| g >= lo && g <= hi),
            })
            .collect();
        Self {
            cell: o.cell.clone(),
            placed: o.result.placed.len(),
            unplaced: o.result.unplaced,
            preemptions: o.result.preemptions,
            churn_rescheduled: o.result.churn_rescheduled,
            gangs_placed: o.result.gangs_placed,
            spilled_in: o.spilled_in,
            spilled_out: o.spilled_out,
            group0: o.result.group0_latency(),
            other: o.result.other_latency(),
            bands,
            autoscale: o.autoscale.clone(),
            recovery: o.recovery.clone(),
        }
    }
}

/// Medians for one (grid point, scheduler, cell) across seeds × repeats.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SummaryRow {
    /// The grid point's knob values.
    pub knobs: Vec<KnobSetting>,
    /// Scheduler registry name.
    pub scheduler: String,
    /// Cell name.
    pub cell: String,
    /// Runs aggregated into this row.
    pub runs: usize,
    /// Median of the per-run Group-0 mean latency (µs).
    pub median_group0_mean: Option<f64>,
    /// Median of the per-run Group-0 p50 latency (µs).
    pub median_group0_p50: Option<f64>,
    /// Median of the per-run other-task mean latency (µs).
    pub median_other_mean: Option<f64>,
    /// Median placed count.
    pub median_placed: f64,
    /// Median unplaced count.
    pub median_unplaced: f64,
    /// Median peak fleet size (autoscaled cells only).
    pub median_fleet_peak: Option<f64>,
    /// Median dead-lettered task count (fault-plane cells only;
    /// serialized only when present, keeping fault-free reports
    /// byte-identical to earlier snapshots).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub median_dead_lettered: Option<f64>,
}

/// Median of a sample (mean of the middle pair for even sizes); `None`
/// for an empty sample.
pub fn median(mut xs: Vec<f64>) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite latency samples"));
    let n = xs.len();
    Some(if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    })
}

/// Builds the per-point summary: runs grouped by (knobs, scheduler,
/// cell) in first-appearance order, medians across the group.
pub fn summarize(runs: &[RunReport]) -> Vec<SummaryRow> {
    let mut order: Vec<(Vec<KnobSetting>, String, String)> = Vec::new();
    let mut buckets: Vec<Vec<&CellRun>> = Vec::new();
    for run in runs {
        for sched in &run.schedulers {
            for cell in &sched.cells {
                let key = (
                    run.knobs.clone(),
                    sched.scheduler.clone(),
                    cell.cell.clone(),
                );
                match order.iter().position(|k| *k == key) {
                    Some(i) => buckets[i].push(cell),
                    None => {
                        order.push(key);
                        buckets.push(vec![cell]);
                    }
                }
            }
        }
    }
    order
        .into_iter()
        .zip(buckets)
        .map(|((knobs, scheduler, cell), group)| SummaryRow {
            knobs,
            scheduler,
            cell,
            runs: group.len(),
            median_group0_mean: median(
                group
                    .iter()
                    .filter_map(|c| c.group0.as_ref().map(|s| s.mean))
                    .collect(),
            ),
            median_group0_p50: median(
                group
                    .iter()
                    .filter_map(|c| c.group0.as_ref().map(|s| s.p50 as f64))
                    .collect(),
            ),
            median_other_mean: median(
                group
                    .iter()
                    .filter_map(|c| c.other.as_ref().map(|s| s.mean))
                    .collect(),
            ),
            median_placed: median(group.iter().map(|c| c.placed as f64).collect())
                .expect("non-empty group"),
            median_unplaced: median(group.iter().map(|c| c.unplaced as f64).collect())
                .expect("non-empty group"),
            median_fleet_peak: median(
                group
                    .iter()
                    .filter_map(|c| c.autoscale.as_ref().map(|a| a.peak_active() as f64))
                    .collect(),
            ),
            median_dead_lettered: median(
                group
                    .iter()
                    .filter_map(|c| c.recovery.as_ref().map(|r| r.dead_lettered as f64))
                    .collect(),
            ),
        })
        .collect()
}

/// Applied knob values for grouping/reporting.
pub fn knob_settings(knobs: &[KnobSpec], choice: &[usize]) -> Vec<KnobSetting> {
    knobs
        .iter()
        .zip(choice)
        .map(|(k, &i)| KnobSetting {
            path: k.path.clone(),
            value: k.values[i],
        })
        .collect()
}

/// Renders any serializable report piece with two-space indentation
/// (the shim's `to_string` is compact; reports are meant to be read).
pub fn to_pretty_json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("report values carry no non-finite numbers")
}

/// One summary row's change between two reports (`b − a`), keyed by
/// `(knobs, scheduler, cell)`. Rows present in only one report carry
/// that side's values and `None` deltas.
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryDiff {
    /// Grid-point knob values.
    pub knobs: Vec<KnobSetting>,
    /// Scheduler registry name.
    pub scheduler: String,
    /// Cell name.
    pub cell: String,
    /// Row presence: `(in a, in b)` — at least one is true.
    pub present: (bool, bool),
    /// `(a, b)` median Group-0 mean latency (µs).
    pub group0_mean: (Option<f64>, Option<f64>),
    /// `(a, b)` median Group-0 p50 latency (µs).
    pub group0_p50: (Option<f64>, Option<f64>),
    /// `(a, b)` median other-task mean latency (µs).
    pub other_mean: (Option<f64>, Option<f64>),
    /// `(a, b)` median unplaced count.
    pub unplaced: (Option<f64>, Option<f64>),
    /// `(a, b)` median peak fleet (autoscaled cells).
    pub fleet_peak: (Option<f64>, Option<f64>),
    /// `(a, b)` median dead-lettered tasks (fault-plane cells).
    pub dead_lettered: (Option<f64>, Option<f64>),
}

impl SummaryDiff {
    /// `b − a` for one metric pair; `None` unless both sides exist.
    pub fn delta(pair: (Option<f64>, Option<f64>)) -> Option<f64> {
        Some(pair.1? - pair.0?)
    }

    /// `b / a` for one metric pair; `None` unless both sides exist and
    /// `a` is non-zero.
    pub fn ratio(pair: (Option<f64>, Option<f64>)) -> Option<f64> {
        match pair {
            (Some(a), Some(b)) if a != 0.0 => Some(b / a),
            _ => None,
        }
    }
}

/// Pairs two reports' summaries by `(knobs, scheduler, cell)` —
/// `a`'s row order first, then rows only `b` has. The `ctlm-lab --diff`
/// command prints these as per-point median deltas.
pub fn diff_reports(a: &LabReport, b: &LabReport) -> Vec<SummaryDiff> {
    fn key(r: &SummaryRow) -> (&[KnobSetting], &str, &str) {
        (&r.knobs, &r.scheduler, &r.cell)
    }
    let mut out = Vec::new();
    for ra in &a.summary {
        let rb = b.summary.iter().find(|r| key(r) == key(ra));
        out.push(pair_rows(Some(ra), rb));
    }
    for rb in &b.summary {
        if !a.summary.iter().any(|r| key(r) == key(rb)) {
            out.push(pair_rows(None, Some(rb)));
        }
    }
    out
}

fn pair_rows(a: Option<&SummaryRow>, b: Option<&SummaryRow>) -> SummaryDiff {
    let anchor = a.or(b).expect("at least one side present");
    let get = |f: fn(&SummaryRow) -> Option<f64>| (a.and_then(f), b.and_then(f));
    SummaryDiff {
        knobs: anchor.knobs.clone(),
        scheduler: anchor.scheduler.clone(),
        cell: anchor.cell.clone(),
        present: (a.is_some(), b.is_some()),
        group0_mean: get(|r| r.median_group0_mean),
        group0_p50: get(|r| r.median_group0_p50),
        other_mean: get(|r| r.median_other_mean),
        unplaced: get(|r| Some(r.median_unplaced)),
        fleet_peak: get(|r| r.median_fleet_peak),
        dead_lettered: get(|r| r.median_dead_lettered),
    }
}
