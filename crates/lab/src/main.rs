//! The `ctlm-lab` runner: execute a JSON experiment spec and report.
//!
//! ```text
//! ctlm-lab <spec.json> [--out report.json] [--json] [--seed N] [--threads N]
//!          [--no-meta] [--metrics metrics.json] [--trace] [--spans spans.json]
//! ctlm-lab --diff <a.json> <b.json> [--tolerance X]
//! ctlm-lab explain <spans.json> [--task N] [--machine M] [--worst-latency K]
//! ```
//!
//! Prints a human-readable summary (per-point medians) to stdout;
//! `--out` additionally writes the full structured report as
//! pretty-printed JSON, `--json` replaces the summary with the report on
//! stdout, `--seed` overrides the spec's `sim.seed` (and any sweep seed
//! list), and `--threads` overrides `execution.threads` (worker threads
//! for shard execution; results never depend on it).
//! Reports carry a `_meta` block with the run's peak RSS, allocator
//! high-water mark, host fingerprint, and the `_perf` per-shard
//! wall-clock profile (one shard for a single-cell spec); `--no-meta`
//! omits all of it so two reports can be compared byte for byte.
//!
//! `--metrics <path>` writes the deterministic sim-plane telemetry
//! registry (engine placement/admission counters, queue-depth
//! histograms, kernel lane stats, slab recycle stats, autoscale
//! lifecycle counters) as JSON — byte-identical for every `--threads`
//! value. `--trace` additionally keeps a bounded per-cell ring of the
//! last steps the cell's task ledger recorded (admissions, passes,
//! placement attempts, exits, machine and control events) and embeds it
//! in the metrics file.
//!
//! `--spans <path>` turns on the causal flight recorder and writes the
//! per-task lifecycle spans (with their decision records) as
//! Chrome/Perfetto trace-event JSON — load it at `ui.perfetto.dev` or
//! `chrome://tracing`. The document is byte-identical for every
//! `--threads` value except the host-plane `_perf` track group, which
//! `--no-meta` drops. `ctlm-lab explain <spans.json>` narrates a
//! written recording: `--task N` one task's causal chain, `--machine M`
//! one machine's availability and placements, `--worst-latency K` the K
//! slowest queue-to-run tasks with their full chains.
//!
//! `--diff` compares two previously written reports instead of running
//! anything: per-(point, scheduler, cell) median deltas (`b − a`), so a
//! knob change or a code change can be judged row by row. When both
//! reports carry `_meta`, the peak-memory, host, and `_perf`
//! shard-timing deltas are shown informationally (they never gate;
//! reports missing `_meta` or `_perf` — older snapshots — are fine).
//! Given two `--metrics` files instead, it prints counter deltas and
//! exits zero. The exit code gates: it is
//! non-zero when any compared median (group-0 mean, other mean, or
//! unplaced count) regresses — grows from `a` to `b` by more than the
//! relative `--tolerance` (default 0, i.e. any increase fails; a zero
//! baseline regresses on any increase) — so CI can diff two runs
//! directly.

use std::io::Write as _;
use std::process::ExitCode;

use ctlm_bench::ParsedArgs;
use ctlm_lab::memtrack::{self, TrackingAlloc};
use ctlm_lab::observe::Observations;
use ctlm_lab::report::{
    diff_reports, to_pretty_json, KnobSetting, LabReport, ReportMeta, SummaryDiff,
};
use ctlm_lab::run::ArrivalMode;
use ctlm_lab::ExperimentSpec;
use ctlm_telemetry::{HostFingerprint, Metrics, PerfReport};
use serde::Deserialize;

/// Counting allocator so `_meta.alloc_peak_bytes` reflects the run (the
/// library never installs it; only this binary pays the two atomics).
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

/// A bad command line or an unusable input file is an `Err` (one
/// `error: …` line, exit code 2); `Ok` carries the exit code of a
/// command that ran (1 when `--diff` found regressions).
fn run() -> Result<ExitCode, String> {
    let args = ParsedArgs::from_env(
        &["--json", "--diff", "--no-meta", "--trace"],
        &[
            "--out",
            "--seed",
            "--threads",
            "--tolerance",
            "--metrics",
            "--spans",
            "--task",
            "--machine",
            "--worst-latency",
        ],
    );
    if args.positionals().first().map(String::as_str) == Some("explain") {
        return run_explain(&args);
    }
    if args.flag("--diff") {
        let [a, b] = args.positionals() else {
            return Err("usage: ctlm-lab --diff <a.json> <b.json> [--tolerance X]".into());
        };
        let tolerance: f64 = number(&args, "--tolerance")?.unwrap_or(0.0);
        let (va, vb) = (load_json(a)?, load_json(b)?);
        warn_schema_mismatch(&va, &vb);
        // Two metrics files (written by `--metrics`) diff as counter
        // deltas — informational, never gating.
        if let (Some(ma), Some(mb)) = (parse_metrics(&va), parse_metrics(&vb)) {
            print_metrics_diff(&ma, &mb);
            return Ok(ExitCode::SUCCESS);
        }
        let regressions = print_diff(&parse_report(a, &va)?, &parse_report(b, &vb)?, tolerance);
        if regressions.is_empty() {
            return Ok(ExitCode::SUCCESS);
        }
        eprintln!(
            "\n{} regression(s) beyond tolerance {tolerance}:",
            regressions.len()
        );
        for r in &regressions {
            eprintln!("  {r}");
        }
        return Ok(ExitCode::from(1));
    }
    let [path] = args.positionals() else {
        return Err(
            "usage: ctlm-lab <spec.json> [--out report.json] [--json] [--seed N] [--threads N]\n\
             \x20      ctlm-lab --diff <a.json> <b.json> [--tolerance X]"
                .into(),
        );
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec {path:?}: {e}"))?;
    let mut spec = ExperimentSpec::from_json(&text).map_err(|e| e.to_string())?;
    if let Some(seed) = number(&args, "--seed")? {
        spec.sim.seed = seed;
        // An explicit sweep seed list would shadow the override; clear
        // it so every grid point runs under the requested seed.
        if let Some(sweep) = spec.sweep.as_mut() {
            sweep.seeds.clear();
        }
    }
    if let Some(threads) = number(&args, "--threads")? {
        spec.execution.threads = threads;
    }
    let metrics_out = args.option("--metrics");
    if metrics_out.is_some() {
        spec.observability.metrics = true;
    }
    let spans_out = args.option("--spans");
    if spans_out.is_some() {
        spec.observability.spans = true;
    }
    if args.flag("--trace") && spec.observability.trace_events == 0 {
        spec.observability.trace_events = 4096;
    }
    // Profiling feeds `_meta._perf` only, so it is pointless (and pure
    // overhead) when `--no-meta` drops the block.
    if !args.flag("--no-meta") {
        spec.observability.profile = true;
    }
    let (mut report, obs) =
        ctlm_lab::run_spec_observed(&spec, ArrivalMode::Streaming).map_err(|e| e.to_string())?;
    if !args.flag("--no-meta") {
        let host = HostFingerprint::detect();
        let perf = obs.perf.clone().map(|mut p| {
            p.host = Some(host.clone());
            p
        });
        report._meta = Some(ReportMeta {
            peak_rss_bytes: memtrack::peak_rss_bytes(),
            alloc_peak_bytes: memtrack::alloc_peak_bytes(),
            host: Some(host),
            _perf: perf,
        });
    }
    if let Some(path) = metrics_out {
        write_json("metrics", path, &to_pretty_json(&metrics_document(&obs)))?;
    }
    if let Some(path) = spans_out {
        let doc = ctlm_lab::flight::trace_document(&obs, !args.flag("--no-meta"));
        write_json("spans", path, &to_pretty_json(&doc))?;
    }
    let json = to_pretty_json(&report);
    if let Some(out) = args.option("--out") {
        write_json("report", out, &json)?;
    }
    if args.flag("--json") {
        println!("{json}");
    } else {
        print_summary(&report);
    }
    Ok(ExitCode::SUCCESS)
}

/// A numeric option, `None` when absent.
fn number<T: std::str::FromStr>(args: &ParsedArgs, name: &str) -> Result<Option<T>, String> {
    args.option(name)
        .map(|v| v.parse().map_err(|_| format!("{name} needs a number")))
        .transpose()
}

/// Writes one output document (newline-terminated) and says so. The
/// newline is a second write, not a copy of the document.
fn write_json(what: &str, path: &str, json: &str) -> Result<(), String> {
    let write = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(json.as_bytes())?;
        file.write_all(b"\n")
    };
    write().map_err(|e| format!("cannot write {path:?}: {e}"))?;
    eprintln!("{what} written to {path}");
    Ok(())
}

/// The `explain` subcommand: parse a written spans file and print the
/// requested narrative(s). With no selector, prints a recording
/// summary.
fn run_explain(args: &ParsedArgs) -> Result<ExitCode, String> {
    let Some(path) = args.positionals().get(1) else {
        return Err(
            "usage: ctlm-lab explain <spans.json> [--task N] [--machine M] [--worst-latency K]"
                .into(),
        );
    };
    let rec = ctlm_lab::flight::parse_trace(&load_json(path)?).map_err(|e| e.to_string())?;
    if rec.schema_version != ctlm_telemetry::SCHEMA_VERSION as f64 as u64 {
        eprintln!(
            "warning: spans file has schema_version {}, this binary writes {}",
            rec.schema_version,
            ctlm_telemetry::SCHEMA_VERSION
        );
    }
    let mut printed = false;
    if let Some(task) = number(args, "--task")? {
        print!("{}", ctlm_lab::flight::explain_task(&rec, task));
        printed = true;
    }
    if let Some(machine) = number(args, "--machine")? {
        print!("{}", ctlm_lab::flight::explain_machine(&rec, machine));
        printed = true;
    }
    if let Some(k) = number(args, "--worst-latency")? {
        print!("{}", ctlm_lab::flight::explain_worst(&rec, k));
        printed = true;
    }
    if !printed {
        let tasks = rec
            .spans
            .iter()
            .filter(|s| s.group == "task")
            .map(|s| s.subject)
            .collect::<std::collections::HashSet<_>>()
            .len();
        println!(
            "{} span(s) across {} task(s) (schema_version {})",
            rec.spans.len(),
            tasks,
            rec.schema_version
        );
        println!("select with --task N, --machine M, or --worst-latency K");
    }
    Ok(ExitCode::SUCCESS)
}

fn fmt_ms(v: Option<f64>) -> String {
    match v {
        Some(us) => format!("{:.1}", us / 1000.0),
        None => "—".to_string(),
    }
}

fn load_json(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path:?}: {e}"))
}

fn parse_report(path: &str, value: &serde_json::Value) -> Result<LabReport, String> {
    Deserialize::from_value(value).map_err(|e| format!("{path:?} is not a ctlm-lab report: {e}"))
}

/// A metrics file (written by `--metrics`) is an object with a
/// `metrics` block; anything else is not one.
fn parse_metrics(value: &serde_json::Value) -> Option<Metrics> {
    let serde_json::Value::Object(fields) = value else {
        return None;
    };
    let (_, m) = fields.iter().find(|(k, _)| k == "metrics")?;
    Deserialize::from_value(m).ok()
}

/// The document `--metrics <path>` writes: a `schema_version` stamp,
/// the registry, plus the event traces (sorted by key) when tracing
/// ran. Everything inside is sim-plane state, so the file is
/// byte-identical for every `execution.threads` value.
fn metrics_document(obs: &Observations) -> serde_json::Value {
    let mut fields = vec![
        (
            "schema_version".to_string(),
            serde_json::Value::Num(ctlm_telemetry::SCHEMA_VERSION as f64),
        ),
        (
            "metrics".to_string(),
            serde::Serialize::to_value(&obs.metrics),
        ),
    ];
    if !obs.traces.is_empty() {
        let mut traces: Vec<_> = obs.traces.iter().collect();
        traces.sort_by(|(a, _), (b, _)| a.cmp(b));
        fields.push((
            "traces".to_string(),
            serde_json::Value::Object(
                traces
                    .into_iter()
                    .map(|(k, ring)| (k.clone(), serde::Serialize::to_value(ring)))
                    .collect(),
            ),
        ));
    }
    serde_json::Value::Object(fields)
}

/// Warns when the two compared documents carry different
/// `schema_version` stamps (a missing stamp — reports, older snapshots
/// — reads as version 0 and is only flagged against a stamped file
/// when the other side is stamped too). Deltas across schema versions
/// can reflect format drift rather than behaviour change.
fn warn_schema_mismatch(a: &serde_json::Value, b: &serde_json::Value) {
    let stamp = |v: &serde_json::Value| v.get_field("schema_version").as_f64();
    if let (Some(sa), Some(sb)) = (stamp(a), stamp(b)) {
        if sa != sb {
            eprintln!(
                "warning: schema_version mismatch ({sa} vs {sb}) — deltas may reflect \
                 format drift, not behaviour"
            );
        }
    }
}

/// Counter deltas between two metrics files: every name present on
/// either side, skipping unchanged values. Informational only.
fn print_metrics_diff(a: &Metrics, b: &Metrics) {
    println!("metrics diff (b − a):");
    println!("{:<56} {:>14} {:>14} {:>12}", "counter", "a", "b", "Δ");
    println!("{}", "-".repeat(100));
    let mut names: Vec<&str> = a
        .counters_sorted()
        .iter()
        .map(|&(n, _)| n)
        .chain(b.counters_sorted().iter().map(|&(n, _)| n))
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut unchanged = 0usize;
    for name in names {
        let va = a.counter_value(name).unwrap_or(0);
        let vb = b.counter_value(name).unwrap_or(0);
        if va == vb {
            unchanged += 1;
            continue;
        }
        let delta = vb as i128 - va as i128;
        println!("{name:<56} {va:>14} {vb:>14} {delta:>+12}");
    }
    println!("({unchanged} unchanged counter(s) not shown)");
}

/// A sweep point's knobs as `leaf=value` pairs, `-` for the base point.
fn point_label(knobs: &[KnobSetting]) -> String {
    if knobs.is_empty() {
        "-".to_string()
    } else {
        knobs
            .iter()
            .map(|k| {
                format!(
                    "{}={}",
                    k.path.rsplit('.').next().unwrap_or(&k.path),
                    k.value
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// `a → b (Δ, ×ratio)` for one latency metric, in milliseconds.
fn fmt_pair_ms(pair: (Option<f64>, Option<f64>)) -> String {
    let delta = SummaryDiff::delta(pair);
    let ratio = SummaryDiff::ratio(pair);
    match (delta, ratio) {
        (Some(d), Some(r)) => format!(
            "{} → {} ({}{:.1}, ×{:.2})",
            fmt_ms(pair.0),
            fmt_ms(pair.1),
            if d >= 0.0 { "+" } else { "−" },
            d.abs() / 1000.0,
            r
        ),
        _ => format!("{} → {}", fmt_ms(pair.0), fmt_ms(pair.1)),
    }
}

/// True when `b` exceeds `a` by more than the relative tolerance. A
/// zero baseline regresses on any increase (there is no meaningful
/// relative slack from 0).
fn regressed(pair: (Option<f64>, Option<f64>), tolerance: f64) -> Option<(f64, f64)> {
    let (Some(a), Some(b)) = pair else {
        return None;
    };
    (b > a * (1.0 + tolerance)).then_some((a, b))
}

/// `bytes → MiB` with one decimal.
fn fmt_mib(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
}

/// Prints the peak-memory delta between two reports' `_meta` blocks.
/// Purely informational — memory never gates the diff exit code.
fn print_meta_diff(a: &Option<ReportMeta>, b: &Option<ReportMeta>) {
    let (Some(ma), Some(mb)) = (a, b) else {
        return;
    };
    if let (Some(ra), Some(rb)) = (ma.peak_rss_bytes, mb.peak_rss_bytes) {
        println!(
            "peak RSS:        {} → {} ({}{}) [informational]",
            fmt_mib(ra),
            fmt_mib(rb),
            if rb >= ra { "+" } else { "−" },
            fmt_mib(rb.abs_diff(ra)),
        );
    }
    println!(
        "alloc high-water: {} → {} ({}{}) [informational]",
        fmt_mib(ma.alloc_peak_bytes),
        fmt_mib(mb.alloc_peak_bytes),
        if mb.alloc_peak_bytes >= ma.alloc_peak_bytes {
            "+"
        } else {
            "−"
        },
        fmt_mib(mb.alloc_peak_bytes.abs_diff(ma.alloc_peak_bytes)),
    );
    match (&ma.host, &mb.host) {
        (Some(ha), Some(hb)) if !ha.same_host(hb) => {
            println!(
                "note: reports come from different hosts ({} vs {}) — wall-clock \
                 comparisons are apples to oranges",
                ha.label(),
                hb.label()
            );
        }
        _ => {}
    }
    print_perf_diff(&ma._perf, &mb._perf);
}

/// Prints the shard-timing delta between two `_perf` blocks. Purely
/// informational (wall-clock numbers never gate); either side may be
/// missing — older snapshots and unprofiled runs carry no `_perf`.
fn print_perf_diff(a: &Option<PerfReport>, b: &Option<PerfReport>) {
    let (Some(pa), Some(pb)) = (a, b) else {
        return;
    };
    println!(
        "shard critical path: {:.1} µs/round → {:.1} µs/round over {} → {} round(s), \
         {} → {} thread(s) [informational]",
        pa.critical_path_us_per_round(),
        pb.critical_path_us_per_round(),
        pa.rounds,
        pb.rounds,
        pa.threads,
        pb.threads,
    );
}

/// Prints the row-by-row diff and returns descriptions of every median
/// that regressed beyond `tolerance`.
fn print_diff(a: &LabReport, b: &LabReport, tolerance: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    println!("diff: {} → {}", a.name, b.name);
    print_meta_diff(&a._meta, &b._meta);
    println!(
        "{:<34} {:<14} {:<10} {:<34} {:<34} {:>14}",
        "point", "scheduler", "cell", "g0 mean (ms)", "other (ms)", "unplaced"
    );
    println!("{}", "-".repeat(144));
    for row in diff_reports(a, b) {
        let marker = match row.present {
            (true, true) => "",
            (true, false) => "  [only in a]",
            (false, true) => "  [only in b]",
            (false, false) => unreachable!("diff rows come from at least one report"),
        };
        let opt = |v: Option<f64>| v.map_or("—".to_string(), |x| x.to_string());
        let unplaced = format!("{} → {}", opt(row.unplaced.0), opt(row.unplaced.1));
        println!(
            "{:<34} {:<14} {:<10} {:<34} {:<34} {:>14}{}",
            point_label(&row.knobs),
            row.scheduler,
            row.cell,
            fmt_pair_ms(row.group0_mean),
            fmt_pair_ms(row.other_mean),
            unplaced,
            marker
        );
        if row.fleet_peak.0.is_some() || row.fleet_peak.1.is_some() {
            let f = |v: Option<f64>| v.map_or("—".to_string(), |x| format!("{x}"));
            println!(
                "{:<34} {:<14} {:<10} fleet peak {} → {}",
                "",
                "",
                "",
                f(row.fleet_peak.0),
                f(row.fleet_peak.1)
            );
        }
        if row.dead_lettered.0.is_some() || row.dead_lettered.1.is_some() {
            let f = |v: Option<f64>| v.map_or("—".to_string(), |x| format!("{x}"));
            println!(
                "{:<34} {:<14} {:<10} dead-lettered {} → {}",
                "",
                "",
                "",
                f(row.dead_lettered.0),
                f(row.dead_lettered.1)
            );
        }
        // Gate on the compared medians (fleet peak is informational:
        // bigger is not inherently worse).
        for (metric, pair) in [
            ("g0 mean", row.group0_mean),
            ("other mean", row.other_mean),
            ("unplaced", row.unplaced),
            // Compared only when both reports ran a fault plane —
            // more dead-lettered work is a recovery regression.
            ("dead-lettered", row.dead_lettered),
        ] {
            if let Some((va, vb)) = regressed(pair, tolerance) {
                regressions.push(format!(
                    "{} / {} / {}: {metric} {va} → {vb}",
                    point_label(&row.knobs),
                    row.scheduler,
                    row.cell
                ));
            }
        }
    }
    regressions
}

fn print_summary(report: &LabReport) {
    println!("experiment: {} ({} runs)\n", report.name, report.runs.len());
    println!(
        "{:<40} {:<14} {:<10} {:>5} {:>14} {:>13} {:>12} {:>9}",
        "point",
        "scheduler",
        "cell",
        "runs",
        "g0 mean (ms)",
        "g0 p50 (ms)",
        "other (ms)",
        "unplaced"
    );
    println!("{}", "-".repeat(124));
    for row in &report.summary {
        println!(
            "{:<40} {:<14} {:<10} {:>5} {:>14} {:>13} {:>12} {:>9}",
            point_label(&row.knobs),
            row.scheduler,
            row.cell,
            row.runs,
            fmt_ms(row.median_group0_mean),
            fmt_ms(row.median_group0_p50),
            fmt_ms(row.median_other_mean),
            row.median_unplaced,
        );
    }
}
