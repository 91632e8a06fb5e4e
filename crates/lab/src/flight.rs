//! Flight-recorder export and narration: the span logs as a
//! Chrome/Perfetto trace-event document, and the `explain` views that
//! turn one back into a causal story.
//!
//! # Export layout
//!
//! [`trace_document`] renders [`Observations::spans`] as standard
//! trace-event JSON (`chrome://tracing`, [ui.perfetto.dev]): one
//! *process* pair per `scheduler.cell` track in stored (deterministic)
//! order — pid `2i+1` carries the task lifecycle spans (one thread per
//! task id), pid `2i+2` the control plane (machine availability windows
//! plus autoscaler/fault decision instants). Every complete (`"X"`)
//! event's `args` is the span's decision record: cause, outcome, plan,
//! detail, attempts, and the kind-specific payload under a named key
//! (`machine`, `candidates`, `delay_us`, `target_cell`, …). Flow arrows
//! (`"s"`/`"f"`) stitch cross-cell spill hops (transit span → the
//! sibling cell's `queued` span) and crash retries (`retry_wait` → the
//! re-admission `queued` span), so the crash → backoff → requeue →
//! placement chain reads as one connected path in the UI.
//!
//! Everything above is sim-plane state: the document is byte-identical
//! for every `execution.threads` value. When the run profiled
//! (`_meta` kept) a **host-plane** `_perf` process group is appended —
//! per-shard wall-clock `run_before` slices anchored at each epoch
//! round's sim-time bound (ts is sim µs, dur is wall µs) — and
//! `--no-meta` drops it, which is what the byte-compare across thread
//! counts (`tests/parallel_determinism.rs`) relies on.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev
//!
//! # Explain
//!
//! [`parse_trace`] reads a written document back (surviving the JSON
//! round trip is pinned by tests); [`explain_task`],
//! [`explain_machine`] and [`explain_worst`] render chronological
//! narratives from it — the flight recorder's answer to "why was task N
//! late" without opening a trace UI.

use std::collections::HashMap;

use ctlm_sim::ParallelPerf;
use ctlm_telemetry::{SpanRecord, SCHEMA_VERSION};
use serde_json::Value;

use crate::observe::Observations;
use crate::LabError;

/// Suffix of the task-plane process name for a cell track.
const TASKS_SUFFIX: &str = " tasks";
/// Suffix of the control-plane process name for a cell track.
const CTRL_SUFFIX: &str = " control";
/// Process-name prefix of the host-plane `_perf` track group.
const PERF_PREFIX: &str = "_perf ";

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

fn st(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// An object field, its key as the `String` a [`Value`] holds.
fn field(key: &str, v: Value) -> (String, Value) {
    (key.to_string(), v)
}

/// An object of fixed shape: its field `Vec` is allocated once, at size
/// `N`.
fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(Vec::from(fields.map(|(k, v)| field(k, v))))
}

/// A `"M"` metadata event naming a process or (with `tid`) a thread.
fn meta_event(pid: u64, tid: Option<u64>, which: &str, name: &str) -> Value {
    let mut fields = Vec::with_capacity(4 + usize::from(tid.is_some()));
    fields.extend([
        field("name", st(which)),
        field("ph", st("M")),
        field("pid", num(pid)),
    ]);
    if let Some(t) = tid {
        fields.push(field("tid", num(t)));
    }
    fields.push(field("args", obj([("name", st(name))])));
    Value::Object(fields)
}

/// The kind-specific payload words under their named keys — the half of
/// the decision record that is not a static tag. At most two, so they
/// come back on the stack and `span_event` can size its `args` exactly.
fn payload_args(r: &SpanRecord) -> [Option<(&'static str, u64)>; 2] {
    let nonzero = |key, word| (word != 0).then_some((key, word));
    match r.kind {
        "queued" | "running" => [
            (r.a != 0 || r.outcome == "placed").then_some(("machine", r.a)),
            // A preemption close overwrites the candidate word with the
            // task that evicted this one.
            if r.outcome == "preempted" {
                Some(("preemptor", r.b))
            } else {
                nonzero("candidates", r.b)
            },
        ],
        "retry_wait" => [Some(("delay_us", r.a)), Some(("crashed_machine", r.b))],
        "spill_transit" => [Some(("target_cell", r.a)), None],
        "dead_letter" => [Some(("machine", r.a)), None],
        "scale_up" => [Some(("ordered", r.a)), Some(("crash_replacements", r.b))],
        "scale_down" => [Some(("released", r.a)), None],
        _ => [nonzero("a", r.a), nonzero("b", r.b)],
    }
}

/// One span as a complete (`"X"`) trace event.
fn span_event(r: &SpanRecord, pid: u64, tid: u64) -> Value {
    let tags = [
        ("outcome", r.outcome),
        ("plan", r.plan),
        ("detail", r.detail),
    ];
    let payload = payload_args(r);
    let len = 2
        + tags.iter().filter(|(_, s)| !s.is_empty()).count()
        + usize::from(r.attempts > 0)
        + payload.iter().flatten().count();
    let mut args = Vec::with_capacity(len);
    args.push(field("subject", num(r.subject)));
    args.push(field("cause", st(r.cause)));
    for (key, s) in tags {
        if !s.is_empty() {
            args.push(field(key, st(s)));
        }
    }
    if r.attempts > 0 {
        args.push(field("attempts", num(r.attempts)));
    }
    args.extend(payload.into_iter().flatten().map(|(k, n)| field(k, num(n))));
    obj([
        ("name", st(r.kind)),
        ("cat", st(r.group)),
        ("ph", st("X")),
        ("pid", num(pid)),
        ("tid", num(tid)),
        ("ts", num(r.start)),
        ("dur", num(r.end - r.start)),
        ("args", Value::Object(args)),
    ])
}

/// A flow step (`"s"` start or `"f"` finish-with-enclosing-binding).
fn flow_event(name: &str, ph: &str, id: u64, pid: u64, tid: u64, ts: u64) -> Value {
    let finish = ph == "f";
    let mut fields = Vec::with_capacity(7 + usize::from(finish));
    fields.extend([
        field("name", st(name)),
        field("cat", st("causal")),
        field("ph", st(ph)),
        field("id", num(id)),
        field("pid", num(pid)),
        field("tid", num(tid)),
        field("ts", num(ts)),
    ]);
    if finish {
        fields.push(field("bp", st("e")));
    }
    Value::Object(fields)
}

/// Thread id of a record inside its cell's process pair. Task spans get
/// a thread per task id on the tasks pid; control-plane records share
/// the control pid — tid 0 for decision instants, `machine id + 1` for
/// availability windows.
fn record_tid(r: &SpanRecord) -> u64 {
    match r.group {
        "machine" => r.subject + 1,
        "ctrl" => 0,
        _ => r.subject,
    }
}

/// Per-track index of `queued` spans by subject, for flow-arrow
/// targets.
fn queued_index<'a>(records: &[&'a SpanRecord]) -> HashMap<u64, Vec<&'a SpanRecord>> {
    let mut by_subject: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for &r in records {
        if r.kind == "queued" {
            by_subject.entry(r.subject).or_default().push(r);
        }
    }
    by_subject
}

/// Renders the accumulated span logs (and, with `include_host`, the
/// per-round shard profile) as a Chrome/Perfetto trace-event document.
pub fn trace_document(obs: &Observations, include_host: bool) -> Value {
    let tracks: Vec<(&str, Vec<&SpanRecord>)> = obs
        .spans
        .iter()
        .map(|(key, log)| (key.as_str(), log.records().collect()))
        .collect();
    // Cell index within each scheduler follows track appearance order
    // (record_run folds cells in spec order) — the same numbering the
    // spill router's `target_cell` payload uses.
    let mut sched_cells: Vec<(&str, Vec<usize>)> = Vec::new();
    for (i, (key, _)) in tracks.iter().enumerate() {
        let sched = key.split('.').next().unwrap_or(key);
        match sched_cells.iter_mut().find(|(s, _)| *s == sched) {
            Some((_, cells)) => cells.push(i),
            None => sched_cells.push((sched, vec![i])),
        }
    }
    let queued: Vec<HashMap<u64, Vec<&SpanRecord>>> =
        tracks.iter().map(|(_, rs)| queued_index(rs)).collect();
    let track_of = |from_track: usize, cell_idx: usize| -> Option<usize> {
        sched_cells
            .iter()
            .find(|(_, cells)| cells.contains(&from_track))
            .and_then(|(_, cells)| cells.get(cell_idx).copied())
    };

    let mut events = Vec::new();
    for (i, (key, records)) in tracks.iter().enumerate() {
        let (pid_tasks, pid_ctrl) = (2 * i as u64 + 1, 2 * i as u64 + 2);
        events.push(meta_event(
            pid_tasks,
            None,
            "process_name",
            &format!("{key}{TASKS_SUFFIX}"),
        ));
        events.push(meta_event(
            pid_ctrl,
            None,
            "process_name",
            &format!("{key}{CTRL_SUFFIX}"),
        ));
        events.push(meta_event(pid_ctrl, Some(0), "thread_name", "decisions"));
        let mut named_machines: Vec<u64> = Vec::new();
        for r in records {
            let (pid, tid) = match r.group {
                "task" => (pid_tasks, record_tid(r)),
                _ => (pid_ctrl, record_tid(r)),
            };
            if r.group == "machine" && !named_machines.contains(&r.subject) {
                named_machines.push(r.subject);
                events.push(meta_event(
                    pid_ctrl,
                    Some(tid),
                    "thread_name",
                    &format!("machine {}", r.subject),
                ));
            }
            events.push(span_event(r, pid, tid));
            // Flow arrows. Spill: the transit span in the home cell
            // connects to the `queued` span its re-admission opened —
            // in the sibling for a routed hop, at home for a bounce.
            if r.kind == "spill_transit" && matches!(r.outcome, "routed" | "routed_home") {
                let target_track = if r.outcome == "routed" {
                    track_of(i, r.a as usize)
                } else {
                    Some(i)
                };
                if let Some(t) = target_track {
                    // The re-admission is the first queued span at or
                    // after the hop resolved (the original arrival's
                    // queued span, if any, predates the transit).
                    let landed = queued[t]
                        .get(&r.subject)
                        .and_then(|spans| spans.iter().find(|q| q.start >= r.end));
                    if let Some(q) = landed {
                        let flow = r.subject * 2;
                        events.push(flow_event("spill", "s", flow, pid, tid, r.end));
                        events.push(flow_event(
                            "spill",
                            "f",
                            flow,
                            2 * t as u64 + 1,
                            q.subject,
                            q.start,
                        ));
                    }
                }
            }
            // Retry: backoff elapsing re-queues on the same track.
            if r.kind == "retry_wait" && r.outcome == "backoff_elapsed" {
                let landed = queued[i].get(&r.subject).and_then(|spans| {
                    spans
                        .iter()
                        .find(|q| q.cause == "retry" && q.start >= r.end)
                });
                if let Some(q) = landed {
                    let flow = r.subject * 2 + 1;
                    events.push(flow_event("retry", "s", flow, pid, tid, r.end));
                    events.push(flow_event("retry", "f", flow, pid, q.subject, q.start));
                }
            }
        }
    }

    if include_host {
        let base = 2 * tracks.len() as u64 + 1;
        for (j, (sched, perf)) in obs.host_rounds.iter().enumerate() {
            events.extend(host_track(base + j as u64, sched, perf));
        }
    }

    obj([
        ("schema_version", num(SCHEMA_VERSION)),
        ("displayTimeUnit", st("ms")),
        ("traceEvents", Value::Array(events)),
    ])
}

/// The host-plane `_perf` process for one scheduler run: per shard, one
/// slice per epoch round, anchored at the round's sim-time bound with
/// the shard's wall-clock `run_before` time as duration.
fn host_track(pid: u64, sched: &str, perf: &ParallelPerf) -> Vec<Value> {
    let shards = perf.shard_run_ns.len();
    let mut events = vec![meta_event(
        pid,
        None,
        "process_name",
        &format!("{PERF_PREFIX}{sched}"),
    )];
    for s in 0..shards {
        events.push(meta_event(
            pid,
            Some(s as u64),
            "thread_name",
            &format!("shard {s}"),
        ));
    }
    if perf.round_shard_run_ns.len() != perf.round_bounds.len() * shards {
        return events; // merged/partial profile: totals only, no rounds
    }
    for (r, &bound) in perf.round_bounds.iter().enumerate() {
        for s in 0..shards {
            let run_ns = perf.round_shard_run_ns[r * shards + s];
            events.push(obj([
                ("name", st("round")),
                ("cat", st("host")),
                ("ph", st("X")),
                ("pid", num(pid)),
                ("tid", num(s as u64)),
                ("ts", num(bound)),
                ("dur", num(run_ns / 1_000)),
                (
                    "args",
                    obj([("round", num(r as u64)), ("run_ns", num(run_ns))]),
                ),
            ]));
        }
    }
    events
}

/// One span read back from a trace-event document.
#[derive(Clone, Debug)]
pub struct ExplainSpan {
    /// `scheduler.cell` track key.
    pub cell: String,
    /// `"task"`, `"machine"`, or `"ctrl"`.
    pub group: String,
    /// Span kind.
    pub kind: String,
    /// Task/machine/actor id.
    pub subject: u64,
    /// Open time (sim µs).
    pub start: u64,
    /// Close time (sim µs).
    pub end: u64,
    /// Decision record: open cause.
    pub cause: String,
    /// Decision record: close outcome.
    pub outcome: String,
    /// Decision record: plan name.
    pub plan: String,
    /// Decision record: plan detail.
    pub detail: String,
    /// Attempts burned.
    pub attempts: u64,
    /// Remaining named numeric payload (`machine`, `candidates`, …).
    pub payload: Vec<(String, u64)>,
}

/// A parsed flight recording.
#[derive(Clone, Debug)]
pub struct FlightRecording {
    /// The document's `schema_version` stamp (0 when missing).
    pub schema_version: u64,
    /// Every sim-plane span, in document order.
    pub spans: Vec<ExplainSpan>,
}

/// Parses a trace-event document written by [`trace_document`] back
/// into spans (host `_perf` slices are skipped — they are wall-clock).
pub fn parse_trace(doc: &Value) -> Result<FlightRecording, LabError> {
    let schema_version = doc.get_field("schema_version").as_f64().unwrap_or(0.0) as u64;
    let Value::Array(events) = doc.get_field("traceEvents") else {
        return Err(LabError::msg("spans file has no traceEvents array"));
    };
    // First pass: pid → cell key from process_name metadata.
    let mut cells: HashMap<u64, String> = HashMap::new();
    for ev in events {
        if ev.get_field("ph") == "M" && ev.get_field("name") == "process_name" {
            let Some(pid) = ev.get_field("pid").as_f64() else {
                continue;
            };
            let Some(pname) = ev.get_field("args").get_field("name").as_str() else {
                continue;
            };
            let key = pname
                .strip_suffix(TASKS_SUFFIX)
                .or_else(|| pname.strip_suffix(CTRL_SUFFIX));
            if let Some(key) = key {
                cells.insert(pid as u64, key.to_string());
            }
        }
    }
    let mut spans = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        if ev.get_field("ph") != "X" || ev.get_field("cat") == "host" {
            continue;
        }
        let pid = ev.get_field("pid").as_f64().unwrap_or(0.0) as u64;
        let Some(cell) = cells.get(&pid) else {
            continue;
        };
        let args = ev.get_field("args");
        let gets = |k: &str| args.get_field(k).as_str().unwrap_or("").to_string();
        let ts = ev.get_field("ts").as_f64().unwrap_or(0.0) as u64;
        let dur = ev.get_field("dur").as_f64().unwrap_or(0.0) as u64;
        let kind = ev.get_field("name").as_str().unwrap_or("");
        let end = ts.checked_add(dur).ok_or_else(|| {
            LabError::msg(format!(
                "traceEvents[{i}] ({kind:?}): ts {ts} + dur {dur} overflows the time axis"
            ))
        })?;
        let mut payload = Vec::new();
        if let Value::Object(pairs) = args {
            for (k, v) in pairs {
                if matches!(
                    k.as_str(),
                    "subject" | "cause" | "outcome" | "plan" | "detail" | "attempts"
                ) {
                    continue;
                }
                if let Some(n) = v.as_f64() {
                    payload.push((k.clone(), n as u64));
                }
            }
        }
        spans.push(ExplainSpan {
            cell: cell.clone(),
            group: ev.get_field("cat").as_str().unwrap_or("").to_string(),
            kind: kind.to_string(),
            subject: args.get_field("subject").as_f64().unwrap_or(0.0) as u64,
            start: ts,
            end,
            cause: gets("cause"),
            outcome: gets("outcome"),
            plan: gets("plan"),
            detail: gets("detail"),
            attempts: args.get_field("attempts").as_f64().unwrap_or(0.0) as u64,
            payload,
        })
    }
    Ok(FlightRecording {
        schema_version,
        spans,
    })
}

/// Sim µs as a human-readable offset.
fn fmt_us(us: u64) -> String {
    format!("{:.3}ms", us as f64 / 1_000.0)
}

/// One narrative line for a span.
fn narrate(s: &ExplainSpan, with_cell: bool) -> String {
    let mut line = format!("  +{:>12} ", fmt_us(s.start));
    if with_cell {
        line.push_str(&format!("[{}] ", s.cell));
    }
    line.push_str(&format!("{:<13}", s.kind));
    line.push_str(&format!(" cause={}", s.cause));
    if !s.outcome.is_empty() {
        line.push_str(&format!(" outcome={}", s.outcome));
    }
    if !s.plan.is_empty() {
        line.push_str(&format!(" plan={}", s.plan));
    }
    if !s.detail.is_empty() {
        line.push_str(&format!(" detail={}", s.detail));
    }
    if s.attempts > 0 {
        line.push_str(&format!(" attempts={}", s.attempts));
    }
    for (k, v) in &s.payload {
        line.push_str(&format!(" {k}={v}"));
    }
    if s.end > s.start {
        line.push_str(&format!(" [{}]", fmt_us(s.end - s.start)));
    }
    line
}

/// Spans of one subject within one group, chronological (stable on
/// document order for ties).
fn subject_chain<'a>(rec: &'a FlightRecording, group: &str, subject: u64) -> Vec<&'a ExplainSpan> {
    let mut chain: Vec<&ExplainSpan> = rec
        .spans
        .iter()
        .filter(|s| s.group == group && s.subject == subject)
        .collect();
    chain.sort_by_key(|s| s.start);
    chain
}

/// The causal narrative of one task across every track it appears on
/// (a spilled task's chain spans two cells).
pub fn explain_task(rec: &FlightRecording, task: u64) -> String {
    let chain = subject_chain(rec, "task", task);
    if chain.is_empty() {
        return format!("task {task}: no spans recorded\n");
    }
    let mut out = format!("task {task}: {} span(s)\n", chain.len());
    for s in &chain {
        out.push_str(&narrate(s, true));
        out.push('\n');
    }
    out
}

/// The availability windows of one machine plus every task span the
/// machine shows up in (placements, crashes, dead letters).
pub fn explain_machine(rec: &FlightRecording, machine: u64) -> String {
    let windows = subject_chain(rec, "machine", machine);
    let mut touched: Vec<&ExplainSpan> = rec
        .spans
        .iter()
        .filter(|s| {
            s.group == "task"
                && s.payload.iter().any(|(k, v)| {
                    matches!(k.as_str(), "machine" | "crashed_machine") && *v == machine
                })
        })
        .collect();
    touched.sort_by_key(|s| s.start);
    if windows.is_empty() && touched.is_empty() {
        return format!("machine {machine}: no spans recorded\n");
    }
    let mut out = format!(
        "machine {machine}: {} availability window(s), {} task span(s)\n",
        windows.len(),
        touched.len()
    );
    for s in &windows {
        out.push_str(&narrate(s, true));
        out.push('\n');
    }
    for s in &touched {
        out.push_str(&narrate(s, true));
        out.push('\n');
    }
    out
}

/// The `k` tasks with the largest queue-to-first-run latency, each with
/// its full causal chain. Tasks that never reached `running` are ranked
/// by their total recorded extent instead (they are the pathological
/// cases worth reading). A task on several tracks (two schedulers, a
/// spill) is ranked once, by its worst track.
pub fn explain_worst(rec: &FlightRecording, k: usize) -> String {
    /// Per-task latency accumulator: earliest queue, earliest run, max extent.
    type Milestones = (Option<u64>, Option<u64>, u64);
    let mut by_task: HashMap<(&str, u64), Milestones> = HashMap::new();
    for s in &rec.spans {
        if s.group != "task" {
            continue;
        }
        let e = by_task
            .entry((s.cell.as_str(), s.subject))
            .or_insert((None, None, 0));
        if s.kind == "queued" && e.0.is_none_or(|q| s.start < q) {
            e.0 = Some(s.start);
        }
        if s.kind == "running" && e.1.is_none_or(|r| s.start < r) {
            e.1 = Some(s.start);
        }
        e.2 = e.2.max(s.end);
    }
    let mut worst: HashMap<u64, u64> = HashMap::new();
    for (&(_, subject), &(queued, running, extent)) in &by_task {
        let Some(q) = queued else {
            continue;
        };
        let latency = match running {
            Some(r) if r >= q => r - q,
            _ => extent.saturating_sub(q),
        };
        let w = worst.entry(subject).or_insert(latency);
        *w = (*w).max(latency);
    }
    let mut ranked: Vec<(u64, u64)> = worst.into_iter().map(|(s, l)| (l, s)).collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    if ranked.is_empty() {
        return "no task spans recorded\n".to_string();
    }
    let mut out = String::new();
    for (rank, &(latency, subject)) in ranked.iter().take(k).enumerate() {
        out.push_str(&format!(
            "#{} task {subject} — {} queued-to-run\n",
            rank + 1,
            fmt_us(latency)
        ));
        for s in subject_chain(rec, "task", subject) {
            out.push_str(&narrate(s, true));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_telemetry::SpanLog;

    fn obs_with(key: &str, log: SpanLog) -> Observations {
        let mut obs = Observations::default();
        obs.spans.push((key.to_string(), log));
        obs
    }

    #[test]
    fn export_and_parse_roundtrip_preserves_decision_records() {
        let mut log = SpanLog::new();
        log.open_task(7, "queued", 100, "arrival");
        log.note_attempt(7, 5);
        log.close_task_with(7, 400, "placed", "tightest_fit", "candidate_driven", 3, 5);
        log.open_task_full(7, "running", 400, "placed", "tightest_fit", "", 0, 3, 5);
        log.close_task(7, 900, "machine_crash");
        log.open_task_full(
            7,
            "retry_wait",
            900,
            "machine_crash",
            "backoff",
            "",
            1,
            250,
            3,
        );
        log.close_task(7, 1150, "backoff_elapsed");
        log.open_task(7, "queued", 1150, "retry");
        log.instant_task(
            7,
            "dead_letter",
            1400,
            "budget_exhausted",
            "backoff",
            "",
            2,
            3,
        );
        log.open_machine(3, "machine_down", 900, "crash", "");
        log.close_machine(3, 1600, "restored");
        log.close_all(2_000);
        let doc = trace_document(&obs_with("main_only.hot", log), false);
        assert_eq!(*doc.get_field("schema_version"), SCHEMA_VERSION);
        let rec = parse_trace(&doc).unwrap();
        assert_eq!(rec.schema_version, SCHEMA_VERSION);
        let chain = subject_chain(&rec, "task", 7);
        let kinds: Vec<&str> = chain.iter().map(|s| s.kind.as_str()).collect();
        assert_eq!(
            kinds,
            ["queued", "running", "retry_wait", "queued", "dead_letter"]
        );
        let placed = &chain[0];
        assert_eq!(placed.outcome, "placed");
        assert_eq!(placed.plan, "tightest_fit");
        assert_eq!(placed.detail, "candidate_driven");
        assert_eq!(placed.attempts, 1);
        assert!(placed.payload.contains(&("machine".to_string(), 3)));
        assert!(placed.payload.contains(&("candidates".to_string(), 5)));
        let wait = &chain[2];
        assert_eq!(wait.cause, "machine_crash");
        assert!(wait.payload.contains(&("delay_us".to_string(), 250)));
        assert!(wait.payload.contains(&("crashed_machine".to_string(), 3)));
        // The horizon-closed machine window survives the round trip.
        let machines = subject_chain(&rec, "machine", 3);
        assert_eq!(machines.len(), 1);
        assert_eq!(machines[0].outcome, "restored");
        assert_eq!(machines[0].end, 1_600);
    }

    #[test]
    fn retry_flow_arrows_link_backoff_to_requeue() {
        let mut log = SpanLog::new();
        log.open_task_full(
            9,
            "retry_wait",
            500,
            "machine_crash",
            "backoff",
            "",
            1,
            100,
            2,
        );
        log.close_task(9, 600, "backoff_elapsed");
        log.open_task(9, "queued", 600, "retry");
        log.close_all(1_000);
        let doc = trace_document(&obs_with("oracle.cold", log), false);
        let Value::Array(events) = doc.get_field("traceEvents") else {
            panic!("no events");
        };
        let flows: Vec<&Value> = events
            .iter()
            .filter(|e| e.get_field("cat") == "causal")
            .collect();
        assert_eq!(flows.len(), 2, "one s/f pair");
        assert_eq!(*flows[0].get_field("ph"), *"s");
        assert_eq!(*flows[0].get_field("ts"), 600u64);
        assert_eq!(*flows[1].get_field("ph"), *"f");
        assert_eq!(*flows[1].get_field("ts"), 600u64);
        assert_eq!(flows[0].get_field("id"), flows[1].get_field("id"));
    }

    #[test]
    fn spill_flow_crosses_cells_and_explain_reads_the_hop() {
        // Home cell 0 spills task 42 to sibling cell 1.
        let mut home = SpanLog::new();
        home.open_task(42, "spill_transit", 300, "no_capacity");
        home.close_task_with(42, 1_000, "routed", "", "", 1, 0);
        let mut sib = SpanLog::new();
        sib.open_task(42, "queued", 1_000, "dynamic");
        sib.close_task_with(42, 1_200, "placed", "tightest_fit", "", 8, 2);
        let mut obs = Observations::default();
        obs.spans.push(("main_only.hot".to_string(), home));
        obs.spans.push(("main_only.cold".to_string(), sib));
        let doc = trace_document(&obs, false);
        let Value::Array(events) = doc.get_field("traceEvents") else {
            panic!("no events");
        };
        let finish = events
            .iter()
            .find(|e| e.get_field("cat") == "causal" && e.get_field("ph") == "f")
            .expect("cross-cell flow finish");
        // pid 3 = second track's task plane.
        assert_eq!(*finish.get_field("pid"), 3u64);
        let rec = parse_trace(&doc).unwrap();
        let chain = subject_chain(&rec, "task", 42);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].cell, "main_only.hot");
        assert_eq!(chain[1].cell, "main_only.cold");
        let text = explain_task(&rec, 42);
        assert!(text.contains("spill_transit"));
        assert!(text.contains("outcome=routed"));
        assert!(text.contains("[main_only.cold]"));
    }

    #[test]
    fn worst_latency_ranks_by_queue_to_run_gap() {
        let mut log = SpanLog::new();
        for (task, wait) in [(1u64, 50u64), (2, 500), (3, 5)] {
            log.open_task(task, "queued", 100, "arrival");
            log.close_task_with(task, 100 + wait, "placed", "p", "", 1, 1);
            log.open_task_full(task, "running", 100 + wait, "placed", "p", "", 0, 1, 1);
            log.close_task(task, 100 + wait + 10, "finished");
        }
        let doc = trace_document(&obs_with("main_only.hot", log), false);
        let rec = parse_trace(&doc).unwrap();
        let text = explain_worst(&rec, 2);
        let pos2 = text.find("task 2").expect("worst task listed");
        let pos1 = text.find("task 1").expect("second-worst listed");
        assert!(pos2 < pos1, "ranked by latency desc:\n{text}");
        assert!(!text.contains("#3"), "only k entries");
    }

    #[test]
    fn worst_latency_lists_a_task_on_two_tracks_once() {
        let waited = |waits: &[(u64, u64)]| {
            let mut log = SpanLog::new();
            for &(task, wait) in waits {
                log.open_task(task, "queued", 100, "arrival");
                log.close_task_with(task, 100 + wait, "placed", "p", "", 1, 1);
                log.open_task_full(task, "running", 100 + wait, "placed", "p", "", 0, 1, 1);
                log.close_task(task, 100 + wait + 10, "finished");
            }
            log
        };
        let mut obs = Observations::default();
        obs.spans
            .push(("main_only.hot".to_string(), waited(&[(1, 900), (2, 500)])));
        obs.spans
            .push(("enhanced.hot".to_string(), waited(&[(1, 100), (2, 500)])));
        let rec = parse_trace(&trace_document(&obs, false)).unwrap();
        let text = explain_worst(&rec, 3);
        let headers: Vec<&str> = text.lines().filter(|l| l.starts_with('#')).collect();
        assert_eq!(headers.len(), 2, "one entry per task:\n{text}");
        assert!(headers[0].starts_with("#1 task 1 — 0.900ms"), "{text}");
        assert!(headers[1].starts_with("#2 task 2 — 0.500ms"), "{text}");
    }

    #[test]
    fn every_explain_view_ends_its_last_line() {
        let mut log = SpanLog::new();
        log.open_task(1, "queued", 100, "arrival");
        log.close_task_with(1, 300, "placed", "p", "", 2, 1);
        log.open_task_full(1, "running", 300, "placed", "p", "", 0, 2, 1);
        log.open_machine(2, "machine_drain", 200, "drain", "");
        log.close_all(1_000);
        let recorded =
            parse_trace(&trace_document(&obs_with("main_only.hot", log), false)).unwrap();
        let empty = parse_trace(&trace_document(&Observations::default(), false)).unwrap();
        for rec in [&recorded, &empty] {
            for text in [
                explain_task(rec, 1),
                explain_machine(rec, 2),
                explain_worst(rec, 3),
            ] {
                assert!(text.ends_with('\n'), "{text:?}");
            }
        }
    }

    #[test]
    fn span_end_past_the_time_axis_is_an_error() {
        let doc = serde_json::json!({
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "a.b tasks"}},
                {"name": "queued", "cat": "task", "ph": "X", "pid": 1, "tid": 1,
                 "ts": 1.8e19, "dur": 1.8e19, "args": {"subject": 1}}
            ]
        });
        let err = parse_trace(&doc).unwrap_err().to_string();
        assert!(err.contains("traceEvents[1]"), "{err}");
        assert!(err.contains("\"queued\""), "{err}");
    }

    #[test]
    fn host_track_is_gated_and_carries_round_slices() {
        let log = SpanLog::new();
        let mut obs = obs_with("main_only.hot", log);
        obs.host_rounds.push((
            "main_only".to_string(),
            ParallelPerf {
                rounds: 2,
                drain_ns: 10,
                shard_run_ns: vec![100, 200],
                shard_barrier_ns: vec![100, 0],
                round_bounds: vec![1_000, 2_000],
                round_shard_run_ns: vec![40_000, 60_000, 50_000, 50_000],
            },
        ));
        let without = trace_document(&obs, false);
        let with = trace_document(&obs, true);
        let count = |doc: &Value| match doc.get_field("traceEvents") {
            Value::Array(evs) => evs.iter().filter(|e| e.get_field("cat") == "host").count(),
            _ => 0,
        };
        assert_eq!(count(&without), 0, "--no-meta keeps the document sim-plane");
        assert_eq!(count(&with), 4, "2 rounds × 2 shards");
        // Host slices never surface from parse_trace.
        assert!(parse_trace(&with).unwrap().spans.is_empty());
    }
}
