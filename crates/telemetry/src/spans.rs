//! Causal flight recorder: sim-time lifecycle spans with decision
//! records.
//!
//! Where the [`TraceRing`](crate::TraceRing) keeps the last-N raw
//! events, the span log keeps *intervals*: every task gets a sequence of
//! lifecycle spans (`queued`, `running`, `retry_wait`, `spill_transit`,
//! `dead_letter`), every machine gets availability spans
//! (`machine_down`, `machine_drain`), and control-plane actors
//! (autoscaler, fault plane) record instant decision spans. Each record
//! carries a compact decision audit — why the span opened (`cause`),
//! why it closed (`outcome`), which plan produced the decision
//! (`plan`/`detail`), and two kind-specific payload words — so a
//! consumer can replay the full causal story of a run: admitted,
//! queued, placed, crashed, retried, spilled, dead-lettered.
//!
//! Determinism and cost discipline match the rest of the sim plane:
//!
//! - Every field is sim-plane state (sim time, static tags, ids), so a
//!   log is byte-identical across `execution.threads` values.
//! - Closed records live in a segment arena of fixed-size buffers, so
//!   growth never moves a record: steady-state recording — updating an
//!   open span in place, closing into a non-full segment — never
//!   allocates. New segments appear only when the log *grows*, i.e. on
//!   lifecycle transitions, which never happen inside the
//!   zero-allocation scheduling pass's measured window.
//! - Open spans close deterministically at the horizon
//!   ([`SpanLog::close_all`] walks subjects in sorted order) with
//!   `outcome = "horizon"` and `end = horizon`.

use std::collections::HashMap;

/// Records per segment in the arena. Small enough that a mostly-idle
/// cell wastes little, large enough that a hot cell grows rarely.
const SEGMENT: usize = 1024;

/// Version stamp written into every metrics/spans export document so
/// consumers (and `--diff`) can detect format drift instead of
/// producing confusing deltas.
pub const SCHEMA_VERSION: u64 = 1;

/// One closed span: a `[start, end]` sim-time interval on a subject,
/// plus its decision record. All tags are `&'static str` and all
/// payloads flat `u64`s — recording never allocates and never touches
/// host state.
///
/// Payload meaning by `kind`:
///
/// | kind           | `a`                    | `b`                  |
/// |----------------|------------------------|----------------------|
/// | `queued`       | machine placed on      | candidate estimate   |
/// | `running`      | machine                | candidate estimate   |
/// | `retry_wait`   | backoff delay (µs)     | machine that crashed |
/// | `spill_transit`| route target cell      | —                    |
/// | `dead_letter`  | machine that crashed   | —                    |
/// | `scale_up`     | machines ordered       | crash replacements   |
/// | `scale_down`   | machines released      | —                    |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Subject id: task id for `group == "task"`, machine id for
    /// `group == "machine"`, actor-specific for `group == "ctrl"`.
    pub subject: u64,
    /// Track group: `"task"`, `"machine"`, or `"ctrl"`.
    pub group: &'static str,
    /// Span kind (`"queued"`, `"running"`, `"retry_wait"`, …).
    pub kind: &'static str,
    /// Sim time the span opened (µs).
    pub start: u64,
    /// Sim time the span closed (µs, ≥ `start`).
    pub end: u64,
    /// Why the span opened (`"arrival"`, `"retry"`, `"no_capacity"`, …).
    pub cause: &'static str,
    /// Why the span closed (`"placed"`, `"machine_crash"`, `"horizon"`, …).
    pub outcome: &'static str,
    /// Plan that produced the decision: placer name, retry-policy name,
    /// autoscale-policy name, or spill route disposition.
    pub plan: &'static str,
    /// Secondary plan detail: the capacity-index arm the placer walked
    /// (`"candidate_driven"` / `"capacity_driven"`), crash provenance
    /// (displaced lifecycle owner), etc.
    pub detail: &'static str,
    /// Placement attempts burned while queued, or retry attempt number.
    pub attempts: u64,
    /// Kind-specific payload word (see table above).
    pub a: u64,
    /// Kind-specific payload word (see table above).
    pub b: u64,
}

/// An open (not yet closed) span's mutable state.
#[derive(Clone, Copy, Debug)]
struct OpenSpan {
    kind: &'static str,
    start: u64,
    cause: &'static str,
    plan: &'static str,
    detail: &'static str,
    attempts: u64,
    a: u64,
    b: u64,
}

/// The per-cell span log: closed records in a segment arena plus
/// open-span tables keyed by subject id.
///
/// Open tables are keyed by *task id* (globally unique across cells —
/// the lab strides cell id spaces), not arena slot: slots are recycled
/// within a run, ids are not, and spill clones keep their id across
/// cells so cross-cell causality can be stitched by id alone.
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    segments: Vec<Vec<SpanRecord>>,
    open_tasks: HashMap<u64, OpenSpan>,
    open_machines: HashMap<u64, OpenSpan>,
    recorded: u64,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Closed records recorded so far.
    pub fn len(&self) -> usize {
        self.recorded as usize
    }

    /// True when no span has closed yet.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// Spans still open (tasks + machines).
    pub fn open_count(&self) -> usize {
        self.open_tasks.len() + self.open_machines.len()
    }

    /// Closed records in close order.
    pub fn records(&self) -> impl Iterator<Item = &SpanRecord> {
        self.segments.iter().flatten()
    }

    fn push(&mut self, rec: SpanRecord) {
        if self.segments.last().is_none_or(|s| s.len() == SEGMENT) {
            self.segments.push(Vec::with_capacity(SEGMENT));
        }
        self.segments.last_mut().expect("segment present").push(rec);
        self.recorded += 1;
    }

    /// Opens a task lifecycle span, closing any span already open on the
    /// subject at the same instant (a task is in exactly one lifecycle
    /// state at a time; an implicit close records `outcome =
    /// "superseded"` so the gap is visible rather than silent).
    pub fn open_task(&mut self, subject: u64, kind: &'static str, now: u64, cause: &'static str) {
        self.open_task_full(subject, kind, now, cause, "", "", 0, 0, 0);
    }

    /// [`SpanLog::open_task`] with the full decision record up front.
    #[allow(clippy::too_many_arguments)]
    pub fn open_task_full(
        &mut self,
        subject: u64,
        kind: &'static str,
        now: u64,
        cause: &'static str,
        plan: &'static str,
        detail: &'static str,
        attempts: u64,
        a: u64,
        b: u64,
    ) {
        if self.open_tasks.contains_key(&subject) {
            self.close_task(subject, now, "superseded");
        }
        self.open_tasks.insert(
            subject,
            OpenSpan {
                kind,
                start: now,
                cause,
                plan,
                detail,
                attempts,
                a,
                b,
            },
        );
    }

    /// Bumps the open span's attempt counter and refreshes its candidate
    /// estimate in place — no record is emitted, no allocation happens.
    /// This is what a `NoCapacity` scheduling attempt records.
    #[inline]
    pub fn note_attempt(&mut self, subject: u64, candidates: u64) {
        if let Some(open) = self.open_tasks.get_mut(&subject) {
            open.attempts += 1;
            open.b = candidates;
        }
    }

    /// Closes the subject's open span with only an outcome, keeping the
    /// decision record accumulated while open. No-op when nothing is
    /// open on the subject.
    pub fn close_task(&mut self, subject: u64, now: u64, outcome: &'static str) {
        if let Some(open) = self.open_tasks.remove(&subject) {
            self.push(finish_record(subject, "task", open, now, outcome));
        }
    }

    /// Closes the subject's open span, overriding plan/detail/payload
    /// with the closing decision (e.g. `queued` closes with the placer
    /// plan, chosen machine, and candidate count).
    #[allow(clippy::too_many_arguments)]
    pub fn close_task_with(
        &mut self,
        subject: u64,
        now: u64,
        outcome: &'static str,
        plan: &'static str,
        detail: &'static str,
        a: u64,
        b: u64,
    ) {
        if let Some(mut open) = self.open_tasks.remove(&subject) {
            open.plan = plan;
            open.detail = detail;
            open.a = a;
            open.b = b;
            self.push(finish_record(subject, "task", open, now, outcome));
        }
    }

    /// Records an instant (zero-duration) task span, e.g. `dead_letter`.
    #[allow(clippy::too_many_arguments)]
    pub fn instant_task(
        &mut self,
        subject: u64,
        kind: &'static str,
        now: u64,
        cause: &'static str,
        plan: &'static str,
        detail: &'static str,
        attempts: u64,
        a: u64,
    ) {
        self.push(SpanRecord {
            subject,
            group: "task",
            kind,
            start: now,
            end: now,
            cause,
            outcome: cause,
            plan,
            detail,
            attempts,
            a,
            b: 0,
        });
    }

    /// Opens a machine availability span (`machine_down`,
    /// `machine_drain`). Re-opening on an already-down machine keeps the
    /// earlier span (overlapping crash/drain depths collapse into one
    /// interval, closed by the last restore).
    pub fn open_machine(
        &mut self,
        subject: u64,
        kind: &'static str,
        now: u64,
        cause: &'static str,
        detail: &'static str,
    ) {
        self.open_machines.entry(subject).or_insert(OpenSpan {
            kind,
            start: now,
            cause,
            plan: "",
            detail,
            attempts: 0,
            a: 0,
            b: 0,
        });
    }

    /// Closes the machine's open availability span, if any.
    pub fn close_machine(&mut self, subject: u64, now: u64, outcome: &'static str) {
        if let Some(open) = self.open_machines.remove(&subject) {
            self.push(finish_record(subject, "machine", open, now, outcome));
        }
    }

    /// Records an instant control-plane decision span (autoscaler
    /// scale-up/down, fault-plane ownership override).
    #[allow(clippy::too_many_arguments)]
    pub fn instant_ctrl(
        &mut self,
        subject: u64,
        kind: &'static str,
        now: u64,
        cause: &'static str,
        plan: &'static str,
        detail: &'static str,
        a: u64,
        b: u64,
    ) {
        self.push(SpanRecord {
            subject,
            group: "ctrl",
            kind,
            start: now,
            end: now,
            cause,
            outcome: cause,
            plan,
            detail,
            attempts: 0,
            a,
            b,
        });
    }

    /// Closes every still-open span at the horizon with `end = horizon`
    /// and `outcome = "horizon"`. Subjects are walked in sorted order so
    /// the resulting record order is independent of hash-map iteration
    /// order (and therefore byte-deterministic across processes).
    pub fn close_all(&mut self, horizon: u64) {
        let mut tasks: Vec<u64> = self.open_tasks.keys().copied().collect();
        tasks.sort_unstable();
        for subject in tasks {
            self.close_task(subject, horizon, "horizon");
        }
        let mut machines: Vec<u64> = self.open_machines.keys().copied().collect();
        machines.sort_unstable();
        for subject in machines {
            self.close_machine(subject, horizon, "horizon");
        }
    }
}

fn finish_record(
    subject: u64,
    group: &'static str,
    open: OpenSpan,
    now: u64,
    outcome: &'static str,
) -> SpanRecord {
    SpanRecord {
        subject,
        group,
        kind: open.kind,
        start: open.start,
        end: now.max(open.start),
        cause: open.cause,
        outcome,
        plan: open.plan,
        detail: open.detail,
        attempts: open.attempts,
        a: open.a,
        b: open.b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_open_update_close_keeps_decision_record() {
        let mut log = SpanLog::new();
        log.open_task(7, "queued", 100, "arrival");
        log.note_attempt(7, 12);
        log.note_attempt(7, 9);
        log.close_task_with(7, 250, "placed", "best_fit", "candidate_driven", 3, 9);
        let recs: Vec<_> = log.records().copied().collect();
        assert_eq!(recs.len(), 1);
        let r = recs[0];
        assert_eq!((r.subject, r.kind, r.start, r.end), (7, "queued", 100, 250));
        assert_eq!((r.cause, r.outcome), ("arrival", "placed"));
        assert_eq!((r.plan, r.detail), ("best_fit", "candidate_driven"));
        assert_eq!((r.attempts, r.a, r.b), (2, 3, 9));
    }

    #[test]
    fn reopening_supersedes_the_open_span() {
        let mut log = SpanLog::new();
        log.open_task(1, "queued", 10, "arrival");
        log.open_task(1, "running", 20, "placed");
        let recs: Vec<_> = log.records().copied().collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].kind, "queued");
        assert_eq!(recs[0].outcome, "superseded");
        log.close_task(1, 30, "finished");
        assert_eq!(log.records().last().map(|r| r.kind), Some("running"));
    }

    #[test]
    fn close_all_closes_at_horizon_in_sorted_subject_order() {
        let mut log = SpanLog::new();
        for id in [42u64, 3, 17] {
            log.open_task(id, "queued", id, "arrival");
        }
        log.open_machine(5, "machine_down", 50, "crash", "");
        log.close_all(1_000);
        assert_eq!(log.open_count(), 0);
        let recs: Vec<_> = log.records().copied().collect();
        let subjects: Vec<u64> = recs.iter().map(|r| r.subject).collect();
        assert_eq!(subjects, [3, 17, 42, 5]); // tasks sorted, then machines
        assert!(recs.iter().all(|r| r.end == 1_000));
        assert!(recs.iter().all(|r| r.outcome == "horizon"));
    }

    #[test]
    fn machine_reopen_collapses_into_one_interval() {
        let mut log = SpanLog::new();
        log.open_machine(2, "machine_down", 100, "crash", "");
        log.open_machine(2, "machine_down", 150, "crash", "");
        log.close_machine(2, 400, "restored");
        let recs: Vec<_> = log.records().copied().collect();
        assert_eq!(recs.len(), 1);
        assert_eq!((recs[0].start, recs[0].end), (100, 400));
    }

    #[test]
    fn steady_state_close_into_nonfull_segment_does_not_grow_arena() {
        let mut log = SpanLog::new();
        log.open_task(1, "queued", 0, "arrival");
        log.close_task(1, 1, "placed");
        let segs = log.segments.len();
        for i in 2..SEGMENT as u64 {
            log.open_task(i, "queued", i, "arrival");
            log.close_task(i, i + 1, "placed");
        }
        // Fills the segment exactly: still no growth.
        log.open_task(9_998, "queued", 0, "arrival");
        log.close_task(9_998, 1, "placed");
        assert_eq!(log.segments.len(), segs, "no new segment until full");
        log.open_task(9_999, "queued", 0, "arrival");
        log.close_task(9_999, 1, "placed");
        assert_eq!(log.segments.len(), segs + 1, "grows only when full");
    }
}
