//! Event replay and dataset generation (paper Fig. 1).
//!
//! The replayer walks the corrected event stream, maintains the cluster
//! state, computes each constrained task's ground-truth suitable-node
//! group via the [`matcher`](crate::matcher), and encodes CO-VV / CO-EL
//! dataset rows. Whenever the attribute-value vocabulary grows — the
//! feature array is *extended* — it emits a [`DatasetStep`] snapshot of
//! the CO-VV dataset: exactly the retraining points Table XI tabulates.
//! No retraining step reads CO-EL, so a replay does not encode it; its
//! readers derive it with [`Replayer::co_el`].
//!
//! The logic lives in [`ReplaySession`], an incremental state machine
//! consuming one [`TraceEvent`] at a time. [`Replayer::replay`] is the
//! batch form: a fold of the session over the corrected stream.
//! [`ReplayHandle`] is a session a feed walks inside a simulation
//! (`ctlm_sched`'s `OnlineTraceFeed`), so replay shares a timeline with
//! the scheduler engine, churn sources and rollouts — the online loop
//! where dataset steps drive live retraining mid-simulation.

use serde::{Deserialize, Serialize};

use ctlm_data::compaction::{collapse, AttrRequirement};
use ctlm_data::dataset::{group_for_count, Dataset, DatasetBuilder, NUM_GROUPS};
use ctlm_data::encode::co_el::CoElEncoder;
use ctlm_data::encode::co_vv::CoVvEncoder;
use ctlm_data::vocab::ValueVocab;
use ctlm_trace::event::format_day_hour_minute;
use ctlm_trace::{EventPayload, GeneratedTrace, Micros, Task, TraceEvent};

use crate::corrector::{correct_stream, CorrectionReport};
use crate::matcher::count_suitable;
use crate::state::ClusterState;
use crate::stats::{CoDistribution, CoStatsCollector};

/// Replay tuning knobs.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Rows required before step 0 (the initial model training) is
    /// emitted.
    pub min_rows_for_step0: usize,
    /// Vocabulary growths closer together than this merge into a single
    /// step (the generator emits e.g. a machine batch and a kernel rollout
    /// a microsecond apart; the paper's steps are minutes apart).
    pub step_merge_window: Micros,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            min_rows_for_step0: 30,
            step_merge_window: 30 * 60 * 1_000_000, // 30 simulated minutes
        }
    }
}

/// One feature-array-extension step: the cumulative CO-VV dataset as of
/// the extension, plus the bookkeeping Table XI reports per step.
#[derive(Clone, Debug)]
pub struct DatasetStep {
    /// Step number (0 = initial training).
    pub index: usize,
    /// Simulation time of the extension.
    pub time: Micros,
    /// Table XI-style `day HH:MM` label.
    pub label: String,
    /// CO-VV feature-array width at this step.
    pub features_count: usize,
    /// Columns added since the previous step.
    pub new_features: usize,
    /// Cumulative CO-VV dataset (rows so far, widened to
    /// `features_count`).
    pub vv: Dataset,
}

/// Everything a replay produces.
#[derive(Debug)]
pub struct ReplayOutput {
    /// The retraining steps, in time order.
    pub steps: Vec<DatasetStep>,
    /// Table IX statistics for this trace.
    pub stats: CoDistribution,
    /// What the corrector fixed.
    pub correction: CorrectionReport,
    /// Group width used for labelling.
    pub group_width: usize,
    /// Constrained tasks skipped because their constraints contradict
    /// (the paper: rare, logged, ignored).
    pub skipped_contradictions: usize,
    /// Constrained tasks skipped because no machine currently matches
    /// (transiently unschedulable during churn).
    pub skipped_unschedulable: usize,
    /// Rows labelled Group 0 across the whole trace.
    pub group0_rows: usize,
    /// Total dataset rows (constrained tasks encoded).
    pub total_rows: usize,
    /// Task markers swept by collection termination instead of their own
    /// termination event (anomaly (ii) healing).
    pub markers_swept_by_collection: usize,
    /// Task markers left alive after the full replay (should be 0).
    pub markers_leaked: usize,
    /// Final CO-VV vocabulary.
    pub vocab: ValueVocab,
}

/// What one [`ReplaySession::observe`] call produced.
#[derive(Debug, Default)]
pub struct Observed {
    /// The dataset step this event completed, if any.
    pub step: Option<DatasetStep>,
    /// For a task submission whose constraints do not contradict: its
    /// collapsed requirements and how many machines satisfy them in the
    /// cluster state *including* this event (every machine for an
    /// unconstrained task) — the labelling the dataset row used, handed
    /// back so an online feed admits the task without redoing it.
    pub submission: Option<(Vec<AttrRequirement>, usize)>,
}

/// The incremental replay state machine: feed it trace events in time
/// order via [`ReplaySession::observe`]; finished steps come back as
/// they fire, and [`ReplaySession::finish`] flushes the trailing step
/// and returns the [`ReplayOutput`].
pub struct ReplaySession {
    cfg: ReplayConfig,
    group_width: usize,
    state: ClusterState,
    vocab: ValueVocab,
    vv_encoder: CoVvEncoder,
    vv_builder: DatasetBuilder,
    stats: CoStatsCollector,
    steps_emitted: usize,
    width_at_last_step: usize,
    rows_at_last_step: usize,
    growth_pending_since: Option<Micros>,
    step0_emitted: bool,
    skipped_contradictions: usize,
    skipped_unschedulable: usize,
    group0_rows: usize,
    markers_swept: usize,
    last_time: Micros,
}

impl ReplaySession {
    /// A session for a trace labelled with `group_width`.
    pub fn new(cfg: ReplayConfig, group_width: usize) -> Self {
        Self {
            cfg,
            group_width,
            state: ClusterState::new(),
            vocab: ValueVocab::new(),
            vv_encoder: CoVvEncoder,
            vv_builder: DatasetBuilder::new(0, NUM_GROUPS),
            stats: CoStatsCollector::daily(),
            steps_emitted: 0,
            width_at_last_step: 0,
            rows_at_last_step: 0,
            growth_pending_since: None,
            step0_emitted: false,
            skipped_contradictions: 0,
            skipped_unschedulable: 0,
            group0_rows: 0,
            markers_swept: 0,
            last_time: 0,
        }
    }

    /// The vocabulary as observed so far — online retraining snapshots
    /// it alongside each emitted step.
    pub fn vocab(&self) -> &ValueVocab {
        &self.vocab
    }

    fn emit_step(&mut self, time: Micros) -> DatasetStep {
        let width = self.vocab.len();
        self.vv_builder.widen(width);
        let vv = self.vv_builder.snapshot(width);
        let step = DatasetStep {
            index: self.steps_emitted,
            time,
            label: format_day_hour_minute(time),
            features_count: width,
            new_features: width - self.width_at_last_step,
            vv,
        };
        self.steps_emitted += 1;
        self.width_at_last_step = width;
        self.rows_at_last_step = self.vv_builder.len();
        step
    }

    /// Consumes one (corrected) trace event, returning the dataset step
    /// a pending vocabulary growth matured into (or step 0) and, for a
    /// task submission, its labelling.
    pub fn observe(&mut self, ev: &TraceEvent) -> Observed {
        self.last_time = ev.time;
        let mut out = Observed::default();
        // Flush a pending growth step once the merge window elapses and
        // the initial model exists.
        if let Some(t0) = self.growth_pending_since {
            if self.step0_emitted
                && ev.time > t0 + self.cfg.step_merge_window
                && self.vv_builder.len() > self.rows_at_last_step
            {
                out.step = Some(self.emit_step(t0));
                self.growth_pending_since = None;
            }
        }

        match &ev.payload {
            EventPayload::MachineAdd(m) => {
                let before = self.vocab.len();
                for (attr, value) in &m.attributes {
                    self.vocab.observe(*attr, value);
                }
                self.state.add_machine(m.clone());
                if ev.time > 0 && self.vocab.len() > before && self.growth_pending_since.is_none() {
                    self.growth_pending_since = Some(ev.time);
                }
            }
            EventPayload::MachineRemove(id) => {
                self.state.remove_machine(*id);
            }
            EventPayload::MachineAttrUpdate {
                machine,
                attr,
                value,
            } => {
                if self.state.update_attr(*machine, *attr, value.clone()) {
                    if let Some(v) = value {
                        let before = self.vocab.len();
                        self.vocab.observe(*attr, v);
                        if self.vocab.len() > before && self.growth_pending_since.is_none() {
                            self.growth_pending_since = Some(ev.time);
                        }
                    }
                }
            }
            EventPayload::CollectionSubmit(_) => {}
            EventPayload::CollectionFinish(id) => {
                self.markers_swept += self.state.sweep_collection(*id);
            }
            EventPayload::TaskSubmit(task) => self.submit(ev.time, task, &mut out),
            EventPayload::TaskUpdate { .. } => {
                // Resource updates do not change constraints; markers
                // stay.
            }
            EventPayload::TaskTerminate { task, .. } => {
                self.state.remove_task_marker(*task);
            }
        }
        out
    }

    /// Records one task submission: statistics, its marker, its
    /// labelling and — for a constrained task at least one machine
    /// suits — a dataset row, which may complete step 0.
    fn submit(&mut self, time: Micros, task: &Task, out: &mut Observed) {
        self.stats
            .record(time, task.cpu, task.memory, task.has_constraints());
        self.state.add_task_marker(task.id, task.collection);
        let Ok(reqs) = collapse(&task.constraints) else {
            // The paper: contradictions are logged and the task is
            // ignored by the simulation.
            self.skipped_contradictions += 1;
            return;
        };
        let suitable = count_suitable(&self.state, &reqs);
        if let Some(label) = row_label(task, suitable, self.group_width) {
            if label == 0 {
                self.group0_rows += 1;
            }
            self.vv_builder.widen(self.vocab.len());
            let vv_row = self.vv_encoder.encode_requirements(&reqs, &self.vocab);
            self.vv_builder.push(vv_row, label);
            // Step 0 fires once enough rows exist for the initial
            // training.
            if !self.step0_emitted && self.vv_builder.len() >= self.cfg.min_rows_for_step0 {
                debug_assert!(out.step.is_none(), "step 0 cannot race a growth step");
                out.step = Some(self.emit_step(time));
                self.step0_emitted = true;
                self.growth_pending_since = None;
            }
        } else if task.has_constraints() {
            self.skipped_unschedulable += 1;
        }
        out.submission = Some((reqs, suitable));
    }

    /// Flushes the trailing step (if rows or vocabulary grew since the
    /// last one) and assembles the output. `steps` is the collected
    /// sequence of steps observed so far, in order.
    pub fn finish(
        mut self,
        mut steps: Vec<DatasetStep>,
        correction: CorrectionReport,
    ) -> ReplayOutput {
        if let Some(step) = self.flush_trailing() {
            steps.push(step);
        }
        self.into_output(steps, correction)
    }

    /// Emits the trailing step if rows or vocabulary grew since the last
    /// one — the single flush rule shared by [`ReplaySession::finish`] and
    /// [`ReplayHandle::finish`].
    fn flush_trailing(&mut self) -> Option<DatasetStep> {
        if self.vv_builder.len() > self.rows_at_last_step
            || self.vocab.len() > self.width_at_last_step
        {
            let t = self.last_time;
            Some(self.emit_step(t))
        } else {
            None
        }
    }

    /// Assembles the output without flushing (the caller already did).
    fn into_output(self, steps: Vec<DatasetStep>, correction: CorrectionReport) -> ReplayOutput {
        ReplayOutput {
            stats: self.stats.distribution(),
            correction,
            group_width: self.group_width,
            skipped_contradictions: self.skipped_contradictions,
            skipped_unschedulable: self.skipped_unschedulable,
            group0_rows: self.group0_rows,
            total_rows: self.vv_builder.len(),
            markers_swept_by_collection: self.markers_swept,
            markers_leaked: self.state.live_task_markers(),
            vocab: self.vocab,
            steps,
        }
    }
}

/// The label of the dataset row a submission adds, if it adds one: a
/// constrained task that some machine suits, labelled by how many do.
fn row_label(task: &Task, suitable: usize, group_width: usize) -> Option<u8> {
    (task.has_constraints() && suitable > 0).then(|| group_for_count(suitable, group_width))
}

/// A [`ReplaySession`] walked by a feed inside a simulation: the feed
/// observes each event through it, `on_step` fires as each dataset step
/// completes — the hook online simulations use to submit retraining
/// work while the scheduler keeps running — and the driver finishes the
/// session after the run. The handle travels with the feed, so it is
/// `Send` when the feed's simulation is.
pub struct ReplayHandle<'a> {
    session: ReplaySession,
    steps: Vec<DatasetStep>,
    #[allow(clippy::type_complexity)]
    on_step: Option<Box<dyn FnMut(&DatasetStep, &ValueVocab) + Send + 'a>>,
}

impl<'a> ReplayHandle<'a> {
    /// A handle to a fresh session.
    pub fn new(cfg: ReplayConfig, group_width: usize) -> Self {
        Self {
            session: ReplaySession::new(cfg, group_width),
            steps: Vec::new(),
            on_step: None,
        }
    }

    /// Installs a step callback (called with each step and the
    /// vocabulary as of that step).
    pub fn on_step(mut self, f: impl FnMut(&DatasetStep, &ValueVocab) + Send + 'a) -> Self {
        self.on_step = Some(Box::new(f));
        self
    }

    /// Consumes one trace event, returning the session's labelling of a
    /// task submission (see [`Observed::submission`]).
    pub fn observe(&mut self, ev: &TraceEvent) -> Option<(Vec<AttrRequirement>, usize)> {
        let seen = self.session.observe(ev);
        self.emit(seen.step);
        seen.submission
    }

    /// Flushes the trailing step (also reported through the callback)
    /// and assembles the output.
    pub fn finish(mut self, correction: CorrectionReport) -> ReplayOutput {
        let trailing = self.session.flush_trailing();
        self.emit(trailing);
        self.session.into_output(self.steps, correction)
    }

    fn emit(&mut self, step: Option<DatasetStep>) {
        if let Some(step) = step {
            if let Some(f) = self.on_step.as_mut() {
                f(&step, self.session.vocab());
            }
            self.steps.push(step);
        }
    }
}

/// The replayer. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct Replayer {
    config: ReplayConfig,
}

impl Replayer {
    /// A replayer with custom configuration.
    pub fn new(config: ReplayConfig) -> Self {
        Self { config }
    }

    /// Replays a generated trace into dataset steps and statistics:
    /// corrects the stream, folds a [`ReplaySession`] over it in stream
    /// order (the corrected stream is time-sorted; same-time events keep
    /// their order), and finishes the session.
    pub fn replay(&self, trace: &GeneratedTrace) -> ReplayOutput {
        let (events, correction) = correct_stream(&trace.events);
        let mut session = ReplaySession::new(self.config, trace.group_width);
        let steps = events
            .iter()
            .filter_map(|ev| session.observe(ev).step)
            .collect();
        session.finish(steps, correction)
    }

    /// The trace's CO-EL dataset (Table VI): the rows and labels of the
    /// last step's CO-VV dataset from [`Replayer::replay`], in the same
    /// order, label-encoded. It replays the trace once more — only the
    /// CO-EL tables and examples read this encoding, so only they pay
    /// for it.
    pub fn co_el(&self, trace: &GeneratedTrace) -> Dataset {
        let (events, _) = correct_stream(&trace.events);
        let mut session = ReplaySession::new(self.config, trace.group_width);
        let mut encoder = CoElEncoder::new();
        let mut rows = DatasetBuilder::new(0, NUM_GROUPS);
        for ev in &events {
            let submission = session.observe(ev).submission;
            let (EventPayload::TaskSubmit(task), Some((reqs, suitable))) =
                (&ev.payload, submission)
            else {
                continue;
            };
            if let Some(label) = row_label(task, suitable, trace.group_width) {
                let row = encoder.encode_requirements(&reqs);
                rows.widen(encoder.len());
                rows.push(row, label);
            }
        }
        rows.finish(encoder.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_trace::{CellSet, Scale, TraceGenerator};

    fn trace_of(cell: CellSet, seed: u64) -> GeneratedTrace {
        TraceGenerator::generate_cell(
            cell,
            Scale {
                machines: 130,
                collections: 400,
                seed,
            },
        )
    }

    fn replay_cell(cell: CellSet, seed: u64) -> ReplayOutput {
        Replayer::default().replay(&trace_of(cell, seed))
    }

    #[test]
    fn steps_are_ordered_and_widths_monotonic() {
        let out = replay_cell(CellSet::C2019c, 5);
        assert!(
            out.steps.len() >= 3,
            "expected several steps, got {}",
            out.steps.len()
        );
        for w in out.steps.windows(2) {
            assert!(w[0].time <= w[1].time);
            assert!(w[0].features_count <= w[1].features_count);
            assert!(w[0].vv.len() <= w[1].vv.len());
        }
    }

    #[test]
    fn step_zero_holds_most_of_the_vocabulary() {
        // Table XI: "most attribute values defined in step zero".
        let out = replay_cell(CellSet::C2019c, 5);
        let first = out.steps.first().unwrap().features_count;
        let last = out.steps.last().unwrap().features_count;
        assert!(
            first as f64 >= 0.55 * last as f64,
            "step 0 width {first} vs final {last}"
        );
    }

    #[test]
    fn later_steps_add_bounded_feature_batches() {
        // §VI: adding over 40–50 features at once degrades the model; the
        // generator caps per-step growth, and merged steps stay bounded.
        let out = replay_cell(CellSet::C2019c, 5);
        for s in &out.steps[1..] {
            assert!(
                s.new_features <= 2 * 50,
                "step {} added {} features",
                s.index,
                s.new_features
            );
        }
    }

    #[test]
    fn labels_are_valid_groups_and_group0_appears() {
        let trace = TraceGenerator::generate_cell(
            CellSet::C2019a,
            Scale {
                machines: 130,
                collections: 1_500,
                seed: 7,
            },
        );
        let out = Replayer::default().replay(&trace);
        let last = out.steps.last().unwrap();
        assert!(last.vv.y.iter().all(|&y| (y as usize) < NUM_GROUPS));
        assert!(
            out.group0_rows > 0,
            "2019a's group0 share should produce rows"
        );
        // Group 0 is rare — the class imbalance the paper highlights.
        let g0_frac = out.group0_rows as f64 / out.total_rows as f64;
        assert!(
            g0_frac < 0.06,
            "group0 fraction {g0_frac} suspiciously high"
        );
    }

    #[test]
    fn co_el_and_co_vv_have_same_rows_and_labels() {
        let trace = trace_of(CellSet::C2011, 3);
        let out = Replayer::default().replay(&trace);
        let last = out.steps.last().unwrap();
        let el = &Replayer::default().co_el(&trace);
        assert_eq!(el.len(), last.vv.len());
        assert_eq!(el.len(), out.total_rows);
        assert_eq!(el.y, last.vv.y);
        assert!(
            el.features_count() < last.vv.features_count(),
            "CO-EL label space is denser than CO-VV value space at this scale"
        );
    }

    #[test]
    fn corrections_match_injected_anomalies() {
        let trace = TraceGenerator::generate_cell(
            CellSet::C2019c,
            Scale {
                machines: 130,
                collections: 600,
                seed: 9,
            },
        );
        let out = Replayer::default().replay(&trace);
        let injected_mistimed = trace
            .anomalies
            .count(ctlm_trace::anomaly::AnomalyKind::MistimedUpdate);
        let injected_missing = trace
            .anomalies
            .count(ctlm_trace::anomaly::AnomalyKind::MissingTermination);
        assert_eq!(out.correction.mistimed_updates_fixed, injected_mistimed);
        assert_eq!(out.correction.tasks_missing_termination, injected_missing);
        // Anomaly (ii) healing: those tasks' markers are swept via their
        // collection.
        assert!(out.markers_swept_by_collection >= injected_missing);
    }

    #[test]
    fn no_task_markers_leak() {
        let out = replay_cell(CellSet::C2019d, 2);
        assert_eq!(
            out.markers_leaked, 0,
            "collection sweep must clean every marker"
        );
    }

    #[test]
    fn stats_land_near_profile_targets() {
        let out = replay_cell(CellSet::C2019a, 11);
        let avg = out.stats.by_volume.avg;
        let profile_avg = CellSet::C2019a.profile().co_volume_avg;
        assert!(
            (avg - profile_avg).abs() < 0.12,
            "volume avg {avg:.3} vs profile {profile_avg:.3}"
        );
        assert!(out.stats.by_volume.min < avg);
        assert!(out.stats.by_volume.max > avg);
    }

    #[test]
    fn replay_is_deterministic() {
        let a = replay_cell(CellSet::C2019c, 13);
        let b = replay_cell(CellSet::C2019c, 13);
        assert_eq!(a.steps.len(), b.steps.len());
        assert_eq!(a.total_rows, b.total_rows);
        let (la, lb) = (a.steps.last().unwrap(), b.steps.last().unwrap());
        assert_eq!(la.vv.y, lb.vv.y);
        assert_eq!(la.features_count, lb.features_count);
    }

    #[test]
    fn replay_is_the_fold_of_a_session_over_the_corrected_stream() {
        let trace = TraceGenerator::generate_cell(
            CellSet::C2019c,
            Scale {
                machines: 130,
                collections: 400,
                seed: 17,
            },
        );
        let (events, correction) = correct_stream(&trace.events);
        assert!(
            events.windows(2).any(|w| w[0].time == w[1].time),
            "the stream must hold same-timestamp events for order to matter"
        );
        let mut session = ReplaySession::new(ReplayConfig::default(), trace.group_width);
        let mut steps = Vec::new();
        for ev in &events {
            steps.extend(session.observe(ev).step);
        }
        let by_hand = session.finish(steps, correction);
        let out = Replayer::default().replay(&trace);

        assert_eq!(out.steps.len(), by_hand.steps.len());
        for (a, b) in out.steps.iter().zip(&by_hand.steps) {
            assert_eq!(
                (a.index, a.time, &a.label, a.features_count, a.new_features),
                (b.index, b.time, &b.label, b.features_count, b.new_features)
            );
            assert_eq!((&a.vv.x, &a.vv.y), (&b.vv.x, &b.vv.y));
        }
        assert_eq!(out.correction, by_hand.correction);
        assert_eq!(
            (out.total_rows, out.group0_rows, out.vocab.len()),
            (by_hand.total_rows, by_hand.group0_rows, by_hand.vocab.len())
        );
        assert_eq!(
            (out.skipped_contradictions, out.skipped_unschedulable),
            (
                by_hand.skipped_contradictions,
                by_hand.skipped_unschedulable
            )
        );
        assert_eq!(
            (out.markers_swept_by_collection, out.markers_leaked),
            (by_hand.markers_swept_by_collection, by_hand.markers_leaked)
        );
    }

    #[test]
    fn contradictions_are_rare() {
        let out = replay_cell(CellSet::C2019c, 5);
        // The paper: fewer than twenty across all datasets. Our generator
        // does not intentionally produce contradictions at all.
        assert!(out.skipped_contradictions < 20);
    }

    #[test]
    fn vv_rows_are_sparse() {
        let out = replay_cell(CellSet::C2019c, 5);
        let last = out.steps.last().unwrap();
        let density = last.vv.x.density();
        // The CO-VV encoding marks unacceptable values; constrained tasks
        // at this scale mark well under half the array on average.
        assert!(density < 0.5, "density {density}");
        assert!(density > 0.0);
    }
}
