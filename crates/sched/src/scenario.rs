//! Scenario components — event sources the old monolithic simulation
//! loop could not express.
//!
//! Each type here is a [`TimedSource`] over a time-sorted [`Plan`]: it
//! says what one due action does to the engine and nothing else —
//! [`attach`](crate::timed::attach) puts it on a cell's timeline (e.g.
//! [`Harness::sim`](crate::engine::Harness)) behind the one walker that
//! wakes it and re-arms it. Because they share the one timeline,
//! scenarios compose: churn can run under any
//! [`Scheduler`](crate::scheduler::Scheduler), gangs can arrive during
//! churn, and a live trace feed can grow the attribute vocabulary
//! while tasks are being scheduled.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ctlm_sim::{Ctx, SimDuration, SimTime};
use ctlm_trace::{Machine, MachineId};

use crate::engine::{EngineState, SchedEvent, PRIO_ADMIT, PRIO_STATE};
use crate::lifecycle::LifecycleOwner;
use crate::timed::{draw_in, Plan, TimedSource};

/// One churn action at a point in time.
#[derive(Clone, Debug)]
pub enum ChurnAction {
    /// A machine drains; its tasks re-enter the queue.
    Fail(MachineId),
    /// A previously drained machine rejoins (empty).
    Restore(MachineId),
    /// A new machine joins the fleet.
    Join(Box<Machine>),
}

/// A deterministic churn schedule.
#[derive(Clone, Debug, Default)]
pub struct ChurnPlan {
    /// `(time, action)` pairs, sorted by time.
    pub events: Vec<(SimTime, ChurnAction)>,
}

impl ChurnPlan {
    /// A plan from explicit `(time, action)` pairs (sorted internally —
    /// relative order of same-time actions is preserved).
    pub fn new(mut events: Vec<(SimTime, ChurnAction)>) -> Self {
        events.sort_by_key(|&(t, _)| t);
        Self { events }
    }

    /// Seeded random drain/restore waves: `failures` *distinct* machines
    /// picked from `fleet` fail uniformly inside `window`, the `k`-th
    /// coming back `outage` plus `k` µs later.
    pub fn random_drain(
        seed: u64,
        fleet: &[MachineId],
        failures: usize,
        window: (SimTime, SimTime),
        outage: SimDuration,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4012);
        let mut events = Vec::new();
        // Sample without replacement — a duplicate pick would make the
        // second Fail a no-op and quietly run fewer failures than asked.
        let mut pool: Vec<MachineId> = fleet.to_vec();
        for k in 0..failures.min(fleet.len()) {
            let id = pool.swap_remove(rng.gen_range(0..pool.len()));
            let t = draw_in(window, &mut rng);
            events.push((t, ChurnAction::Fail(id)));
            let stagger = SimDuration::from_micros(k as u64);
            let back = t.saturating_add(outage).saturating_add(stagger);
            events.push((back, ChurnAction::Restore(id)));
        }
        Self::new(events)
    }
}

/// Walks a [`ChurnPlan`], emitting machine-state events at the engine.
///
/// Every Fail claims the machine for [`LifecycleOwner::Churn`] on the
/// cell's claim table first; a failed claim (the autoscaler is
/// provisioning, draining or parking that machine, a crash holds it, or
/// churn already drained it) skips the outage instead of racing. A
/// Restore goes out only while churn's claim still stands, so it
/// releases exactly the outages churn began — not a skipped one, and not
/// one a crash took over mid-outage (recovery belongs to the fault plane
/// then). A skipped action emits no event and is recorded nowhere: the
/// run simply has one churn outage fewer than the plan lists.
pub struct ChurnSource {
    plan: Plan<ChurnAction>,
}

impl ChurnSource {
    /// A source over `plan`.
    pub fn new(plan: ChurnPlan) -> Self {
        Self {
            plan: Plan::new(plan.events),
        }
    }
}

impl TimedSource for ChurnSource {
    const CLASS: u8 = PRIO_STATE;

    fn next_time(&self, _state: &EngineState<'_>) -> Option<SimTime> {
        self.plan.next_time()
    }

    fn fire(&mut self, now: SimTime, state: &mut EngineState<'_>, ctx: &mut Ctx<'_, SchedEvent>) {
        let churn = LifecycleOwner::Churn;
        while let Some(action) = self.plan.pop_due(now) {
            let ev = match action {
                ChurnAction::Fail(id) => {
                    if !state.try_claim(*id, churn) {
                        continue;
                    }
                    SchedEvent::MachineFail(*id)
                }
                ChurnAction::Restore(id) => {
                    if !state.release_claim(*id, churn) {
                        continue;
                    }
                    SchedEvent::MachineRestore(*id)
                }
                ChurnAction::Join(m) => SchedEvent::MachineJoin(m.clone()),
            };
            ctx.emit_prio(SimDuration::ZERO, PRIO_STATE, state.engine(), ev);
        }
    }
}

/// Emits all-or-nothing gang arrivals: each entry is `(time, members)`.
/// Members are owned tasks — they join the engine's arena on arrival and
/// never pass through the individual admission path.
pub struct GangSource {
    gangs: Plan<Vec<crate::queue::PendingTask>>,
}

impl GangSource {
    /// A source over `(time, members)` gangs (sorted internally).
    pub fn new(gangs: Vec<(SimTime, Vec<crate::queue::PendingTask>)>) -> Self {
        Self {
            gangs: Plan::new(gangs),
        }
    }
}

impl TimedSource for GangSource {
    const CLASS: u8 = PRIO_ADMIT;

    fn next_time(&self, _state: &EngineState<'_>) -> Option<SimTime> {
        self.gangs.next_time()
    }

    fn fire(&mut self, now: SimTime, state: &mut EngineState<'_>, ctx: &mut Ctx<'_, SchedEvent>) {
        while let Some(members) = self.gangs.pop_due(now) {
            let gang = SchedEvent::GangArrival(std::mem::take(members));
            ctx.emit_prio(SimDuration::ZERO, PRIO_ADMIT, state.engine(), gang);
        }
    }
}

/// Feeds a (corrected, time-ordered) trace event stream into a combined
/// replay + scheduling simulation — the online loop the paper describes.
///
/// Each trace event is first observed by the feed's replay session, a
/// [`ReplayHandle`](ctlm_agocs::ReplayHandle) (growing the
/// vocabulary, emitting dataset steps — whose callback typically trains
/// a model on the step and installs it into a
/// [`ModelRegistry`](ctlm_core::ModelRegistry) at that simulated
/// instant), then mirrored at the
/// engine: machine adds/removes/attribute updates become cluster churn,
/// and task submissions become admissions carrying the session's own
/// labelling — the *live* ground-truth suitable-node count its dataset
/// row was built from. Replay and scheduling share one
/// timeline, so an analyzer hot-swapped mid-run immediately changes
/// routing — something the two old monolithic loops could not express.
pub struct OnlineTraceFeed<'a> {
    events: Plan<ctlm_trace::TraceEvent>,
    replay: ctlm_agocs::ReplayHandle<'a>,
    group_width: usize,
}

impl<'a> OnlineTraceFeed<'a> {
    /// A feed over `events`, labelling tasks with `group_width`-wide
    /// groups and observing every event into `replay`.
    pub fn new(
        events: Vec<ctlm_trace::TraceEvent>,
        group_width: usize,
        replay: ctlm_agocs::ReplayHandle<'a>,
    ) -> Self {
        let timed = events
            .into_iter()
            .map(|e| (SimTime::from_micros(e.time), e));
        Self {
            events: Plan::new(timed.collect()),
            replay,
            group_width,
        }
    }

    /// The replay session, to finish once the run is over.
    pub fn into_replay(self) -> ctlm_agocs::ReplayHandle<'a> {
        self.replay
    }
}

impl TimedSource for OnlineTraceFeed<'_> {
    const CLASS: u8 = PRIO_STATE;

    fn next_time(&self, _state: &EngineState<'_>) -> Option<SimTime> {
        self.events.next_time()
    }

    fn fire(&mut self, now: SimTime, state: &mut EngineState<'_>, ctx: &mut Ctx<'_, SchedEvent>) {
        use ctlm_trace::EventPayload;
        const NOW: SimDuration = SimDuration::ZERO;
        let engine = state.engine();
        while let Some(ev) = self.events.pop_due(now) {
            // Replay sees the event first, so a submission's suitable-node
            // count is taken against the state *including* this event.
            let submission = self.replay.observe(ev);
            match &ev.payload {
                EventPayload::MachineAdd(m) => ctx.emit_prio(
                    NOW,
                    PRIO_STATE,
                    engine,
                    SchedEvent::MachineJoin(Box::new(m.clone())),
                ),
                EventPayload::MachineRemove(id) => {
                    ctx.emit_prio(NOW, PRIO_STATE, engine, SchedEvent::MachineFail(*id))
                }
                EventPayload::MachineAttrUpdate {
                    machine,
                    attr,
                    value,
                } => ctx.emit_prio(
                    NOW,
                    PRIO_STATE,
                    engine,
                    SchedEvent::AttrUpdate {
                        machine: *machine,
                        attr: *attr,
                        value: value.clone(),
                    },
                ),
                EventPayload::TaskSubmit(task) => {
                    let admitted = submission.and_then(|(reqs, suitable)| {
                        crate::queue::PendingTask::from_submission(
                            task,
                            reqs,
                            suitable,
                            self.group_width,
                            SimTime::from_micros(ev.time),
                        )
                    });
                    if let Some(t) = admitted {
                        ctx.emit_prio(NOW, PRIO_ADMIT, engine, SchedEvent::Admit(Box::new(t)));
                    }
                }
                _ => {}
            }
        }
    }
}
