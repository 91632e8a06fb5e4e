//! The task ledger: the one place a lifecycle transition is recorded.
//!
//! The engine schedules (route, place, draw a runtime, emit events) and
//! reports every state change here as one [`Step`]; [`Ledger::transition`]
//! alone checks the step is legal, bumps the counters, updates the
//! live-task table, writes the flight-recorder span, appends the step to
//! the event ring and releases the arena slot of a task that is gone for
//! good. A task enters the table at its first placement (that is what
//! earns its one [`PlacedRecord`]) and leaves it when it terminates;
//! before that it is *new* (not yet admitted, or in spill transit) or
//! *queued*, and tracked nowhere.
//!
//! | step | phase | counters | span: kind(cause) → outcome | ring: kind (a, b) |
//! |---|---|---|---|---|
//! | `Admitted` | new → queued | `admitted_{arrivals,dynamic,gang_members}` | open `queued`(`arrival` / `dynamic` / `gang`) | `admit_arrival` / `admit_dynamic` / `admit_gang` (task, 0) |
//! | `Spilled` | new → transit | `spill_requests` | open `spill_transit`(the rejection: `backlog_full` / `no_capacity` / `infeasible`) | `spilled` (task, 0) |
//! | `SpillResolved` | transit → new, or gone (`Sibling`) | `spilled_out` (`Sibling`), `link_timeouts` (`LinkTimeout`) | close → `routed_home` / `link_timeout` / `routed`, a = landing cell | `spill_resolved` (task, landing cell) |
//! | `Pass` | — | `cycles`; `hp_depth` and `main_depth` samples | — | `pass` (HP depth, main depth) |
//! | `NoCapacity` | queued → queued | `no_capacity` | in place: attempts + 1, b = candidates | `no_capacity` (task, 0) |
//! | `Placed` | queued → `Running` | `placed` / `placed_with_preemption` (gangs: neither); first time: the `PlacedRecord`; from `RetryWait`: `reschedule` sample | close `queued` → `placed`, plan = placer or `gang`, detail = index arm, a = machine, b = candidates; open `running`(`placed`) | `placed` (task, machine) |
//! | `GangPlaced` | — | `gangs_placed` | — | `gang_placed` (0, 0) |
//! | `Infeasible` | queued → gone | `infeasible`; `unplaced` if never placed, else (fault runtime on) `failed_permanently` + `dead_lettered` | close `queued` → `infeasible`; then instant `dead_letter`(`infeasible`) | `infeasible` (task, 0) |
//! | `Finished` | `Running` → gone | — | close `running` → `finished` | `finished` (task, machine) |
//! | `Preempted` | `Running` → gone | `preemptions`, the record's `was_preempted` | close `running` → `preempted`, a = machine, b = preemptor | `preempted` (task, machine) |
//! | `Drained` | `Running` → `Requeued` | `churn_rescheduled` | close `running` → `machine_drain`; open `queued`(`churn_requeue`) | `drained` (task, machine) |
//! | `Lost`, in budget | `Running` → `RetryWait` | `tasks_lost`, `lost_work_us`, `retries_scheduled`, `backoff` | close `running` → `machine_crash`; open `retry_wait`(`machine_crash`), plan = policy, attempts = losses, a = delay, b = machine | `lost` (task, machine) |
//! | `Lost`, budget spent or no fault runtime | `Running` → gone | `tasks_lost`, `lost_work_us`, `dead_lettered`, `failed_permanently` | close `running` → `machine_crash`; instant `dead_letter`(`budget_exhausted`), a = machine | `lost` (task, machine) |
//! | `BackoffElapsed` | `RetryWait` (now queued) | — | close `retry_wait` → `backoff_elapsed`; open `queued`(`retry`) | `backoff_elapsed` (task, 0) |
//! | [`Ledger::finish`] | any → gone | `unplaced` per queued task never placed | close everything → `horizon` | — |
//! | `MachineCrashed` | — | `crashed_machines` | open `machine_down`(`crash`) | `machine_crashed` (machine, 0) |
//! | `MachineDrained` | — | — | open `machine_drain`(`drain`) | `machine_drained` (machine, 0) |
//! | `MachineRestored` | — | — | close the machine's span → `restored` | `machine_restored` (machine, 0) |
//! | `MachineJoined` | — | — | close the machine's open span → `joined`; then instant `machine_join`(`join`) — every join, from a `MachineJoin` event or the autoscaler | `machine_joined` (machine, 0) |
//! | `AttrUpdated` | — | — | — | `attr_update` (machine, attribute) |
//! | `Control` | — | — | instant ctrl span as given: the autoscaler's `scale_up`(`demand` / `crash_loss`; a = ordered, b = replacements) and `scale_down`(`surplus`; a = released) | the span's kind (a, b) |
//! | `ClaimOverridden` | — | — | instant `claim_override`(`crash`) on the machine, plan = `fault`, detail = the displaced owner: the fault plane's crash provenance, reported when a crash is *decided*, ahead of its `MachineCrashed` | `claim_override` (machine, 0) |
//!
//! No span, counter or ring entry is written anywhere else: the ledger
//! owns all three outright, and every observer reads them through
//! [`EngineState::ledger`](crate::engine::EngineState::ledger).
//! `lab::flight::payload_args` names the span `a`/`b` words per kind.

use std::collections::hash_map::Entry;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use ctlm_sim::{SimDuration, SimTime};
use ctlm_telemetry::{Histogram, SpanLog, TraceEvent, TraceRing};
use ctlm_trace::{AttrId, MachineId, TaskId};

use crate::arena::TaskSlab;
use crate::cluster::SchedCluster;
use crate::faults::{FaultStats, RetryPolicy};
use crate::idmap::IdMap;
use crate::latency::LatencyStats;

/// One placed task's outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedRecord {
    /// Task id.
    pub task: TaskId,
    /// Ground-truth suitable-node group.
    pub truth_group: u8,
    /// Scheduling latency: placement time − arrival time (µs).
    pub latency: u64,
    /// Whether this task was ever preempted after placement.
    pub was_preempted: bool,
}

/// Simulation output.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimResult {
    /// Placed tasks.
    pub placed: Vec<PlacedRecord>,
    /// Tasks never placed within the horizon.
    pub unplaced: usize,
    /// Total preemption evictions performed.
    pub preemptions: usize,
    /// Tasks evicted by machine churn and re-queued for placement.
    pub churn_rescheduled: usize,
    /// Gangs placed atomically.
    pub gangs_placed: usize,
    /// Crash-lost tasks whose retry budget ran out — the dead-letter
    /// terminal state. Always 0 without the fault plane. These tasks hold
    /// a placed record (they were running when lost), so the conservation
    /// identity stays `admitted == placed + unplaced` with
    /// `failed_permanently ≤ placed`.
    #[serde(default)]
    pub failed_permanently: usize,
}

impl SimResult {
    /// Latency statistics over tasks whose truth group satisfies `pred`.
    pub fn latency_where(&self, pred: impl Fn(u8) -> bool) -> Option<LatencyStats> {
        let samples: Vec<u64> = self
            .placed
            .iter()
            .filter(|r| pred(r.truth_group))
            .map(|r| r.latency)
            .collect();
        // One gather, sorted in place — no second snapshot copy.
        LatencyStats::from_vec(samples)
    }

    /// Latency statistics for Group 0 (single-suitable-node) tasks.
    pub fn group0_latency(&self) -> Option<LatencyStats> {
        self.latency_where(|g| g == 0)
    }

    /// Latency statistics for everything else.
    pub fn other_latency(&self) -> Option<LatencyStats> {
        self.latency_where(|g| g != 0)
    }
}

/// Sim-plane engine telemetry: always-on placement-outcome and admission
/// counters plus queue-depth histograms.
///
/// Everything here is a pure function of the (deterministic) event
/// sequence — identical across thread counts and with/without metrics
/// export — and maintaining it is a few integer increments per event
/// with zero allocation (the histograms are fixed arrays), so it stays
/// inside the zero-allocation scheduling-pass contract.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Tasks placed without preemption.
    pub placed: u64,
    /// Tasks placed after evicting preemption victims.
    pub placed_with_preemption: u64,
    /// Tasks dropped as infeasible (no machine can ever suit them).
    pub infeasible: u64,
    /// `NoCapacity` outcomes — suitable machines existed but none had
    /// room; the task burned a cycle slot and went back to its queue.
    pub no_capacity: u64,
    /// Admissions from the arrival list or stream
    /// (`SchedEvent::Arrival`).
    pub admitted_arrivals: u64,
    /// Dynamic admissions (`SchedEvent::Admit` — spill-ins, online
    /// feeds).
    pub admitted_dynamic: u64,
    /// Gang members admitted (`SchedEvent::GangArrival`).
    pub admitted_gang_members: u64,
    /// Tasks this cell declined at arrival time and emitted to the epoch
    /// outbox as `SchedEvent::SpillRequest`.
    pub spill_requests: u64,
    /// Spill requests routed to a sibling cell.
    pub spilled_out: u64,
    /// Spill requests that timed out in a link outage and bounced home.
    pub link_timeouts: u64,
    /// Scheduler passes executed.
    pub cycles: u64,
    /// High-priority-queue depth, sampled at the start of every pass.
    pub hp_depth: Histogram,
    /// Main-queue depth, sampled at the start of every pass.
    pub main_depth: Histogram,
}

/// How the coordinator resolved a spill request — the `route` of
/// [`EngineState::resolve_spill`](crate::engine::EngineState::resolve_spill).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpillRoute {
    /// The home cell can admit the task after all; it arrives there.
    Home,
    /// Emitted inside a link outage: it bounces back to the home queue
    /// once the outage clears.
    LinkTimeout,
    /// Cloned away to a sibling cell; the home arena slot retires.
    Sibling,
}

/// How a task entered the cell.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Admission {
    Arrival,
    Dynamic,
    Gang,
}

/// What made a placement: the named placer into free room, the named
/// placer after evicting victims, or atomic gang placement.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Via {
    Placer(&'static str),
    Preempting(&'static str),
    Gang,
}

/// Why a running task left its machine.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Exit {
    Finished,
    /// Evicted for the task with this id.
    Preempted(TaskId),
    Drained,
    Crashed,
}

/// One lifecycle transition (see the module table). Tasks still queued
/// are named by arena index, running ones by the id the cluster knows.
pub(crate) enum Step {
    Admitted(usize, Admission),
    /// With the reason the cell declined the task.
    Spilled(usize, &'static str),
    /// With the route and the cell the task lands in.
    SpillResolved(usize, SpillRoute, usize),
    /// A scheduler pass starts with these high-priority and main queue
    /// depths.
    Pass(usize, usize),
    NoCapacity(usize),
    /// Arena index, machine, placement epoch, what decided. Reported
    /// *before* the cluster reservation, so the decision audit reads the
    /// capacity index as the placer saw it.
    Placed(usize, MachineId, u64, Via),
    GangPlaced,
    /// With the plan (placer) that found no machine can ever suit it.
    Infeasible(usize, &'static str),
    Left(TaskId, MachineId, Exit),
    BackoffElapsed(usize),
    MachineCrashed(MachineId),
    MachineDrained(MachineId),
    MachineRestored(MachineId),
    MachineJoined(MachineId),
    /// The machine's attribute was set or cleared.
    AttrUpdated(MachineId, AttrId),
    /// A control-plane decision: kind, cause, plan, payload words a, b.
    Control(&'static str, &'static str, &'static str, u64, u64),
    /// The fault plane took the machine from the named lifecycle owner.
    ClaimOverridden(MachineId, &'static str),
}

impl Step {
    /// The step as one fixed-shape ring record (the module table's last
    /// column): a static kind tag and two payload words — no formatting,
    /// no allocation. Reads the arena, so it runs before the step
    /// releases a slot.
    fn event(&self, slab: &TaskSlab<'_>, time: u64) -> TraceEvent {
        let id_of = |idx: usize| slab.get(idx).id;
        let (kind, a, b) = match *self {
            Step::Admitted(idx, Admission::Arrival) => ("admit_arrival", id_of(idx), 0),
            Step::Admitted(idx, Admission::Dynamic) => ("admit_dynamic", id_of(idx), 0),
            Step::Admitted(idx, Admission::Gang) => ("admit_gang", id_of(idx), 0),
            Step::Spilled(idx, _) => ("spilled", id_of(idx), 0),
            Step::SpillResolved(idx, _, cell) => ("spill_resolved", id_of(idx), cell as u64),
            Step::Pass(hp, main) => ("pass", hp as u64, main as u64),
            Step::NoCapacity(idx) => ("no_capacity", id_of(idx), 0),
            Step::Placed(idx, machine, ..) => ("placed", id_of(idx), machine),
            Step::GangPlaced => ("gang_placed", 0, 0),
            Step::Infeasible(idx, _) => ("infeasible", id_of(idx), 0),
            Step::Left(task, machine, Exit::Finished) => ("finished", task, machine),
            Step::Left(task, machine, Exit::Preempted(_)) => ("preempted", task, machine),
            Step::Left(task, machine, Exit::Drained) => ("drained", task, machine),
            Step::Left(task, machine, Exit::Crashed) => ("lost", task, machine),
            Step::BackoffElapsed(idx) => ("backoff_elapsed", id_of(idx), 0),
            Step::MachineCrashed(id) => ("machine_crashed", id, 0),
            Step::MachineDrained(id) => ("machine_drained", id, 0),
            Step::MachineRestored(id) => ("machine_restored", id, 0),
            Step::MachineJoined(id) => ("machine_joined", id, 0),
            Step::AttrUpdated(id, attr) => ("attr_update", id, attr.into()),
            Step::Control(kind, _, _, a, b) => (kind, a, b),
            Step::ClaimOverridden(id, _) => ("claim_override", id, 0),
        };
        TraceEvent { time, kind, a, b }
    }
}

/// What the engine owes a task after a transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Next {
    Done,
    /// Back into a queue (arena index).
    Requeue(usize),
    /// A `TaskRetry` for the arena index after the backoff delay.
    Retry(usize, SimDuration),
}

/// Where a placed, unterminated task is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// On `machine`; `epoch` names the placement (stale completions of
    /// an earlier one fail the match). `since` = placement time.
    Running { machine: MachineId, epoch: u64 },
    /// Drained off its machine, back in a queue.
    Requeued,
    /// Crash-lost and not running again yet: backing off, then queued
    /// for the retry. `since` = loss time.
    RetryWait,
}

/// A task that holds a placed record and has not terminated.
#[derive(Clone, Copy, Debug)]
struct Live {
    /// Arena index.
    idx: usize,
    /// Index of its [`PlacedRecord`] in the result.
    record: usize,
    phase: Phase,
    since: SimTime,
    /// Crash losses charged against the retry budget.
    losses: u32,
}

/// The optional fault runtime: the retry policy, its dedicated seeded
/// jitter RNG and the fault telemetry. Boxed behind `Option` so
/// fault-free simulations carry one null-pointer-sized field.
struct FaultRuntime {
    policy: Box<dyn RetryPolicy>,
    rng: StdRng,
    stats: FaultStats,
}

/// Writes to the flight recorder when it is on.
fn rec(spans: &mut Option<SpanLog>, write: impl FnOnce(&mut SpanLog)) {
    if let Some(log) = spans {
        write(log);
    }
}

/// A cell's whole accounting: counters, result, the live-task table, the
/// fault runtime, the flight recorder and the event ring — what every
/// observer of a cell reads, through
/// [`EngineState::ledger`](crate::engine::EngineState::ledger).
///
/// The engine reports each lifecycle transition here as one step, and
/// only the ledger turns it into counters, a result record, a span and a
/// ring entry, so no two of them can disagree about what happened.
pub struct Ledger {
    stats: EngineStats,
    result: SimResult,
    live: IdMap<TaskId, Live>,
    faults: Option<Box<FaultRuntime>>,
    spans: Option<SpanLog>,
    /// Bounded ring of the last steps; `None` (the default) records
    /// nothing.
    trace: Option<TraceRing>,
}

impl Ledger {
    /// A ledger sized for `n` known arrivals, so steady-state passes
    /// never grow the record list or the table (streamed and dynamically
    /// admitted tasks may still grow them).
    pub(crate) fn new(n: usize) -> Self {
        let mut result = SimResult::default();
        result.placed.reserve(n);
        Self {
            stats: EngineStats::default(),
            result,
            live: IdMap::with_capacity_and_hasher(n, Default::default()),
            faults: None,
            spans: None,
            trace: None,
        }
    }

    /// The sim-plane telemetry counters and histograms accumulated so
    /// far. Always maintained (the cost is a handful of integer adds per
    /// step); exporters snapshot this after the run.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Cumulative task admissions (fresh arrivals, dynamic admits and
    /// gang members; churn requeues are *not* re-counted).
    pub fn admitted(&self) -> u64 {
        let s = &self.stats;
        s.admitted_arrivals + s.admitted_dynamic + s.admitted_gang_members
    }

    /// Switches on the fault-plane runtime: crash-lost tasks consult
    /// `policy` (jitter drawn from a dedicated RNG seeded with `seed`)
    /// and are rescheduled or dead-lettered. Without it, a delivered
    /// [`SchedEvent::MachineCrash`](crate::engine::SchedEvent::MachineCrash)
    /// dead-letters every lost task immediately.
    pub fn enable_faults(&mut self, policy: Box<dyn RetryPolicy>, seed: u64) {
        let rng = StdRng::seed_from_u64(seed ^ 0xFA17_4E77);
        let stats = FaultStats::default();
        self.faults = Some(Box::new(FaultRuntime { policy, rng, stats }));
    }

    /// The fault runtime's counters and histograms, when
    /// [`Ledger::enable_faults`] switched it on.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_deref().map(|f| &f.stats)
    }

    /// Counts replacement machines the control plane ordered against
    /// crash-induced capacity loss (no-op when the fault plane is off).
    pub fn note_replacements(&mut self, n: u64) {
        if let Some(f) = self.faults.as_deref_mut() {
            f.stats.replacements_ordered += n;
        }
    }

    /// Switches on the causal flight recorder (idempotent);
    /// [`Ledger::take_spans`] hands the log over after the run.
    ///
    /// Recording is sim-plane only, so the log is byte-identical across
    /// `execution.threads`, and span storage grows only on lifecycle
    /// *transitions* — steady-state scheduling passes update open spans
    /// in place without allocating.
    pub fn enable_spans(&mut self) {
        self.spans.get_or_insert_with(SpanLog::default);
    }

    /// Takes the recorded span log out (after the run), leaving the
    /// recorder disabled. Finish the run first
    /// ([`EngineState::finish`](crate::engine::EngineState::finish)) so
    /// open spans are closed at the horizon.
    pub fn take_spans(&mut self) -> Option<SpanLog> {
        self.spans.take()
    }

    /// Switches on the event ring: the last `capacity` steps are kept in
    /// a preallocated ring (a `capacity` of 0 turns it back off).
    /// Recording into a full ring overwrites the oldest entry and never
    /// allocates, so the ring is compatible with the zero-allocation
    /// scheduling-pass contract once it exists.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = (capacity > 0).then(|| TraceRing::new(capacity));
    }

    /// The event ring, when [`Ledger::enable_trace`] switched it on.
    pub fn trace(&self) -> Option<&TraceRing> {
        self.trace.as_ref()
    }

    /// True while `task` runs placement `epoch` on `machine` — false
    /// for a completion made stale by a preemption, drain or crash.
    pub(crate) fn runs(&self, task: TaskId, machine: MachineId, epoch: u64) -> bool {
        let now = Phase::Running { machine, epoch };
        self.live.get(&task).is_some_and(|l| l.phase == now)
    }

    /// A task leaves the system short of completion. The one statement
    /// of the rule: it counts as `unplaced` iff it never earned a placed
    /// record. Returns the table entry of one that did.
    fn end_short(&mut self, task: TaskId) -> Option<Live> {
        let held = self.live.remove(&task);
        self.result.unplaced += usize::from(held.is_none());
        held
    }

    /// Records one transition at sim time `now`. Reads the arena and the
    /// cluster (for the decision audit); writes only the ledger — and
    /// releases the arena slot of a task that is gone.
    pub(crate) fn transition(
        &mut self,
        slab: &mut TaskSlab<'_>,
        cluster: &SchedCluster,
        now: SimTime,
        step: Step,
    ) -> Next {
        let us = now.as_micros();
        if let Some(ring) = &mut self.trace {
            ring.push(step.event(slab, us));
        }
        let spans = &mut self.spans;
        match step {
            Step::Admitted(idx, cause) => {
                let (count, cause) = match cause {
                    Admission::Arrival => (&mut self.stats.admitted_arrivals, "arrival"),
                    Admission::Dynamic => (&mut self.stats.admitted_dynamic, "dynamic"),
                    Admission::Gang => (&mut self.stats.admitted_gang_members, "gang"),
                };
                *count += 1;
                rec(spans, |l| {
                    l.open_task(slab.get(idx).id, "queued", us, cause)
                });
            }
            Step::Spilled(idx, reason) => {
                self.stats.spill_requests += 1;
                rec(spans, |l| {
                    l.open_task(slab.get(idx).id, "spill_transit", us, reason)
                });
            }
            Step::SpillResolved(idx, route, cell) => {
                let outcome = match route {
                    SpillRoute::Home => "routed_home",
                    SpillRoute::LinkTimeout => "link_timeout",
                    SpillRoute::Sibling => "routed",
                };
                self.stats.link_timeouts += u64::from(route == SpillRoute::LinkTimeout);
                rec(spans, |l| {
                    l.close_task_with(slab.get(idx).id, us, outcome, "", "", cell as u64, 0)
                });
                if route == SpillRoute::Sibling {
                    self.stats.spilled_out += 1;
                    slab.release(idx);
                }
            }
            Step::Pass(hp, main) => {
                self.stats.cycles += 1;
                self.stats.hp_depth.record(hp as u64);
                self.stats.main_depth.record(main as u64);
            }
            // The hot one (several per placement under load): a counter
            // and, recorder on, an in-place span update — no lookup.
            Step::NoCapacity(idx) => {
                self.stats.no_capacity += 1;
                rec(spans, |l| {
                    let t = slab.get(idx);
                    l.note_attempt(t.id, cluster.candidate_estimate(&t.reqs) as u64)
                });
            }
            Step::Placed(idx, machine, epoch, via) => {
                let t = slab.get(idx);
                let (count, plan) = match via {
                    Via::Placer(name) => (Some(&mut self.stats.placed), name),
                    Via::Preempting(name) => (Some(&mut self.stats.placed_with_preemption), name),
                    Via::Gang => (None, "gang"),
                };
                if let Some(count) = count {
                    *count += 1;
                }
                rec(spans, |l| {
                    let cand = cluster.candidate_estimate(&t.reqs) as u64;
                    let arm = cluster.plan_hint(&t.reqs);
                    l.close_task_with(t.id, us, "placed", plan, arm, machine, cand);
                    l.open_task_full(t.id, "running", us, "placed", plan, arm, 0, machine, cand);
                });
                // The first placement earns the task's one record and its
                // table entry (as if requeued, for the moment).
                let placed = &mut self.result.placed;
                let live = self.live.entry(t.id).or_insert_with(|| {
                    placed.push(PlacedRecord {
                        task: t.id,
                        truth_group: t.truth_group,
                        latency: now.since(t.arrival).as_micros(),
                        was_preempted: false,
                    });
                    Live {
                        idx,
                        record: placed.len() - 1,
                        phase: Phase::Requeued,
                        since: now,
                        losses: 0,
                    }
                });
                let queued = !matches!(live.phase, Phase::Running { .. });
                debug_assert!(queued, "task {} placed while running", t.id);
                if let (Phase::RetryWait, Some(f)) = (live.phase, &mut self.faults) {
                    f.stats.reschedule.record(now.since(live.since).as_micros());
                }
                (live.phase, live.since) = (Phase::Running { machine, epoch }, now);
            }
            Step::GangPlaced => self.result.gangs_placed += 1,
            Step::Infeasible(idx, plan) => {
                let task = slab.get(idx).id;
                self.stats.infeasible += 1;
                rec(spans, |l| {
                    l.close_task_with(task, us, "infeasible", plan, "", 0, 0)
                });
                // A requeued or retried task whose every suitable machine
                // has left keeps its placed record; under the fault
                // runtime it dead-letters.
                if let (Some(held), Some(f)) = (self.end_short(task), &mut self.faults) {
                    self.result.failed_permanently += 1;
                    f.stats.dead_lettered += 1;
                    let losses = held.losses.into();
                    rec(&mut self.spans, |l| {
                        l.instant_task(task, "dead_letter", us, "infeasible", plan, "", losses, 0)
                    });
                }
                slab.release(idx);
            }
            Step::Left(task, machine, why) => return self.left(slab, task, machine, why, now),
            Step::BackoffElapsed(idx) => {
                let task = slab.get(idx).id;
                let lost = |l: &Live| l.phase == Phase::RetryWait;
                debug_assert!(
                    self.live.get(&task).is_some_and(lost),
                    "task {task} was not lost"
                );
                rec(spans, |l| {
                    l.close_task(task, us, "backoff_elapsed");
                    l.open_task(task, "queued", us, "retry");
                });
            }
            Step::MachineCrashed(id) => {
                if let Some(f) = &mut self.faults {
                    f.stats.crashed_machines += 1;
                }
                rec(spans, |l| {
                    l.open_machine(id, "machine_down", us, "crash", "")
                });
            }
            Step::MachineDrained(id) => rec(spans, |l| {
                l.open_machine(id, "machine_drain", us, "drain", "")
            }),
            Step::MachineRestored(id) => rec(spans, |l| l.close_machine(id, us, "restored")),
            // A rejoin ends the window its drain or crash opened.
            Step::MachineJoined(id) => rec(spans, |l| {
                l.close_machine(id, us, "joined");
                l.instant_ctrl(id, "machine_join", us, "join", "", "", 0, 0)
            }),
            Step::AttrUpdated(..) => {}
            Step::Control(kind, cause, plan, a, b) => rec(spans, |l| {
                l.instant_ctrl(0, kind, us, cause, plan, "", a, b)
            }),
            Step::ClaimOverridden(id, owner) => rec(spans, |l| {
                l.instant_ctrl(id, "claim_override", us, "crash", "fault", owner, 0, 0)
            }),
        }
        Next::Done
    }

    /// A running task leaves its machine. Whatever the reason, it must
    /// *be* running (no double finish; no finish, eviction, drain or
    /// crash of a task that is queued, backing off or gone), and one
    /// that is gone for good leaves the table and frees its arena slot.
    fn left(
        &mut self,
        slab: &mut TaskSlab<'_>,
        task: TaskId,
        machine: MachineId,
        why: Exit,
        now: SimTime,
    ) -> Next {
        let us = now.as_micros();
        let spans = &mut self.spans;
        let entry = match self.live.entry(task) {
            Entry::Occupied(e) if matches!(e.get().phase, Phase::Running { .. }) => Some(e),
            _ => None,
        };
        debug_assert!(entry.is_some(), "task {task} left ({why:?}), not running");
        let Some(mut entry) = entry else {
            return Next::Done;
        };
        let live = entry.get_mut();
        match why {
            Exit::Finished => rec(spans, |l| l.close_task(task, us, "finished")),
            // Kubernetes-style: the victim loses its slot and never
            // re-enters a queue (rescheduling checkpointed work is out
            // of scope for the latency experiment).
            Exit::Preempted(by) => {
                rec(spans, |l| {
                    l.close_task_with(task, us, "preempted", "", "", machine, by)
                });
                self.result.preemptions += 1;
                self.result.placed[live.record].was_preempted = true;
            }
            Exit::Drained => {
                live.phase = Phase::Requeued;
                self.result.churn_rescheduled += 1;
                rec(spans, |l| {
                    l.close_task(task, us, "machine_drain");
                    l.open_task(task, "queued", us, "churn_requeue");
                });
                return Next::Requeue(live.idx);
            }
            // Lost: charged against the retry budget — rescheduled after
            // a backoff delay, or (budget spent, or no fault runtime at
            // all) dead-lettered.
            Exit::Crashed => {
                let (delay, policy) = match &mut self.faults {
                    Some(f) => {
                        live.losses += 1;
                        f.stats.tasks_lost += 1;
                        f.stats.lost_work_us += now.since(live.since).as_micros();
                        let delay = f.policy.delay(live.losses, &mut f.rng);
                        match delay {
                            Some(d) => {
                                f.stats.retries_scheduled += 1;
                                f.stats.backoff.record(d.as_micros());
                            }
                            None => f.stats.dead_lettered += 1,
                        }
                        (delay, f.policy.name())
                    }
                    None => (None, "none"),
                };
                let (crash, losses) = ("machine_crash", live.losses.into());
                rec(spans, |l| l.close_task(task, us, crash));
                if let Some(d) = delay {
                    (live.phase, live.since) = (Phase::RetryWait, now);
                    rec(spans, |l| {
                        let wait = "retry_wait";
                        let d = d.as_micros();
                        l.open_task_full(task, wait, us, crash, policy, "", losses, d, machine)
                    });
                    return Next::Retry(live.idx, d);
                }
                rec(spans, |l| {
                    let spent = "budget_exhausted";
                    l.instant_task(task, "dead_letter", us, spent, policy, "", losses, machine)
                });
                self.result.failed_permanently += 1;
            }
        }
        slab.release(entry.remove().idx);
        Next::Done
    }

    /// Ends the run: spans still open (queued, running, retry_wait,
    /// machine_down, …) close deterministically at the horizon, every
    /// task still `queued` (arena indices) ends short, and the result
    /// leaves the ledger.
    pub(crate) fn finish(
        &mut self,
        slab: &TaskSlab<'_>,
        horizon: SimTime,
        queued: impl Iterator<Item = usize>,
    ) -> SimResult {
        rec(&mut self.spans, |l| l.close_all(horizon.as_micros()));
        for idx in queued {
            self.end_short(slab.get(idx).id);
        }
        let ended = (self.result.placed.len() + self.result.unplaced) as u64;
        debug_assert_eq!(self.admitted(), ended, "admitted == placed + unplaced");
        if let Some(f) = self.fault_stats() {
            // No silently hung task: every dead-letter reached the
            // result's terminal counter, and every loss scheduled a
            // retry or dead-lettered.
            let dead = self.result.failed_permanently as u64;
            assert_eq!(f.dead_lettered, dead, "dead-letter stats == result");
            assert!(
                f.retries_scheduled + f.dead_lettered >= f.tasks_lost,
                "lost tasks unaccounted for: lost {} > retried {} + dead-lettered {}",
                f.tasks_lost,
                f.retries_scheduled,
                f.dead_lettered
            );
        }
        std::mem::take(&mut self.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FixedRetry;
    use crate::queue::PendingTask;
    use ctlm_trace::Machine;

    fn task(id: TaskId, arrival: u64) -> PendingTask {
        PendingTask {
            id,
            collection: 1,
            cpu: 0.1,
            memory: 0.1,
            priority: 2,
            reqs: vec![],
            arrival: SimTime::from_micros(arrival),
            truth_group: 25,
        }
    }

    fn cluster() -> SchedCluster {
        SchedCluster::from_machines(vec![Machine::new(0, 1.0, 1.0), Machine::new(1, 1.0, 1.0)])
    }

    /// The ledger under test, driven step by step — no kernel, no engine.
    struct Bench<'a> {
        ledger: Ledger,
        slab: TaskSlab<'a>,
        cluster: SchedCluster,
        epoch: u64,
    }

    impl<'a> Bench<'a> {
        fn over(list: &'a [PendingTask]) -> Self {
            Self {
                ledger: Ledger::new(list.len()),
                slab: TaskSlab::over(list),
                cluster: cluster(),
                epoch: 0,
            }
        }

        fn step(&mut self, now: u64, step: Step) -> Next {
            let now = SimTime::from_micros(now);
            self.ledger
                .transition(&mut self.slab, &self.cluster, now, step)
        }

        fn admit(&mut self, idx: usize, now: u64) {
            self.step(now, Step::Admitted(idx, Admission::Arrival));
        }

        /// Places `idx` on `machine`, returning the placement's epoch.
        fn place(&mut self, idx: usize, machine: MachineId, now: u64) -> u64 {
            self.epoch += 1;
            let epoch = self.epoch;
            self.step(now, Step::Placed(idx, machine, epoch, Via::Placer("test")));
            epoch
        }

        fn finish(&mut self, queued: &[usize]) -> SimResult {
            self.ledger.finish(
                &self.slab,
                SimTime::from_micros(1_000_000),
                queued.iter().copied(),
            )
        }
    }

    #[test]
    fn a_drained_and_replaced_task_keeps_its_one_first_placement_record() {
        let list = [task(7, 100)];
        let mut b = Bench::over(&list);
        b.admit(0, 100);
        let first = b.place(0, 0, 400);
        assert_eq!(
            b.step(900, Step::Left(7, 0, Exit::Drained)),
            Next::Requeue(0)
        );
        assert!(!b.ledger.runs(7, 0, first), "a drained placement is stale");
        let second = b.place(0, 1, 1_500);
        assert!(b.ledger.runs(7, 1, second));
        let r = b.finish(&[]);
        let record = PlacedRecord {
            task: 7,
            truth_group: 25,
            latency: 300,
            was_preempted: false,
        };
        assert_eq!(r.placed, [record]);
        assert_eq!((r.churn_rescheduled, r.unplaced), (1, 0));
    }

    #[test]
    fn a_preemption_flags_the_victims_record_not_the_preemptors() {
        let list = [task(1, 0), task(2, 0), task(3, 50)];
        let mut b = Bench::over(&list);
        for (idx, t) in list.iter().enumerate() {
            b.admit(idx, t.arrival.as_micros());
        }
        b.place(0, 1, 10);
        b.place(1, 0, 10);
        b.step(60, Step::Left(2, 0, Exit::Preempted(3)));
        b.place(2, 0, 60);
        let r = b.finish(&[]);
        let flagged: Vec<_> = r.placed.iter().map(|p| (p.task, p.was_preempted)).collect();
        assert_eq!(flagged, [(1, false), (2, true), (3, false)]);
        assert_eq!(r.preemptions, 1);
    }

    #[test]
    fn a_loss_is_rescheduled_once_and_forgotten_when_the_task_finishes() {
        let mut b = Bench::over(&[]);
        let retry = FixedRetry {
            delay: SimDuration::from_micros(500),
            budget: 1,
        };
        b.ledger.enable_faults(Box::new(retry), 3);
        let (idx, _) = b.slab.push_sealed(vec![task(7, 0)]);
        b.admit(idx, 0);
        b.place(idx, 0, 100);
        let lost = Step::Left(7, 0, Exit::Crashed);
        assert_eq!(
            b.step(1_000, lost),
            Next::Retry(idx, SimDuration::from_micros(500))
        );
        b.step(1_500, Step::BackoffElapsed(idx));
        b.place(idx, 1, 2_000);
        // A later drain is not a loss: re-placing after it samples nothing.
        b.step(2_500, Step::Left(7, 1, Exit::Drained));
        let last = b.place(idx, 0, 3_000);
        let f = b.ledger.fault_stats().expect("fault runtime on");
        assert_eq!((f.reschedule.count(), f.reschedule.sum()), (1, 1_000));
        assert_eq!((f.tasks_lost, f.lost_work_us), (1, 900));
        assert!(b.ledger.runs(7, 0, last));
        b.step(4_000, Step::Left(7, 0, Exit::Finished));
        assert!(b.ledger.live.is_empty());
        assert_eq!(b.slab.retired(), 1, "the drained segment retired");
        // The next chunk reuses the retired buffer. Its task — same id,
        // even — starts on a full budget: a carried-over loss would make
        // this second one exceed the budget of 1 and dead-letter.
        let (idx, _) = b.slab.push_sealed(vec![task(7, 5_000)]);
        b.admit(idx, 5_000);
        b.place(idx, 0, 5_100);
        let lost = Step::Left(7, 0, Exit::Crashed);
        assert_eq!(
            b.step(6_000, lost),
            Next::Retry(idx, SimDuration::from_micros(500))
        );
    }

    #[test]
    fn only_a_task_without_a_placed_record_ends_unplaced() {
        let list = [task(1, 0), task(2, 0), task(3, 0)];
        let mut b = Bench::over(&list);
        for idx in 0..3 {
            b.admit(idx, 0);
        }
        // 1 never places and turns infeasible; 2 places, is drained and
        // then turns infeasible; 3 is still queued at the horizon.
        b.step(10, Step::Infeasible(0, "test"));
        b.place(1, 0, 10);
        b.step(20, Step::Left(2, 0, Exit::Drained));
        b.step(30, Step::Infeasible(1, "test"));
        let r = b.finish(&[2]);
        assert_eq!((r.placed.len(), r.unplaced), (1, 2));
        assert_eq!(r.failed_permanently, 0, "no fault runtime, no dead letter");
        assert_eq!(b.ledger.stats().infeasible, 2);
    }

    #[test]
    fn the_ring_records_every_step_in_order_with_its_task_ids() {
        let list = [task(7, 0), task(8, 0)];
        let mut b = Bench::over(&list);
        b.ledger.enable_trace(16);
        b.admit(0, 0);
        b.admit(1, 0);
        b.step(10, Step::Pass(0, 2));
        b.step(10, Step::NoCapacity(1));
        b.place(0, 1, 10);
        // The step releases task 8's slot; the ring still names it.
        b.step(20, Step::Infeasible(1, "test"));
        b.step(30, Step::AttrUpdated(1, 4));
        b.step(40, Step::Left(7, 1, Exit::Drained));
        b.step(50, Step::Control("scale_up", "demand", "test", 2, 1));
        let ring = b.ledger.trace().expect("ring on");
        let seen: Vec<_> = ring.iter().map(|e| (e.time, e.kind, e.a, e.b)).collect();
        assert_eq!(
            seen,
            [
                (0, "admit_arrival", 7, 0),
                (0, "admit_arrival", 8, 0),
                (10, "pass", 0, 2),
                (10, "no_capacity", 8, 0),
                (10, "placed", 7, 1),
                (20, "infeasible", 8, 0),
                (30, "attr_update", 1, 4),
                (40, "drained", 7, 1),
                (50, "scale_up", 2, 1),
            ]
        );
        // The counters read the same stream.
        let s = b.ledger.stats();
        assert_eq!(
            (s.cycles, s.no_capacity, s.placed, s.infeasible),
            (1, 1, 1, 1)
        );
        b.ledger.enable_trace(0);
        b.step(60, Step::Pass(1, 0));
        assert!(b.ledger.trace().is_none(), "capacity 0 turns the ring off");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not running")]
    fn a_double_finish_is_illegal() {
        let list = [task(7, 0)];
        let mut b = Bench::over(&list);
        b.admit(0, 0);
        b.place(0, 0, 10);
        b.step(20, Step::Left(7, 0, Exit::Finished));
        b.step(20, Step::Left(7, 0, Exit::Finished));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not running")]
    fn finishing_a_never_placed_task_is_illegal() {
        let list = [task(7, 0)];
        let mut b = Bench::over(&list);
        b.admit(0, 0);
        b.step(20, Step::Left(7, 0, Exit::Finished));
    }
}
