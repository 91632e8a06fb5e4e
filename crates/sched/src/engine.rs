//! The scheduling simulation, hosted on the `ctlm-sim` event kernel.
//!
//! Reproduces the Fig. 3 experiment: identical task arrivals are pushed
//! through (a) a conventional main-scheduler-only pipeline and (b) the
//! enhanced pipeline where the Task CO Analyzer routes restrictive tasks
//! to a High-Priority Scheduler served ahead of the main queue (with the
//! Kubernetes-style preemption fallback). The output is scheduling
//! latency per ground-truth suitable-node group.
//!
//! The simulation is a set of kernel components exchanging
//! [`SchedEvent`]s on one timeline:
//!
//! * [`ArrivalFeed`] — walks the cell's arrivals (a borrowed list, or
//!   chunks pulled from an [`ArrivalStream`]) and emits admission events
//!   at each task's arrival time;
//! * [`CycleTimer`] — fires the scheduler pass every `cycle` µs;
//! * [`EngineComponent`] — owns the cluster and the queues; handles
//!   admissions, scheduler passes, task completions, machine churn and
//!   gang arrivals.
//!
//! The first two — like every scenario source, the fault plane and the
//! autoscaler — are [`TimedSource`]s: they state when they next act and
//! what they do then, and the one walker behind
//! [`attach`] wakes and re-arms them.
//!
//! This module only *schedules*: it routes, places, draws runtimes and
//! emits events. What each step of a task's life records — counters,
//! the result, the retry budget, the flight-recorder span, the event
//! ring entry, which arena slots are dead — is the [`Ledger`]'s decision
//! alone; the engine reports every transition there as one `Step`, and
//! observers read the ledger through [`EngineState::ledger`].
//!
//! Intra-instant ordering is pinned by kernel delivery classes: at one
//! timestamp, completions and machine-state changes ([`PRIO_STATE`])
//! deliver before admissions ([`PRIO_ADMIT`]), which deliver before the
//! scheduling pass ([`PRIO_PASS`]) — the same phase order the old
//! monolithic loop hardcoded, now explicit and shared with any scenario
//! component that joins the simulation (churn, trace feeds, rollouts).
//!
//! The contention mechanics matter: the main scheduler examines a bounded
//! number of queue heads per cycle (head-of-line pressure), so a
//! restrictive task that misses its single suitable node keeps cycling to
//! the back — exactly the pathology the paper's analyzer removes.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use ctlm_data::compaction::{collapse, AttrRequirement};
use ctlm_sim::{CompId, Component, Ctx, Event, Sim};
use ctlm_trace::{
    AttrId, AttrValue, EventPayload, GeneratedTrace, Machine, MachineId, Micros, TaskId,
};

use crate::arena::TaskSlab;
use crate::cluster::{CapacityFit, SchedCluster};
use crate::ledger::{Admission, Exit, Next, Step, Via};
pub use crate::ledger::{EngineStats, Ledger, PlacedRecord, SimResult, SpillRoute};
use crate::lifecycle::LifecycleOwner;
use crate::placement::{BestFit, PlaceCtx, Placement, Placer, PreemptiveBestFit};
use crate::queue::PendingTask;
use crate::scheduler::Scheduler;
use crate::stream::{ArrivalFeed, ArrivalStream, Arrivals};
use crate::timed::{attach, next_tick, TimedSource};

/// Delivery class for completions and machine-state changes — first at a
/// timestamp.
pub const PRIO_STATE: u8 = 0;
/// Delivery class for task admissions — after state changes.
pub const PRIO_ADMIT: u8 = 1;
/// Delivery class for the scheduling pass — last at a timestamp.
pub const PRIO_PASS: u8 = 2;

/// Events exchanged by the scheduling simulation's components.
#[derive(Clone, Debug)]
pub enum SchedEvent {
    /// Self-wakeup for source components (arrival source, cycle timer,
    /// churn source, trace feed).
    Wake,
    /// A task from the shared arrival list arrives (index into the
    /// engine's task arena — no task is cloned on admission).
    Arrival(usize),
    /// A dynamically created task arrives (online trace feeds).
    Admit(Box<PendingTask>),
    /// A gang arrives: its member tasks enter the arena together and
    /// must place all-or-nothing.
    GangArrival(Vec<PendingTask>),
    /// Scheduler pass.
    Cycle,
    /// A placed task's runtime elapsed. `epoch` guards against stale
    /// completions after churn re-placed the task elsewhere.
    Finish {
        /// The finishing task.
        task: TaskId,
        /// Machine it was placed on.
        machine: MachineId,
        /// Placement epoch the completion belongs to.
        epoch: u64,
    },
    /// A machine drains (churn / failure): its tasks re-enter the queue.
    MachineFail(MachineId),
    /// A machine *crashes* (fault plane): capacity leaves the index
    /// atomically and running tasks are **lost** — each is charged
    /// against the retry budget and either rescheduled after a backoff
    /// delay ([`SchedEvent::TaskRetry`]) or dead-lettered. Contrast with
    /// [`SchedEvent::MachineFail`], whose graceful drain requeues tasks
    /// immediately.
    MachineCrash(MachineId),
    /// A previously drained machine rejoins empty.
    MachineRestore(MachineId),
    /// A new machine joins the fleet.
    MachineJoin(Box<Machine>),
    /// One machine attribute changes (kernel rollouts and other
    /// vocabulary-growing updates).
    AttrUpdate {
        /// Machine being updated.
        machine: MachineId,
        /// Attribute being set or cleared.
        attr: AttrId,
        /// New value (`None` clears).
        value: Option<AttrValue>,
    },
    /// A task (index into the **home** cell's arrival arena) its home
    /// cell could not admit at arrival time. Emitted cross-shard by a
    /// spilling [`ArrivalFeed`] via the epoch outbox; never delivered to an
    /// engine — the coordinator's barrier hook resolves it into an
    /// [`SchedEvent::Arrival`] (home cell) or [`SchedEvent::Admit`]
    /// (sibling cell) at the epoch boundary.
    SpillRequest(usize),
    /// A crash-lost task's backoff delay elapsed: the task (arena index)
    /// re-enters its queue behind the existing backlog. Admission
    /// counters are *not* re-bumped — the task was admitted exactly once.
    TaskRetry(usize),
}

/// Simulation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Scheduler pass period (µs).
    pub cycle: Micros,
    /// Main-queue placement attempts per cycle (the head-of-line budget).
    pub attempts_per_cycle: usize,
    /// Mean task runtime (µs), exponential.
    pub mean_runtime: Micros,
    /// Give-up horizon (µs) — tasks still pending at the end count as
    /// unplaced.
    pub horizon: Micros,
    /// RNG seed for runtimes.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            cycle: 1_000_000, // 1 s scheduler passes
            attempts_per_cycle: 8,
            mean_runtime: 120_000_000, // 2 min mean runtime
            horizon: 3_600_000_000,    // 1 h
            seed: 0,
        }
    }
}

/// The engine's mutable state, shared between the engine component and
/// the driver via `Rc<RefCell<...>>` (dslab-style).
pub struct EngineState<'a> {
    cfg: SimConfig,
    /// The task arena: the arrival list borrowed from the driver
    /// (admissions reference tasks by index instead of cloning them;
    /// empty for streamed cells) followed by the tasks entering mid-run —
    /// streamed arrival chunks, gang members, dynamic admits. Released
    /// slots let drained chunk segments reclaim their buffers.
    slab: TaskSlab<'a>,
    /// The cluster under scheduling.
    pub cluster: SchedCluster,
    scheduler: &'a mut dyn Scheduler,
    main_placer: &'a dyn Placer,
    hp_placer: &'a dyn Placer,
    hp: VecDeque<usize>,
    main: VecDeque<usize>,
    /// Gangs awaiting retry, as `(start, len)` ranges into the task
    /// arena — gang members are pushed contiguously on arrival, so no
    /// per-gang index list is ever allocated.
    pending_gangs: Vec<(usize, usize)>,
    /// Σ `len` over `pending_gangs`, kept beside it because every
    /// arrival probe and spill re-probe reads it.
    pending_gang_members: usize,
    rng: StdRng,
    /// All accounting — counters, result, the live-task table, the
    /// fault runtime, the flight recorder, the event ring. Every
    /// lifecycle transition is reported there and recorded nowhere else.
    ledger: Ledger,
    next_epoch: u64,
    engine_id: CompId,
    /// Reusable placement scratch threaded through every attempt.
    place_ctx: PlaceCtx,
}

impl<'a> EngineState<'a> {
    fn new(
        cfg: SimConfig,
        cluster: SchedCluster,
        arrivals: &'a [PendingTask],
        scheduler: &'a mut dyn Scheduler,
        main_placer: &'a dyn Placer,
        hp_placer: &'a dyn Placer,
    ) -> Self {
        let n = arrivals.len();
        Self {
            cfg,
            slab: TaskSlab::over(arrivals),
            cluster,
            scheduler,
            main_placer,
            hp_placer,
            hp: VecDeque::with_capacity(n.min(1024)),
            main: VecDeque::with_capacity(n.min(1024)),
            pending_gangs: Vec::new(),
            pending_gang_members: 0,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x5C4E_D111),
            ledger: Ledger::new(n),
            next_epoch: 0,
            engine_id: 0,
            place_ctx: PlaceCtx::new(),
        }
    }

    /// The task behind an arena index.
    ///
    /// # Panics
    /// Panics for released slots — the task finished, was dropped as
    /// infeasible, evicted or dead-lettered, or was cloned away to a
    /// sibling cell ([`EngineState::resolve_spill`]), and its chunk
    /// segment may have reclaimed the buffer.
    pub fn task(&self, idx: usize) -> &PendingTask {
        self.slab.get(idx)
    }

    /// Pulls `stream`'s next time-sorted chunk into the arena as one
    /// index-stable segment — into a buffer recycled from drained chunk
    /// segments when one is available, so steady-state streaming reuses
    /// the same few allocations. Returns the segment's `(start, len)`
    /// arena index range, `None` once the stream is exhausted.
    pub(crate) fn pull_chunk(&mut self, stream: &mut dyn ArrivalStream) -> Option<(usize, usize)> {
        let mut buf = self.slab.take_buffer();
        if stream.refill(&mut buf) == 0 {
            self.slab.recycle_buffer(buf);
            return None;
        }
        Some(self.slab.push_sealed(buf))
    }

    /// Pending main-queue depth (scenario components may inspect it).
    pub fn main_queue_len(&self) -> usize {
        self.main.len()
    }

    /// Pending high-priority-queue depth.
    pub fn hp_queue_len(&self) -> usize {
        self.hp.len()
    }

    /// Gang members awaiting an all-or-nothing retry.
    pub fn pending_gang_members(&self) -> usize {
        debug_assert_eq!(
            self.pending_gang_members,
            self.pending_gangs
                .iter()
                .map(|&(_, len)| len)
                .sum::<usize>()
        );
        self.pending_gang_members
    }

    /// The cell's ledger: counters, the result so far, the fault
    /// runtime's stats, the flight recorder and the event ring —
    /// everything an observer reads.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The ledger, to switch a recorder or the fault runtime on before
    /// the run, note control-plane replacements, or take the span log
    /// after it. Steps can only be reported by the engine itself.
    pub fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    /// Records a control-plane decision (the autoscaler's `scale_up` /
    /// `scale_down` verdicts) as an instant span on the cell's control
    /// track: `plan` is the policy that decided, `a`/`b` the
    /// kind-specific payload words. Lands in the event ring too; no-op
    /// with neither on.
    pub fn control_decision(
        &mut self,
        kind: &'static str,
        now: Micros,
        cause: &'static str,
        plan: &'static str,
        a: u64,
        b: u64,
    ) {
        self.record(now, Step::Control(kind, cause, plan, a, b));
    }

    /// Records the fault plane's crash provenance — whose lifecycle
    /// claim on `machine` the crash displaced (`None`: nobody's) — on
    /// the cell's control track. Called when the crash is decided, ahead
    /// of its delivery, so the record precedes the `machine_down` span
    /// it explains. Lands in the event ring too; no-op with neither on.
    pub fn claim_overridden(
        &mut self,
        machine: MachineId,
        now: Micros,
        by: Option<LifecycleOwner>,
    ) {
        let owner = by.map_or("unclaimed", LifecycleOwner::name);
        self.record(now, Step::ClaimOverridden(machine, owner));
    }

    /// Slab segments retired (fully drained and recycled) so far.
    pub fn slab_retired(&self) -> u64 {
        self.slab.retired()
    }

    /// Slab segments currently resident in memory.
    pub fn slab_resident_segments(&self) -> usize {
        self.slab.resident_segments()
    }

    /// Drains a machine — a [`SchedEvent::MachineFail`] delivery, and the
    /// autoscaler's scale-down hook: its running tasks re-enter
    /// admission (they keep their first-placement latency record; the
    /// reschedule is counted) and the machine is parked offline. `now`
    /// is the caller's sim time. Returns false for unknown machines.
    pub fn drain_machine(&mut self, id: MachineId, now: Micros) -> bool {
        let Some(evicted) = self.cluster.remove_machine(id) else {
            return false;
        };
        self.record(now, Step::MachineDrained(id));
        for (task, ..) in evicted {
            if let Next::Requeue(idx) = self.record(now, Step::Left(task, id, Exit::Drained)) {
                self.enqueue(idx);
            }
        }
        true
    }

    /// Adds a machine to the live fleet (capacity + attribute indexes
    /// update incrementally) — the autoscaler's activation hook,
    /// identical to a [`SchedEvent::MachineJoin`] delivery.
    pub fn admit_machine(&mut self, m: Machine) {
        self.cluster.add_machine(m);
    }

    /// Takes a parked (drained) machine out of the cluster entirely —
    /// see [`SchedCluster::take_offline`]. The decommission /
    /// warm-parking hook.
    pub fn take_offline_machine(&mut self, id: MachineId) -> Option<Machine> {
        self.cluster.take_offline(id)
    }

    /// True when this cell could admit `task` right now: at least one
    /// suitable machine exists *and* currently has capacity, *and* the
    /// admission queues hold less than one cycle's placement budget.
    /// The backlog term matters under sustained overload: completions
    /// drip capacity back between cycle passes, so a pure capacity
    /// probe stays green at most arrival instants even while the queue
    /// grows without bound. Spillover routers in multi-cell simulations
    /// consult this before forwarding a task to another cell; the probe
    /// streams the capacity index so per-task routing stays
    /// allocation-free.
    pub fn can_admit(&self, task: &PendingTask) -> bool {
        self.rejection(task).is_none()
    }

    /// Why [`EngineState::can_admit`] says no right now (`None`: it says
    /// yes) — the reason a spill's transit span opens with.
    pub(crate) fn rejection(&self, task: &PendingTask) -> Option<&'static str> {
        let backlog = self.hp.len() + self.main.len() + self.pending_gang_members();
        if backlog >= self.cfg.attempts_per_cycle {
            return Some("backlog_full");
        }
        match self.cluster.tightest_fit(&task.reqs, task.cpu, task.memory) {
            CapacityFit::Fit(_) => None,
            CapacityFit::NoCapacity => Some("no_capacity"),
            CapacityFit::Infeasible => Some("infeasible"),
        }
    }

    /// The arrival feed just emitted the task to the epoch outbox as a
    /// [`SchedEvent::SpillRequest`]; `reason` is its
    /// [`EngineState::rejection`].
    pub(crate) fn spilled(&mut self, idx: usize, now: Micros, reason: &'static str) {
        self.record(now, Step::Spilled(idx, reason));
    }

    /// The coordinator's barrier hook resolved a
    /// [`SchedEvent::SpillRequest`]: the task lands in cell `cell` (the
    /// home cell's own index unless `route` is [`SpillRoute::Sibling`])
    /// at time `at`. Closes the transit span and, for a task cloned away
    /// to a sibling, retires the home arena slot — clone it first.
    pub fn resolve_spill(&mut self, idx: usize, at: Micros, route: SpillRoute, cell: usize) {
        self.record(at, Step::SpillResolved(idx, route, cell));
    }

    /// Reports one lifecycle transition to the ledger.
    fn record(&mut self, now: Micros, step: Step) -> Next {
        self.ledger
            .transition(&mut self.slab, &self.cluster, now, step)
    }

    /// Admits a task: recorded, then routed into a queue.
    fn admit(&mut self, idx: usize, now: Micros, cause: Admission) {
        self.record(now, Step::Admitted(idx, cause));
        self.enqueue(idx);
    }

    /// Routes a task to the back of the high-priority or main queue.
    fn enqueue(&mut self, idx: usize) {
        // Read through the arena field so the scheduler can borrow
        // mutably alongside it.
        if self.scheduler.route_high_priority(self.slab.get(idx)) {
            self.hp.push_back(idx);
        } else {
            self.main.push_back(idx);
        }
    }

    /// Reserves the task on the machine and emits its completion event
    /// (`via` names what made the decision; the decision itself is
    /// already made).
    fn commit(&mut self, idx: usize, machine: MachineId, via: Via, ctx: &mut Ctx<'_, SchedEvent>) {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.record(ctx.now(), Step::Placed(idx, machine, epoch, via));
        let t = self.slab.get(idx);
        let task = t.id;
        self.cluster
            .place(machine, task, t.cpu, t.memory, t.priority);
        let u: f64 = self.rng.gen_range(1e-9..1.0);
        let runtime = (((-u.ln()) * self.cfg.mean_runtime as f64) as Micros).max(1);
        ctx.emit_prio(
            runtime,
            PRIO_STATE,
            self.engine_id,
            SchedEvent::Finish {
                task,
                machine,
                epoch,
            },
        );
    }

    /// One attempt for the queue head; returns the task to the queue's
    /// back on `NoCapacity`.
    fn attempt(
        &mut self,
        idx: usize,
        placer: &dyn Placer,
        high_priority: bool,
        ctx: &mut Ctx<'_, SchedEvent>,
    ) {
        // Field-precise task lookup so the placement scratch can borrow
        // mutably alongside the (shared) cluster and arena borrows.
        let t = self.slab.get(idx);
        let (by, now) = (t.id, ctx.now());
        match placer.place(&self.cluster, t, &mut self.place_ctx) {
            Placement::Placed(m) => self.commit(idx, m, Via::Placer(placer.name()), ctx),
            Placement::PlacedWithPreemption(machine, victims) => {
                for task in victims {
                    self.record(now, Step::Left(task, machine, Exit::Preempted(by)));
                    self.cluster.release(machine, task);
                }
                self.commit(idx, machine, Via::Preempting(placer.name()), ctx);
            }
            Placement::Infeasible => {
                // No node can ever satisfy the affinity — Kubernetes
                // would error the pod; we drop it (and free its slot).
                self.record(now, Step::Infeasible(idx, placer.name()));
            }
            Placement::NoCapacity => {
                self.record(now, Step::NoCapacity(idx));
                if high_priority {
                    self.hp.push_back(idx);
                } else {
                    self.main.push_back(idx);
                }
            }
        }
    }

    /// The scheduler pass: retry gangs, serve the whole HP queue, then a
    /// bounded number of main-queue heads.
    fn cycle(&mut self, ctx: &mut Ctx<'_, SchedEvent>) {
        self.record(ctx.now(), Step::Pass(self.hp.len(), self.main.len()));
        // Gangs retry all-or-nothing ahead of individual placements —
        // compacted in place (FIFO retry order preserved, no take/realloc
        // churn on the pending list).
        let mut write = 0;
        for read in 0..self.pending_gangs.len() {
            let (start, len) = self.pending_gangs[read];
            if self.try_gang(start, len, ctx) {
                self.pending_gang_members -= len;
            } else {
                self.pending_gangs[write] = (start, len);
                write += 1;
            }
        }
        self.pending_gangs.truncate(write);
        let hp_len = self.hp.len();
        for _ in 0..hp_len {
            let Some(idx) = self.hp.pop_front() else {
                break;
            };
            let placer = self.hp_placer;
            self.attempt(idx, placer, true, ctx);
        }
        let budget = self.cfg.attempts_per_cycle.min(self.main.len());
        for _ in 0..budget {
            let Some(idx) = self.main.pop_front() else {
                break;
            };
            let placer = self.main_placer;
            self.attempt(idx, placer, false, ctx);
        }
    }

    /// Attempts an all-or-nothing placement of the gang occupying arena
    /// range `start..start + len`. Returns true when the gang placed
    /// (callers keep failed ranges pending). Assignments stream through
    /// the placement scratch — no allocation per attempt.
    fn try_gang(&mut self, start: usize, len: usize, ctx: &mut Ctx<'_, SchedEvent>) -> bool {
        let mut pairs = std::mem::take(&mut self.place_ctx.gang);
        let placed = {
            let slab = &self.slab;
            let members = (start..start + len).map(|i| slab.get(i));
            crate::gang::place_gang_into(&mut self.cluster, members, &mut pairs)
        };
        if placed {
            self.record(ctx.now(), Step::GangPlaced);
            for (idx, &(task, machine)) in (start..start + len).zip(pairs.iter()) {
                debug_assert_eq!(self.task(idx).id, task);
                // `place_gang_into` already reserved capacity; release
                // and re-commit so runtime draw, completion event and
                // record go through the one bookkeeping path.
                self.cluster.release(machine, task);
                self.commit(idx, machine, Via::Gang, ctx);
            }
        }
        self.place_ctx.gang = pairs;
        placed
    }

    /// A machine *crashes* — the abrupt sibling of
    /// [`Self::drain_machine`]: capacity leaves atomically (the same
    /// offline parking, so a later [`SchedEvent::MachineRestore`] revives
    /// it empty), but running tasks are lost, not requeued: each gets a
    /// [`SchedEvent::TaskRetry`] after its backoff delay unless the
    /// ledger dead-letters it. Crashing an already-offline machine is
    /// capacity-inert.
    fn machine_crash(&mut self, machine: MachineId, ctx: &mut Ctx<'_, SchedEvent>) {
        let Some(evicted) = self.cluster.remove_machine(machine) else {
            return;
        };
        let now = ctx.now();
        self.record(now, Step::MachineCrashed(machine));
        // Evicted tasks arrive sorted by task id, so RNG draws (backoff
        // jitter) consume in a deterministic order.
        for (task, ..) in evicted {
            let lost = Step::Left(task, machine, Exit::Crashed);
            if let Next::Retry(idx, delay) = self.record(now, lost) {
                ctx.emit_prio(
                    delay,
                    PRIO_ADMIT,
                    self.engine_id,
                    SchedEvent::TaskRetry(idx),
                );
            }
        }
    }

    fn handle(&mut self, ev: SchedEvent, ctx: &mut Ctx<'_, SchedEvent>) {
        let now = ctx.now();
        match ev {
            SchedEvent::Arrival(idx) => self.admit(idx, now, Admission::Arrival),
            SchedEvent::Admit(t) => {
                let idx = self.slab.push_one(*t);
                self.admit(idx, now, Admission::Dynamic);
            }
            SchedEvent::GangArrival(members) => {
                // Members enter the arena contiguously (one sealed slab
                // segment), so the gang is just a range — no per-gang
                // index list.
                let (start, len) = self.slab.push_sealed(members);
                for idx in start..start + len {
                    self.record(now, Step::Admitted(idx, Admission::Gang));
                }
                if !self.try_gang(start, len, ctx) {
                    self.pending_gangs.push((start, len));
                    self.pending_gang_members += len;
                }
            }
            SchedEvent::Cycle => self.cycle(ctx),
            SchedEvent::Finish {
                task,
                machine,
                epoch,
            } => {
                // Stale completions (task preempted, churned or crashed
                // since) are ignored via the epoch guard.
                if self.ledger.runs(task, machine, epoch) {
                    self.record(now, Step::Left(task, machine, Exit::Finished));
                    self.cluster.release(machine, task);
                }
            }
            SchedEvent::MachineFail(id) => {
                self.drain_machine(id, now);
            }
            SchedEvent::MachineCrash(id) => self.machine_crash(id, ctx),
            SchedEvent::TaskRetry(idx) => {
                self.record(now, Step::BackoffElapsed(idx));
                self.enqueue(idx);
            }
            SchedEvent::MachineRestore(id) => {
                self.record(now, Step::MachineRestored(id));
                self.cluster.restore_machine(id);
            }
            SchedEvent::MachineJoin(m) => {
                self.record(now, Step::MachineJoined(m.id));
                self.cluster.add_machine(*m);
            }
            SchedEvent::AttrUpdate {
                machine,
                attr,
                value,
            } => {
                self.record(now, Step::AttrUpdated(machine, attr));
                self.cluster.update_attr(machine, attr, value);
            }
            SchedEvent::Wake => {}
            // Spill requests travel through epoch outboxes to the
            // coordinator, not to engines; one reaching an engine is a
            // routing bug upstream, dropped like a stale completion.
            SchedEvent::SpillRequest(_) => debug_assert!(false, "SpillRequest delivered to engine"),
        }
    }

    /// Takes the final cluster and result out of the state; tasks still
    /// queued (individually or as pending gang members) end here.
    fn finish(&mut self) -> (SchedCluster, SimResult) {
        let queued = (self.hp.drain(..).chain(self.main.drain(..)))
            .chain(self.pending_gangs.drain(..).flat_map(|(s, len)| s..s + len));
        let result = self.ledger.finish(&self.slab, self.cfg.horizon, queued);
        self.pending_gang_members = 0;
        (std::mem::take(&mut self.cluster), result)
    }
}

/// The engine as a kernel component: a thin shell delegating every event
/// to the shared [`EngineState`].
pub struct EngineComponent<'a> {
    state: Rc<RefCell<EngineState<'a>>>,
}

impl Component<SchedEvent> for EngineComponent<'_> {
    fn on_event(&mut self, event: Event<SchedEvent>, ctx: &mut Ctx<'_, SchedEvent>) {
        self.state.borrow_mut().handle(event.payload, ctx);
    }
}

/// Fires the scheduler pass every `period` µs, from 0 up to the horizon.
pub struct CycleTimer {
    next: Option<Micros>,
    period: Micros,
    horizon: Micros,
    engine: CompId,
}

impl TimedSource for CycleTimer {
    const CLASS: u8 = PRIO_PASS;

    fn next_time(&self) -> Option<Micros> {
        self.next
    }

    fn fire(&mut self, now: Micros, ctx: &mut Ctx<'_, SchedEvent>) {
        ctx.emit_prio(0, PRIO_PASS, self.engine, SchedEvent::Cycle);
        self.next = next_tick(now, self.period, self.horizon);
    }
}

/// The simulator: configuration plus pluggable placement strategies.
pub struct Simulator {
    config: SimConfig,
    main_placer: Box<dyn Placer>,
    hp_placer: Box<dyn Placer>,
}

impl Simulator {
    /// A simulator with the given parameters and the default strategies:
    /// best-fit on the main queue, preemptive best-fit on the HP queue.
    ///
    /// # Panics
    /// Panics when `config.cycle` is 0 — the scheduler pass would never
    /// leave time 0.
    pub fn new(config: SimConfig) -> Self {
        assert!(config.cycle > 0, "scheduler pass period must be positive");
        Self {
            config,
            main_placer: Box::new(BestFit),
            hp_placer: Box::new(PreemptiveBestFit),
        }
    }

    /// Replaces the placement strategies.
    pub fn with_placers(
        mut self,
        main_placer: Box<dyn Placer>,
        hp_placer: Box<dyn Placer>,
    ) -> Self {
        self.main_placer = main_placer;
        self.hp_placer = hp_placer;
        self
    }

    /// The configured parameters.
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// Registers one scheduling **cell** — engine component, arrival feed
    /// and cycle timer — on an existing kernel simulation, so several
    /// cells can share a single timeline (multi-cell runs).
    ///
    /// `name` prefixes the registered component names. `arrivals` is
    /// either a borrowed time-sorted list (no task is cloned; an empty
    /// list is fine for cells fed exclusively through
    /// [`SchedEvent::Admit`]) or a pull-based [`ArrivalStream`], decoded
    /// chunk by chunk into the task arena one chunk ahead of the clock —
    /// peak arena memory O(chunk + in-flight tasks) instead of O(total
    /// tasks). The event sequence is identical either way.
    ///
    /// With `spill`, tasks the cell cannot admit at their arrival instant
    /// go to the shard outbox as [`SchedEvent::SpillRequest`] instead of
    /// the home queue. Meant for per-cell shards under a
    /// [`ParallelSim`](ctlm_sim::ParallelSim) coordinator whose barrier
    /// hook routes them (the hook reads the task via
    /// [`EngineState::task`] and reports each verdict with
    /// [`EngineState::resolve_spill`]).
    pub fn attach_cell<'a>(
        &'a self,
        sim: &mut Sim<'a, SchedEvent>,
        name: &str,
        cluster: SchedCluster,
        arrivals: Arrivals<'a>,
        scheduler: &'a mut dyn Scheduler,
        spill: bool,
    ) -> CellHandle<'a> {
        let cfg = self.config;
        let (list, stream) = match arrivals {
            Arrivals::List(list) => (list, None),
            Arrivals::Stream(stream) => (&[][..], Some(stream)),
        };
        let state = Rc::new(RefCell::new(EngineState::new(
            cfg,
            cluster,
            list,
            scheduler,
            self.main_placer.as_ref(),
            self.hp_placer.as_ref(),
        )));
        let engine = sim.add_component(
            format!("{name}/engine"),
            EngineComponent {
                state: state.clone(),
            },
        );
        state.borrow_mut().engine_id = engine;
        let feed = ArrivalFeed::new(list.len(), stream, state.clone(), engine, spill);
        attach(sim, format!("{name}/arrival_feed"), feed);
        let timer = CycleTimer {
            next: Some(0),
            period: cfg.cycle,
            horizon: cfg.horizon,
            engine,
        };
        attach(sim, format!("{name}/cycle_timer"), timer);
        CellHandle { engine, state }
    }

    /// Builds the simulation harness without running it, so scenario
    /// components (churn, gang sources, trace feeds, rollouts) can join
    /// before [`Harness::run`].
    ///
    /// The cluster is taken by value; [`Harness::run`] returns it (reset
    /// to pristine) together with the result.
    pub fn harness<'a>(
        &'a self,
        cluster: SchedCluster,
        arrivals: &'a [PendingTask],
        scheduler: &'a mut dyn Scheduler,
    ) -> Harness<'a> {
        let mut sim = Sim::new();
        let cell = self.attach_cell(
            &mut sim,
            "cell",
            cluster,
            Arrivals::List(arrivals),
            scheduler,
            false,
        );
        Harness {
            sim,
            engine: cell.engine,
            state: cell.state,
            horizon: self.config.horizon,
        }
    }

    /// Runs `arrivals` (sorted by arrival time) against the cluster under
    /// `scheduler`.
    ///
    /// The cluster is borrowed and handed back **reset** (allocations
    /// cleared, churned machines restored), so A/B policy runs reuse one
    /// cluster without deep-copying it.
    pub fn run(
        &self,
        cluster: &mut SchedCluster,
        arrivals: &[PendingTask],
        scheduler: &mut dyn Scheduler,
    ) -> SimResult {
        let taken = std::mem::take(cluster);
        let harness = self.harness(taken, arrivals, scheduler);
        let (mut back, result) = harness.run();
        back.reset();
        *cluster = back;
        result
    }
}

/// One cell registered on a shared kernel simulation via
/// [`Simulator::attach_cell`]: the engine's component id plus the shared
/// engine state. The driver owns the `Sim` and runs it; after the run
/// (once the `Sim` is dropped), [`CellHandle::finish`] extracts the
/// cell's cluster and result.
pub struct CellHandle<'a> {
    /// The cell engine's component id — the destination for scheduling
    /// events (admissions, churn, spillover forwards).
    pub engine: CompId,
    state: Rc<RefCell<EngineState<'a>>>,
}

impl<'a> CellHandle<'a> {
    /// The cell's shared engine state (see [`Harness::state`]).
    pub fn state(&self) -> Rc<RefCell<EngineState<'a>>> {
        self.state.clone()
    }

    /// Extracts `(cluster, result)`, counting still-queued tasks as
    /// unplaced. Call after the simulation has run (and its components
    /// have released their handler borrows).
    pub fn finish(&self) -> (SchedCluster, SimResult) {
        self.state.borrow_mut().finish()
    }
}

/// A built-but-not-run simulation: the kernel, the engine's component id
/// and the shared engine state. Scenario components register against
/// `sim`/`engine` before `run`.
pub struct Harness<'a> {
    /// The underlying kernel simulation.
    pub sim: Sim<'a, SchedEvent>,
    /// The engine's component id — the destination scenario components
    /// emit scheduling events to.
    pub engine: CompId,
    state: Rc<RefCell<EngineState<'a>>>,
    horizon: Micros,
}

impl<'a> Harness<'a> {
    /// The shared engine state — scenario components and drivers may
    /// inspect it (e.g. cluster state, queue depths) between or after
    /// runs; holding the clone across [`Harness::run`] is fine.
    pub fn state(&self) -> Rc<RefCell<EngineState<'a>>> {
        self.state.clone()
    }

    /// Runs to the horizon and returns `(cluster, result)`. The cluster
    /// is *not* reset — callers inspecting post-churn state see it as the
    /// simulation left it.
    pub fn run(mut self) -> (SchedCluster, SimResult) {
        self.sim.run_until(self.horizon);
        drop(self.sim); // components are done emitting
        let mut state = self.state.borrow_mut();
        state.finish()
    }
}

/// Rescales arrival times into `[0, span]`, preserving order — trace
/// horizons are weeks, scheduler experiments run minutes-to-hours of
/// simulated time, so the workload is compressed onto the experiment
/// window (intensifying contention, which is the regime of interest).
pub fn compress_timeline(arrivals: &mut [PendingTask], span: Micros) {
    let max = arrivals.iter().map(|t| t.arrival).max().unwrap_or(0);
    if max == 0 {
        return;
    }
    for t in arrivals.iter_mut() {
        t.arrival = ((t.arrival as u128 * span as u128) / max as u128) as Micros;
    }
}

/// Builds `(cluster, arrivals)` from a generated trace: machines from the
/// initial fleet, tasks from submissions (constraints collapsed,
/// ground-truth group computed against the full fleet).
pub fn arrivals_from_trace(
    trace: &GeneratedTrace,
    max_tasks: usize,
) -> (SchedCluster, Vec<PendingTask>) {
    // One pass over the machine adds: each machine is cloned exactly once
    // (out of the borrowed trace) and *moved* into the cluster, whose
    // attribute index then answers the truth-group counts.
    let mut machines: Vec<Machine> = Vec::new();
    let mut slot: HashMap<MachineId, usize> = HashMap::new();
    for ev in &trace.events {
        if let EventPayload::MachineAdd(m) = &ev.payload {
            if let Some(&i) = slot.get(&m.id) {
                // Re-add supersedes: mirror `ClusterState::add_machine`.
                machines[i] = m.clone();
            } else {
                slot.insert(m.id, machines.len());
                machines.push(m.clone());
            }
        }
    }
    let cluster = SchedCluster::from_machines(machines);
    let mut arrivals = Vec::new();
    // The fleet is fixed from here on, so a suitable count is a pure
    // function of the collapsed set: one index walk per distinct set.
    // Only looked up, never iterated — hash order reaches no output.
    let mut suitable_by_set: HashMap<Vec<AttrRequirement>, usize> = HashMap::new();
    for ev in &trace.events {
        if arrivals.len() >= max_tasks {
            break;
        }
        if let EventPayload::TaskSubmit(task) = &ev.payload {
            let Ok(reqs) = collapse(&task.constraints) else {
                continue;
            };
            let suitable = match suitable_by_set.get(reqs.as_slice()) {
                Some(&n) => n,
                None => {
                    let n = cluster.count_suitable(&reqs);
                    suitable_by_set.insert(reqs.clone(), n);
                    n
                }
            };
            arrivals.extend(PendingTask::from_submission(
                task,
                reqs,
                suitable,
                trace.group_width,
                ev.time,
            ));
        }
    }
    (cluster, arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{MainOnly, OracleEnhanced};
    use ctlm_trace::{AttrValue, Machine};

    /// A 6-machine cluster hit by a 10-second burst of 400 small tasks:
    /// the main queue backs up behind the per-cycle attempt budget, so a
    /// group-0 task arriving mid-burst waits out the whole FIFO backlog —
    /// unless the enhanced path lifts it into the HP queue.
    fn contended_setup() -> (SchedCluster, Vec<PendingTask>) {
        let mut ms = Vec::new();
        for i in 0..6u64 {
            let mut m = Machine::new(i, 1.0, 1.0);
            m.set_attr(0, AttrValue::Int(i as i64));
            ms.push(m);
        }
        let cluster = SchedCluster::from_machines(ms);
        let mut arrivals = Vec::new();
        for k in 0..400u64 {
            arrivals.push(PendingTask {
                id: k,
                collection: 1,
                cpu: 0.1,
                memory: 0.1,
                priority: 2,
                reqs: vec![],
                arrival: k * 25_000, // 400 tasks in 10 s
                truth_group: 25,
            });
        }
        // A few restrictive tasks pinned to machine 0.
        use ctlm_data::compaction::collapse;
        use ctlm_trace::{ConstraintOp as Op, TaskConstraint};
        for (j, t_arr) in [(0u64, 5_000_000u64), (1, 15_000_000), (2, 25_000_000)] {
            let reqs =
                collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(0))))]).unwrap();
            arrivals.push(PendingTask {
                id: 1000 + j,
                collection: 2,
                cpu: 0.2,
                memory: 0.2,
                priority: 6,
                reqs,
                arrival: t_arr,
                truth_group: 0,
            });
        }
        arrivals.sort_by_key(|t| t.arrival);
        (cluster, arrivals)
    }

    fn sim() -> Simulator {
        Simulator::new(SimConfig {
            cycle: 500_000,
            attempts_per_cycle: 3,
            mean_runtime: 5_000_000,
            horizon: 180_000_000,
            seed: 4,
        })
    }

    #[test]
    fn oracle_routing_cuts_group0_latency() {
        let (mut cluster, arrivals) = contended_setup();
        let base = sim().run(&mut cluster, &arrivals, &mut MainOnly);
        let enhanced = sim().run(&mut cluster, &arrivals, &mut OracleEnhanced);
        let b0 = base.group0_latency().expect("group0 placed under baseline");
        let e0 = enhanced
            .group0_latency()
            .expect("group0 placed under oracle");
        assert!(
            e0.mean < b0.mean,
            "enhanced group0 mean {} should beat baseline {}",
            e0.mean,
            b0.mean
        );
    }

    #[test]
    fn both_policies_place_most_tasks() {
        let (mut cluster, arrivals) = contended_setup();
        let base = sim().run(&mut cluster, &arrivals, &mut MainOnly);
        let enhanced = sim().run(&mut cluster, &arrivals, &mut OracleEnhanced);
        for (name, r) in [("base", &base), ("enhanced", &enhanced)] {
            let frac = r.placed.len() as f64 / arrivals.len() as f64;
            assert!(frac > 0.8, "{name} placed only {frac:.2}");
        }
    }

    #[test]
    fn ab_runs_on_one_cluster_match_fresh_clusters() {
        // The reset path must leave no trace of the previous policy run.
        let (mut shared, arrivals) = contended_setup();
        let a1 = sim().run(&mut shared, &arrivals, &mut MainOnly);
        let a2 = sim().run(&mut shared, &arrivals, &mut OracleEnhanced);
        let (mut fresh1, _) = contended_setup();
        let (mut fresh2, _) = contended_setup();
        let b1 = sim().run(&mut fresh1, &arrivals, &mut MainOnly);
        let b2 = sim().run(&mut fresh2, &arrivals, &mut OracleEnhanced);
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
    }

    #[test]
    fn preemption_happens_under_oracle_when_needed() {
        // Fill every machine with low-priority work, then submit a pinned
        // high-priority task: the HP path must preempt.
        let (cluster, _) = contended_setup();
        let mut cluster = cluster;
        let mut arrivals = Vec::new();
        for k in 0..18u64 {
            arrivals.push(PendingTask {
                id: k,
                collection: 1,
                cpu: 0.33,
                memory: 0.33,
                priority: 1,
                reqs: vec![],
                arrival: 0,
                truth_group: 25,
            });
        }
        use ctlm_data::compaction::collapse;
        use ctlm_trace::{ConstraintOp as Op, TaskConstraint};
        let reqs = collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(0))))]).unwrap();
        arrivals.push(PendingTask {
            id: 999,
            collection: 2,
            cpu: 0.5,
            memory: 0.5,
            priority: 9,
            reqs,
            arrival: 2_000_000,
            truth_group: 0,
        });
        let config = SimConfig {
            cycle: 500_000,
            attempts_per_cycle: 20,
            mean_runtime: 200_000_000, // long tasks: no natural drain
            horizon: 30_000_000,
            seed: 1,
        };
        let r = Simulator::new(config).run(&mut cluster, &arrivals, &mut OracleEnhanced);
        assert!(r.preemptions > 0, "expected preemption to fire");
        assert!(
            r.placed.iter().any(|p| p.task == 999),
            "pinned task must place"
        );
    }

    #[test]
    fn stream_fed_cell_matches_list_fed_run() {
        // Feeding the identical workload through a chunked SliceStream
        // (any chunk size) must reproduce the borrowed-list run exactly
        // — same placements, latencies, preemptions.
        use crate::stream::SliceStream;
        let (mut cluster, arrivals) = contended_setup();
        let base_main = sim().run(&mut cluster, &arrivals, &mut MainOnly);
        let base_orac = sim().run(&mut cluster, &arrivals, &mut OracleEnhanced);
        for chunk in [3usize, 64, 4096] {
            for (which, base) in [(0, &base_main), (1, &base_orac)] {
                let (fresh, _) = contended_setup();
                let mut main = MainOnly;
                let mut orac = OracleEnhanced;
                let sched: &mut dyn crate::scheduler::Scheduler =
                    if which == 0 { &mut main } else { &mut orac };
                let s = sim();
                let mut kernel = Sim::new();
                let cell = s.attach_cell(
                    &mut kernel,
                    "cell",
                    fresh,
                    Arrivals::Stream(Box::new(SliceStream::new(&arrivals, chunk))),
                    sched,
                    false,
                );
                kernel.run_until(s.config().horizon);
                drop(kernel);
                let (_, result) = cell.finish();
                assert_eq!(&result, base, "chunk {chunk} scheduler {which}");
            }
        }
    }

    #[test]
    fn arrivals_from_trace_produces_feasible_tasks() {
        use ctlm_trace::{CellSet, Scale, TraceGenerator};
        let trace = TraceGenerator::generate_cell(
            CellSet::C2019c,
            Scale {
                machines: 80,
                collections: 150,
                seed: 3,
            },
        );
        let (cluster, arrivals) = arrivals_from_trace(&trace, 500);
        assert!(cluster.len() >= 70);
        assert!(!arrivals.is_empty());
        assert!(arrivals.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(arrivals
            .iter()
            .all(|t| t.cpu <= 0.9 && (t.truth_group as usize) < 26));
    }

    #[test]
    fn truth_groups_match_a_linear_scan_of_the_fleet() {
        // Ground truth is read off the cluster's attribute index; a plain
        // `satisfies_all` scan over the deduplicated fleet must label
        // every task the same, and drop exactly the tasks nothing fits.
        use ctlm_data::dataset::group_for_count;
        use ctlm_trace::{CellSet, Scale, TraceGenerator};
        let trace = TraceGenerator::generate_cell(
            CellSet::C2019c,
            Scale {
                machines: 120,
                collections: 300,
                seed: 11,
            },
        );
        let (cluster, arrivals) = arrivals_from_trace(&trace, usize::MAX);
        let mut fleet: Vec<&Machine> = Vec::new();
        for ev in &trace.events {
            if let EventPayload::MachineAdd(m) = &ev.payload {
                match fleet.iter().position(|f| f.id == m.id) {
                    Some(i) => fleet[i] = m,
                    None => fleet.push(m),
                }
            }
        }
        assert_eq!(cluster.len(), fleet.len());
        let by_id: HashMap<u64, u8> = arrivals.iter().map(|t| (t.id, t.truth_group)).collect();
        assert_eq!(by_id.len(), arrivals.len(), "task ids are unique");
        let mut constrained = 0;
        for ev in &trace.events {
            let EventPayload::TaskSubmit(task) = &ev.payload else {
                continue;
            };
            let suitable = fleet
                .iter()
                .filter(|m| m.satisfies_all(&task.constraints))
                .count();
            let expected = (suitable > 0).then(|| group_for_count(suitable, trace.group_width));
            assert_eq!(by_id.get(&task.id).copied(), expected, "task {}", task.id);
            constrained += usize::from(!task.constraints.is_empty());
        }
        assert!(constrained > 0, "the slice carries constrained tasks");
    }
}
