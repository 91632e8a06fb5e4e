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
//! * [`EngineComponent`] — handles admissions, scheduler passes, task
//!   completions, machine churn and gang arrivals on the cell's
//!   [`EngineState`], the world of the cell's simulation, which owns
//!   the cluster and the queues.
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
//! The engine also owns the cell's fleet outright: churn, the fault
//! plane and the autoscaler claim, override and release machines on its
//! one [`OwnershipGuard`] through engine methods, and no fleet change
//! bypasses the ledger.
//!
//! Intra-instant ordering is pinned by kernel delivery classes: at one
//! timestamp, completions and machine-state changes ([`PRIO_STATE`])
//! deliver before admissions ([`PRIO_ADMIT`]), which deliver before the
//! scheduling pass ([`PRIO_PASS`]) — the same phase order the old
//! monolithic loop hardcoded, now explicit and shared with any scenario
//! component that joins the simulation (churn, gangs, trace feeds).
//!
//! The contention mechanics matter: the main scheduler examines a bounded
//! number of queue heads per cycle (head-of-line pressure), so a
//! restrictive task that misses its single suitable node keeps cycling to
//! the back — exactly the pathology the paper's analyzer removes.

use std::collections::{HashMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use ctlm_data::compaction::{collapse, AttrRequirement};
use ctlm_sim::{CompId, Component, Ctx, Event, Sim, SimDuration, SimTime};
use ctlm_trace::{AttrId, AttrValue, EventPayload, GeneratedTrace, Machine, MachineId, TaskId};

use crate::arena::TaskSlab;
use crate::cluster::{CapacityFit, SchedCluster};
use crate::idmap::IdMap;
use crate::ledger::{Admission, Exit, Next, Step, Via};
pub use crate::ledger::{EngineStats, Ledger, PlacedRecord, SimResult, SpillRoute};
use crate::lifecycle::{LifecycleOwner, OwnershipGuard};
use crate::placement::{BestFit, PlaceCtx, Placement, Placer, PreemptiveBestFit};
use crate::queue::PendingTask;
use crate::scheduler::Scheduler;
use crate::stream::{ArrivalFeed, ArrivalStream, Arrivals};
use crate::timed::{attach, TimedSource};

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
    /// One machine attribute changes (a trace feed's kernel upgrades and
    /// other vocabulary-growing updates).
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
#[serde(deny_unknown_fields)]
pub struct SimConfig {
    /// Scheduler pass period (µs).
    pub cycle: u64,
    /// Main-queue placement attempts per cycle (the head-of-line budget).
    pub attempts_per_cycle: usize,
    /// Mean task runtime (µs), exponential.
    pub mean_runtime: u64,
    /// Give-up horizon (µs) — tasks still pending at the end count as
    /// unplaced.
    pub horizon: u64,
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

/// A cell's state: the world of its kernel simulation. The cell's `Sim`
/// owns it and lends it to each handler in turn — the engine component
/// and every [`TimedSource`] — and the driver reads or changes it
/// between deliveries through [`Sim::world`] / [`Sim::world_mut`].
pub struct EngineState<'a> {
    cfg: SimConfig,
    /// The task arena: the arrival list borrowed from the driver
    /// (admissions reference tasks by index instead of cloning them;
    /// empty for streamed cells) followed by the tasks entering mid-run —
    /// streamed arrival chunks, gang members, dynamic admits. Released
    /// slots let drained chunk segments reclaim their buffers.
    slab: TaskSlab<'a>,
    /// The cluster under scheduling; read it through
    /// [`EngineState::cluster`].
    cluster: SchedCluster,
    /// The cell's machine-lifecycle claims (see [`crate::lifecycle`]).
    claims: OwnershipGuard,
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
    pub(crate) fn new(
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
            claims: OwnershipGuard::new(),
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

    /// The engine component's id — where sources send scheduling
    /// events.
    pub fn engine(&self) -> CompId {
        self.engine_id
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

    /// The cluster under scheduling (scenario components, control planes
    /// and spill routers read it; only the engine changes it).
    pub fn cluster(&self) -> &SchedCluster {
        &self.cluster
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
        now: SimTime,
        cause: &'static str,
        plan: &'static str,
        a: u64,
        b: u64,
    ) {
        self.record(now, Step::Control(kind, cause, plan, a, b));
    }

    /// Slab segments retired (fully drained and recycled) so far.
    pub fn slab_retired(&self) -> u64 {
        self.slab.retired()
    }

    /// Slab segments currently resident in memory.
    pub fn slab_resident_segments(&self) -> usize {
        self.slab.resident_segments()
    }

    /// The cell's machine-lifecycle claim table.
    pub fn claims(&self) -> &OwnershipGuard {
        &self.claims
    }

    /// Claims `id` for `owner` before a lifecycle transition; false (the
    /// caller skips the machine) when any owner already holds it.
    pub fn try_claim(&mut self, id: MachineId, owner: LifecycleOwner) -> bool {
        self.claims.try_claim(id, owner)
    }

    /// Releases `owner`'s claim on `id`; false when a crash displaced it
    /// and the machine's lifecycle belongs to the fault plane now.
    pub fn release_claim(&mut self, id: MachineId, owner: LifecycleOwner) -> bool {
        self.claims.release_owned(id, owner)
    }

    /// A crash is decided: `machine` now belongs to the fault plane,
    /// whoever held it, and the displaced owner (`unclaimed` when none)
    /// is recorded on the cell's control track. Called ahead of the
    /// crash's delivery, so the record precedes the `machine_down` span
    /// it explains.
    pub fn override_claim(&mut self, machine: MachineId, now: SimTime) {
        let displaced = self.claims.override_claim(machine, LifecycleOwner::Fault);
        let owner = displaced.map_or("unclaimed", LifecycleOwner::name);
        self.record(now, Step::ClaimOverridden(machine, owner));
    }

    /// Brings machine `m`, which `owner` holds, into the live fleet and
    /// releases the claim — admit first, release second, so there is no
    /// instant where the machine is headed online but unclaimed for a
    /// drain or crash claim to take. False, and the machine is dropped,
    /// when `owner` no longer holds it: a crash displaced the claim and
    /// the machine never comes online.
    pub fn admit_claimed(&mut self, m: Machine, owner: LifecycleOwner, now: SimTime) -> bool {
        let id = m.id;
        if self.claims.owner(id) != Some(owner) {
            return false;
        }
        self.admit_machine(m, now);
        self.claims.release_owned(id, owner)
    }

    /// Claims `id` for `owner`, drains it (its running tasks requeue)
    /// and takes it out of the cluster, returning the machine with the
    /// claim still held: the owner parks it, or releases the claim to
    /// let it go for good. `None`, with nothing changed, when another
    /// owner holds the machine or it is not online.
    pub fn claim_and_take(
        &mut self,
        id: MachineId,
        owner: LifecycleOwner,
        now: SimTime,
    ) -> Option<Machine> {
        if !self.claims.try_claim(id, owner) {
            return None;
        }
        if self.drain_machine(id, now) {
            return self.cluster.take_offline(id);
        }
        self.claims.release_owned(id, owner);
        None
    }

    /// Drains a machine — a [`SchedEvent::MachineFail`] delivery, and the
    /// middle of [`EngineState::claim_and_take`]: its running tasks
    /// re-enter admission (they keep their first-placement latency
    /// record; the reschedule is counted) and the machine is parked
    /// offline. Returns false for machines that are not online.
    fn drain_machine(&mut self, id: MachineId, now: SimTime) -> bool {
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
    /// update incrementally) — the one join path: a
    /// [`SchedEvent::MachineJoin`] delivery and
    /// [`EngineState::admit_claimed`] both end here.
    fn admit_machine(&mut self, m: Machine, now: SimTime) {
        self.record(now, Step::MachineJoined(m.id));
        self.cluster.add_machine(m);
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
    pub(crate) fn spilled(&mut self, idx: usize, now: SimTime, reason: &'static str) {
        self.record(now, Step::Spilled(idx, reason));
    }

    /// The coordinator's barrier hook resolved a
    /// [`SchedEvent::SpillRequest`]: the task lands in cell `cell` (the
    /// home cell's own index unless `route` is [`SpillRoute::Sibling`])
    /// at time `at`. Closes the transit span and, for a task cloned away
    /// to a sibling, retires the home arena slot — clone it first.
    pub fn resolve_spill(&mut self, idx: usize, at: SimTime, route: SpillRoute, cell: usize) {
        self.record(at, Step::SpillResolved(idx, route, cell));
    }

    /// Reports one lifecycle transition to the ledger.
    fn record(&mut self, now: SimTime, step: Step) -> Next {
        self.ledger
            .transition(&mut self.slab, &self.cluster, now, step)
    }

    /// Admits a task: recorded, then routed into a queue.
    fn admit(&mut self, idx: usize, now: SimTime, cause: Admission) {
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
        let mean = self.cfg.mean_runtime as f64;
        let runtime = SimDuration::from_micros_f64(-u.ln() * mean).max(SimDuration::MICRO);
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
            SchedEvent::MachineJoin(m) => self.admit_machine(*m, now),
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
    /// queued (individually or as pending gang members) end here, as
    /// unplaced. Call once, after the run; the ledger stays readable.
    pub fn finish(&mut self) -> (SchedCluster, SimResult) {
        let queued = (self.hp.drain(..).chain(self.main.drain(..)))
            .chain(self.pending_gangs.drain(..).flat_map(|(s, len)| s..s + len));
        let horizon = SimTime::from_micros(self.cfg.horizon);
        let result = self.ledger.finish(&self.slab, horizon, queued);
        self.pending_gang_members = 0;
        (std::mem::take(&mut self.cluster), result)
    }
}

/// The engine as a kernel component: delivers every event to the cell's
/// [`EngineState`], the simulation's world.
pub struct EngineComponent;

impl<'a> Component<EngineState<'a>, SchedEvent> for EngineComponent {
    fn on_event(
        &mut self,
        event: Event<SchedEvent>,
        state: &mut EngineState<'a>,
        ctx: &mut Ctx<'_, SchedEvent>,
    ) {
        state.handle(event.payload, ctx);
    }
}

/// Fires the scheduler pass every `period` µs, from 0 up to the horizon.
pub struct CycleTimer {
    next: Option<SimTime>,
    period: SimDuration,
    horizon: SimTime,
}

impl TimedSource for CycleTimer {
    const CLASS: u8 = PRIO_PASS;

    fn next_time(&self, _state: &EngineState<'_>) -> Option<SimTime> {
        self.next
    }

    fn fire(&mut self, now: SimTime, state: &mut EngineState<'_>, ctx: &mut Ctx<'_, SchedEvent>) {
        ctx.emit_prio(
            SimDuration::ZERO,
            PRIO_PASS,
            state.engine(),
            SchedEvent::Cycle,
        );
        self.next = now.next_tick(self.period, self.horizon);
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

    /// One scheduling **cell**: a kernel simulation whose world is the
    /// cell's [`EngineState`], with the engine component, the arrival
    /// feed and the cycle timer registered. Scenario sources join it
    /// through [`attach`]; the driver runs it and then takes the result
    /// with [`EngineState::finish`].
    ///
    /// `arrivals` is either a borrowed time-sorted list (no task is
    /// cloned; an empty list is fine for cells fed exclusively through
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
    pub fn cell<'a>(
        &'a self,
        cluster: SchedCluster,
        arrivals: Arrivals<'a>,
        scheduler: &'a mut dyn Scheduler,
        spill: bool,
    ) -> Sim<'a, EngineState<'a>, SchedEvent> {
        let cfg = self.config;
        let (list, stream) = match arrivals {
            Arrivals::List(list) => (list, None),
            Arrivals::Stream(stream) => (&[][..], Some(stream)),
        };
        let mut sim = Sim::new(EngineState::new(
            cfg,
            cluster,
            list,
            scheduler,
            self.main_placer.as_ref(),
            self.hp_placer.as_ref(),
        ));
        sim.world_mut().engine_id = sim.add_component(EngineComponent);
        let feed = ArrivalFeed::new(list.len(), stream, sim.world_mut(), spill);
        attach(&mut sim, feed);
        let timer = CycleTimer {
            next: Some(SimTime::ZERO),
            period: SimDuration::from_micros(cfg.cycle),
            horizon: SimTime::from_micros(cfg.horizon),
        };
        attach(&mut sim, timer);
        sim
    }

    /// Builds one list-fed cell without running it, so scenario sources
    /// (churn, gang sources, trace feeds) can join before
    /// [`Harness::run`].
    ///
    /// The cluster is taken by value and [`Harness::run`] hands it back
    /// as the run left it. An A/B comparison over one fleet gives each
    /// policy its own [`SchedCluster::clone`]: the clone shares the
    /// machine table copy-on-write, so it costs a few allocations rather
    /// than a copy of the fleet, and no run sees another's reservations,
    /// drains or attribute updates.
    pub fn harness<'a>(
        &'a self,
        cluster: SchedCluster,
        arrivals: &'a [PendingTask],
        scheduler: &'a mut dyn Scheduler,
    ) -> Harness<'a> {
        Harness {
            sim: self.cell(cluster, Arrivals::List(arrivals), scheduler, false),
            horizon: SimTime::from_micros(self.config.horizon),
        }
    }
}

/// A built-but-not-run cell: its kernel simulation, whose world is the
/// cell's [`EngineState`]. Scenario sources [`attach`] to `sim` before
/// [`Harness::run`]; the state stays readable after it.
pub struct Harness<'a> {
    /// The underlying kernel simulation.
    pub sim: Sim<'a, EngineState<'a>, SchedEvent>,
    horizon: SimTime,
}

impl<'a> Harness<'a> {
    /// The cell's engine state — the cluster, the queues and the ledger,
    /// before, between or after runs.
    pub fn state(&self) -> &EngineState<'a> {
        self.sim.world()
    }

    /// The cell's engine state, to switch a recorder on or claim a
    /// machine between deliveries.
    pub fn state_mut(&mut self) -> &mut EngineState<'a> {
        self.sim.world_mut()
    }

    /// Runs to the horizon and returns `(cluster, result)`, the cluster
    /// as the simulation left it — callers inspecting post-churn state
    /// see the drained machines still drained. The ledger stays
    /// readable through [`Harness::state`].
    pub fn run(&mut self) -> (SchedCluster, SimResult) {
        self.sim.run_until(self.horizon);
        self.sim.world_mut().finish()
    }
}

/// Rescales arrival times into `[0, end]`, preserving order — trace
/// horizons are weeks, scheduler experiments run minutes-to-hours of
/// simulated time, so the workload is compressed onto the experiment
/// window (intensifying contention, which is the regime of interest).
pub fn compress_timeline(arrivals: &mut [PendingTask], end: SimTime) {
    let max = arrivals.iter().map(|t| t.arrival).max().unwrap_or_default();
    if max == SimTime::ZERO {
        return;
    }
    for t in arrivals.iter_mut() {
        t.arrival = t.arrival.rescale(max, end);
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
    let mut slot: IdMap<MachineId, usize> = IdMap::default();
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
                SimTime::from_micros(ev.time),
            ));
        }
    }
    (cluster, arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{MainOnly, OracleEnhanced, Scheduler};
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
                arrival: SimTime::from_micros(k * 25_000), // 400 tasks in 10 s
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
                arrival: SimTime::from_micros(t_arr),
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

    /// One policy run on a clone of `cluster`, the way A/B runs share a
    /// fleet.
    fn run(
        cluster: &SchedCluster,
        arrivals: &[PendingTask],
        scheduler: &mut dyn Scheduler,
    ) -> SimResult {
        sim().harness(cluster.clone(), arrivals, scheduler).run().1
    }

    #[test]
    fn oracle_routing_cuts_group0_latency() {
        let (cluster, arrivals) = contended_setup();
        let base = run(&cluster, &arrivals, &mut MainOnly);
        let enhanced = run(&cluster, &arrivals, &mut OracleEnhanced);
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
        let (cluster, arrivals) = contended_setup();
        let base = run(&cluster, &arrivals, &mut MainOnly);
        let enhanced = run(&cluster, &arrivals, &mut OracleEnhanced);
        for (name, r) in [("base", &base), ("enhanced", &enhanced)] {
            let frac = r.placed.len() as f64 / arrivals.len() as f64;
            assert!(frac > 0.8, "{name} placed only {frac:.2}");
        }
    }

    #[test]
    fn ab_runs_on_clones_of_one_cluster_match_fresh_clusters() {
        // A run on a clone must leave no trace on the fleet the next
        // policy's clone shares.
        let (shared, arrivals) = contended_setup();
        let a1 = run(&shared, &arrivals, &mut MainOnly);
        let a2 = run(&shared, &arrivals, &mut OracleEnhanced);
        let b1 = sim()
            .harness(contended_setup().0, &arrivals, &mut MainOnly)
            .run()
            .1;
        let b2 = sim()
            .harness(contended_setup().0, &arrivals, &mut OracleEnhanced)
            .run()
            .1;
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
    }

    #[test]
    fn preemption_happens_under_oracle_when_needed() {
        // Fill every machine with low-priority work, then submit a pinned
        // high-priority task: the HP path must preempt.
        let (cluster, _) = contended_setup();
        let mut arrivals = Vec::new();
        for k in 0..18u64 {
            arrivals.push(PendingTask {
                id: k,
                collection: 1,
                cpu: 0.33,
                memory: 0.33,
                priority: 1,
                reqs: vec![],
                arrival: SimTime::from_micros(0),
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
            arrival: SimTime::from_micros(2_000_000),
            truth_group: 0,
        });
        let config = SimConfig {
            cycle: 500_000,
            attempts_per_cycle: 20,
            mean_runtime: 200_000_000, // long tasks: no natural drain
            horizon: 30_000_000,
            seed: 1,
        };
        let (_, r) = Simulator::new(config)
            .harness(cluster, &arrivals, &mut OracleEnhanced)
            .run();
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
        let (cluster, arrivals) = contended_setup();
        let base_main = run(&cluster, &arrivals, &mut MainOnly);
        let base_orac = run(&cluster, &arrivals, &mut OracleEnhanced);
        for chunk in [3usize, 64, 4096] {
            for (which, base) in [(0, &base_main), (1, &base_orac)] {
                let (fresh, _) = contended_setup();
                let mut main = MainOnly;
                let mut orac = OracleEnhanced;
                let sched: &mut dyn Scheduler = if which == 0 { &mut main } else { &mut orac };
                let s = sim();
                let stream = Box::new(SliceStream::new(&arrivals, chunk));
                let mut kernel = s.cell(fresh, Arrivals::Stream(stream), sched, false);
                kernel.run_until(SimTime::from_micros(s.config().horizon));
                let (_, result) = kernel.world_mut().finish();
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
