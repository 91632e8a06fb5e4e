//! The scheduling simulation, hosted on the `ctlm-sim` event kernel.
//!
//! Reproduces the Fig. 3 experiment: identical task arrivals are pushed
//! through (a) a conventional main-scheduler-only pipeline and (b) the
//! enhanced pipeline where the Task CO Analyzer routes restrictive tasks
//! to a High-Priority Scheduler served ahead of the main queue (with the
//! Kubernetes-style preemption fallback). The output is scheduling
//! latency per ground-truth suitable-node group.
//!
//! What used to be a bespoke `while now <= horizon` loop is now a set of
//! kernel components exchanging [`SchedEvent`]s on one timeline:
//!
//! * [`ArrivalFeed`] — walks the cell's arrivals (a borrowed list, or
//!   chunks pulled from an [`ArrivalStream`]) and emits admission events
//!   at each task's arrival time;
//! * [`CycleTimer`] — fires the scheduler pass every `cycle` µs;
//! * [`EngineComponent`] — owns the cluster, queues and result; handles
//!   admissions, scheduler passes, task completions, machine churn and
//!   gang arrivals.
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
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use ctlm_data::compaction::collapse;
use ctlm_sim::{CompId, Component, Ctx, Event, Sim};
use ctlm_telemetry::{Histogram, SpanLog, TraceEvent, TraceRing};
use ctlm_trace::{
    AttrId, AttrValue, EventPayload, GeneratedTrace, Machine, MachineId, Micros, TaskId,
};

use crate::arena::TaskSlab;
use crate::cluster::{CapacityFit, SchedCluster};
use crate::latency::LatencyStats;
use crate::placement::{BestFit, PlaceCtx, Placement, Placer, PreemptiveBestFit};
use crate::queue::PendingTask;
use crate::scheduler::Scheduler;
use crate::stream::{ArrivalFeed, ArrivalStream, Arrivals};

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

/// One placed task's outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedRecord {
    /// Task id.
    pub task: TaskId,
    /// Ground-truth suitable-node group.
    pub truth_group: u8,
    /// Scheduling latency: placement time − arrival time (µs).
    pub latency: Micros,
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
        let samples: Vec<Micros> = self
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
    /// ([`SchedEvent::Arrival`]).
    pub admitted_arrivals: u64,
    /// Dynamic admissions ([`SchedEvent::Admit`] — spill-ins, online
    /// feeds).
    pub admitted_dynamic: u64,
    /// Gang members admitted ([`SchedEvent::GangArrival`]).
    pub admitted_gang_members: u64,
    /// Tasks this cell declined at arrival time and emitted to the epoch
    /// outbox as [`SchedEvent::SpillRequest`].
    pub spill_requests: u64,
    /// Scheduler passes executed.
    pub cycles: u64,
    /// High-priority-queue depth, sampled at the start of every pass.
    pub hp_depth: Histogram,
    /// Main-queue depth, sampled at the start of every pass.
    pub main_depth: Histogram,
}

/// A running task's bookkeeping entry.
#[derive(Clone, Copy, Debug)]
struct Running {
    /// Arena index of the task.
    idx: usize,
    /// Machine the task occupies.
    machine: MachineId,
    /// Placement epoch (monotone per placement).
    epoch: u64,
    /// When this placement started — a crash severing the task charges
    /// `now − started` to the lost-work account.
    started: Micros,
}

/// Per-task retry bookkeeping under the fault plane, keyed by arena
/// index (entries are dropped when the task finishes or dead-letters, so
/// recycled slab slots never inherit stale budgets).
#[derive(Clone, Copy, Debug, Default)]
struct RetryState {
    /// Losses charged against the policy budget so far.
    attempts: u32,
    /// When the task was last lost.
    lost_at: Micros,
    /// True while a retry is scheduled but the task has not re-placed.
    pending: bool,
}

/// The engine's optional fault runtime: the retry policy, its dedicated
/// seeded jitter RNG, per-task budgets and the fault telemetry. Boxed
/// behind `Option` so fault-free simulations carry one null-pointer-sized
/// field and take none of these code paths — the zero-allocation
/// scheduling-pass contract and report bytes are unchanged when no
/// `faults` block is configured.
struct FaultRuntime {
    policy: Box<dyn crate::faults::RetryPolicy>,
    rng: StdRng,
    attempts: HashMap<usize, RetryState>,
    stats: crate::faults::FaultStats,
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
    rng: StdRng,
    result: SimResult,
    running: HashMap<TaskId, Running>,
    preempted: HashSet<TaskId>,
    placed_once: HashSet<TaskId>,
    next_epoch: u64,
    engine_id: CompId,
    /// Reusable placement scratch threaded through every attempt.
    place_ctx: PlaceCtx,
    /// Always-on sim-plane counters/histograms (see [`EngineStats`]).
    stats: EngineStats,
    /// Bounded structured event trace; `None` (the default) records
    /// nothing. See [`EngineState::enable_trace`].
    trace: Option<TraceRing>,
    /// Fault-plane runtime; `None` (the default) means crashes
    /// dead-letter immediately and no fault bookkeeping runs. See
    /// [`EngineState::enable_faults`].
    faults: Option<Box<FaultRuntime>>,
    /// Causal flight recorder; `None` (the default) records nothing and
    /// takes none of the span code paths. Shared (`Rc`) so control-plane
    /// components (fault plane, autoscaler) can record into the same
    /// per-cell log. See [`EngineState::enable_spans`].
    spans: Option<Rc<RefCell<SpanLog>>>,
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
        // Record and bookkeeping capacities are reserved for the known
        // arrival population up front, so steady-state passes never grow
        // them (part of the zero-allocation-per-pass contract; streamed
        // and dynamically admitted tasks may still grow them).
        let n = arrivals.len();
        let mut result = SimResult::default();
        result.placed.reserve(n);
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
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x5C4E_D111),
            result,
            running: HashMap::with_capacity(n),
            preempted: HashSet::new(),
            placed_once: HashSet::with_capacity(n),
            next_epoch: 0,
            engine_id: 0,
            place_ctx: PlaceCtx::new(),
            stats: EngineStats::default(),
            trace: None,
            faults: None,
            spans: None,
        }
    }

    /// The task behind an arena index.
    ///
    /// # Panics
    /// Panics for released slots (see [`EngineState::release_slot`]) —
    /// a released index must never be read again.
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

    /// Marks an arena slot dead — the task finished, was dropped as
    /// infeasible, was evicted, or was cloned away to a sibling cell —
    /// so its chunk segment can reclaim its buffer once fully drained.
    /// No-op for indices in the borrowed arrival list (nothing to
    /// reclaim there). The index must never be read again afterwards.
    pub fn release_slot(&mut self, idx: usize) {
        self.slab.release(idx);
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
        self.pending_gangs.iter().map(|&(_, len)| len).sum()
    }

    /// Cumulative task admissions (fresh arrivals, dynamic admits and
    /// gang members; churn requeues are *not* re-counted) — control
    /// planes diff successive reads for an arrival-rate estimate.
    pub fn admitted(&self) -> u64 {
        self.stats.admitted_arrivals
            + self.stats.admitted_dynamic
            + self.stats.admitted_gang_members
    }

    /// Cumulative `NoCapacity` placement outcomes — the queue-pressure
    /// signal an autoscaler watches: suitable machines existed but none
    /// had room, so the task burned a cycle slot and went back to the
    /// queue.
    pub fn no_capacity_events(&self) -> u64 {
        self.stats.no_capacity
    }

    /// The sim-plane telemetry counters and histograms accumulated so
    /// far. Always maintained (the cost is a handful of integer adds per
    /// event); exporters snapshot this after the run.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Switches on the bounded structured event trace: the last
    /// `capacity` delivered events are kept in a preallocated ring (a
    /// `capacity` of 0 turns tracing back off). Recording into a full
    /// ring overwrites the oldest entry and never allocates, so tracing
    /// is compatible with the zero-allocation scheduling-pass contract
    /// once the ring exists.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = if capacity == 0 {
            None
        } else {
            Some(TraceRing::new(capacity))
        };
    }

    /// The event trace ring, when [`EngineState::enable_trace`] switched
    /// it on.
    pub fn trace(&self) -> Option<&TraceRing> {
        self.trace.as_ref()
    }

    /// Switches on the fault-plane runtime: crash-lost tasks consult
    /// `policy` (jitter drawn from a dedicated RNG seeded with `seed`)
    /// and are rescheduled or dead-lettered. Without this, a delivered
    /// [`SchedEvent::MachineCrash`] dead-letters every lost task
    /// immediately.
    pub fn enable_faults(&mut self, policy: Box<dyn crate::faults::RetryPolicy>, seed: u64) {
        self.faults = Some(Box::new(FaultRuntime {
            policy,
            rng: StdRng::seed_from_u64(seed ^ 0xFA17_4E77),
            attempts: HashMap::new(),
            stats: crate::faults::FaultStats::default(),
        }));
    }

    /// The fault runtime's counters and histograms, when
    /// [`EngineState::enable_faults`] switched it on.
    pub fn fault_stats(&self) -> Option<&crate::faults::FaultStats> {
        self.faults.as_deref().map(|f| &f.stats)
    }

    /// Switches on the causal flight recorder and returns a handle to
    /// the cell's span log (idempotent — repeated calls share one log).
    /// Control-plane components (fault plane, autoscaler) clone the
    /// handle to record their decision spans into the same timeline.
    ///
    /// Recording is sim-plane only, so the log is byte-identical across
    /// `execution.threads`, and span storage grows only on lifecycle
    /// *transitions* — steady-state scheduling passes update open spans
    /// in place without allocating.
    pub fn enable_spans(&mut self) -> Rc<RefCell<SpanLog>> {
        if self.spans.is_none() {
            self.spans = Some(Rc::new(RefCell::new(SpanLog::new())));
        }
        self.spans.as_ref().expect("just set").clone()
    }

    /// Takes the recorded span log out of the engine (after the run),
    /// leaving the recorder disabled. Finish the run first (e.g.
    /// [`CellHandle::finish`]) so open spans are closed at the horizon.
    pub fn take_spans(&mut self) -> Option<SpanLog> {
        self.spans
            .take()
            .map(|rc| std::mem::take(&mut *rc.borrow_mut()))
    }

    /// Crash events that removed an online machine so far — control
    /// planes diff successive reads to detect crash-induced capacity
    /// loss (always 0 without the fault runtime).
    pub fn crashed_machines(&self) -> u64 {
        self.faults
            .as_deref()
            .map_or(0, |f| f.stats.crashed_machines)
    }

    /// Counts replacement machines the control plane ordered against
    /// crash-induced capacity loss (no-op when the fault plane is off).
    pub fn note_replacements(&mut self, n: u64) {
        if let Some(f) = self.faults.as_deref_mut() {
            f.stats.replacements_ordered += n;
        }
    }

    /// Slab segments retired (fully drained and recycled) so far.
    pub fn slab_retired(&self) -> u64 {
        self.slab.retired()
    }

    /// Slab segments currently resident in memory.
    pub fn slab_resident_segments(&self) -> usize {
        self.slab.resident_segments()
    }

    /// Counts one task spilled out of this cell at arrival time (bumped
    /// by the arrival feed, which owns the emit site).
    pub(crate) fn note_spill_request(&mut self) {
        self.stats.spill_requests += 1;
    }

    /// Mean scheduling latency over the `last` most recently placed
    /// tasks (`None` before anything placed) — the admission-latency
    /// signal, windowed so old history cannot mask a building backlog.
    pub fn recent_latency_mean(&self, last: usize) -> Option<f64> {
        if self.result.placed.is_empty() || last == 0 {
            return None;
        }
        let tail = &self.result.placed[self.result.placed.len().saturating_sub(last)..];
        Some(tail.iter().map(|r| r.latency as f64).sum::<f64>() / tail.len() as f64)
    }

    /// Drains a machine through the engine's churn path: its running
    /// tasks re-enter admission (counted as churn reschedules) and the
    /// machine is parked offline. The autoscaler's scale-down hook —
    /// identical semantics to a [`SchedEvent::MachineFail`] delivery.
    /// `now` is the caller's sim time (span timestamps and requeue
    /// records are stamped with it). Returns false for unknown machines.
    pub fn drain_machine(&mut self, id: MachineId, now: Micros) -> bool {
        self.machine_fail(id, now)
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
        let backlog = self.hp.len() + self.main.len() + self.pending_gang_members();
        backlog < self.cfg.attempts_per_cycle
            && matches!(
                self.cluster.tightest_fit(&task.reqs, task.cpu, task.memory),
                CapacityFit::Fit(_)
            )
    }

    /// Why [`EngineState::can_admit`] says no right now — the rejection
    /// reason stamped into spill decision records. `"admittable"` when
    /// the cell would in fact admit the task.
    pub fn admit_rejection(&self, task: &PendingTask) -> &'static str {
        let backlog = self.hp.len() + self.main.len() + self.pending_gang_members();
        if backlog >= self.cfg.attempts_per_cycle {
            return "backlog_full";
        }
        match self.cluster.tightest_fit(&task.reqs, task.cpu, task.memory) {
            CapacityFit::Fit(_) => "admittable",
            CapacityFit::NoCapacity => "no_capacity",
            CapacityFit::Infeasible => "infeasible",
        }
    }

    /// Opens a `spill_transit` span for a task this cell just emitted to
    /// the epoch outbox, recording the admission-rejection reason. No-op
    /// without the flight recorder.
    pub(crate) fn span_spill_open(&mut self, idx: usize, now: Micros) {
        if self.spans.is_none() {
            return;
        }
        let (id, reason) = {
            let t = self.task(idx);
            (t.id, self.admit_rejection(t))
        };
        if let Some(s) = &self.spans {
            s.borrow_mut().open_task(id, "spill_transit", now, reason);
        }
    }

    /// Closes the task's pending `spill_transit` span with the route the
    /// coordinator chose (`"routed"` + target cell, `"routed_home"`, or
    /// `"link_timeout"`). The multi-cell barrier hook calls this when it
    /// resolves a [`SchedEvent::SpillRequest`]; no-op without the flight
    /// recorder. Call before releasing the task's arena slot.
    pub fn span_spill_resolve(
        &mut self,
        idx: usize,
        at: Micros,
        outcome: &'static str,
        target: u64,
    ) {
        if self.spans.is_none() {
            return;
        }
        let id = self.task(idx).id;
        if let Some(s) = &self.spans {
            let mut log = s.borrow_mut();
            if log.open_task_kind(id) == Some("spill_transit") {
                log.close_task_with(id, at, outcome, "", "", target, 0);
            }
        }
    }

    /// Routes an admitted task into the high-priority or main queue,
    /// opening its `queued` span (`cause` says how it got here:
    /// `"arrival"`, `"dynamic"`, `"retry"`, `"churn_requeue"`).
    fn admit(&mut self, idx: usize, now: Micros, cause: &'static str) {
        // Read through the arena field so the scheduler can borrow
        // mutably alongside it.
        let t = self.slab.get(idx);
        let id = t.id;
        let high_priority = self.scheduler.route_high_priority(t);
        if let Some(s) = &self.spans {
            s.borrow_mut().open_task(id, "queued", now, cause);
        }
        if high_priority {
            self.hp.push_back(idx);
        } else {
            self.main.push_back(idx);
        }
    }

    /// Reserves the task on the machine and emits its completion event.
    /// `plan` is the placer plan that made the decision (recorded in the
    /// span audit; the placement itself is already made).
    fn commit(
        &mut self,
        idx: usize,
        machine: MachineId,
        plan: &'static str,
        ctx: &mut Ctx<'_, SchedEvent>,
    ) {
        let now = ctx.now();
        let (id, cpu, memory, priority, arrival, truth_group) = {
            let t = self.task(idx);
            (t.id, t.cpu, t.memory, t.priority, t.arrival, t.truth_group)
        };
        if self.spans.is_some() {
            // Decision record: chosen machine, the capacity index's
            // candidate estimate, and which index arm the placer walked.
            let (cand, arm) = {
                let reqs = &self.task(idx).reqs;
                (
                    self.cluster.candidate_estimate(reqs) as u64,
                    self.cluster.plan_hint(reqs),
                )
            };
            if let Some(s) = &self.spans {
                let mut log = s.borrow_mut();
                log.close_task_with(id, now, "placed", plan, arm, machine, cand);
                log.open_task_full(id, "running", now, "placed", plan, arm, 0, machine, cand);
            }
        }
        self.cluster.place(machine, id, cpu, memory, priority);
        let u: f64 = self.rng.gen_range(1e-9..1.0);
        let runtime = (((-u.ln()) * self.cfg.mean_runtime as f64) as Micros).max(1);
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.running.insert(
            id,
            Running {
                idx,
                machine,
                epoch,
                started: now,
            },
        );
        if let Some(f) = self.faults.as_deref_mut() {
            if let Some(st) = f.attempts.get_mut(&idx) {
                if st.pending {
                    st.pending = false;
                    f.stats.reschedule.record(now.saturating_sub(st.lost_at));
                }
            }
        }
        ctx.emit_prio(
            runtime,
            PRIO_STATE,
            self.engine_id,
            SchedEvent::Finish {
                task: id,
                machine,
                epoch,
            },
        );
        if self.placed_once.insert(id) {
            self.result.placed.push(PlacedRecord {
                task: id,
                truth_group,
                latency: now - arrival,
                was_preempted: self.preempted.contains(&id),
            });
        }
    }

    /// Evicts a preemption victim (Kubernetes-style: the victim loses its
    /// slot; rescheduling checkpointed work is out of scope for the
    /// latency experiment). `preemptor` is the task that claimed the
    /// room — the span audit's answer to "why was I preempted".
    fn evict_victim(&mut self, machine: MachineId, victim: TaskId, now: Micros, preemptor: TaskId) {
        if let Some(s) = &self.spans {
            s.borrow_mut()
                .close_task_with(victim, now, "preempted", "", "", machine, preemptor);
        }
        self.cluster.release(machine, victim);
        if let Some(r) = self.running.remove(&victim) {
            // The victim never re-enters a queue — its slot is dead.
            self.release_slot(r.idx);
        }
        self.result.preemptions += 1;
        self.preempted.insert(victim);
        if let Some(rec) = self.result.placed.iter_mut().find(|r| r.task == victim) {
            rec.was_preempted = true;
        }
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
        let task_id = t.id;
        match placer.place(&self.cluster, t, &mut self.place_ctx) {
            Placement::Placed(m) => {
                self.stats.placed += 1;
                self.commit(idx, m, placer.name(), ctx);
            }
            Placement::PlacedWithPreemption(m, victims) => {
                self.stats.placed_with_preemption += 1;
                let now = ctx.now();
                for v in victims {
                    self.evict_victim(m, v, now, task_id);
                }
                self.commit(idx, m, placer.name(), ctx);
            }
            Placement::Infeasible => {
                // No node can ever satisfy the affinity — Kubernetes
                // would error the pod; we drop it (and free its slot).
                self.stats.infeasible += 1;
                if let Some(s) = &self.spans {
                    s.borrow_mut().close_task_with(
                        task_id,
                        ctx.now(),
                        "infeasible",
                        placer.name(),
                        "",
                        0,
                        0,
                    );
                }
                if self.faults.is_some() && self.placed_once.contains(&task_id) {
                    // A crash-retried task whose every suitable machine
                    // is down: it already holds a placed record, so
                    // counting it unplaced would break task conservation
                    // — it dead-letters instead.
                    self.result.failed_permanently += 1;
                    let mut attempts = 0;
                    if let Some(f) = self.faults.as_deref_mut() {
                        f.stats.dead_lettered += 1;
                        attempts = f.attempts.remove(&idx).map_or(0, |st| st.attempts as u64);
                    }
                    if let Some(s) = &self.spans {
                        s.borrow_mut().instant_task(
                            task_id,
                            "dead_letter",
                            ctx.now(),
                            "infeasible",
                            placer.name(),
                            "",
                            attempts,
                            0,
                        );
                    }
                } else {
                    self.result.unplaced += 1;
                }
                self.release_slot(idx);
            }
            Placement::NoCapacity => {
                self.stats.no_capacity += 1;
                if self.spans.is_some() {
                    // In-place attempt bump on the open `queued` span —
                    // the steady-state path stays allocation-free.
                    let cand = self.cluster.candidate_estimate(&self.task(idx).reqs) as u64;
                    if let Some(s) = &self.spans {
                        s.borrow_mut().note_attempt(task_id, cand);
                    }
                }
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
        self.stats.cycles += 1;
        self.stats.hp_depth.record(self.hp.len() as u64);
        self.stats.main_depth.record(self.main.len() as u64);
        // Gangs retry all-or-nothing ahead of individual placements —
        // compacted in place (FIFO retry order preserved, no take/realloc
        // churn on the pending list).
        let mut write = 0;
        for read in 0..self.pending_gangs.len() {
            let (start, len) = self.pending_gangs[read];
            if !self.try_gang(start, len, ctx) {
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
            self.result.gangs_placed += 1;
            for (idx, &(task, machine)) in (start..start + len).zip(pairs.iter()) {
                debug_assert_eq!(self.task(idx).id, task);
                // `place_gang_into` already reserved capacity; release
                // and re-commit so runtime draw, completion event and
                // record go through the one bookkeeping path.
                self.cluster.release(machine, task);
                self.commit(idx, machine, "gang", ctx);
            }
        }
        self.place_ctx.gang = pairs;
        placed
    }

    /// A machine drains: running tasks re-enter admission (they keep
    /// their first-placement latency record; the reschedule is counted).
    /// Returns false for unknown machines.
    fn machine_fail(&mut self, id: MachineId, now: Micros) -> bool {
        let Some(evicted) = self.cluster.remove_machine(id) else {
            return false;
        };
        if let Some(s) = &self.spans {
            s.borrow_mut()
                .open_machine(id, "machine_drain", now, "drain", "");
        }
        for (task, ..) in evicted {
            if let Some(r) = self.running.remove(&task) {
                self.result.churn_rescheduled += 1;
                if let Some(s) = &self.spans {
                    s.borrow_mut().close_task(task, now, "machine_drain");
                }
                self.admit(r.idx, now, "churn_requeue");
            }
        }
        true
    }

    /// A machine *crashes* — the abrupt sibling of [`Self::machine_fail`]:
    /// capacity leaves atomically (the same offline parking, so a later
    /// [`SchedEvent::MachineRestore`] revives it empty), but running
    /// tasks are lost, not requeued. Each loss is charged against the
    /// retry policy: within budget, a [`SchedEvent::TaskRetry`] is
    /// scheduled after the backoff delay; over budget (or with no fault
    /// runtime at all) the task dead-letters as `failed_permanently`.
    /// Crashing an already-offline machine is capacity-inert.
    fn machine_crash(&mut self, id: MachineId, ctx: &mut Ctx<'_, SchedEvent>) {
        let Some(evicted) = self.cluster.remove_machine(id) else {
            return;
        };
        let now = ctx.now();
        if let Some(f) = self.faults.as_deref_mut() {
            f.stats.crashed_machines += 1;
        }
        if let Some(s) = &self.spans {
            s.borrow_mut()
                .open_machine(id, "machine_down", now, "crash", "");
        }
        // Evicted tasks arrive sorted by task id, so RNG draws (backoff
        // jitter) consume in a deterministic order.
        for (task, ..) in evicted {
            let Some(r) = self.running.remove(&task) else {
                continue;
            };
            let (retry_after, attempt_no, policy_name) = match self.faults.as_deref_mut() {
                Some(f) => {
                    let st = f.attempts.entry(r.idx).or_default();
                    st.attempts += 1;
                    st.lost_at = now;
                    let attempt_no = st.attempts as u64;
                    f.stats.tasks_lost += 1;
                    f.stats.lost_work_us += now.saturating_sub(r.started);
                    let delay = f.policy.delay(st.attempts, &mut f.rng);
                    match delay {
                        Some(d) => {
                            st.pending = true;
                            f.stats.retries_scheduled += 1;
                            f.stats.backoff.record(d);
                        }
                        None => {
                            f.stats.dead_lettered += 1;
                            f.attempts.remove(&r.idx);
                        }
                    }
                    (delay, attempt_no, f.policy.name())
                }
                // No retry runtime: lost work dead-letters immediately.
                None => (None, 0, "none"),
            };
            if let Some(s) = &self.spans {
                // The causal crash chain: running closes on the crash,
                // then either a retry_wait span carries the policy draw
                // or the dead-letter terminal records the spent budget.
                let mut log = s.borrow_mut();
                log.close_task(task, now, "machine_crash");
                match retry_after {
                    Some(d) => log.open_task_full(
                        task,
                        "retry_wait",
                        now,
                        "machine_crash",
                        policy_name,
                        "",
                        attempt_no,
                        d,
                        id,
                    ),
                    None => log.instant_task(
                        task,
                        "dead_letter",
                        now,
                        "budget_exhausted",
                        policy_name,
                        "",
                        attempt_no,
                        id,
                    ),
                }
            }
            match retry_after {
                Some(delay) => ctx.emit_prio(
                    delay,
                    PRIO_ADMIT,
                    self.engine_id,
                    SchedEvent::TaskRetry(r.idx),
                ),
                None => {
                    self.result.failed_permanently += 1;
                    self.release_slot(r.idx);
                }
            }
        }
    }

    fn handle(&mut self, ev: SchedEvent, ctx: &mut Ctx<'_, SchedEvent>) {
        if let Some(ring) = &mut self.trace {
            // One fixed-shape record per delivered event: a static kind
            // tag plus two payload words — no formatting, no allocation.
            let (kind, a, b) = match &ev {
                SchedEvent::Wake => ("wake", 0, 0),
                SchedEvent::Arrival(idx) => ("arrival", *idx as u64, 0),
                SchedEvent::Admit(t) => ("admit", t.id, 0),
                SchedEvent::GangArrival(members) => ("gang_arrival", members.len() as u64, 0),
                SchedEvent::Cycle => ("cycle", 0, 0),
                SchedEvent::Finish { task, machine, .. } => ("finish", *task, *machine),
                SchedEvent::MachineFail(id) => ("machine_fail", *id, 0),
                SchedEvent::MachineCrash(id) => ("machine_crash", *id, 0),
                SchedEvent::MachineRestore(id) => ("machine_restore", *id, 0),
                SchedEvent::MachineJoin(m) => ("machine_join", m.id, 0),
                SchedEvent::AttrUpdate { machine, attr, .. } => {
                    ("attr_update", *machine, u64::from(*attr))
                }
                SchedEvent::SpillRequest(idx) => ("spill_request", *idx as u64, 0),
                SchedEvent::TaskRetry(idx) => ("task_retry", *idx as u64, 0),
            };
            ring.push(TraceEvent {
                time: ctx.now(),
                kind,
                a,
                b,
            });
        }
        match ev {
            SchedEvent::Arrival(idx) => {
                self.stats.admitted_arrivals += 1;
                self.admit(idx, ctx.now(), "arrival");
            }
            SchedEvent::Admit(t) => {
                self.stats.admitted_dynamic += 1;
                let idx = self.slab.push_one(*t);
                self.admit(idx, ctx.now(), "dynamic");
            }
            SchedEvent::GangArrival(members) => {
                // Members enter the arena contiguously (one sealed slab
                // segment), so the gang is just a range — no per-gang
                // index list.
                let (start, len) = self.slab.push_sealed(members);
                self.stats.admitted_gang_members += len as u64;
                if self.spans.is_some() {
                    let now = ctx.now();
                    for i in start..start + len {
                        let id = self.task(i).id;
                        if let Some(s) = &self.spans {
                            s.borrow_mut().open_task(id, "queued", now, "gang");
                        }
                    }
                }
                if !self.try_gang(start, len, ctx) {
                    self.pending_gangs.push((start, len));
                }
            }
            SchedEvent::Cycle => self.cycle(ctx),
            SchedEvent::Finish {
                task,
                machine,
                epoch,
            } => {
                // Stale completions (task preempted or churned since)
                // are ignored via the epoch guard.
                if self
                    .running
                    .get(&task)
                    .is_some_and(|r| r.machine == machine && r.epoch == epoch)
                {
                    let r = self.running.remove(&task).expect("checked above");
                    if let Some(s) = &self.spans {
                        s.borrow_mut().close_task(task, ctx.now(), "finished");
                    }
                    self.cluster.release(machine, task);
                    self.release_slot(r.idx);
                    // The task terminated: drop its retry budget so a
                    // recycled arena slot never inherits it.
                    if let Some(f) = self.faults.as_deref_mut() {
                        f.attempts.remove(&r.idx);
                    }
                }
            }
            SchedEvent::MachineFail(id) => {
                self.machine_fail(id, ctx.now());
            }
            SchedEvent::MachineCrash(id) => self.machine_crash(id, ctx),
            SchedEvent::TaskRetry(idx) => {
                let now = ctx.now();
                if self.spans.is_some() {
                    let id = self.task(idx).id;
                    if let Some(s) = &self.spans {
                        s.borrow_mut().close_task(id, now, "backoff_elapsed");
                    }
                }
                self.admit(idx, now, "retry");
            }
            SchedEvent::MachineRestore(id) => {
                if let Some(s) = &self.spans {
                    s.borrow_mut().close_machine(id, ctx.now(), "restored");
                }
                self.cluster.restore_machine(id);
            }
            SchedEvent::MachineJoin(m) => {
                if let Some(s) = &self.spans {
                    s.borrow_mut().instant_ctrl(
                        m.id,
                        "machine_join",
                        ctx.now(),
                        "join",
                        "",
                        "",
                        0,
                        0,
                    );
                }
                self.cluster.add_machine(*m);
            }
            SchedEvent::AttrUpdate {
                machine,
                attr,
                value,
            } => {
                self.cluster.update_attr(machine, attr, value);
            }
            SchedEvent::Wake => {}
            // Spill requests travel through epoch outboxes to the
            // coordinator, not to engines; one reaching an engine is a
            // routing bug upstream, dropped like a stale completion.
            SchedEvent::SpillRequest(_) => debug_assert!(false, "SpillRequest delivered to engine"),
        }
    }

    /// Takes the final cluster and result out of the state, counting
    /// still-queued tasks as unplaced — except churn-requeued tasks that
    /// already hold a placed record (they were placed once; counting
    /// them again would make placed + unplaced exceed the task count).
    fn finish(&mut self) -> (SchedCluster, SimResult) {
        // Spans still open at the horizon (queued, running, retry_wait,
        // machine_down, …) close deterministically at `end = horizon`.
        if let Some(s) = &self.spans {
            s.borrow_mut().close_all(self.cfg.horizon);
        }
        let hp = std::mem::take(&mut self.hp);
        let main = std::mem::take(&mut self.main);
        let gangs = std::mem::take(&mut self.pending_gangs);
        let queued = hp
            .iter()
            .chain(main.iter())
            .copied()
            .chain(gangs.iter().flat_map(|&(start, len)| start..start + len));
        for idx in queued {
            if !self.placed_once.contains(&self.task(idx).id) {
                self.result.unplaced += 1;
            }
        }
        (
            std::mem::take(&mut self.cluster),
            std::mem::take(&mut self.result),
        )
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

/// Fires the scheduler pass every `period` µs up to the horizon.
pub struct CycleTimer {
    period: Micros,
    horizon: Micros,
    engine: CompId,
}

impl Component<SchedEvent> for CycleTimer {
    fn on_event(&mut self, _event: Event<SchedEvent>, ctx: &mut Ctx<'_, SchedEvent>) {
        ctx.emit_prio(0, PRIO_PASS, self.engine, SchedEvent::Cycle);
        if ctx.now() + self.period <= self.horizon {
            ctx.emit_self_prio(self.period, PRIO_PASS, SchedEvent::Wake);
        }
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
    pub fn new(config: SimConfig) -> Self {
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
    /// [`EngineState::task`] and must call [`EngineState::release_slot`]
    /// when it clones the task away to a sibling cell).
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
        let mut feed = ArrivalFeed::new(list.len(), stream, state.clone(), engine, spill);
        let first = feed.first_arrival();
        let feed = sim.add_component(format!("{name}/arrival_feed"), feed);
        if let Some(at) = first {
            sim.schedule_prio(at, PRIO_ADMIT, feed, feed, SchedEvent::Wake);
        }
        let timer = sim.add_component(
            format!("{name}/cycle_timer"),
            CycleTimer {
                period: cfg.cycle,
                horizon: cfg.horizon,
                engine,
            },
        );
        sim.schedule_prio(0, PRIO_PASS, timer, timer, SchedEvent::Wake);
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
    // (out of the borrowed trace) and later *moved* into the cluster; the
    // truth-group counts come from a transient inverted index over
    // borrowed machines instead of a second fully-cloned cluster state.
    let mut machines: Vec<Machine> = Vec::new();
    let mut slot: HashMap<MachineId, usize> = HashMap::new();
    let mut index = ctlm_agocs::AttrIndex::new();
    for ev in &trace.events {
        if let EventPayload::MachineAdd(m) = &ev.payload {
            if let Some(&i) = slot.get(&m.id) {
                // Re-add supersedes: mirror `ClusterState::add_machine`.
                index.remove_machine(m.id);
                index.add_machine(m);
                machines[i] = m.clone();
            } else {
                slot.insert(m.id, machines.len());
                index.add_machine(m);
                machines.push(m.clone());
            }
        }
    }
    let mut arrivals = Vec::new();
    for ev in &trace.events {
        if arrivals.len() >= max_tasks {
            break;
        }
        if let EventPayload::TaskSubmit(task) = &ev.payload {
            let Ok(reqs) = collapse(&task.constraints) else {
                continue;
            };
            let suitable = index.count_matching(&reqs);
            if suitable == 0 {
                continue;
            }
            let truth_group = ctlm_data::dataset::group_for_count(suitable, trace.group_width);
            arrivals.push(PendingTask {
                id: task.id,
                collection: task.collection,
                cpu: task.cpu.min(0.9),
                memory: task.memory.min(0.9),
                priority: task.priority,
                reqs,
                arrival: ev.time,
                truth_group,
            });
        }
    }
    (SchedCluster::from_machines(machines), arrivals)
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
}
