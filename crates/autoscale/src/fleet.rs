//! The autoscaler component: a control plane on the `ctlm-sim` kernel
//! that drives one cell's fleet through a machine lifecycle.
//!
//! ```text
//!            order            ready                    drain
//!   (none) ────────▶ Provisioning ────▶ Active ◀──────────────┐
//!                        │                ▲  │                │
//!                        │ ready          │  │ drain          │
//!                        ▼                │  ▼                │
//!                      Warm ──────────────┘ Draining ──▶ Warm │
//!                         activate            │   (pool room) │
//!                                             ▼               │
//!                                       Decommissioned        │
//!                                      (pool full) ───────────┘
//! ```
//!
//! On every evaluation tick the component samples the engine's signals
//! (queue depth, no-capacity placement failures, utilisation, admission
//! latency), asks its [`ThresholdStep`] policy for a desired fleet size,
//! and closes the gap: scale-up activates warm-pool machines first (instant)
//! and orders the remainder through a sampled [`ProvisionDelay`] (an order
//! due past the end of time never comes online); scale-down *drains* the emptiest
//! online machines through the engine's churn path — every running task
//! requeues before the machine leaves — then parks them warm or
//! decommissions them. Every fleet change is an engine method that
//! claims or releases the machine on the cell's one claim table
//! ([`ctlm_sched::lifecycle`]), so churn on the same timeline can never
//! fail a machine the autoscaler is mid-transition on (or vice versa),
//! and a crash that takes a provisioning or parked machine voids the
//! autoscaler's plans for it.
//!
//! Everything is deterministic in the config seed: identical spec +
//! seed produce bit-identical fleets, timelines and reports.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use ctlm_sched::engine::EngineState;
use ctlm_sched::lifecycle::LifecycleOwner;
use ctlm_sched::{SchedEvent, SimConfig, TimedSource};
use ctlm_sim::{Ctx, SimDuration, SimTime};
use ctlm_trace::{AttrValue, Machine, MachineId};

use crate::delay::ProvisionDelay;
use crate::policy::{Signals, ThresholdStep};

/// Delivery class for fleet mutations — same phase as completions and
/// machine churn (before admissions and the scheduling pass).
pub const PRIO_STATE: u8 = ctlm_sched::engine::PRIO_STATE;

/// The claim every fleet change of this control plane holds.
const OWNER: LifecycleOwner = LifecycleOwner::Autoscaler;

/// The shape of machines this autoscaler provisions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineTemplate {
    /// CPU capacity per machine.
    pub cpu: f64,
    /// Memory capacity per machine.
    pub memory: f64,
}

impl Default for MachineTemplate {
    fn default() -> Self {
        Self {
            cpu: 1.0,
            memory: 1.0,
        }
    }
}

/// Static configuration for one cell's autoscaler.
#[derive(Clone, Debug)]
pub struct AutoscaleConfig {
    /// Fleet floor — scale-down never drains below this many online
    /// machines.
    pub min: usize,
    /// Fleet ceiling — scale-up never targets more than this.
    pub max: usize,
    /// Evaluation cadence; the first evaluation fires one cadence in.
    pub cadence: SimDuration,
    /// Warm-pool target: provisioned machines kept on standby so a
    /// scale-up can activate instantly instead of paying the
    /// provisioning delay.
    pub warm_pool: usize,
    /// Provisioning-delay distribution for freshly ordered machines.
    pub delay: ProvisionDelay,
    /// Shape of provisioned machines.
    pub template: MachineTemplate,
    /// RNG seed (provisioning delays).
    pub seed: u64,
    /// Simulation horizon — no wake-ups are scheduled past it.
    pub horizon: SimTime,
    /// First machine id for provisioned machines (namespaced clear of
    /// the initial fleet).
    pub id_base: MachineId,
    /// When set, provisioned machines get `attr 0 = base + k` (the lab's
    /// synthetic-cell pin-attribute convention, offset past the initial
    /// fleet so no restrictive task ever aliases a provisioned node).
    pub attr_base: Option<i64>,
}

impl AutoscaleConfig {
    /// A config with the given fleet band and cadence; everything else
    /// defaulted (30 s fixed delay, no warm pool, unit-capacity
    /// template, ids from `1 << 48`).
    pub fn new(min: usize, max: usize, cadence: SimDuration, sim: &SimConfig) -> Self {
        Self {
            min,
            max: max.max(min),
            cadence: cadence.max(SimDuration::MICRO),
            warm_pool: 0,
            delay: ProvisionDelay::default(),
            template: MachineTemplate::default(),
            seed: sim.seed,
            horizon: SimTime::from_micros(sim.horizon),
            id_base: 1 << 48,
            attr_base: None,
        }
    }
}

/// One point of the fleet-size timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSample {
    /// Simulation time (µs).
    pub time: u64,
    /// Online machines.
    pub active: usize,
    /// Warm-standby machines.
    pub warm: usize,
    /// Machines still provisioning.
    pub provisioning: usize,
}

/// What the autoscaler did over a run — embedded per cell in lab
/// reports.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleStats {
    /// Policy registry name.
    pub policy: String,
    /// Fleet-size timeline (consecutive duplicates collapsed).
    pub timeline: Vec<FleetSample>,
    /// Evaluations that asked for a larger fleet.
    pub scale_ups: usize,
    /// Evaluations that asked for a smaller fleet.
    pub scale_downs: usize,
    /// Machines ordered through the provisioning delay.
    pub provisioned: usize,
    /// Scale-ups served instantly from the warm pool.
    pub warm_activations: usize,
    /// Machines drained (tasks requeued) by scale-down.
    pub drained: usize,
    /// Drained machines released for good.
    pub decommissioned: usize,
    /// In-flight provisioning orders cancelled by a reversal.
    pub cancelled: usize,
    /// Lifecycle actions skipped because another owner held the machine:
    /// churn was draining it, or a crash claimed it while it was
    /// provisioning or parked warm.
    pub conflicts_skipped: usize,
}

impl AutoscaleStats {
    /// Largest online fleet observed.
    pub fn peak_active(&self) -> usize {
        self.timeline.iter().map(|s| s.active).max().unwrap_or(0)
    }

    /// Online fleet at the last sample.
    pub fn final_active(&self) -> usize {
        self.timeline.last().map(|s| s.active).unwrap_or(0)
    }

    /// Folds the lifecycle counters and fleet-size extremes into a
    /// telemetry registry under `prefix` (e.g. `"oracle.hot.autoscale"`).
    /// Everything recorded is sim-plane state — a pure function of the
    /// deterministic event sequence — so the export stays byte-identical
    /// across thread counts.
    pub fn record_into(&self, metrics: &mut ctlm_telemetry::Metrics, prefix: &str) {
        let c = |name: &str, v: usize| (format!("{prefix}.{name}"), v as u64);
        for (name, v) in [
            c("scale_ups", self.scale_ups),
            c("scale_downs", self.scale_downs),
            c("provisioned", self.provisioned),
            c("warm_activations", self.warm_activations),
            c("drained", self.drained),
            c("decommissioned", self.decommissioned),
            c("cancelled", self.cancelled),
            c("conflicts_skipped", self.conflicts_skipped),
        ] {
            metrics.counter(&name, v);
        }
        metrics.gauge(format!("{prefix}.peak_active"), self.peak_active() as f64);
        metrics.gauge(format!("{prefix}.final_active"), self.final_active() as f64);
    }
}

/// Where a provisioning machine is headed once ready.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Destination {
    /// Straight into the live fleet.
    Active,
    /// Onto the standby pool.
    Warm,
}

/// An in-flight provisioning order.
#[derive(Debug)]
struct Provision {
    ready_at: SimTime,
    machine: Machine,
    dest: Destination,
}

/// The control-plane component: a [`TimedSource`] —
/// [`attach`](ctlm_sched::attach) it to the cell's simulation. It first
/// acts at time 0, then on its cadence and at provisioning completions.
///
/// It reads the cell through the engine state every wake is handed and
/// changes the fleet only through the engine's claim methods: a machine on order or parked warm
/// stays claimed for [`LifecycleOwner::Autoscaler`], activation is
/// [`admit_claimed`](EngineState::admit_claimed) and scale-down is
/// [`claim_and_take`](EngineState::claim_and_take). The driver keeps
/// the autoscaler, attaches it by `&mut` and reads [`Autoscaler::stats`]
/// after the run.
pub struct Autoscaler {
    cfg: AutoscaleConfig,
    policy: ThresholdStep,
    rng: StdRng,
    /// In-flight orders, sorted by `(ready_at, machine id)`.
    provisioning: Vec<Provision>,
    /// Standby machines, oldest first.
    warm: Vec<Machine>,
    /// The next wake: the earlier of the next provisioning completion
    /// and the next evaluation tick, horizon permitting.
    next_wake: Option<SimTime>,
    next_eval: SimTime,
    last_no_capacity: u64,
    last_crashed: u64,
    next_id: MachineId,
    next_attr: i64,
    /// Victim-selection scratch.
    scratch: Vec<MachineId>,
    /// What the autoscaler did so far; read it after the run.
    pub stats: AutoscaleStats,
}

impl Autoscaler {
    /// Builds the component; it acts on whichever cell it is attached to.
    pub fn new(cfg: AutoscaleConfig, policy: ThresholdStep) -> Self {
        let stats = AutoscaleStats {
            policy: ThresholdStep::NAME.to_string(),
            ..AutoscaleStats::default()
        };
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0xA07C_5CA1_E000_0000);
        let next_eval = SimTime::ZERO.saturating_add(cfg.cadence);
        let next_id = cfg.id_base;
        let next_attr = cfg.attr_base.unwrap_or(0);
        Self {
            cfg,
            policy,
            rng,
            provisioning: Vec::new(),
            warm: Vec::new(),
            next_wake: Some(SimTime::ZERO),
            next_eval,
            last_no_capacity: 0,
            last_crashed: 0,
            next_id,
            next_attr,
            scratch: Vec::new(),
            stats,
        }
    }

    /// Orders one machine from the template; it comes online (or joins
    /// the warm pool) after a sampled provisioning delay.
    fn order_machine(&mut self, engine: &mut EngineState<'_>, now: SimTime, dest: Destination) {
        let id = self.next_id;
        self.next_id += 1;
        let mut attributes = Vec::new();
        if self.cfg.attr_base.is_some() {
            attributes = vec![(0, AttrValue::Int(self.next_attr))];
            self.next_attr += 1;
        }
        let (cpu, memory) = (self.cfg.template.cpu, self.cfg.template.memory);
        let m = Machine::with_attributes(id, cpu, memory, attributes);
        // Fresh ids are never contested, but the claim is what makes
        // "drain while provisioning" impossible for any other owner.
        let claimed = engine.try_claim(id, OWNER);
        debug_assert!(claimed, "provisioned ids are namespaced and unclaimed");
        let ready_at = now.saturating_add(self.cfg.delay.sample(&mut self.rng));
        let pos = self
            .provisioning
            .partition_point(|p| (p.ready_at, p.machine.id) <= (ready_at, id));
        self.provisioning.insert(
            pos,
            Provision {
                ready_at,
                machine: m,
                dest,
            },
        );
        self.stats.provisioned += 1;
    }

    /// Brings every due provisioning order online (or into the warm
    /// pool), in `(ready_at, id)` order. An order whose claim was
    /// displaced mid-provision (a crash overrode it) never comes online:
    /// the machine is dropped and the new owner keeps the claim.
    fn complete_due(&mut self, engine: &mut EngineState<'_>, now: SimTime) {
        while self.provisioning.first().is_some_and(|p| p.ready_at <= now) {
            let p = self.provisioning.remove(0);
            let kept = match p.dest {
                Destination::Active => engine.admit_claimed(p.machine, OWNER, now),
                Destination::Warm => {
                    let kept = engine.claims().owner(p.machine.id) == Some(OWNER);
                    if kept {
                        self.warm.push(p.machine);
                    }
                    kept
                }
            };
            if !kept {
                self.stats.conflicts_skipped += 1;
            }
        }
    }

    /// In-flight orders headed for the live fleet.
    fn inflight_active(&self) -> usize {
        self.provisioning
            .iter()
            .filter(|p| p.dest == Destination::Active)
            .count()
    }

    /// Warm machines on hand or on order.
    fn warm_supply(&self) -> usize {
        self.warm.len()
            + self
                .provisioning
                .iter()
                .filter(|p| p.dest == Destination::Warm)
                .count()
    }

    /// Grows the live fleet by `need` machines: warm pool first, then
    /// fresh provisioning orders. A warm machine whose claim was
    /// displaced (it crashed while parked) is dropped, not activated.
    fn scale_up(&mut self, engine: &mut EngineState<'_>, now: SimTime, need: usize) {
        let mut remaining = need;
        while remaining > 0 {
            if self.warm.is_empty() {
                self.order_machine(engine, now, Destination::Active);
                remaining -= 1;
                continue;
            }
            let m = self.warm.remove(0);
            if !engine.admit_claimed(m, OWNER, now) {
                self.stats.conflicts_skipped += 1;
                continue;
            }
            self.stats.warm_activations += 1;
            remaining -= 1;
        }
    }

    /// Shrinks the live fleet by up to `excess` machines, emptiest
    /// first: drain (tasks requeue through the engine's churn path),
    /// then park warm or decommission. Machines another owner holds are
    /// skipped, not contested.
    fn scale_down(&mut self, engine: &mut EngineState<'_>, now: SimTime, excess: usize) {
        let mut scratch = std::mem::take(&mut self.scratch);
        engine.cluster().machines_by_free_cpu_desc(&mut scratch);
        let mut taken = 0usize;
        for &id in &scratch {
            if taken == excess {
                break;
            }
            let Some(m) = engine.claim_and_take(id, OWNER, now) else {
                self.stats.conflicts_skipped += 1;
                continue;
            };
            self.stats.drained += 1;
            if self.warm_supply() < self.cfg.warm_pool {
                self.warm.push(m); // keeps its claim while parked
            } else {
                engine.release_claim(id, OWNER);
                self.stats.decommissioned += 1;
            }
            taken += 1;
        }
        self.scratch = scratch;
    }

    /// Cancels in-flight Active-bound orders on a reversal (newest
    /// first), retargeting them to the warm pool while it has room.
    fn cancel_active_orders(&mut self, engine: &mut EngineState<'_>, mut excess: usize) {
        for i in (0..self.provisioning.len()).rev() {
            if excess == 0 {
                break;
            }
            if self.provisioning[i].dest != Destination::Active {
                continue;
            }
            if self.warm_supply() < self.cfg.warm_pool {
                self.provisioning[i].dest = Destination::Warm;
            } else {
                let p = self.provisioning.remove(i);
                // If a crash displaced the provision claim, the fault
                // plane owns the id now — cancelling must not release a
                // claim that is no longer ours.
                engine.release_claim(p.machine.id, OWNER);
                self.stats.cancelled += 1;
            }
            excess -= 1;
        }
    }

    /// One policy evaluation: sample signals, size, act.
    fn evaluate(&mut self, engine: &mut EngineState<'_>, now: SimTime) {
        let (signals, crash_lost) = {
            let ledger = engine.ledger();
            let no_capacity = ledger.stats().no_capacity;
            let crashed = ledger.fault_stats().map_or(0, |f| f.crashed_machines);
            let s = Signals {
                fleet: engine.cluster().len(),
                pending: engine.main_queue_len()
                    + engine.hp_queue_len()
                    + engine.pending_gang_members(),
                utilisation: engine.cluster().cpu_utilisation(),
                no_capacity_delta: no_capacity - self.last_no_capacity,
            };
            self.last_no_capacity = no_capacity;
            let lost = crashed - self.last_crashed;
            self.last_crashed = crashed;
            (s, lost as usize)
        };
        let mut desired = self
            .policy
            .desired_fleet(&signals)
            .clamp(self.cfg.min, self.cfg.max);
        // Crash-induced capacity loss is a scale-up signal regardless of
        // policy: the fleet just shrank abruptly, so target at least the
        // pre-crash size (ceiling permitting) and order replacements
        // through the normal provisioning lifecycle.
        if crash_lost > 0 {
            desired = desired.max((signals.fleet + crash_lost).min(self.cfg.max));
        }
        // In-flight Active orders count toward the target, so a slow
        // provisioning delay does not compound into over-ordering.
        let committed = signals.fleet + self.inflight_active();
        if desired > committed {
            self.stats.scale_ups += 1;
            let ordered = desired - committed;
            let replacements = crash_lost.min(ordered) as u64;
            if crash_lost > 0 {
                engine.ledger_mut().note_replacements(replacements);
            }
            // The decision's audit trail — policy, machine delta, crash
            // replacements — on the cell's flight recorder (when on).
            let cause = if crash_lost > 0 {
                "crash_loss"
            } else {
                "demand"
            };
            engine.control_decision(
                "scale_up",
                now,
                cause,
                ThresholdStep::NAME,
                ordered as u64,
                replacements,
            );
            self.scale_up(engine, now, ordered);
        } else if desired < signals.fleet {
            self.stats.scale_downs += 1;
            let released = signals.fleet - desired;
            engine.control_decision(
                "scale_down",
                now,
                "surplus",
                ThresholdStep::NAME,
                released as u64,
                0,
            );
            self.cancel_active_orders(engine, self.inflight_active());
            self.scale_down(engine, now, released);
        } else if desired < committed {
            // Fleet is right-sized but orders are still in flight.
            self.cancel_active_orders(engine, committed - desired);
        }
        // Keep the standby pool stocked (initial prefill included).
        for _ in self.warm_supply()..self.cfg.warm_pool {
            self.order_machine(engine, now, Destination::Warm);
        }
    }

    /// Appends a timeline sample when the counts changed.
    fn record(&mut self, engine: &EngineState<'_>, now: SimTime) {
        let sample = FleetSample {
            time: now.as_micros(),
            active: engine.cluster().len(),
            warm: self.warm.len(),
            provisioning: self.provisioning.len(),
        };
        let stats = &mut self.stats;
        let same = stats.timeline.last().is_some_and(|last| {
            (last.active, last.warm, last.provisioning)
                == (sample.active, sample.warm, sample.provisioning)
        });
        if !same {
            stats.timeline.push(sample);
        }
    }
}

impl TimedSource for Autoscaler {
    const CLASS: u8 = PRIO_STATE;

    fn next_time(&self, _engine: &EngineState<'_>) -> Option<SimTime> {
        self.next_wake
    }

    fn fire(&mut self, now: SimTime, engine: &mut EngineState<'_>, _ctx: &mut Ctx<'_, SchedEvent>) {
        if self.stats.timeline.is_empty() {
            // First wake: baseline the timeline at the initial fleet
            // (and prefill the warm pool without waiting a cadence).
            self.record(engine, now);
            for _ in self.warm_supply()..self.cfg.warm_pool {
                self.order_machine(engine, now, Destination::Warm);
            }
        }
        self.complete_due(engine, now);
        while self.next_eval <= now {
            self.next_eval = self.next_eval.saturating_add(self.cfg.cadence);
            self.evaluate(engine, now);
        }
        self.record(engine, now);
        let ready = self.provisioning.first().map(|p| p.ready_at);
        let next = ready.map_or(self.next_eval, |r| r.min(self.next_eval));
        self.next_wake = (next <= self.cfg.horizon).then_some(next);
    }
}
