//! Fault plane — seeded failure injection with policy-driven recovery.
//!
//! Everything the scenario layer could express before this module was
//! *graceful*: drains requeue their tasks and spillover always reaches a
//! healthy sibling. The fault plane adds the abrupt versions as
//! first-class, deterministic timeline events:
//!
//! * **Machine crashes** ([`FaultAction::Crash`]) — the machine leaves
//!   the capacity index atomically and its *running tasks are lost*, in
//!   contrast to [`SchedEvent::MachineFail`](crate::engine::SchedEvent)
//!   whose drain requeues them. Crashes are injected per failure domain:
//!   [`FaultPlan::zone_crashes`] partitions the fleet into zones and
//!   takes whole zones down together, with seeded MTTR-based recovery.
//! * **Link outages** between cells are spec-level windows enforced at
//!   the epoch barrier by the lab runner (spill requests time out and
//!   fall back to their home cell) — they need no kernel component, so
//!   this module only defines the taxonomy.
//!
//! Recovery is policy-driven: every lost task is charged against a
//! [`RetryPolicy`] budget and either rescheduled after a (possibly
//! jittered, but always seeded) backoff delay or dead-lettered as
//! `failed_permanently` — never silently hung. All randomness flows
//! through seeded [`StdRng`]s, so a fault schedule is a pure function of
//! the spec plus the seed and reports stay byte-identical at any
//! `execution.threads`.
//!
//! ## Crash vs. drain
//!
//! | | drain ([`MachineFail`](crate::engine::SchedEvent::MachineFail)) | crash ([`MachineCrash`](crate::engine::SchedEvent::MachineCrash)) |
//! |---|---|---|
//! | running tasks | requeued immediately (`churn_rescheduled`) | lost; retried after backoff or dead-lettered |
//! | lifecycle claim | cooperative [`try_claim`](EngineState::try_claim) — skipped when contended | forcible [`override_claim`](EngineState::override_claim) — displaces in-flight drain/provision claims |
//! | recovery | paired restore after the outage | seeded MTTR per failure domain |
//! | work accounting | no work lost | `lost_work_us` accumulates the severed run time |

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::cell::RefCell;
use std::rc::Rc;

use ctlm_sim::{CompId, Ctx};
use ctlm_telemetry::Histogram;
use ctlm_trace::{MachineId, Micros};

use crate::engine::{EngineState, SchedEvent, PRIO_STATE};
use crate::idmap::IdMap;
use crate::lifecycle::LifecycleOwner;
use crate::timed::{Plan, TimedSource};

/// Seed mix for fault plans, keeping the fault RNG stream disjoint from
/// churn (`^ 0xC4012`) and the engine (`^ 0x5C4E_D111`).
const PLAN_SEED_MIX: u64 = 0xFA17_70B5;

/// Decides when (and whether) a lost task is rescheduled.
///
/// `attempt` is 1-based: the first loss of a task consults the policy
/// with `attempt == 1`. `None` means the budget is exhausted and the
/// task dead-letters (`failed_permanently`). Implementations draw any
/// jitter from the *caller's* seeded RNG so retry schedules stay
/// deterministic.
pub trait RetryPolicy {
    /// Backoff delay before retry `attempt`, or `None` to dead-letter.
    fn delay(&self, attempt: u32, rng: &mut StdRng) -> Option<Micros>;

    /// Registry name, surfaced in docs and reports.
    fn name(&self) -> &'static str;
}

/// Retries after a fixed delay, up to `budget` attempts.
#[derive(Clone, Copy, Debug)]
pub struct FixedRetry {
    /// Delay before every retry.
    pub delay: Micros,
    /// Maximum retry attempts before dead-lettering.
    pub budget: u32,
}

impl RetryPolicy for FixedRetry {
    fn delay(&self, attempt: u32, _rng: &mut StdRng) -> Option<Micros> {
        (attempt <= self.budget).then_some(self.delay.max(1))
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// Exponential backoff with seeded jitter: attempt `k` waits
/// `min(cap, base · 2^(k−1))`, scaled by a uniform factor in
/// `[1 − jitter, 1 + jitter]`, up to `budget` attempts.
#[derive(Clone, Copy, Debug)]
pub struct ExponentialBackoff {
    /// First-attempt delay.
    pub base: Micros,
    /// Upper bound on the un-jittered delay.
    pub cap: Micros,
    /// Maximum retry attempts before dead-lettering.
    pub budget: u32,
    /// Jitter half-width as a fraction of the delay, clamped to `[0, 1)`.
    pub jitter: f64,
}

impl RetryPolicy for ExponentialBackoff {
    fn delay(&self, attempt: u32, rng: &mut StdRng) -> Option<Micros> {
        if attempt > self.budget {
            return None;
        }
        let shift = (attempt - 1).min(62);
        let raw = self.base.saturating_mul(1u64 << shift).min(self.cap.max(1));
        let jitter = self.jitter.clamp(0.0, 0.999);
        let factor = if jitter > 0.0 {
            1.0 - jitter + rng.gen_range(0.0..(2.0 * jitter))
        } else {
            1.0
        };
        Some(((raw as f64 * factor) as Micros).max(1))
    }

    fn name(&self) -> &'static str {
        "exponential"
    }
}

/// One fault event on the timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// A machine crashes: capacity leaves atomically, running tasks are
    /// lost (retry/dead-letter, not requeue).
    Crash(MachineId),
    /// A crashed machine comes back (empty) after its MTTR elapses.
    Recover(MachineId),
}

/// A deterministic fault schedule: `(time, action)` pairs sorted by
/// time (same-time order preserved).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The schedule, sorted by time.
    pub events: Vec<(Micros, FaultAction)>,
}

impl FaultPlan {
    /// A plan from explicit pairs (sorted internally, stable).
    pub fn new(mut events: Vec<(Micros, FaultAction)>) -> Self {
        events.sort_by_key(|&(t, _)| t);
        Self { events }
    }

    /// Seeded correlated crashes: the fleet is partitioned into `zones`
    /// contiguous failure domains (declaration order, like rollout
    /// stages); each of `crashes` events picks a zone uniformly, crashes
    /// *every* machine in it at a time uniform in `window`, and recovers
    /// the whole zone after an exponentially distributed outage with
    /// mean `mttr`. Overlapping outages of one machine nest: it stays
    /// down until its last outstanding recovery.
    pub fn zone_crashes(
        seed: u64,
        fleet: &[MachineId],
        zones: usize,
        crashes: usize,
        window: (Micros, Micros),
        mttr: Micros,
    ) -> Self {
        if fleet.is_empty() || crashes == 0 {
            return Self::default();
        }
        let mut rng = StdRng::seed_from_u64(seed ^ PLAN_SEED_MIX);
        let zones = zones.clamp(1, fleet.len());
        let chunk = fleet.len().div_ceil(zones);
        let domains: Vec<&[MachineId]> = fleet.chunks(chunk.max(1)).collect();
        let span = window.1.saturating_sub(window.0).max(1);
        let mut events = Vec::with_capacity(crashes * 2 * chunk);
        for _ in 0..crashes {
            let zone = domains[rng.gen_range(0..domains.len())];
            let t = window.0.saturating_add(rng.gen_range(0..span));
            let u: f64 = rng.gen_range(1e-9..1.0);
            let outage = (((-u.ln()) * mttr as f64) as Micros).max(1);
            // A recovery that would land past the end of time never lands.
            let back = t.saturating_add(outage);
            for &m in zone {
                events.push((t, FaultAction::Crash(m)));
                events.push((back, FaultAction::Recover(m)));
            }
        }
        Self::new(events)
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total machine-downtime (machine·µs) the plan implies within
    /// `[0, horizon]` — nested outages of one machine count once, and
    /// machines still down at the horizon accrue up to it. This is the
    /// per-cell unavailability a report quotes without replaying the run.
    pub fn downtime_us(&self, horizon: Micros) -> u64 {
        let mut down: IdMap<MachineId, (Micros, u32)> = IdMap::default();
        let mut total = 0u64;
        for &(t, ref action) in &self.events {
            match action {
                FaultAction::Crash(id) => {
                    let entry = down.entry(*id).or_insert((t, 0));
                    entry.1 += 1;
                }
                FaultAction::Recover(id) => {
                    if let Some(entry) = down.get_mut(id) {
                        entry.1 -= 1;
                        if entry.1 == 0 {
                            let (start, _) = down.remove(id).expect("entry present");
                            total += t.min(horizon).saturating_sub(start.min(horizon));
                        }
                    }
                }
            }
        }
        for (_, (start, _)) in down {
            total += horizon.saturating_sub(start.min(horizon));
        }
        total
    }
}

/// Counters and histograms the engine's fault runtime maintains; folded
/// into reports and `--metrics` output when the fault plane is active.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Crash events that removed an online machine from the capacity
    /// index (crashes of already-offline machines are capacity-inert).
    pub crashed_machines: u64,
    /// Running tasks severed by crashes.
    pub tasks_lost: u64,
    /// Retries scheduled under the policy's budget.
    pub retries_scheduled: u64,
    /// Tasks whose retry budget ran out — `failed_permanently` in the
    /// result.
    pub dead_lettered: u64,
    /// Run time severed by crashes (µs of lost work).
    pub lost_work_us: u64,
    /// Replacement machines the autoscaler ordered against crash-induced
    /// capacity loss.
    pub replacements_ordered: u64,
    /// Time from task loss to successful re-placement (µs).
    pub reschedule: Histogram,
    /// Backoff delays handed out by the retry policy (µs).
    pub backoff: Histogram,
}

/// Walks a [`FaultPlan`], injecting fault events at the engine — the
/// abrupt sibling of [`ChurnSource`](crate::scenario::ChurnSource), and
/// like it a [`TimedSource`] put on the timeline by
/// [`attach`](crate::timed::attach).
///
/// Crashes do not negotiate: where churn's drain skips a machine someone
/// else holds, a crash takes it through the engine's
/// [`override_claim`](EngineState::override_claim), voiding any
/// in-flight drain or provision claim (the displaced owner's
/// [`release_claim`](EngineState::release_claim) fails and it must
/// abandon the machine). The override also records the displaced owner
/// when the crash is *decided*, ahead of its delivery — the provenance a
/// post-mortem needs to tell "the fault plane stole this machine from
/// the autoscaler" from a plain crash. Recovery releases the fault claim
/// and restores the machine empty.
pub struct FaultPlane<'a> {
    plan: Plan<FaultAction>,
    engine: CompId,
    state: Rc<RefCell<EngineState<'a>>>,
    /// Outstanding outage depth per machine: a machine recovers only
    /// when its last overlapping outage ends.
    down: IdMap<MachineId, u32>,
}

impl<'a> FaultPlane<'a> {
    /// A fault plane over `plan`, targeting the engine component whose
    /// shared state is `state`.
    pub fn new(plan: FaultPlan, engine: CompId, state: Rc<RefCell<EngineState<'a>>>) -> Self {
        Self {
            plan: Plan::new(plan.events),
            engine,
            state,
            down: IdMap::default(),
        }
    }
}

impl TimedSource for FaultPlane<'_> {
    const CLASS: u8 = PRIO_STATE;

    fn next_time(&self) -> Option<Micros> {
        self.plan.next_time()
    }

    fn fire(&mut self, now: Micros, ctx: &mut Ctx<'_, SchedEvent>) {
        while let Some(action) = self.plan.pop_due(now) {
            match action {
                FaultAction::Crash(id) => {
                    let depth = self.down.entry(*id).or_insert(0);
                    *depth += 1;
                    if *depth == 1 {
                        // A crash is not a negotiation: displace any
                        // in-flight drain/provision claim.
                        self.state.borrow_mut().override_claim(*id, now);
                    }
                    ctx.emit_prio(0, PRIO_STATE, self.engine, SchedEvent::MachineCrash(*id));
                }
                FaultAction::Recover(id) => {
                    // Recover only when the last overlapping outage ends;
                    // unmatched recoveries (plan artifacts) are ignored.
                    if let Some(depth) = self.down.get_mut(id) {
                        *depth -= 1;
                        if *depth == 0 {
                            self.down.remove(id);
                            let fault = LifecycleOwner::Fault;
                            self.state.borrow_mut().release_claim(*id, fault);
                            let back = SchedEvent::MachineRestore(*id);
                            ctx.emit_prio(0, PRIO_STATE, self.engine, back);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    #[test]
    fn fixed_retry_exhausts_its_budget() {
        let p = FixedRetry {
            delay: 500,
            budget: 2,
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.delay(1, &mut rng), Some(500));
        assert_eq!(p.delay(2, &mut rng), Some(500));
        assert_eq!(p.delay(3, &mut rng), None);
    }

    #[test]
    fn exponential_backoff_grows_caps_and_jitters_within_bounds() {
        let p = ExponentialBackoff {
            base: 1_000,
            cap: 6_000,
            budget: 10,
            jitter: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(7);
        for attempt in 1..=10u32 {
            let d = p.delay(attempt, &mut rng).unwrap();
            let raw = 1_000u64.saturating_mul(1 << (attempt - 1)).min(6_000);
            let lo = (raw as f64 * 0.5) as u64;
            let hi = (raw as f64 * 1.5) as u64 + 1;
            assert!(
                (lo..=hi).contains(&d),
                "attempt {attempt}: {d} outside [{lo}, {hi}]"
            );
        }
        assert_eq!(p.delay(11, &mut rng), None);
    }

    #[test]
    fn exponential_backoff_is_deterministic_per_seed() {
        let p = ExponentialBackoff {
            base: 2_000,
            cap: 60_000,
            budget: 5,
            jitter: 0.5,
        };
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (1..=5).map(|a| p.delay(a, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn zone_crashes_take_whole_domains_down_together() {
        let fleet: Vec<MachineId> = (0..12).collect();
        let plan = FaultPlan::zone_crashes(9, &fleet, 3, 2, (1_000, 2_000), 5_000);
        // 2 crash events × 4 machines per zone, each with a paired
        // recovery.
        let crashes: Vec<_> = plan
            .events
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::Crash(_)))
            .collect();
        assert_eq!(crashes.len(), 8);
        // All members of one event share a crash instant.
        let mut by_time: HashMap<Micros, usize> = HashMap::new();
        for (t, _) in &crashes {
            *by_time.entry(*t).or_insert(0) += 1;
        }
        for (_, n) in by_time {
            assert_eq!(n % 4, 0, "crash instants cover whole zones");
        }
        // Deterministic per seed.
        assert_eq!(
            plan.events,
            FaultPlan::zone_crashes(9, &fleet, 3, 2, (1_000, 2_000), 5_000).events
        );
    }

    #[test]
    fn a_recovery_past_the_end_of_time_saturates() {
        // Crashes at the last representable instant with an outage as
        // long as the time axis: every recovery clamps to the end of
        // time — none wraps to before its crash.
        let fleet: Vec<MachineId> = (0..4).collect();
        let plan =
            FaultPlan::zone_crashes(1, &fleet, 2, 2, (Micros::MAX, Micros::MAX), Micros::MAX);
        assert_eq!(plan.events.len(), 8);
        assert!(plan.events.iter().all(|&(t, _)| t == Micros::MAX));
    }

    #[test]
    fn downtime_clamps_to_horizon_and_merges_nested_outages() {
        let plan = FaultPlan::new(vec![
            (100, FaultAction::Crash(1)),
            (150, FaultAction::Crash(1)), // nested: same machine again
            (200, FaultAction::Recover(1)),
            (300, FaultAction::Recover(1)), // last recovery ends the outage
            (400, FaultAction::Crash(2)),   // never recovers
        ]);
        // Machine 1: down 100..300 (200 µs). Machine 2: 400..horizon.
        assert_eq!(plan.downtime_us(1_000), 200 + 600);
        // Horizon inside machine 1's outage.
        assert_eq!(plan.downtime_us(250), 150);
    }
}
