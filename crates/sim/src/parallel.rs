//! Epoch-sharded parallel execution: many independent [`Sim`] shards
//! advancing in lock-step epochs on the worker pool.
//!
//! The model is conservative parallel discrete-event simulation. Each
//! *shard* (one simulation cell) owns a complete [`Sim`] — its own
//! clock, event queue, components and world — and runs
//! independently up to the next epoch boundary
//! `t_epoch = (floor(t_min / epoch) + 1) * epoch`, where `t_min` is the
//! earliest pending event across all shards (so runs skip over empty
//! epochs instead of spinning barriers). Cross-shard traffic never
//! enters another shard's queue mid-epoch: a component calls
//! [`Ctx::emit_remote`](crate::Ctx::emit_remote), which records the
//! payload in the shard's *outbox*. At the barrier the coordinator
//! drains every outbox, merges the entries into a single list ordered by
//! `(time, priority, shard, seq)` — a total order fixed entirely by
//! simulation state, never by worker timing — and hands them to the
//! driver's barrier hook, which may schedule follow-up events into any
//! shard at or after the barrier time.
//!
//! Determinism is the contract: thread count only changes which OS
//! thread runs a shard's epoch, never the event order inside a shard
//! (each shard is a sequential [`Sim`]) nor the merge order at barriers
//! (fixed by the sort key). For a given set of shards, seeds, and epoch
//! length, results are bit-identical for any `threads` value.
//!
//! A shard runs its epoch on whichever worker thread picks it up, which
//! the worker pool allows only because [`CellKernel`] is `Send`: its
//! world, its components (every [`Component`](crate::Component) is
//! `Send`) and its payloads are. State two shards could both reach does
//! not compile, so no convention has to keep them apart.

use rayon::prelude::*;

use crate::kernel::{CompId, Sim};
use crate::time::{SimDuration, SimTime};

/// A cross-shard message drained from a shard outbox at an epoch
/// barrier.
#[derive(Clone, Debug)]
pub struct RemoteEvent<E> {
    /// Shard-local time at which [`Ctx::emit_remote`](crate::Ctx::emit_remote)
    /// ran.
    pub time: SimTime,
    /// Delivery class, as for queued events.
    pub priority: u8,
    /// Index of the shard that emitted the message.
    pub shard: usize,
    /// Position in the emitting shard's outbox for this epoch — the
    /// final tie-break of the merge order.
    pub seq: u64,
    /// Component (in the emitting shard) that emitted the message.
    pub src: CompId,
    /// The typed payload.
    pub payload: E,
}

/// One shard: a [`Sim`] hosted on the coordinator, dispatchable to a
/// worker thread for the duration of an epoch.
///
/// Dereferences to the inner [`Sim`], so a barrier hook can read a
/// shard's [`Sim::world`] and call [`Sim::schedule_prio`] etc. directly
/// on it.
pub struct CellKernel<'a, W, E> {
    sim: Sim<'a, W, E>,
    /// Wall-clock ns the shard's last `run_before` took — written by
    /// whichever worker ran the shard this round (exactly one per round,
    /// so no race), read by the coordinator after the barrier. Only
    /// maintained when profiling is enabled.
    last_run_ns: u64,
}

impl<W, E> CellKernel<'_, W, E> {
    /// One epoch of this shard: every event before `bound`, timed into
    /// `last_run_ns` when profiling (no clock call otherwise).
    fn run_epoch(&mut self, bound: SimTime, profile: bool) {
        if profile {
            let t0 = std::time::Instant::now();
            self.sim.run_before(bound);
            self.last_run_ns = t0.elapsed().as_nanos() as u64;
        } else {
            self.sim.run_before(bound);
        }
    }
}

impl<'a, W, E> std::ops::Deref for CellKernel<'a, W, E> {
    type Target = Sim<'a, W, E>;
    fn deref(&self) -> &Self::Target {
        &self.sim
    }
}

impl<W, E> std::ops::DerefMut for CellKernel<'_, W, E> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.sim
    }
}

/// Bounds and setpoint for epoch-length autotuning — see
/// [`ParallelSim::set_autotune`].
///
/// A hand-picked epoch length is wrong somewhere: sparse fleets (1M
/// mostly-idle machines) want long epochs so rounds aren't dominated by
/// barrier overhead, dense bursts want short epochs so cross-shard
/// traffic isn't delayed and per-round work stays balanced. The
/// controller watches per-round event density and doubles or halves the
/// epoch toward `target` delivered events per round, clamped to
/// `[min, max]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochAutotune {
    /// Shortest epoch the controller may pick.
    pub min: SimDuration,
    /// Longest epoch the controller may pick.
    pub max: SimDuration,
    /// Desired events delivered per round; the epoch halves above
    /// `2 × target` and doubles below `target / 2`.
    pub target: u64,
}

impl Default for EpochAutotune {
    fn default() -> Self {
        Self {
            min: SimDuration::from_micros(1_000),       // 1 ms
            max: SimDuration::from_micros(600_000_000), // 10 min
            target: 4_096,
        }
    }
}

/// Host-plane wall-clock totals for one parallel run — where epoch time
/// went, per shard. Only maintained when
/// [`ParallelSim::enable_profiling`] was called; the numbers are
/// host-dependent and must never feed deterministic output (keep them in
/// `_perf`-style sections that byte-compares exclude).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParallelPerf {
    /// Rounds (epoch barriers) profiled.
    pub rounds: u64,
    /// Total coordinator time draining and merge-sorting outboxes (ns).
    pub drain_ns: u64,
    /// Per-shard total time inside `run_before` (ns).
    pub shard_run_ns: Vec<u64>,
    /// Per-shard total derived barrier wait (ns): per round, the slowest
    /// shard's run time minus this shard's. The spread across shards is
    /// the load-imbalance signal.
    pub shard_barrier_ns: Vec<u64>,
    /// Per-round epoch bounds (µs sim time), one entry per profiled
    /// round. Together with [`ParallelPerf::round_shard_run_ns`] this is
    /// the flight-recorder host track: where each shard's wall time went,
    /// round by round. In-memory only — the `_perf` report serialization
    /// carries totals, never these samples.
    pub round_bounds: Vec<u64>,
    /// Per-round per-shard `run_before` wall time (ns), row-major:
    /// `round_shard_run_ns[round * shards + shard]`.
    pub round_shard_run_ns: Vec<u64>,
}

/// The epoch-barrier coordinator: owns the shards, advances them epoch
/// by epoch (in parallel when `threads > 1`), and merges cross-shard
/// outboxes deterministically at each barrier.
pub struct ParallelSim<'a, W, E> {
    shards: Vec<CellKernel<'a, W, E>>,
    epoch: SimDuration,
    threads: usize,
    barriers: u64,
    /// Epoch-length controller; `None` keeps the configured epoch fixed.
    autotune: Option<EpochAutotune>,
    /// `events_delivered()` at the previous barrier — the controller's
    /// per-round density signal.
    last_delivered: u64,
    /// Test-only override of the sequential execution order — see
    /// [`ParallelSim::set_sequential_order`].
    exec_order: Option<Vec<usize>>,
    /// Wall-clock profile accumulator; `None` (the default) keeps the
    /// run loop free of any timing calls.
    perf: Option<ParallelPerf>,
}

impl<'a, W: Send, E: Send> ParallelSim<'a, W, E> {
    /// A coordinator with the given epoch length and thread count.
    ///
    /// `threads == 0` means "use the worker pool's configured width";
    /// `threads == 1` (or a single shard) runs shards sequentially on
    /// the calling thread — same semantics, no pool dispatch.
    ///
    /// # Panics
    /// Panics when `epoch` is 0.
    pub fn new(epoch: SimDuration, threads: usize) -> Self {
        assert!(!epoch.is_zero(), "epoch length must be positive");
        Self {
            shards: Vec::new(),
            epoch,
            threads,
            barriers: 0,
            autotune: None,
            last_delivered: 0,
            exec_order: None,
            perf: None,
        }
    }

    /// Turns on host-plane profiling: subsequent [`ParallelSim::run_until`]
    /// rounds record per-shard `run_before` time, derived barrier wait,
    /// and coordinator drain time into a [`ParallelPerf`] readable via
    /// [`ParallelSim::perf`]. Off by default — the run loop then makes no
    /// clock calls at all, preserving the zero-overhead contract.
    pub fn enable_profiling(&mut self) {
        if self.perf.is_none() {
            self.perf = Some(ParallelPerf::default());
        }
    }

    /// The accumulated wall-clock profile, when profiling is enabled.
    pub fn perf(&self) -> Option<&ParallelPerf> {
        self.perf.as_ref()
    }

    /// Enables epoch-length autotuning: after every barrier the epoch
    /// halves when the round delivered more than `2 × target` events and
    /// doubles when it delivered fewer than `target / 2`, clamped to
    /// `[min, max]`. The signal (events delivered per round) depends only
    /// on simulation state, so tuned runs remain bit-identical for any
    /// thread count. The current epoch is clamped into the bounds
    /// immediately.
    ///
    /// # Panics
    /// Panics when `min` is 0 or `min > max`.
    pub fn set_autotune(&mut self, tune: EpochAutotune) {
        assert!(!tune.min.is_zero(), "autotune min epoch must be positive");
        assert!(tune.min <= tune.max, "autotune min must not exceed max");
        self.epoch = self.epoch.clamp(tune.min, tune.max);
        self.autotune = Some(tune);
    }

    /// Adds a shard, returning its index.
    pub fn add_shard(&mut self, sim: Sim<'a, W, E>) -> usize {
        self.shards.push(CellKernel {
            sim,
            last_run_ns: 0,
        });
        self.shards.len() - 1
    }

    /// A shard by index, for tests to read its world between runs.
    #[cfg(test)]
    pub fn shard(&self, i: usize) -> &CellKernel<'a, W, E> {
        &self.shards[i]
    }

    /// Ends the coordinator, handing back its shards in index order.
    pub fn into_shards(self) -> impl Iterator<Item = Sim<'a, W, E>> {
        self.shards.into_iter().map(|shard| shard.sim)
    }

    /// The configured epoch length.
    pub fn epoch(&self) -> SimDuration {
        self.epoch
    }

    /// Epoch barriers crossed so far (empty epochs are skipped, so this
    /// counts rounds that actually delivered events).
    pub fn barriers(&self) -> u64 {
        self.barriers
    }

    /// Total events delivered across all shards.
    pub fn events_delivered(&self) -> u64 {
        self.shards.iter().map(|s| s.sim.events_delivered()).sum()
    }

    /// Overrides the order in which the *sequential* path (threads ≤ 1)
    /// runs shards within an epoch. Exists so tests can prove the merge
    /// order is independent of shard scheduling — any permutation of
    /// the shard indices [`ParallelSim::add_shard`] returned must produce
    /// identical results. Ignored on the parallel path.
    #[cfg(test)]
    fn set_sequential_order(&mut self, order: Vec<usize>) {
        assert_eq!(order.len(), self.shards.len());
        self.exec_order = Some(order);
    }

    /// Runs all shards up to `horizon` (inclusive, as
    /// [`Sim::run_until`]) in epoch-barrier rounds.
    ///
    /// Each round: find the earliest pending event time `t_min` across
    /// shards; stop if none remains or `t_min > horizon`; advance every
    /// shard through `[t_min, bound)` where
    /// `bound = min((t_min/epoch + 1) * epoch, horizon + 1)`; then drain
    /// the outboxes, merge them by `(time, priority, shard, seq)`, and
    /// call `hook(bound, messages, shards)`. The hook routes cross-shard
    /// traffic by scheduling events into target shards — at `bound` or
    /// later (times below a shard's clock panic, as always). Each round
    /// delivers at least one event (`bound > t_min`), so the loop
    /// terminates whenever the underlying simulation does.
    pub fn run_until<F>(&mut self, horizon: SimTime, mut hook: F)
    where
        F: FnMut(SimTime, Vec<RemoteEvent<E>>, &mut [CellKernel<'a, W, E>]),
    {
        let effective = match self.threads {
            0 => rayon::current_num_threads().max(1),
            t => t,
        };
        while let Some(t_min) = self
            .shards
            .iter_mut()
            .filter_map(|s| s.sim.next_event_time())
            .min()
        {
            if t_min > horizon {
                break;
            }
            let bound = t_min
                .next_multiple(self.epoch)
                .min(horizon.saturating_add(SimDuration::MICRO));
            self.barriers += 1;
            let profile = self.perf.is_some();
            if effective > 1 && self.shards.len() > 1 {
                let chunk = self.shards.len().div_ceil(effective);
                self.shards.par_chunks_mut(chunk).for_each(|shards| {
                    for shard in shards {
                        shard.run_epoch(bound, profile);
                    }
                });
            } else if let Some(order) = &self.exec_order {
                for &i in order {
                    self.shards[i].run_epoch(bound, profile);
                }
            } else {
                for shard in &mut self.shards {
                    shard.run_epoch(bound, profile);
                }
            }
            if let Some(perf) = &mut self.perf {
                perf.rounds += 1;
                perf.shard_run_ns.resize(self.shards.len(), 0);
                perf.shard_barrier_ns.resize(self.shards.len(), 0);
                // Barrier wait is derived: a worker that finished early
                // sat at the barrier for (slowest shard − its own) time.
                // With threads < shards this over-approximates (shards
                // sharing a worker run back to back), but the spread
                // remains the imbalance signal and the derivation keeps
                // the hot path free of any synchronised clocks.
                let round_max = self.shards.iter().map(|s| s.last_run_ns).max().unwrap_or(0);
                perf.round_bounds.push(bound.as_micros());
                for (i, shard) in self.shards.iter().enumerate() {
                    perf.shard_run_ns[i] += shard.last_run_ns;
                    perf.shard_barrier_ns[i] += round_max - shard.last_run_ns;
                    perf.round_shard_run_ns.push(shard.last_run_ns);
                }
            }
            let drain_t0 = self.perf.is_some().then(std::time::Instant::now);
            let mut msgs: Vec<RemoteEvent<E>> = Vec::new();
            for (i, shard) in self.shards.iter_mut().enumerate() {
                if !shard.sim.has_outbox() {
                    continue;
                }
                for (seq, (time, priority, src, payload)) in
                    shard.sim.take_outbox().into_iter().enumerate()
                {
                    msgs.push(RemoteEvent {
                        time,
                        priority,
                        shard: i,
                        seq: seq as u64,
                        src,
                        payload,
                    });
                }
            }
            msgs.sort_by_key(|m| (m.time, m.priority, m.shard, m.seq));
            if let (Some(perf), Some(t0)) = (&mut self.perf, drain_t0) {
                perf.drain_ns += t0.elapsed().as_nanos() as u64;
            }
            hook(bound, msgs, &mut self.shards);
            if let Some(tune) = self.autotune {
                let delivered = self.events_delivered();
                let delta = delivered - self.last_delivered;
                self.last_delivered = delivered;
                if delta > tune.target.saturating_mul(2) {
                    self.epoch = (self.epoch / 2).max(tune.min);
                } else if delta < tune.target / 2 {
                    self.epoch = self.epoch.saturating_mul(2).min(tune.max);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::kernel::{Component, Ctx};

    const HOPS: u64 = 64;
    const EPOCH: SimDuration = d(1 << 18);
    const HORIZON: SimTime = t(1 << 26);

    const fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    const fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    /// One shard's world: its delivery log.
    type Log = Vec<(SimTime, u64)>;

    /// Logs every delivery into its shard's world, forwards the hop
    /// count cross-shard, and spawns some shard-local echo traffic so
    /// epochs are not trivially single-event.
    struct Relay;
    impl Component<Log, u64> for Relay {
        fn on_event(&mut self, ev: Event<u64>, log: &mut Log, ctx: &mut Ctx<'_, u64>) {
            log.push((ctx.now(), ev.payload));
            if ev.payload < HOPS {
                ctx.emit_remote(1, ev.payload + 1);
                if ev.payload.is_multiple_of(2) {
                    ctx.emit_self(d(EPOCH.as_micros() / 3 + 1), ev.payload + 1001);
                }
            }
        }
    }

    /// Four shards ringing hop counters around; returns each shard's
    /// delivery log.
    fn run_ring(threads: usize, order: Option<Vec<usize>>) -> Vec<Log> {
        let mut psim = ring(threads);
        if let Some(order) = order {
            psim.set_sequential_order(order);
        }
        run_ring_to_horizon(&mut psim)
    }

    const SHARDS: usize = 4;

    /// Four relay shards, each seeded with one hop at a distinct time.
    /// The relay is every shard's component 0.
    fn ring(threads: usize) -> ParallelSim<'static, Log, u64> {
        let mut psim = ParallelSim::new(EPOCH, threads);
        for shard in 0..SHARDS {
            let mut sim = Sim::new(Log::new());
            let id = sim.add_component(Relay);
            sim.schedule(t(1000 * (shard as u64 + 1)), id, id, 0);
            psim.add_shard(sim);
        }
        psim
    }

    /// Runs a [`ring`] to the horizon, each hop going to the next shard;
    /// returns each shard's delivery log.
    fn run_ring_to_horizon(psim: &mut ParallelSim<'_, Log, u64>) -> Vec<Log> {
        psim.run_until(HORIZON, |bound, msgs, shards| {
            for m in msgs {
                let target = (m.shard + 1) % SHARDS;
                let at = bound.min(HORIZON);
                shards[target].schedule_prio(at, m.priority, 0, 0, m.payload);
            }
        });
        (0..SHARDS).map(|i| psim.shard(i).world().clone()).collect()
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let baseline = run_ring(1, None);
        assert!(
            baseline.iter().map(|l| l.len()).sum::<usize>() > 4 * HOPS as usize,
            "ring traffic should have flowed"
        );
        for threads in [0, 2, 3, 4, 7] {
            assert_eq!(run_ring(threads, None), baseline, "threads={threads}");
        }
    }

    #[test]
    fn shard_execution_order_does_not_change_results() {
        let baseline = run_ring(1, None);
        for order in [
            vec![3, 2, 1, 0],
            vec![1, 0, 3, 2],
            vec![2, 3, 0, 1],
            vec![0, 2, 1, 3],
        ] {
            assert_eq!(
                run_ring(1, Some(order.clone())),
                baseline,
                "order={order:?}"
            );
        }
    }

    #[test]
    fn remote_merge_order_is_time_priority_shard_seq() {
        struct Burst {
            shard: usize,
        }
        impl Component<(), u64> for Burst {
            fn on_event(&mut self, _ev: Event<u64>, _: &mut (), ctx: &mut Ctx<'_, u64>) {
                // Same instant, mixed priorities, two messages per shard.
                ctx.emit_remote(1, 100 + self.shard as u64);
                ctx.emit_remote(0, 200 + self.shard as u64);
            }
        }
        let mut psim: ParallelSim<'_, (), u64> = ParallelSim::new(d(1_000), 1);
        for shard in 0..3 {
            let mut sim = Sim::new(());
            let id = sim.add_component(Burst { shard });
            sim.schedule(t(500), id, id, 0);
            psim.add_shard(sim);
        }
        let mut merged = Vec::new();
        psim.run_until(t(2_000), |_bound, msgs, _shards| {
            merged.extend(
                msgs.into_iter()
                    .map(|m| (m.time.as_micros(), m.priority, m.shard, m.seq, m.payload)),
            );
        });
        assert_eq!(
            merged,
            vec![
                (500, 0, 0, 1, 200),
                (500, 0, 1, 1, 201),
                (500, 0, 2, 1, 202),
                (500, 1, 0, 0, 100),
                (500, 1, 1, 0, 101),
                (500, 1, 2, 0, 102),
            ]
        );
    }

    #[test]
    fn empty_epochs_are_skipped() {
        struct Quiet;
        impl Component<(), u64> for Quiet {
            fn on_event(&mut self, _ev: Event<u64>, _: &mut (), _ctx: &mut Ctx<'_, u64>) {}
        }
        let mut psim: ParallelSim<'_, (), u64> = ParallelSim::new(d(1_000), 1);
        let mut sim = Sim::new(());
        let id = sim.add_component(Quiet);
        // Two busy epochs separated by ~100 empty ones.
        sim.schedule(t(10), id, id, 0);
        sim.schedule(t(20), id, id, 0);
        sim.schedule(t(100_500), id, id, 0);
        psim.add_shard(sim);
        let mut sim2 = Sim::new(());
        let id2 = sim2.add_component(Quiet);
        sim2.schedule(t(15), id2, id2, 0);
        psim.add_shard(sim2);
        psim.run_until(t(1_000_000), |_, _, _| {});
        assert_eq!(psim.barriers(), 2, "only busy epochs cross a barrier");
        assert_eq!(psim.events_delivered(), 4);
    }

    /// A fixed-step self-event chain: `hops` deliveries spaced `step` µs
    /// apart — event density is exactly `1/step`, so the autotune
    /// controller's trajectory is easy to predict.
    fn chain_sim(hops: u64, step: u64) -> Sim<'static, (), u64> {
        struct Chain {
            remaining: u64,
            step: SimDuration,
        }
        impl Component<(), u64> for Chain {
            fn on_event(&mut self, _ev: Event<u64>, _: &mut (), ctx: &mut Ctx<'_, u64>) {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.emit_self(self.step, 0);
                }
            }
        }
        let mut sim = Sim::new(());
        let id = sim.add_component(Chain {
            remaining: hops,
            step: d(step),
        });
        sim.schedule(SimTime::ZERO, id, id, 0);
        sim
    }

    #[test]
    fn autotune_shrinks_epoch_when_density_is_high() {
        // 100 µs steps under a 1 s epoch = 10k events per round against a
        // target of 128: the controller must halve its way down (and stay
        // above the floor).
        let mut psim = ParallelSim::new(d(1_000_000), 1);
        psim.add_shard(chain_sim(30_000, 100));
        psim.set_autotune(EpochAutotune {
            min: d(1_000),
            max: d(600_000_000),
            target: 128,
        });
        psim.run_until(t(3_000_000), |_, _, _| {});
        assert!(
            psim.epoch() < d(1_000_000),
            "dense traffic should shrink the epoch, got {}",
            psim.epoch()
        );
        assert!(psim.epoch() >= d(1_000), "epoch must respect the floor");
    }

    #[test]
    fn autotune_grows_epoch_when_density_is_low_and_clamps_at_max() {
        // One event per second under a 10 ms epoch: every round delivers
        // a single event, far below target/2, so the epoch doubles each
        // barrier until the ceiling.
        let mut psim = ParallelSim::new(d(10_000), 1);
        psim.add_shard(chain_sim(20, 1_000_000));
        psim.set_autotune(EpochAutotune {
            min: d(1_000),
            max: d(200_000),
            target: 128,
        });
        psim.run_until(t(25_000_000), |_, _, _| {});
        assert_eq!(
            psim.epoch(),
            d(200_000),
            "sparse traffic should hit the ceiling"
        );
    }

    #[test]
    fn autotune_clamps_at_min() {
        let mut psim = ParallelSim::new(d(1_000_000), 1);
        psim.add_shard(chain_sim(30_000, 100));
        psim.set_autotune(EpochAutotune {
            min: d(100_000),
            max: d(600_000_000),
            target: 1,
        });
        psim.run_until(t(3_000_000), |_, _, _| {});
        assert_eq!(
            psim.epoch(),
            d(100_000),
            "every round over-target: floor holds"
        );
    }

    /// `run_ring` with autotune enabled — returns the logs plus the final
    /// (adapted) epoch so thread-independence covers the controller too.
    fn run_ring_tuned(threads: usize) -> (Vec<Log>, SimDuration) {
        let mut psim = ring(threads);
        // target 1 pushes every round over 2×target, so the controller
        // keeps halving — the run exercises adapted (changing) epochs
        // rather than settling in the dead band.
        psim.set_autotune(EpochAutotune {
            min: d(1 << 10),
            max: d(1 << 22),
            target: 1,
        });
        let logs = run_ring_to_horizon(&mut psim);
        (logs, psim.epoch())
    }

    #[test]
    fn autotuned_runs_are_thread_independent() {
        let (base, base_epoch) = run_ring_tuned(1);
        assert_ne!(
            base_epoch, EPOCH,
            "the controller should have moved the epoch"
        );
        for threads in [2, 4] {
            let (logs, epoch) = run_ring_tuned(threads);
            assert_eq!(logs, base, "threads={threads}");
            assert_eq!(epoch, base_epoch, "threads={threads}");
        }
    }

    #[test]
    fn profiling_accumulates_per_shard_and_keeps_results_identical() {
        let baseline = run_ring(2, None);
        // Same ring with profiling on: deliveries must not change, and
        // the profile must cover every shard and round.
        let mut psim = ring(2);
        psim.enable_profiling();
        let got = run_ring_to_horizon(&mut psim);
        assert_eq!(got, baseline, "profiling must not perturb the simulation");
        let perf = psim.perf().expect("profiling enabled");
        assert_eq!(perf.rounds, psim.barriers());
        assert_eq!(perf.shard_run_ns.len(), SHARDS);
        assert_eq!(perf.shard_barrier_ns.len(), SHARDS);
        assert!(perf.shard_run_ns.iter().sum::<u64>() > 0);
        assert_eq!(perf.round_bounds.len() as u64, perf.rounds);
        assert_eq!(
            perf.round_shard_run_ns.len() as u64,
            perf.rounds * SHARDS as u64,
            "one run sample per shard per round"
        );
        assert!(
            perf.round_bounds.windows(2).all(|w| w[0] < w[1]),
            "round bounds advance monotonically"
        );
    }

    #[test]
    fn profiling_disabled_reports_no_perf() {
        let mut psim = ParallelSim::new(d(1_000), 1);
        psim.add_shard(chain_sim(5, 100));
        psim.run_until(t(10_000), |_, _, _| {});
        assert!(psim.perf().is_none());
    }

    #[test]
    fn single_shard_runs_sequentially_even_with_threads() {
        let mut psim = ParallelSim::new(EPOCH, 4);
        let mut sim = Sim::new(Log::new());
        let id = sim.add_component(Relay);
        sim.schedule(SimTime::ZERO, id, id, 0);
        psim.add_shard(sim);
        psim.run_until(HORIZON, |bound, msgs, shards| {
            for m in msgs {
                shards[0].schedule_prio(bound.min(HORIZON), m.priority, m.src, m.src, m.payload);
            }
        });
        assert!(psim.shard(0).world().len() as u64 > HOPS);
    }
}
