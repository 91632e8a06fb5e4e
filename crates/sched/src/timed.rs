//! The timed-source seam: one walker for every component that acts on
//! its own schedule.
//!
//! Churn, gangs, trace feeds, the fault plane, the cycle
//! timer, the arrival feed, the autoscaler and the lab's in-timeline
//! retrainer all have the same shape — wake at a known time, apply what
//! is due, sleep until the next known time. A [`TimedSource`] states
//! only that: when it next acts ([`TimedSource::next_time`]), what it
//! does then ([`TimedSource::fire`]) and in which delivery class
//! ([`TimedSource::CLASS`]). [`attach`] registers it behind the one
//! kernel component that wakes, fires and re-arms, and seeds the first
//! wake. The walker refuses a re-arm that does not advance the clock, so
//! a source that stops making progress (a zero period that slipped past
//! validation) panics at its first wake instead of spinning at one
//! instant forever. A next action past the end of time sums to
//! [`SimTime::MAX`], so it never wakes before a horizon: no source
//! guards its own sums.

use rand::Rng;

use ctlm_sim::{CompId, Component, Ctx, Event, Sim, SimDuration, SimTime};

use crate::engine::{EngineState, SchedEvent};

/// A component that acts at times it knows in advance.
///
/// A source reads and changes its cell through the [`EngineState`] it
/// is handed — the cell simulation's world — and owns nothing else of
/// the cell. A source whose result the driver reads after the run (an
/// autoscaler's statistics, a replay session) stays with the driver and
/// is attached by `&mut`.
pub trait TimedSource: Send {
    /// Delivery class of this source's wakes — where in an instant's
    /// state → admit → pass order it acts.
    const CLASS: u8;

    /// When the source next acts; `None` once it is done. The walker
    /// reads it at [`attach`] (the first wake) and after every
    /// [`TimedSource::fire`] (the re-arm).
    fn next_time(&self, state: &EngineState<'_>) -> Option<SimTime>;

    /// Applies everything due at `now`, in order. Afterwards
    /// [`TimedSource::next_time`] must lie strictly after `now`.
    fn fire(&mut self, now: SimTime, state: &mut EngineState<'_>, ctx: &mut Ctx<'_, SchedEvent>);
}

impl<S: TimedSource> TimedSource for &mut S {
    const CLASS: u8 = S::CLASS;

    fn next_time(&self, state: &EngineState<'_>) -> Option<SimTime> {
        (**self).next_time(state)
    }

    fn fire(&mut self, now: SimTime, state: &mut EngineState<'_>, ctx: &mut Ctx<'_, SchedEvent>) {
        (**self).fire(now, state, ctx);
    }
}

/// The one kernel component behind every [`TimedSource`].
struct Walker<S>(S);

impl<'a, S: TimedSource> Component<EngineState<'a>, SchedEvent> for Walker<S> {
    fn on_event(
        &mut self,
        _event: Event<SchedEvent>,
        state: &mut EngineState<'a>,
        ctx: &mut Ctx<'_, SchedEvent>,
    ) {
        let now = ctx.now();
        self.0.fire(now, state, ctx);
        if let Some(next) = self.0.next_time(state) {
            assert!(
                next > now,
                "timed source fired at {now} and re-armed at {next}: it must advance the clock"
            );
            ctx.emit_self_prio(next.since(now), S::CLASS, SchedEvent::Wake);
        }
    }
}

/// Registers `source` on a cell's simulation and seeds its first wake;
/// a source with nothing to do is registered but never woken.
pub fn attach<'a, S: TimedSource + 'a>(
    sim: &mut Sim<'a, EngineState<'_>, SchedEvent>,
    source: S,
) -> CompId {
    let first = source.next_time(sim.world());
    let id = sim.add_component(Walker(source));
    if let Some(t) = first {
        sim.schedule_prio(t, S::CLASS, id, id, SchedEvent::Wake);
    }
    id
}

/// An instant drawn uniformly from `[start, end)` — `start` itself when
/// the window is empty or inverted.
pub fn draw_in((start, end): (SimTime, SimTime), rng: &mut impl Rng) -> SimTime {
    let offset = rng.gen_range(0..end.since(start).as_micros().max(1));
    start.saturating_add(SimDuration::from_micros(offset))
}

/// A time-sorted list of actions walked by a cursor — the state every
/// plan-shaped source (churn, gangs, faults, trace feeds)
/// shares.
pub struct Plan<T> {
    items: Vec<(SimTime, T)>,
    next: usize,
}

impl<T> Plan<T> {
    /// A plan over `(time, action)` pairs, sorted by time (stable: the
    /// relative order of same-time actions is kept).
    pub fn new(mut items: Vec<(SimTime, T)>) -> Self {
        items.sort_by_key(|&(t, _)| t);
        Self { items, next: 0 }
    }

    /// The next action's time; `None` after the last one.
    pub fn next_time(&self) -> Option<SimTime> {
        self.items.get(self.next).map(|&(t, _)| t)
    }

    /// The next action when it is due at `now`, moving past it.
    pub fn pop_due(&mut self, now: SimTime) -> Option<&mut T> {
        let (t, action) = self.items.get_mut(self.next)?;
        (*t <= now).then(|| {
            self.next += 1;
            action
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;
    use crate::placement::BestFit;
    use crate::scheduler::MainOnly;
    use crate::SchedCluster;

    /// `(time µs, tag)` per action a source took.
    type Log = Vec<(u64, u32)>;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn plan(items: &[(u64, u32)]) -> Plan<u32> {
        Plan::new(items.iter().map(|&(us, tag)| (t(us), tag)).collect())
    }

    /// A cell's world with no engine, feed or timer registered, so only
    /// the sources under test wake.
    fn bare(scheduler: &mut MainOnly) -> Sim<'_, EngineState<'_>, SchedEvent> {
        let state = EngineState::new(
            SimConfig::default(),
            SchedCluster::new(),
            &[],
            scheduler,
            &BestFit,
            &BestFit,
        );
        Sim::new(state)
    }

    /// Walks a plan of tags, logging `(now, tag)` per action. The tests
    /// own their sources and attach them by `&mut`, so the logs stay
    /// readable after the run.
    struct Tags(Plan<u32>, Log);

    impl TimedSource for Tags {
        const CLASS: u8 = 1;
        fn next_time(&self, _state: &EngineState<'_>) -> Option<SimTime> {
            self.0.next_time()
        }
        fn fire(&mut self, now: SimTime, _: &mut EngineState<'_>, _: &mut Ctx<'_, SchedEvent>) {
            while let Some(tag) = self.0.pop_due(now) {
                self.1.push((now.as_micros(), *tag));
            }
        }
    }

    /// Ticks every `period` from 0 up to `horizon`, logging each tick.
    struct Every {
        next: Option<SimTime>,
        period: SimDuration,
        horizon: SimTime,
        log: Log,
    }

    impl TimedSource for Every {
        const CLASS: u8 = 2;
        fn next_time(&self, _state: &EngineState<'_>) -> Option<SimTime> {
            self.next
        }
        fn fire(&mut self, now: SimTime, _: &mut EngineState<'_>, _: &mut Ctx<'_, SchedEvent>) {
            self.log.push((now.as_micros(), 0));
            self.next = now.next_tick(self.period, self.horizon);
        }
    }

    fn every(period: u64, horizon: u64) -> Every {
        Every {
            next: Some(SimTime::ZERO),
            period: SimDuration::from_micros(period),
            horizon: t(horizon),
            log: Log::new(),
        }
    }

    #[test]
    fn same_instant_actions_fire_in_plan_order_under_one_wake() {
        let mut tags = Tags(plan(&[(30, 4), (10, 1), (20, 2), (20, 3)]), Log::new());
        let mut scheduler = MainOnly;
        let mut sim = bare(&mut scheduler);
        attach(&mut sim, &mut tags);
        sim.run();
        assert_eq!(sim.events_delivered(), 3, "one wake per distinct instant");
        drop(sim);
        assert_eq!(tags.1, [(10, 1), (20, 2), (20, 3), (30, 4)]);
    }

    #[test]
    fn no_wake_is_scheduled_after_the_last_action() {
        let mut tags = Tags(plan(&[(5, 1)]), Log::new());
        let mut idle = Tags(plan(&[]), Log::new());
        let mut scheduler = MainOnly;
        let mut sim = bare(&mut scheduler);
        attach(&mut sim, &mut tags);
        attach(&mut sim, &mut idle);
        assert_eq!(sim.pending(), 1, "an empty plan is never woken");
        sim.run();
        assert_eq!((sim.pending(), sim.now()), (0, t(5)));
        drop(sim);
        assert_eq!((&tags.1[..], &idle.1[..]), (&[(5, 1)][..], &[][..]));
    }

    #[test]
    fn a_periodic_sources_last_tick_is_the_last_multiple_inside_the_horizon() {
        for (period, horizon, last) in [(10, 35, 30), (10, 40, 40), (50, 35, 0)] {
            let mut source = every(period, horizon);
            let mut scheduler = MainOnly;
            let mut sim = bare(&mut scheduler);
            attach(&mut sim, &mut source);
            sim.run();
            assert_eq!(sim.pending(), 0, "nothing armed past the horizon");
            drop(sim);
            let ticks: Vec<u64> = source.log.iter().map(|&(us, _)| us).collect();
            let expected: Vec<u64> = (0..=last).step_by(period as usize).collect();
            assert_eq!(ticks, expected, "period {period}, horizon {horizon}");
        }
    }

    #[test]
    #[should_panic(expected = "must advance the clock")]
    fn a_source_that_does_not_advance_trips_the_guard() {
        let mut scheduler = MainOnly;
        let mut sim = bare(&mut scheduler);
        attach(&mut sim, every(0, 100));
        sim.run();
    }
}
