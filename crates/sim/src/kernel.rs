//! The simulation kernel: components, contexts, and the run loop.

use crate::event::{Event, EventQueue, LaneStats};
use crate::time::{SimDuration, SimTime};

/// Component identifier, assigned sequentially at registration.
pub type CompId = usize;

/// An event handler registered on the kernel.
///
/// Handlers receive events *by value* — payloads move through the
/// simulation without cloning — together with the simulation's *world*,
/// the state its components share, which the [`Sim`] owns; they emit
/// follow-up events through the [`Ctx`]. A component holds only its own
/// state, so a [`Sim`] is `Send` whenever its world and payload are,
/// and the compiler checks that a shard handed to a worker thread (see
/// [`ParallelSim`](crate::parallel::ParallelSim)) shares nothing with
/// another. A component that shares state by `Rc<RefCell<_>>` does not
/// compile:
///
/// ```compile_fail,E0277
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use ctlm_sim::{Component, Ctx, Event};
///
/// struct Counter(Rc<RefCell<u64>>);
/// impl Component<(), ()> for Counter {
///     fn on_event(&mut self, _: Event<()>, _: &mut (), _: &mut Ctx<'_, ()>) {
///         *self.0.borrow_mut() += 1;
///     }
/// }
/// ```
///
/// The count belongs in the world instead:
///
/// ```
/// use ctlm_sim::{Component, Ctx, Event};
///
/// struct Counter;
/// impl Component<u64, ()> for Counter {
///     fn on_event(&mut self, _: Event<()>, count: &mut u64, _: &mut Ctx<'_, ()>) {
///         *count += 1;
///     }
/// }
/// ```
pub trait Component<W, E>: Send {
    /// Handles one delivered event at `ctx.now() == event.time`.
    fn on_event(&mut self, event: Event<E>, world: &mut W, ctx: &mut Ctx<'_, E>);
}

/// Emission context handed to a component while it handles an event.
///
/// Emissions are buffered and flushed into the queue after the handler
/// returns, in emission order — so a handler that emits `a` then `b` at
/// the same timestamp is guaranteed `a` delivers first.
pub struct Ctx<'a, E> {
    now: SimTime,
    self_id: CompId,
    out: &'a mut Vec<(SimTime, u8, CompId, E)>,
    outbox: &'a mut Vec<(SimTime, u8, CompId, E)>,
}

impl<E> Ctx<'_, E> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Emits `payload` to `dst` after `delay`, in delivery class 0 (first
    /// at its timestamp). A delay past the end of time lands at
    /// [`SimTime::MAX`]: the event never comes before a horizon.
    pub fn emit(&mut self, delay: SimDuration, dst: CompId, payload: E) {
        self.emit_prio(delay, 0, dst, payload);
    }

    /// [`Ctx::emit`] with an explicit delivery class — lower classes
    /// deliver first among events sharing a timestamp.
    pub fn emit_prio(&mut self, delay: SimDuration, priority: u8, dst: CompId, payload: E) {
        let at = self.now.saturating_add(delay);
        self.out.push((at, priority, dst, payload));
    }

    /// Emits `payload` back to the handling component after `delay` —
    /// the timer/self-wakeup pattern.
    pub fn emit_self(&mut self, delay: SimDuration, payload: E) {
        let dst = self.self_id;
        self.emit(delay, dst, payload);
    }

    /// [`Ctx::emit_self`] with an explicit delivery class.
    pub fn emit_self_prio(&mut self, delay: SimDuration, priority: u8, payload: E) {
        let dst = self.self_id;
        self.emit_prio(delay, priority, dst, payload);
    }

    /// Records `payload` in this simulation's **outbox** instead of its
    /// own queue: cross-shard traffic for a coordinator (see
    /// [`ParallelSim`](crate::parallel::ParallelSim)) to collect at the
    /// next epoch barrier. The entry is stamped `(now, priority,
    /// self_id)`; its position in the outbox is its per-shard sequence,
    /// so the coordinator can merge outboxes deterministically. In a
    /// plain single-timeline run the outbox is simply never drained
    /// unless the driver asks for it.
    pub fn emit_remote(&mut self, priority: u8, payload: E) {
        self.outbox
            .push((self.now, priority, self.self_id, payload));
    }
}

/// The simulation: a clock, the event queue, the registered components
/// and the world they share.
///
/// The lifetime parameter lets components and the world borrow data
/// owned by the driver (e.g. the arrival list) instead of copying it
/// into the simulation.
pub struct Sim<'a, W, E> {
    now: SimTime,
    queue: EventQueue<E>,
    components: Vec<Box<dyn Component<W, E> + 'a>>,
    world: W,
    out_buf: Vec<(SimTime, u8, CompId, E)>,
    outbox: Vec<(SimTime, u8, CompId, E)>,
    delivered: u64,
}

impl<'a, W, E> Sim<'a, W, E> {
    /// An empty simulation at time 0 around `world`.
    pub fn new(world: W) -> Self {
        Self {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            components: Vec::new(),
            world,
            out_buf: Vec::new(),
            outbox: Vec::new(),
            delivered: 0,
        }
    }

    /// Registers a component, returning its id.
    pub fn add_component(&mut self, c: impl Component<W, E> + 'a) -> CompId {
        self.components.push(Box::new(c));
        self.components.len() - 1
    }

    /// The state the components share.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// The shared state, for the driver to change between deliveries.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Ends the simulation, handing back its world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events delivered so far.
    pub fn events_delivered(&self) -> u64 {
        self.delivered
    }

    /// Per-lane queue routing/pop counters — sim-plane telemetry, a pure
    /// function of the event sequence (see [`LaneStats`]).
    pub fn lane_stats(&self) -> LaneStats {
        self.queue.lane_stats()
    }

    /// Pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules an event from outside any handler (simulation seeding),
    /// in delivery class 0.
    ///
    /// # Panics
    /// Panics when `time` is before the current clock.
    pub fn schedule(&mut self, time: SimTime, src: CompId, dst: CompId, payload: E) {
        self.schedule_prio(time, 0, src, dst, payload);
    }

    /// [`Sim::schedule`] with an explicit delivery class.
    ///
    /// # Panics
    /// Panics when `time` is before the current clock.
    pub fn schedule_prio(
        &mut self,
        time: SimTime,
        priority: u8,
        src: CompId,
        dst: CompId,
        payload: E,
    ) {
        assert!(time >= self.now, "cannot schedule into the past");
        self.queue
            .push(time.as_micros(), priority, src, dst, payload);
    }

    /// Delivers the earliest pending event. Returns false when the queue
    /// is empty. Events addressed to unregistered components are dropped
    /// (counted as delivered).
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        let now = SimTime::from_micros(ev.time);
        debug_assert!(now >= self.now, "queue violated time order");
        self.now = now;
        self.delivered += 1;
        let dst = ev.dst;
        let Some(handler) = self.components.get_mut(dst) else {
            return true; // unknown dst: drop
        };
        let mut ctx = Ctx {
            now: self.now,
            self_id: dst,
            out: &mut self.out_buf,
            outbox: &mut self.outbox,
        };
        handler.on_event(ev, &mut self.world, &mut ctx);
        for (time, priority, to, payload) in self.out_buf.drain(..) {
            self.queue
                .push(time.as_micros(), priority, dst, to, payload);
        }
        true
    }

    /// Runs until the queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue is empty or the next event lies strictly
    /// beyond `horizon`; events at exactly `horizon` are delivered. The
    /// clock never advances past the last delivered event.
    pub fn run_until(&mut self, horizon: SimTime) {
        while self.next_event_time().is_some_and(|t| t <= horizon) {
            self.step();
        }
    }

    /// Runs until the queue is empty or the next event lies at or beyond
    /// `bound` (exclusive — the epoch-barrier counterpart of
    /// [`Sim::run_until`]): every event strictly before `bound` is
    /// delivered, events at `bound` stay pending for the next epoch.
    pub fn run_before(&mut self, bound: SimTime) {
        while self.next_event_time().is_some_and(|t| t < bound) {
            self.step();
        }
    }

    /// Delivery time of the earliest pending event, if any.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time().map(SimTime::from_micros)
    }

    /// Drains the cross-shard outbox (entries recorded by
    /// [`Ctx::emit_remote`] since the last take), in emission order.
    pub fn take_outbox(&mut self) -> Vec<(SimTime, u8, CompId, E)> {
        std::mem::take(&mut self.outbox)
    }

    /// True when [`Ctx::emit_remote`] entries are waiting to be taken.
    pub fn has_outbox(&self) -> bool {
        !self.outbox.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each test's world: the `(time µs, payload)` deliveries the
    /// [`Recorder`] saw.
    type Log = Vec<(u64, u32)>;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    /// Records every delivery into the world.
    struct Recorder;
    impl Component<Log, u32> for Recorder {
        fn on_event(&mut self, ev: Event<u32>, log: &mut Log, ctx: &mut Ctx<'_, u32>) {
            log.push((ctx.now().as_micros(), ev.payload));
        }
    }

    /// Emits `payload + 1` to a recorder every `period` until `until`.
    struct Timer {
        period: SimDuration,
        until: SimTime,
        dst: CompId,
    }
    impl Component<Log, u32> for Timer {
        fn on_event(&mut self, ev: Event<u32>, _: &mut Log, ctx: &mut Ctx<'_, u32>) {
            ctx.emit(SimDuration::ZERO, self.dst, ev.payload);
            if ctx.now().saturating_add(self.period) <= self.until {
                ctx.emit_self(self.period, ev.payload + 1);
            }
        }
    }

    #[test]
    fn timer_chain_fires_on_schedule() {
        let mut sim = Sim::new(Log::new());
        let rec = sim.add_component(Recorder);
        let timer = sim.add_component(Timer {
            period: d(10),
            until: t(35),
            dst: rec,
        });
        sim.schedule(t(5), timer, timer, 0);
        sim.run();
        assert_eq!(sim.now(), t(35));
        assert_eq!(sim.into_world(), [(5, 0), (15, 1), (25, 2), (35, 3)]);
    }

    #[test]
    fn same_time_events_deliver_in_emission_order() {
        struct Burst {
            dst: CompId,
        }
        impl Component<Log, u32> for Burst {
            fn on_event(&mut self, _ev: Event<u32>, _: &mut Log, ctx: &mut Ctx<'_, u32>) {
                for i in 0..5 {
                    ctx.emit(SimDuration::ZERO, self.dst, i);
                }
            }
        }
        let mut sim = Sim::new(Log::new());
        let rec = sim.add_component(Recorder);
        let burst = sim.add_component(Burst { dst: rec });
        sim.schedule(t(7), burst, burst, 0);
        sim.run();
        let got: Vec<u32> = sim.world().iter().map(|&(_, p)| p).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.now(), t(7), "zero-delay events must not advance time");
    }

    #[test]
    fn run_until_stops_at_horizon_inclusive() {
        let mut sim = Sim::new(Log::new());
        let rec = sim.add_component(Recorder);
        for us in [10, 20, 30, 40] {
            sim.schedule(t(us), rec, rec, us as u32);
        }
        sim.run_until(t(30));
        assert_eq!(sim.world().len(), 3);
        assert_eq!(sim.now(), t(30));
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(sim.world().len(), 4);
    }

    #[test]
    fn components_can_borrow_driver_data() {
        // The lifetime parameter at work: the component reads from a
        // slice owned by the test frame.
        let data = vec![3u32, 1, 4, 1, 5];
        struct Summer<'s> {
            data: &'s [u32],
        }
        impl<E> Component<u32, E> for Summer<'_> {
            fn on_event(&mut self, _ev: Event<E>, total: &mut u32, _ctx: &mut Ctx<'_, E>) {
                *total += self.data.iter().sum::<u32>();
            }
        }
        let mut sim: Sim<'_, u32, ()> = Sim::new(0);
        let s = sim.add_component(Summer { data: &data });
        sim.schedule(SimTime::ZERO, s, s, ());
        sim.run();
        assert_eq!(sim.into_world(), 14);
    }

    #[test]
    fn events_for_an_unknown_component_are_dropped() {
        let mut sim = Sim::new(Log::new());
        let rec = sim.add_component(Recorder);
        sim.schedule(t(1), rec, rec + 1, 7);
        sim.schedule(t(2), rec, rec, 8);
        sim.run();
        assert_eq!(sim.events_delivered(), 2);
        assert_eq!(sim.into_world(), [(2, 8)]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim: Sim<'_, (), ()> = Sim::new(());
        let id = sim.add_component(NoOp);
        sim.schedule(t(50), id, id, ());
        sim.run();
        sim.schedule(t(10), id, id, ());
    }

    #[test]
    fn a_delay_past_the_end_of_time_never_comes_before_a_horizon() {
        // Emits once with a delay that passes the end of time from a
        // clock already far along it.
        struct Late {
            dst: CompId,
        }
        impl Component<Log, u32> for Late {
            fn on_event(&mut self, _ev: Event<u32>, _: &mut Log, ctx: &mut Ctx<'_, u32>) {
                ctx.emit(d(u64::MAX), self.dst, 1);
                ctx.emit(d(5), self.dst, 2);
            }
        }
        let mut sim = Sim::new(Log::new());
        let rec = sim.add_component(Recorder);
        let late = sim.add_component(Late { dst: rec });
        sim.schedule(t(1_000), late, late, 0);
        sim.run_until(t(u64::MAX - 1));
        assert_eq!(*sim.world(), [(1_005, 2)], "the late event waits");
        assert_eq!(sim.next_event_time(), Some(SimTime::MAX));
        sim.run();
        assert_eq!(sim.world().last(), Some(&(u64::MAX, 1)));
    }

    struct NoOp;
    impl Component<(), ()> for NoOp {
        fn on_event(&mut self, _ev: Event<()>, _: &mut (), _ctx: &mut Ctx<'_, ()>) {}
    }
}
