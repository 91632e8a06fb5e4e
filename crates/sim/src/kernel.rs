//! The simulation kernel: components, contexts, and the run loop.

use crate::event::{Event, EventQueue, LaneStats};
use crate::time::{SimDuration, SimTime};

/// Component identifier, assigned sequentially at registration.
pub type CompId = usize;

/// An event handler registered on the kernel.
///
/// Handlers receive events *by value* — payloads move through the
/// simulation without cloning — and emit follow-up events through the
/// [`Ctx`]. Components that share mutable state (e.g. a cluster) do so
/// via `Rc<RefCell<...>>`, dslab-style; the kernel itself is
/// single-threaded.
pub trait Component<E> {
    /// Handles one delivered event at `ctx.now() == event.time`.
    fn on_event(&mut self, event: Event<E>, ctx: &mut Ctx<'_, E>);
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

/// The simulation: a clock, the event queue, and the registered
/// components.
///
/// The lifetime parameter lets components borrow data owned by the
/// driver (e.g. the arrival list) instead of copying it into the
/// simulation.
pub struct Sim<'a, E> {
    now: SimTime,
    queue: EventQueue<E>,
    components: Vec<Option<Box<dyn Component<E> + 'a>>>,
    names: Vec<String>,
    out_buf: Vec<(SimTime, u8, CompId, E)>,
    outbox: Vec<(SimTime, u8, CompId, E)>,
    delivered: u64,
}

impl<'a, E> Default for Sim<'a, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, E> Sim<'a, E> {
    /// An empty simulation at time 0.
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            components: Vec::new(),
            names: Vec::new(),
            out_buf: Vec::new(),
            outbox: Vec::new(),
            delivered: 0,
        }
    }

    /// Registers a component under `name`, returning its id.
    pub fn add_component(&mut self, name: impl Into<String>, c: impl Component<E> + 'a) -> CompId {
        let id = self.components.len();
        self.components.push(Some(Box::new(c)));
        self.names.push(name.into());
        id
    }

    /// A registered component's name.
    pub fn name(&self, id: CompId) -> &str {
        &self.names[id]
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
    /// (counted as delivered) — the equivalent of dslab's undelivered-log.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        let now = SimTime::from_micros(ev.time);
        debug_assert!(now >= self.now, "queue violated time order");
        self.now = now;
        self.delivered += 1;
        let dst = ev.dst;
        // Take the handler out so it can receive `&mut self` while the
        // kernel stays borrowable through the context.
        let mut handler = match self.components.get_mut(dst).and_then(Option::take) {
            Some(h) => h,
            None => return true, // unknown dst or re-entrant delivery: drop
        };
        let mut ctx = Ctx {
            now: self.now,
            self_id: dst,
            out: &mut self.out_buf,
            outbox: &mut self.outbox,
        };
        handler.on_event(ev, &mut ctx);
        self.components[dst] = Some(handler);
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
    use std::cell::RefCell;
    use std::rc::Rc;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    /// Records every delivery into a shared log.
    struct Recorder {
        log: Rc<RefCell<Vec<(u64, u32)>>>,
    }
    impl Component<u32> for Recorder {
        fn on_event(&mut self, ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
            self.log
                .borrow_mut()
                .push((ctx.now().as_micros(), ev.payload));
        }
    }

    /// Emits `payload + 1` to a recorder every `period` until `until`.
    struct Timer {
        period: SimDuration,
        until: SimTime,
        dst: CompId,
    }
    impl Component<u32> for Timer {
        fn on_event(&mut self, ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
            ctx.emit(SimDuration::ZERO, self.dst, ev.payload);
            if ctx.now().saturating_add(self.period) <= self.until {
                ctx.emit_self(self.period, ev.payload + 1);
            }
        }
    }

    #[test]
    fn timer_chain_fires_on_schedule() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let rec = sim.add_component("rec", Recorder { log: log.clone() });
        let timer = sim.add_component(
            "timer",
            Timer {
                period: d(10),
                until: t(35),
                dst: rec,
            },
        );
        sim.schedule(t(5), timer, timer, 0);
        sim.run();
        assert_eq!(*log.borrow(), vec![(5, 0), (15, 1), (25, 2), (35, 3)]);
        assert_eq!(sim.now(), t(35));
    }

    #[test]
    fn same_time_events_deliver_in_emission_order() {
        struct Burst {
            dst: CompId,
        }
        impl Component<u32> for Burst {
            fn on_event(&mut self, _ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
                for i in 0..5 {
                    ctx.emit(SimDuration::ZERO, self.dst, i);
                }
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let rec = sim.add_component("rec", Recorder { log: log.clone() });
        let burst = sim.add_component("burst", Burst { dst: rec });
        sim.schedule(t(7), burst, burst, 0);
        sim.run();
        let got: Vec<u32> = log.borrow().iter().map(|&(_, p)| p).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.now(), t(7), "zero-delay events must not advance time");
    }

    #[test]
    fn run_until_stops_at_horizon_inclusive() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let rec = sim.add_component("rec", Recorder { log: log.clone() });
        for us in [10, 20, 30, 40] {
            sim.schedule(t(us), rec, rec, us as u32);
        }
        sim.run_until(t(30));
        assert_eq!(log.borrow().len(), 3);
        assert_eq!(sim.now(), t(30));
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(log.borrow().len(), 4);
    }

    #[test]
    fn components_can_borrow_driver_data() {
        // The lifetime parameter at work: the component reads from a
        // slice owned by the test frame.
        let data = vec![3u32, 1, 4, 1, 5];
        struct Summer<'s> {
            data: &'s [u32],
            total: Rc<RefCell<u32>>,
        }
        impl<E> Component<E> for Summer<'_> {
            fn on_event(&mut self, _ev: Event<E>, _ctx: &mut Ctx<'_, E>) {
                *self.total.borrow_mut() += self.data.iter().sum::<u32>();
            }
        }
        let total = Rc::new(RefCell::new(0));
        let mut sim: Sim<'_, ()> = Sim::new();
        let s = sim.add_component(
            "sum",
            Summer {
                data: &data,
                total: total.clone(),
            },
        );
        sim.schedule(SimTime::ZERO, s, s, ());
        sim.run();
        assert_eq!(*total.borrow(), 14);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim: Sim<'_, ()> = Sim::new();
        let id = sim.add_component("noop", NoOp);
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
        impl Component<u32> for Late {
            fn on_event(&mut self, _ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
                ctx.emit(d(u64::MAX), self.dst, 1);
                ctx.emit(d(5), self.dst, 2);
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let rec = sim.add_component("rec", Recorder { log: log.clone() });
        let late = sim.add_component("late", Late { dst: rec });
        sim.schedule(t(1_000), late, late, 0);
        sim.run_until(t(u64::MAX - 1));
        assert_eq!(*log.borrow(), [(1_005, 2)], "the late event waits");
        assert_eq!(sim.next_event_time(), Some(SimTime::MAX));
        sim.run();
        assert_eq!(log.borrow().last(), Some(&(u64::MAX, 1)));
    }

    struct NoOp;
    impl Component<()> for NoOp {
        fn on_event(&mut self, _ev: Event<()>, _ctx: &mut Ctx<'_, ()>) {}
    }
}
