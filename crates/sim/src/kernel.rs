//! The simulation kernel: components, contexts, and the run loop.

use crate::event::{Event, EventQueue, LaneStats, Time};

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
    now: Time,
    self_id: CompId,
    out: &'a mut Vec<(Time, u8, CompId, E)>,
    outbox: &'a mut Vec<(Time, u8, CompId, E)>,
}

impl<E> Ctx<'_, E> {
    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Emits `payload` to `dst` after `delay` microseconds, in delivery
    /// class 0 (first at its timestamp).
    pub fn emit(&mut self, delay: Time, dst: CompId, payload: E) {
        self.emit_prio(delay, 0, dst, payload);
    }

    /// [`Ctx::emit`] with an explicit delivery class — lower classes
    /// deliver first among events sharing a timestamp.
    pub fn emit_prio(&mut self, delay: Time, priority: u8, dst: CompId, payload: E) {
        self.out.push((self.now + delay, priority, dst, payload));
    }

    /// Emits `payload` back to the handling component after `delay` —
    /// the timer/self-wakeup pattern.
    pub fn emit_self(&mut self, delay: Time, payload: E) {
        let dst = self.self_id;
        self.emit(delay, dst, payload);
    }

    /// [`Ctx::emit_self`] with an explicit delivery class.
    pub fn emit_self_prio(&mut self, delay: Time, priority: u8, payload: E) {
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
    now: Time,
    queue: EventQueue<E>,
    components: Vec<Option<Box<dyn Component<E> + 'a>>>,
    names: Vec<String>,
    out_buf: Vec<(Time, u8, CompId, E)>,
    outbox: Vec<(Time, u8, CompId, E)>,
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
            now: 0,
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
    pub fn now(&self) -> Time {
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
    pub fn schedule(&mut self, time: Time, src: CompId, dst: CompId, payload: E) {
        self.schedule_prio(time, 0, src, dst, payload);
    }

    /// [`Sim::schedule`] with an explicit delivery class.
    ///
    /// # Panics
    /// Panics when `time` is before the current clock.
    pub fn schedule_prio(
        &mut self,
        time: Time,
        priority: u8,
        src: CompId,
        dst: CompId,
        payload: E,
    ) {
        assert!(time >= self.now, "cannot schedule into the past");
        self.queue.push(time, priority, src, dst, payload);
    }

    /// Delivers the earliest pending event. Returns false when the queue
    /// is empty. Events addressed to unregistered components are dropped
    /// (counted as delivered) — the equivalent of dslab's undelivered-log.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "queue violated time order");
        self.now = ev.time;
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
            self.queue.push(time, priority, dst, to, payload);
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
    pub fn run_until(&mut self, horizon: Time) {
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            self.step();
        }
    }

    /// Runs until the queue is empty or the next event lies at or beyond
    /// `bound` (exclusive — the epoch-barrier counterpart of
    /// [`Sim::run_until`]): every event strictly before `bound` is
    /// delivered, events at `bound` stay pending for the next epoch.
    pub fn run_before(&mut self, bound: Time) {
        while let Some(t) = self.queue.peek_time() {
            if t >= bound {
                break;
            }
            self.step();
        }
    }

    /// Delivery time of the earliest pending event, if any.
    pub fn next_event_time(&mut self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Drains the cross-shard outbox (entries recorded by
    /// [`Ctx::emit_remote`] since the last take), in emission order.
    pub fn take_outbox(&mut self) -> Vec<(Time, u8, CompId, E)> {
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

    /// Records every delivery into a shared log.
    struct Recorder {
        log: Rc<RefCell<Vec<(Time, u32)>>>,
    }
    impl Component<u32> for Recorder {
        fn on_event(&mut self, ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
            self.log.borrow_mut().push((ctx.now(), ev.payload));
        }
    }

    /// Emits `payload + 1` to a recorder every `period` until `until`.
    struct Timer {
        period: Time,
        until: Time,
        dst: CompId,
    }
    impl Component<u32> for Timer {
        fn on_event(&mut self, ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
            ctx.emit(0, self.dst, ev.payload);
            if ctx.now() + self.period <= self.until {
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
                period: 10,
                until: 35,
                dst: rec,
            },
        );
        sim.schedule(5, timer, timer, 0);
        sim.run();
        assert_eq!(*log.borrow(), vec![(5, 0), (15, 1), (25, 2), (35, 3)]);
        assert_eq!(sim.now(), 35);
    }

    #[test]
    fn same_time_events_deliver_in_emission_order() {
        struct Burst {
            dst: CompId,
        }
        impl Component<u32> for Burst {
            fn on_event(&mut self, _ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
                for i in 0..5 {
                    ctx.emit(0, self.dst, i);
                }
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let rec = sim.add_component("rec", Recorder { log: log.clone() });
        let burst = sim.add_component("burst", Burst { dst: rec });
        sim.schedule(7, burst, burst, 0);
        sim.run();
        let got: Vec<u32> = log.borrow().iter().map(|&(_, p)| p).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.now(), 7, "zero-delay events must not advance time");
    }

    #[test]
    fn run_until_stops_at_horizon_inclusive() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let rec = sim.add_component("rec", Recorder { log: log.clone() });
        for t in [10, 20, 30, 40] {
            sim.schedule(t, rec, rec, t as u32);
        }
        sim.run_until(30);
        assert_eq!(log.borrow().len(), 3);
        assert_eq!(sim.now(), 30);
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
        sim.schedule(0, s, s, ());
        sim.run();
        assert_eq!(*total.borrow(), 14);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim: Sim<'_, ()> = Sim::new();
        let id = sim.add_component("noop", NoOp);
        sim.schedule(50, id, id, ());
        sim.run();
        sim.schedule(10, id, id, ());
    }

    struct NoOp;
    impl Component<()> for NoOp {
        fn on_event(&mut self, _ev: Event<()>, _ctx: &mut Ctx<'_, ()>) {}
    }
}
