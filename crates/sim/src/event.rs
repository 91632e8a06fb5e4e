//! Typed events and the deterministic event queue.

use std::collections::BinaryHeap;

use crate::kernel::CompId;

/// A scheduled event: a payload travelling from `src` to `dst`, delivered
/// at `time`.
#[derive(Clone, Debug)]
pub struct Event<E> {
    /// Delivery time (µs).
    pub time: u64,
    /// Delivery class at equal timestamps: lower delivers first. Lets a
    /// model define intra-instant phases (e.g. completions before
    /// admissions before the scheduling pass) without fragile reliance on
    /// insertion order.
    pub priority: u8,
    /// Queue insertion number — the final, stable tie-break for events
    /// sharing `(time, priority)`, and a per-run unique id.
    pub seq: u64,
    /// Component that scheduled the event.
    pub src: CompId,
    /// Component the event is delivered to.
    pub dst: CompId,
    /// The typed payload.
    pub payload: E,
}

/// Heap entry ordered as a *min*-heap on `(time, seq)`. Payloads never
/// participate in ordering, so `E` needs no trait bounds.
struct Entry<E>(Event<E>);

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.0.time, other.0.priority, other.0.seq).cmp(&(
            self.0.time,
            self.0.priority,
            self.0.seq,
        ))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Always-on per-lane routing and pop counters — sim-plane telemetry.
///
/// Each field is a plain `u64` bumped on the corresponding branch of
/// [`EventQueue::push`] / [`EventQueue::pop`]; maintaining them is a
/// handful of increments per event and never allocates, so they are
/// unconditionally on. The values are a pure function of the
/// (deterministic) event sequence — identical across thread counts for a
/// given shard — which makes them safe to export into byte-compared
/// metrics files.
///
/// `batch_wheel`, `batch_sorted` and `pop_sorted` belonged to the retired
/// sorted-batch lane and always read 0; they remain because exported
/// metrics files are byte-compared and the frozen `benchmark/` reads
/// `pop_sorted` (ROADMAP queues them for the next benchmark re-anchor).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// `push` calls routed into a timer-wheel slot.
    pub push_wheel: u64,
    /// `push` calls routed to the binary heap.
    pub push_heap: u64,
    /// Retired with the sorted-batch lane: always 0.
    pub batch_wheel: u64,
    /// Retired with the sorted-batch lane: always 0.
    pub batch_sorted: u64,
    /// Events popped out of a drained wheel slot.
    pub pop_wheel: u64,
    /// Retired with the sorted-batch lane: always 0.
    pub pop_sorted: u64,
    /// Events popped from the binary heap.
    pub pop_heap: u64,
}

/// Log2 of the timer-wheel slot granularity in µs: one slot covers
/// 2^16 µs ≈ 65 ms of simulated time.
const WHEEL_SHIFT: u32 = 16;
/// Timer-wheel slot count (one revolution covers ≈ 67 s of simulated
/// time at the 65 ms granularity).
const WHEEL_SLOTS: usize = 1024;

/// The pending-event queue: a stable `(time, priority, seq)` total
/// order, so two runs that schedule the same events pop them in the same
/// order — the kernel's reproducibility guarantee.
///
/// Two lanes hold pending events; the total order is lane-independent
/// (pop always compares the lane heads by the full key), so lane routing
/// is pure placement policy:
///
/// * **heap** — the general O(log n) lane;
/// * **wheel** — a timing-wheel lane for the near future (the dominant
///   `emit_self` cycle-timer and task-completion pattern): events within
///   one wheel revolution of the clock land in a bucketed slot in O(1)
///   and are sorted per slot only when the clock reaches it, keeping the
///   heap small and each slot sort tiny. Slot vectors and the active-run
///   buffer are reused across revolutions, so the steady-state cycle
///   pattern allocates nothing.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Timer-wheel slots; slot `page % WHEEL_SLOTS` holds events of
    /// exactly one time page (`time >> WHEEL_SHIFT`) at a time.
    wheel: Vec<Vec<Event<E>>>,
    /// Events currently resident in wheel slots.
    wheel_len: usize,
    /// The page the wheel has been drained through: pushes for this page
    /// or earlier go to the heap.
    active_page: u64,
    /// The drained slot currently being consumed, sorted by
    /// `(time, priority, seq)` **descending** so the head pops from the
    /// back in O(1).
    run: Vec<Event<E>>,
    next_seq: u64,
    /// Per-lane routing/pop counters (always on; see [`LaneStats`]).
    stats: LaneStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            wheel: std::iter::repeat_with(Vec::new).take(WHEEL_SLOTS).collect(),
            wheel_len: 0,
            active_page: 0,
            run: Vec::new(),
            next_seq: 0,
            stats: LaneStats::default(),
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event, assigning the next sequence number.
    pub fn push(&mut self, time: u64, priority: u8, src: CompId, dst: CompId, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Event {
            time,
            priority,
            seq,
            src,
            dst,
            payload,
        };
        let page = time >> WHEEL_SHIFT;
        if page > self.active_page && page - self.active_page < WHEEL_SLOTS as u64 {
            self.wheel[(page % WHEEL_SLOTS as u64) as usize].push(ev);
            self.wheel_len += 1;
            self.stats.push_wheel += 1;
        } else {
            self.heap.push(Entry(ev));
            self.stats.push_heap += 1;
        }
    }

    /// Ensures the wheel's earliest events are visible in the active run:
    /// advances the wheel page by page until a non-empty slot is drained
    /// (sorted descending for O(1) pops). Invariant: a slot holds events
    /// of exactly one page, because pushes land strictly beyond
    /// `active_page` and never more than one revolution ahead.
    fn prime(&mut self) {
        while self.run.is_empty() && self.wheel_len > 0 {
            self.active_page += 1;
            let slot = &mut self.wheel[(self.active_page % WHEEL_SLOTS as u64) as usize];
            if !slot.is_empty() {
                self.wheel_len -= slot.len();
                std::mem::swap(&mut self.run, slot);
                self.run.sort_unstable_by(|a, b| {
                    (b.time, b.priority, b.seq).cmp(&(a.time, a.priority, a.seq))
                });
            }
        }
    }

    /// Removes and returns the earliest event across both lanes.
    pub fn pop(&mut self) -> Option<Event<E>> {
        self.prime();
        // Lane heads by (time, priority, seq); the smaller key wins.
        let key = |e: &Event<E>| (e.time, e.priority, e.seq);
        let from_wheel = match (self.run.last(), self.heap.peek()) {
            (Some(w), Some(h)) => key(w) < key(&h.0),
            (Some(_), None) => true,
            (None, _) => false,
        };
        let ev = if from_wheel {
            self.stats.pop_wheel += 1;
            self.run.pop()?
        } else {
            let ev = self.heap.pop()?.0;
            self.stats.pop_heap += 1;
            ev
        };
        if self.wheel_len == 0 && self.run.is_empty() {
            // Wheel idle: fast-forward its window to the clock so
            // near-future pushes use it again.
            self.active_page = self.active_page.max(ev.time >> WHEEL_SHIFT);
        }
        Some(ev)
    }

    /// Delivery time of the earliest event, if any.
    pub fn peek_time(&mut self) -> Option<u64> {
        self.prime();
        let wheel = self.run.last().map(|e| e.time);
        let heap = self.heap.peek().map(|e| e.0.time);
        wheel.into_iter().chain(heap).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.wheel_len + self.run.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the per-lane routing/pop counters.
    pub fn lane_stats(&self) -> LaneStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, 0, 0, 0, "c");
        q.push(10, 0, 0, 0, "a");
        q.push(20, 0, 0, 0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(5, 0, 0, 0, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn seq_is_globally_unique_across_times() {
        let mut q = EventQueue::new();
        q.push(1, 0, 0, 0, ());
        q.push(1, 0, 0, 0, ());
        q.push(0, 0, 0, 0, ());
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.seq)).collect();
        assert_eq!(seqs, vec![2, 0, 1]);
    }

    #[test]
    fn wheel_lane_preserves_total_order_across_lanes() {
        // Mix near-future events (wheel), far-future events (heap), and
        // current-page events (heap) in a scrambled push order; pops must
        // follow the exact (time, priority, seq) total order regardless
        // of which lane held each event.
        let mut q = EventQueue::new();
        let slot = 1u64 << WHEEL_SHIFT;
        let horizon = slot * WHEEL_SLOTS as u64;
        let mut expect: Vec<(u64, u8, u64)> = Vec::new();
        let mut state = 0x9E37_79B9u64;
        for i in 0..3000u64 {
            // Deterministic pseudo-random times spanning page 0, the
            // wheel window, and several revolutions beyond it.
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let time = state % (3 * horizon);
            let priority = (state >> 32) as u8 % 3;
            q.push(time, priority, 0, 0, i);
            expect.push((time, priority, i));
        }
        expect.sort_unstable();
        let got: Vec<(u64, u8, u64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time, e.priority, e.seq))).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn wheel_and_heap_interleave_with_incremental_pushes() {
        // The cycle-timer pattern: pop one event, push the next wake-up —
        // exercising prime()/fast-forward across many wheel revolutions.
        let mut q = EventQueue::new();
        let period = 700_000u64; // lands in the wheel window
        q.push(period, 0, 0, 0, 0u32);
        let mut last = 0u64;
        for k in 1..200u32 {
            let ev = q.pop().expect("timer pending");
            assert!(ev.time > last, "time must advance monotonically");
            last = ev.time;
            q.push(ev.time + period, 0, 0, 0, k);
            // A far-future completion beyond the wheel window each tick.
            q.push(ev.time + 400_000_000, 1, 0, 0, 10_000 + k);
        }
        // Everything still pending pops in time order.
        let mut prev = 0u64;
        while let Some(ev) = q.pop() {
            assert!(ev.time >= prev);
            prev = ev.time;
        }
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_lane_len_accounts_all_lanes() {
        let mut q = EventQueue::new();
        q.push(1 << WHEEL_SHIFT, 0, 0, 0, "wheel");
        q.push(0, 0, 0, 0, "heap");
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(0));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["heap", "wheel"]);
        assert!(q.is_empty());
    }

    #[test]
    fn lane_stats_track_routing_and_pops() {
        let mut q = EventQueue::new();
        q.push(1 << WHEEL_SHIFT, 0, 0, 0, "wheel");
        q.push(0, 0, 0, 0, "heap");
        let s = q.lane_stats();
        assert_eq!((s.push_wheel, s.push_heap), (1, 1));
        while q.pop().is_some() {}
        // Popping an empty queue counts nothing.
        assert!(q.pop().is_none());
        let s = q.lane_stats();
        assert_eq!((s.pop_wheel, s.pop_heap), (1, 1));
        // The sorted-batch lane's counters are retired: always 0.
        assert_eq!((s.batch_wheel, s.batch_sorted, s.pop_sorted), (0, 0, 0));
    }

    #[test]
    fn priority_orders_within_a_timestamp() {
        let mut q = EventQueue::new();
        q.push(5, 2, 0, 0, "pass");
        q.push(5, 0, 0, 0, "finish");
        q.push(5, 1, 0, 0, "admit");
        q.push(4, 9, 0, 0, "earlier");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["earlier", "finish", "admit", "pass"]);
    }
}
