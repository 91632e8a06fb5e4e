//! Bounded structured event trace: a preallocated ring that keeps the
//! last N events and dumps them as JSON on demand. `ctlm-sched`'s task
//! ledger fills one per cell with its steps, in the order it records
//! them.

use serde::{Serialize, Value};

/// One structured trace event. Fields are deliberately flat `u64`s with
/// a `&'static str` kind tag: recording must not allocate (the ring sits
/// inside the zero-allocation scheduling pass) and must be deterministic
/// (everything here is sim-plane state).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sim time (µs) the event happened at.
    pub time: u64,
    /// Static event-kind tag (e.g. `"admit_arrival"`, `"placed"`,
    /// `"no_capacity"`).
    pub kind: &'static str,
    /// Primary subject (task id, machine id, …) — kind-specific.
    pub a: u64,
    /// Secondary detail (machine index, queue depth, …) — kind-specific.
    pub b: u64,
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("time".to_string(), Value::Num(self.time as f64)),
            ("kind".to_string(), Value::Str(self.kind.to_string())),
            ("a".to_string(), Value::Num(self.a as f64)),
            ("b".to_string(), Value::Num(self.b as f64)),
        ])
    }
}

/// A fixed-capacity ring buffer of [`TraceEvent`]s.
///
/// The buffer is allocated once at construction; [`TraceRing::push`]
/// overwrites the oldest event when full and never allocates. The dump
/// ([`TraceRing::to_value`]) lists surviving events oldest-first along
/// with the total recorded count, so a reader can tell how many were
/// evicted.
#[derive(Clone, Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index the next event is written at once the buffer is full.
    head: usize,
    /// Total events ever recorded (≥ `buf.len()`).
    recorded: u64,
}

impl TraceRing {
    /// A ring holding at most `capacity` events (capacity 0 records
    /// nothing and is the cheap "disabled" representation).
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            recorded: 0,
        }
    }

    /// Records an event, evicting the oldest when full. Never allocates
    /// (the buffer was sized at construction).
    #[inline]
    pub fn push(&mut self, e: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Surviving events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

impl Serialize for TraceRing {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("recorded".to_string(), Value::Num(self.recorded as f64)),
            ("capacity".to_string(), Value::Num(self.capacity as f64)),
            (
                "events".to_string(),
                Value::Array(self.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent {
            time: t,
            kind: "test",
            a: t * 10,
            b: 0,
        }
    }

    #[test]
    fn keeps_the_last_n_in_order() {
        let mut r = TraceRing::new(3);
        for t in 0..5 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 5);
        let times: Vec<u64> = r.iter().map(|e| e.time).collect();
        assert_eq!(times, [2, 3, 4]);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut r = TraceRing::new(0);
        r.push(ev(1));
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 0);
    }

    #[test]
    fn wraparound_overwrites_oldest_across_many_cycles() {
        let mut r = TraceRing::new(4);
        // 3 full wrap cycles plus a partial one: survivors must always
        // be the most recent `capacity` events, oldest first, with the
        // head wrapping cleanly past the buffer end each cycle.
        for t in 0..15 {
            r.push(ev(t));
            let times: Vec<u64> = r.iter().map(|e| e.time).collect();
            let expect: Vec<u64> = (t.saturating_sub(3)..=t).collect();
            assert_eq!(times, expect, "after pushing {t}");
        }
        assert_eq!(r.recorded(), 15);
        assert_eq!(r.len(), 4);
        // The serialized dump reflects the same survivor window.
        let v = r.to_value();
        if let Value::Array(events) = v.get_field("events") {
            assert_eq!(events.len(), 4);
        } else {
            panic!("events not an array");
        }
    }

    #[test]
    fn push_never_reallocates() {
        let mut r = TraceRing::new(8);
        let cap_before = r.buf.capacity();
        for t in 0..100 {
            r.push(ev(t));
        }
        assert_eq!(r.buf.capacity(), cap_before);
    }
}
