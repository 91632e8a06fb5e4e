//! The trace event stream.
//!
//! AGOCS replays GCD traces as a time-ordered stream of machine,
//! collection and task events; this module defines that stream's schema.

use serde::{Deserialize, Serialize};

use crate::attr::{AttrId, AttrValue};
use crate::collection::Collection;
use crate::machine::{Machine, MachineId};
use crate::task::{Task, TaskId};

/// Simulation timestamps in microseconds since trace start, matching the
/// GCD convention.
pub type Micros = u64;

/// Microseconds in one simulated day.
pub const MICROS_PER_DAY: Micros = 24 * 60 * 60 * 1_000_000;

/// Why a task left the cluster. The 2019 traces distinguish these, and the
/// paper's anomaly discussion (“tasks missing eviction or failure events”)
/// depends on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TerminationReason {
    /// Ran to completion.
    Complete,
    /// Evicted by the scheduler (e.g. preemption).
    Evict,
    /// Failed at runtime.
    Fail,
    /// Killed by the user or a parent collection.
    Kill,
}

/// Event payloads.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EventPayload {
    /// A machine joins the cell.
    MachineAdd(Machine),
    /// A machine leaves the cell.
    MachineRemove(MachineId),
    /// A machine attribute changes (None removes the attribute). These are
    /// the events that grow the attribute-value vocabulary mid-trace.
    MachineAttrUpdate {
        /// The machine being updated.
        machine: MachineId,
        /// The attribute being set or cleared.
        attr: AttrId,
        /// New value, or `None` to clear.
        value: Option<AttrValue>,
    },
    /// A collection (job / alloc set) is submitted.
    CollectionSubmit(Collection),
    /// A collection finishes; per the paper's correction rule, any task
    /// markers it still owns must be deleted at this point.
    CollectionFinish(crate::collection::CollectionId),
    /// A task is submitted (with its constraints).
    TaskSubmit(Task),
    /// A task record is updated mid-flight (e.g. resource-request change).
    TaskUpdate {
        /// The task being updated.
        task: TaskId,
        /// New CPU request.
        cpu: f64,
        /// New memory request.
        memory: f64,
    },
    /// A task terminates.
    TaskTerminate {
        /// The task terminating.
        task: TaskId,
        /// Why it terminated.
        reason: TerminationReason,
    },
}

/// A timestamped trace event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Event time in microseconds since trace start.
    pub time: Micros,
    /// What happened.
    pub payload: EventPayload,
}

impl TraceEvent {
    /// Convenience constructor.
    pub fn new(time: Micros, payload: EventPayload) -> Self {
        Self { time, payload }
    }
}

/// Rescales a time-ordered event stream onto `[0, span]`, preserving
/// order — simulations compress multi-week traces onto minutes-to-hours
/// experiment windows (the loaded regime where queueing effects exist).
/// The per-arrival analogue for already-extracted task lists is
/// `ctlm_sched::engine::compress_timeline`.
pub fn compress_times(events: &mut [TraceEvent], span: Micros) {
    let max = events.iter().map(|e| e.time).max().unwrap_or(0);
    if max == 0 {
        return;
    }
    for e in events.iter_mut() {
        e.time = ((e.time as u128 * span as u128) / max as u128) as Micros;
    }
}

/// Formats a timestamp as `day HH:MM` (Table XI step labels).
pub fn format_day_hour_minute(t: Micros) -> String {
    let day = t / MICROS_PER_DAY;
    let rem = t % MICROS_PER_DAY;
    let hour = rem / (60 * 60 * 1_000_000);
    let minute = (rem / (60 * 1_000_000)) % 60;
    format!("{day} {hour:02}:{minute:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compress_times_preserves_order_and_hits_span() {
        let mut events: Vec<TraceEvent> = [0u64, 5_000, 40_000, 100_000]
            .iter()
            .map(|&t| TraceEvent::new(t, EventPayload::CollectionFinish(1)))
            .collect();
        compress_times(&mut events, 1_000);
        let times: Vec<Micros> = events.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![0, 50, 400, 1_000]);
        // Empty / all-zero streams are untouched.
        let mut zero = vec![TraceEvent::new(0, EventPayload::CollectionFinish(1))];
        compress_times(&mut zero, 1_000);
        assert_eq!(zero[0].time, 0);
    }

    #[test]
    fn day_hour_minute_formatting() {
        assert_eq!(format_day_hour_minute(0), "0 00:00");
        let t = 3 * MICROS_PER_DAY + 5 * 3_600_000_000 + 42 * 60_000_000;
        assert_eq!(format_day_hour_minute(t), "3 05:42");
    }

    #[test]
    fn events_serialize_roundtrip() {
        let ev = TraceEvent::new(
            123,
            EventPayload::TaskTerminate {
                task: 9,
                reason: TerminationReason::Evict,
            },
        );
        let json = serde_json::to_string(&ev).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(ev, back);
    }
}
