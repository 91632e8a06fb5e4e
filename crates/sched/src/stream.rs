//! Arrival feeding: the one component that admits a cell's arrivals, and
//! the pull-based chunk interface that lets it run without the whole
//! workload in memory.
//!
//! A cell's arrivals come in one of two shapes ([`Arrivals`]):
//!
//! * a **borrowed list** — every [`PendingTask`] built up front, the
//!   engine's task arena resolving indices straight into the slice (no
//!   clone). Simple, but peak memory is O(total tasks), which is what
//!   caps fleet-scale experiments long before CPU does;
//! * an [`ArrivalStream`] producing fixed-size, time-sorted chunks *on
//!   demand* (a generator replaying its RNG lazily, a trace decoded
//!   incrementally, or [`SliceStream`] adapting an existing list in
//!   tests). Each chunk enters the arena as one index-stable segment;
//!   tasks are freed as they finish (or are dropped/spilled), and fully
//!   drained segments return their buffers to a small pool for the next
//!   refill — peak memory O(chunk + in-flight tasks) per cell.
//!
//! Either way the same [`ArrivalFeed`] walks arena indices `[next, end)`
//! — the whole list, or the chunk decoded so far — and pulls the next
//! chunk (when there is a stream) whenever the simulation clock catches
//! up, i.e. chunks are always decoded *ahead of* the clock, on whatever
//! worker thread is running the cell's shard. It wakes once per distinct
//! arrival instant and emits the same admissions in the same order, so
//! the event sequence does not depend on the shape (the lab's
//! list-vs-stream equivalence tests pin this bit-for-bit).

use ctlm_sim::{Ctx, SimDuration, SimTime};

use crate::engine::{EngineState, SchedEvent, PRIO_ADMIT};
use crate::queue::PendingTask;
use crate::timed::TimedSource;

/// A pull-based producer of time-sorted arrival chunks.
///
/// Contract:
///
/// * every call appends at most one chunk's worth of tasks to `out` and
///   returns the number appended — `0` means the stream is exhausted
///   (and must keep returning `0`);
/// * arrival times are nondecreasing *within and across* chunks, so the
///   consumer can treat the concatenation of all refills as one sorted
///   arrival list;
/// * `out` is handed in empty (the consumer recycles drained segment
///   buffers through it) and implementations must only append.
///
/// Implementations decide their own chunk size; [`ArrivalFeed`] adapts
/// to whatever run length a refill produces.
pub trait ArrivalStream: Send {
    /// Appends the next time-sorted run of tasks to `out`; returns how
    /// many were appended (0 = exhausted).
    fn refill(&mut self, out: &mut Vec<PendingTask>) -> usize;
}

/// [`ArrivalStream`] over an existing time-sorted task list, cloning
/// `chunk` tasks per refill.
///
/// A test adapter: it lets the equivalence tests push one workload
/// through both [`Arrivals`] shapes. Lists that exist in memory anyway
/// are fed as [`Arrivals::List`], which clones nothing.
pub struct SliceStream<'a> {
    tasks: &'a [PendingTask],
    pos: usize,
    chunk: usize,
}

impl<'a> SliceStream<'a> {
    /// A stream over `tasks` (must be sorted by arrival time) delivering
    /// `chunk` tasks per refill.
    ///
    /// # Panics
    /// Panics when `chunk` is 0.
    pub fn new(tasks: &'a [PendingTask], chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        debug_assert!(
            tasks.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "SliceStream input must be sorted by arrival"
        );
        Self {
            tasks,
            pos: 0,
            chunk,
        }
    }
}

impl ArrivalStream for SliceStream<'_> {
    fn refill(&mut self, out: &mut Vec<PendingTask>) -> usize {
        let end = (self.pos + self.chunk).min(self.tasks.len());
        let n = end - self.pos;
        out.extend_from_slice(&self.tasks[self.pos..end]);
        self.pos = end;
        n
    }
}

/// What feeds a cell its arrivals — the `arrivals` argument of
/// [`Simulator::cell`](crate::engine::Simulator::cell).
pub enum Arrivals<'a> {
    /// A borrowed time-sorted list; the task arena resolves its indices
    /// into the slice, nothing is cloned. May be empty (cells fed
    /// exclusively through [`SchedEvent::Admit`]).
    List(&'a [PendingTask]),
    /// Chunks pulled on demand into the task arena.
    Stream(Box<dyn ArrivalStream + 'a>),
}

/// The [`TimedSource`] admitting a cell's arrivals: one wake per
/// distinct arrival instant, admissions emitted at [`PRIO_ADMIT`] in
/// arrival order as [`SchedEvent::Arrival`] arena indices (no task
/// clone).
///
/// With `spill` (cells under cross-cell spillover on the epoch-sharded
/// coordinator), tasks the home cell declines at their arrival instant
/// (see [`EngineState::can_admit`]; reported to the engine's ledger with
/// the reason) go to the shard's epoch outbox as
/// [`SchedEvent::SpillRequest`] instead; the coordinator's barrier hook
/// routes them (home queue or a sibling cell, per the spillover policy)
/// at the next epoch boundary. Spilled tasks keep their original arrival
/// stamp, so queue latency honestly includes the barrier wait.
pub struct ArrivalFeed<'a> {
    /// Refills `[next, end)` once drained; `None` for a list-fed cell,
    /// whose whole list is the one and only run.
    stream: Option<Box<dyn ArrivalStream + 'a>>,
    /// Arena index of the next task to admit.
    next: usize,
    /// One past the last task known to the arena.
    end: usize,
    spill: bool,
    /// Last emitted arrival stamp — guards the stream's cross-chunk
    /// sort contract in debug builds.
    last_arrival: SimTime,
}

impl<'a> ArrivalFeed<'a> {
    /// A feed over `state`'s arena: the borrowed list occupies indices
    /// `0..list_len` (0 for a stream-fed cell), `stream` refills past it
    /// — its first chunk is decoded here, so the first arrival time is
    /// known before the feed is attached.
    pub(crate) fn new(
        list_len: usize,
        stream: Option<Box<dyn ArrivalStream + 'a>>,
        state: &mut EngineState<'_>,
        spill: bool,
    ) -> Self {
        let mut feed = Self {
            stream,
            next: 0,
            end: list_len,
            spill,
            last_arrival: SimTime::ZERO,
        };
        feed.refill(state);
        feed
    }

    /// Once `[next, end)` is drained, pulls the next chunk into a fresh
    /// arena segment; without a stream, or with it exhausted, the feed
    /// stays drained — and is done.
    fn refill(&mut self, state: &mut EngineState<'_>) {
        if self.next < self.end {
            return;
        }
        let Some((start, len)) = self
            .stream
            .as_deref_mut()
            .and_then(|stream| state.pull_chunk(stream))
        else {
            return;
        };
        debug_assert!(
            (start..start + len)
                .map(|i| state.task(i).arrival)
                .is_sorted()
                && state.task(start).arrival >= self.last_arrival,
            "ArrivalStream chunks must be sorted across refills"
        );
        self.next = start;
        self.end = start + len;
    }
}

impl TimedSource for ArrivalFeed<'_> {
    const CLASS: u8 = PRIO_ADMIT;

    fn next_time(&self, state: &EngineState<'_>) -> Option<SimTime> {
        (self.next < self.end).then(|| state.task(self.next).arrival)
    }

    fn fire(&mut self, now: SimTime, state: &mut EngineState<'_>, ctx: &mut Ctx<'_, SchedEvent>) {
        while self.next < self.end {
            let task = state.task(self.next);
            let due = self.spill && task.arrival <= now;
            let (arrival, rejection) = (task.arrival, due.then(|| state.rejection(task)).flatten());
            if arrival > now {
                return;
            }
            self.last_arrival = arrival;
            match rejection {
                None => {
                    let arrival = SchedEvent::Arrival(self.next);
                    ctx.emit_prio(SimDuration::ZERO, PRIO_ADMIT, state.engine(), arrival);
                }
                Some(reason) => {
                    state.spilled(self.next, now, reason);
                    ctx.emit_remote(PRIO_ADMIT, SchedEvent::SpillRequest(self.next));
                }
            }
            self.next += 1;
            self.refill(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u64, arrival: u64) -> PendingTask {
        PendingTask {
            id,
            collection: 1,
            cpu: 0.1,
            memory: 0.1,
            priority: 2,
            reqs: vec![],
            arrival: SimTime::from_micros(arrival),
            truth_group: 25,
        }
    }

    #[test]
    fn slice_stream_chunks_cover_the_list() {
        let tasks: Vec<PendingTask> = (0..10).map(|k| task(k, k * 100)).collect();
        let mut stream = SliceStream::new(&tasks, 4);
        let mut seen = Vec::new();
        let mut buf = Vec::new();
        let mut sizes = Vec::new();
        loop {
            buf.clear();
            let n = stream.refill(&mut buf);
            if n == 0 {
                break;
            }
            sizes.push(n);
            seen.extend(buf.iter().map(|t| t.id));
        }
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(seen, (0..10).collect::<Vec<u64>>());
        // Exhausted streams stay exhausted.
        buf.clear();
        assert_eq!(stream.refill(&mut buf), 0);
    }
}
