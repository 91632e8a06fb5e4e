//! The engine's task arena: a borrowed arrival list plus index-stable
//! owned chunk segments with liveness-based buffer recycling.
//!
//! The engine references tasks by `usize` arena index, and this module
//! alone decides which storage an index lives in. Indices below the
//! borrowed arrival list's length (the **base**) resolve into that
//! slice — nothing is cloned, nothing is ever reclaimed there. Everything
//! else — streamed arrival chunks, gang members, dynamic admits — is
//! owned here and continues the numbering past the base. The slab hands
//! out **monotonically increasing** indices (never reused), so an index
//! stays a stable name for its task for the whole run, while storage is
//! reclaimed the moment a *segment* (one pushed chunk) has no live tasks
//! left: the engine releases a task's slot when it finishes, is dropped
//! as infeasible, is evicted by preemption, or is spilled to a sibling
//! cell, and fully drained front segments give their buffers back to a
//! small pool for the next chunk refill. That is what keeps a streamed
//! cell's peak memory at O(chunk + in-flight) instead of O(total tasks).

use std::collections::VecDeque;

use crate::queue::PendingTask;

/// Retired segment buffers kept for reuse. Two is enough to cover the
/// steady state (one segment draining while the next decodes); more
/// would just pin memory.
const POOL_LIMIT: usize = 2;

/// One pushed chunk: a contiguous index range `start..start+tasks.len()`
/// with a live-slot count.
struct Segment {
    start: usize,
    tasks: Vec<PendingTask>,
    live: usize,
    /// Open segments (dynamic single-task admits) may keep growing at
    /// the slab tail; sealed segments (streamed chunks, gangs) never do.
    open: bool,
}

/// Index-stable task storage over the engine's borrowed arrival list.
/// Every index in and out is an **absolute** arena index: `0..base.len()`
/// is the borrowed list, pushed tasks follow.
pub(crate) struct TaskSlab<'a> {
    /// The borrowed arrival list — not a segment: never counted in
    /// [`TaskSlab::retired`] / [`TaskSlab::resident_segments`], and
    /// releasing a slot in it is a no-op.
    base: &'a [PendingTask],
    /// Live segments, ordered by `start`.
    segments: VecDeque<Segment>,
    /// One past the last index handed out — the next pushed index.
    len: usize,
    /// Cleared buffers from retired segments, reused for new chunks.
    pool: Vec<Vec<PendingTask>>,
    /// Segments retired so far (buffer reclaimed) — observability for
    /// the recycling tests.
    retired: u64,
}

impl<'a> TaskSlab<'a> {
    /// An arena over `base` (may be empty); the first pushed task gets
    /// index `base.len()`.
    pub(crate) fn over(base: &'a [PendingTask]) -> Self {
        Self {
            base,
            segments: VecDeque::new(),
            len: base.len(),
            pool: Vec::new(),
            retired: 0,
        }
    }

    /// A cleared buffer for the next chunk — recycled when available.
    pub(crate) fn take_buffer(&mut self) -> Vec<PendingTask> {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns an unused buffer to the pool.
    pub(crate) fn recycle_buffer(&mut self, mut buf: Vec<PendingTask>) {
        if self.pool.len() < POOL_LIMIT {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// Pushes a sealed segment (a streamed chunk or a gang), taking
    /// ownership of the buffer. Returns `(start, len)` of the segment's
    /// index range. Empty buffers push no segment.
    pub(crate) fn push_sealed(&mut self, tasks: Vec<PendingTask>) -> (usize, usize) {
        let start = self.len;
        let n = tasks.len();
        if n == 0 {
            self.recycle_buffer(tasks);
            return (start, 0);
        }
        self.len += n;
        self.segments.push_back(Segment {
            start,
            tasks,
            live: n,
            open: false,
        });
        (start, n)
    }

    /// Pushes one dynamically admitted task, growing the tail segment
    /// when it is open (so admit-heavy runs do not fragment into
    /// single-task segments). Returns the task's index.
    pub(crate) fn push_one(&mut self, t: PendingTask) -> usize {
        let idx = self.len;
        self.len += 1;
        match self.segments.back_mut() {
            Some(seg) if seg.open && seg.start + seg.tasks.len() == idx => {
                seg.tasks.push(t);
                seg.live += 1;
            }
            _ => {
                let mut tasks = self.take_buffer();
                tasks.push(t);
                self.segments.push_back(Segment {
                    start: idx,
                    tasks,
                    live: 1,
                    open: true,
                });
            }
        }
        idx
    }

    /// The task behind an index.
    ///
    /// # Panics
    /// Panics on indices never pushed or whose segment has been retired
    /// (a released slot must never be read again).
    pub(crate) fn get(&self, idx: usize) -> &PendingTask {
        if let Some(t) = self.base.get(idx) {
            return t;
        }
        let seg = self.segment_for(idx);
        &seg.tasks[idx - seg.start]
    }

    /// Releases one slot: the task is dead (finished, dropped,
    /// evicted, or spilled away) and will never be read again. Fully
    /// drained segments at the slab front retire — their buffers go to
    /// the pool. No-op for the borrowed base (nothing to reclaim there).
    pub(crate) fn release(&mut self, idx: usize) {
        if idx < self.base.len() {
            return;
        }
        let pos = self.position_for(idx);
        let seg = &mut self.segments[pos];
        debug_assert!(seg.live > 0, "slot {idx} double-released");
        seg.live -= 1;
        while let Some(front) = self.segments.front() {
            if front.live > 0 {
                break;
            }
            let seg = self.segments.pop_front().expect("front exists");
            self.retired += 1;
            self.recycle_buffer(seg.tasks);
        }
    }

    /// Segments retired (buffers reclaimed) so far.
    pub(crate) fn retired(&self) -> u64 {
        self.retired
    }

    /// Live (unretired) segments currently held.
    pub(crate) fn resident_segments(&self) -> usize {
        self.segments.len()
    }

    fn position_for(&self, idx: usize) -> usize {
        debug_assert!(idx < self.len, "index {idx} never pushed");
        debug_assert!(
            self.segments.front().is_some_and(|s| idx >= s.start),
            "index {idx} reaches into a retired segment"
        );
        // Binary search over the (start-ordered) segment deque: the last
        // segment with `start <= idx`.
        let mut lo = 0usize;
        let mut hi = self.segments.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.segments[mid].start <= idx {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        debug_assert!(lo > 0, "index {idx} below every segment");
        lo - 1
    }

    fn segment_for(&self, idx: usize) -> &Segment {
        let seg = &self.segments[self.position_for(idx)];
        debug_assert!(
            idx - seg.start < seg.tasks.len(),
            "index {idx} past its segment"
        );
        seg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u64) -> PendingTask {
        PendingTask {
            id,
            collection: 1,
            cpu: 0.1,
            memory: 0.1,
            priority: 2,
            reqs: vec![],
            arrival: ctlm_sim::SimTime::from_micros(id),
            truth_group: 25,
        }
    }

    #[test]
    fn indices_are_stable_across_segments() {
        let mut slab = TaskSlab::over(&[]);
        let (s0, n0) = slab.push_sealed((0..4).map(task).collect());
        let one = slab.push_one(task(100));
        let (s1, _) = slab.push_sealed((10..13).map(task).collect());
        assert_eq!((s0, n0), (0, 4));
        assert_eq!(one, 4);
        assert_eq!(s1, 5);
        assert_eq!(slab.get(2).id, 2);
        assert_eq!(slab.get(4).id, 100);
        assert_eq!(slab.get(6).id, 11);
        assert_eq!(slab.push_one(task(101)), 8);
    }

    #[test]
    fn borrowed_base_resolves_below_pushed_tasks_and_never_recycles() {
        let base: Vec<PendingTask> = (0..3).map(task).collect();
        let mut slab = TaskSlab::over(&base);
        // Pushed indices continue past the base.
        assert_eq!(slab.push_one(task(50)), 3);
        assert_eq!(slab.push_sealed((60..62).map(task).collect()), (4, 2));
        assert_eq!(slab.get(0).id, 0);
        assert_eq!(slab.get(2).id, 2);
        assert_eq!(slab.get(3).id, 50);
        assert_eq!(slab.get(5).id, 61);
        // The base is not a segment and releasing into it reclaims
        // nothing — its tasks stay readable.
        assert_eq!(slab.resident_segments(), 2);
        for idx in 0..3 {
            slab.release(idx);
        }
        assert_eq!((slab.retired(), slab.resident_segments()), (0, 2));
        assert_eq!(slab.get(1).id, 1);
        // Owned segments behind it still retire as before.
        for idx in 3..6 {
            slab.release(idx);
        }
        assert_eq!((slab.retired(), slab.resident_segments()), (2, 0));
        assert_eq!(slab.get(2).id, 2);
    }

    #[test]
    fn front_segments_retire_and_recycle_buffers() {
        let mut slab = TaskSlab::over(&[]);
        slab.push_sealed((0..4).map(task).collect());
        slab.push_sealed((4..8).map(task).collect());
        // Drain the second segment first: nothing retires (front alive).
        for idx in 4..8 {
            slab.release(idx);
        }
        assert_eq!(slab.retired(), 0);
        // Drain the front: both retire in one sweep.
        for idx in 0..4 {
            slab.release(idx);
        }
        assert_eq!(slab.retired(), 2);
        assert_eq!(slab.resident_segments(), 0);
        // Their buffers come back out of the pool.
        let buf = slab.take_buffer();
        assert!(buf.capacity() >= 4 && buf.is_empty());
    }

    #[test]
    fn open_tail_segment_absorbs_single_admits() {
        let mut slab = TaskSlab::over(&[]);
        slab.push_one(task(0));
        slab.push_one(task(1));
        slab.push_one(task(2));
        assert_eq!(slab.resident_segments(), 1);
        // A sealed push closes the tail; later singles open a new one.
        slab.push_sealed((10..12).map(task).collect());
        slab.push_one(task(3));
        assert_eq!(slab.resident_segments(), 3);
        assert_eq!(slab.get(5).id, 3);
    }
}
