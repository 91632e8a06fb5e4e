//! Pending job queues.

use std::collections::VecDeque;

use ctlm_data::compaction::AttrRequirement;
use ctlm_data::dataset::group_for_count;
use ctlm_trace::{CollectionId, Micros, Task, TaskId};

/// A task waiting to be scheduled.
#[derive(Clone, Debug)]
pub struct PendingTask {
    /// Task id.
    pub id: TaskId,
    /// Owning collection (gang identity).
    pub collection: CollectionId,
    /// CPU request.
    pub cpu: f64,
    /// Memory request.
    pub memory: f64,
    /// Priority band.
    pub priority: u8,
    /// Collapsed constraints (empty = unconstrained).
    pub reqs: Vec<AttrRequirement>,
    /// Arrival time (latency measurement anchor).
    pub arrival: Micros,
    /// Ground-truth suitable-node group (for reporting only — the
    /// schedulers never read it).
    pub truth_group: u8,
}

impl PendingTask {
    /// A trace submission as a labelled arrival — the one place a
    /// [`Task`] becomes a `PendingTask`. `reqs` are its collapsed
    /// constraints and `suitable` how many machines satisfy them; `None`
    /// when no machine does (such a task can never place and is not an
    /// arrival). Requests are clamped to 0.9 of a node, and the
    /// ground-truth label is `suitable` bucketed `group_width` wide.
    pub fn from_submission(
        task: &Task,
        reqs: Vec<AttrRequirement>,
        suitable: usize,
        group_width: usize,
        arrival: Micros,
    ) -> Option<Self> {
        (suitable > 0).then(|| Self {
            id: task.id,
            collection: task.collection,
            cpu: task.cpu.min(0.9),
            memory: task.memory.min(0.9),
            priority: task.priority,
            reqs,
            arrival,
            truth_group: group_for_count(suitable, group_width),
        })
    }
}

/// FIFO pending queue with requeue-at-back semantics.
#[derive(Clone, Debug, Default)]
pub struct PendingQueue {
    inner: VecDeque<PendingTask>,
}

impl PendingQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue length.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Enqueues a newly arrived task.
    pub fn push(&mut self, t: PendingTask) {
        self.inner.push_back(t);
    }

    /// Pops the head task for a placement attempt.
    pub fn pop(&mut self) -> Option<PendingTask> {
        self.inner.pop_front()
    }

    /// Returns a task to the back of the queue after a failed attempt.
    pub fn requeue(&mut self, t: PendingTask) {
        self.inner.push_back(t);
    }

    /// Peeks at the head.
    pub fn peek(&self) -> Option<&PendingTask> {
        self.inner.front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: TaskId) -> PendingTask {
        PendingTask {
            id,
            collection: 1,
            cpu: 0.1,
            memory: 0.1,
            priority: 0,
            reqs: vec![],
            arrival: 0,
            truth_group: 25,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = PendingQueue::new();
        q.push(task(1));
        q.push(task(2));
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.peek().unwrap().id, 2);
    }

    #[test]
    fn requeue_goes_to_back() {
        let mut q = PendingQueue::new();
        q.push(task(1));
        q.push(task(2));
        let t = q.pop().unwrap();
        q.requeue(t);
        assert_eq!(q.pop().unwrap().id, 2);
        assert_eq!(q.pop().unwrap().id, 1);
        assert!(q.is_empty());
    }
}
