//! The pending task: one arrival waiting to be placed, as the engine's
//! task arena stores it.

use ctlm_data::compaction::AttrRequirement;
use ctlm_data::dataset::group_for_count;
use ctlm_sim::SimTime;
use ctlm_trace::{CollectionId, Task, TaskId};

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
    pub arrival: SimTime,
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
        arrival: SimTime,
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
