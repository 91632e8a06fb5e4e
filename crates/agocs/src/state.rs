//! Cluster state during replay.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ctlm_trace::{AttrId, AttrValue, CollectionId, Machine, MachineId, TaskId};

use crate::index::AttrIndex;

/// The live cluster: machines with their attribute maps, plus the task
/// markers AGOCS tracks (which tasks are known to the cell, grouped by
/// collection so collection termination can clean them up). An
/// [`AttrIndex`] is maintained incrementally alongside the machine map,
/// so constraint matching never has to scan the fleet.
#[derive(Clone, Debug, Default)]
pub struct ClusterState {
    machines: BTreeMap<MachineId, Machine>,
    index: AttrIndex,
    /// Task markers per collection — the structures the paper's corrector
    /// deletes when a terminated collection finishes.
    tasks_by_collection: HashMap<CollectionId, BTreeSet<TaskId>>,
    task_owner: HashMap<TaskId, CollectionId>,
}

impl ClusterState {
    /// Empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live machines.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Iterates live machines.
    pub fn machines(&self) -> impl Iterator<Item = &Machine> {
        self.machines.values()
    }

    /// A machine by id.
    pub fn machine(&self, id: MachineId) -> Option<&Machine> {
        self.machines.get(&id)
    }

    /// The incrementally maintained inverted attribute index.
    pub fn index(&self) -> &AttrIndex {
        &self.index
    }

    /// Adds (or replaces) a machine.
    pub fn add_machine(&mut self, m: Machine) {
        if self.machines.contains_key(&m.id) {
            self.index.remove_machine(m.id);
        }
        self.index.add_machine(&m);
        self.machines.insert(m.id, m);
    }

    /// Removes a machine; returns it if present.
    pub fn remove_machine(&mut self, id: MachineId) -> Option<Machine> {
        let removed = self.machines.remove(&id);
        if removed.is_some() {
            self.index.remove_machine(id);
        }
        removed
    }

    /// Applies an attribute update; returns false when the machine is
    /// unknown (removed earlier — the update is stale and ignored).
    pub fn update_attr(&mut self, id: MachineId, attr: AttrId, value: Option<AttrValue>) -> bool {
        match self.machines.get_mut(&id) {
            Some(m) => {
                match value {
                    Some(v) => {
                        self.index.update_attr(id, attr, Some(&v));
                        m.set_attr(attr, v);
                    }
                    None => {
                        self.index.update_attr(id, attr, None);
                        m.remove_attr(attr);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Registers a task marker.
    pub fn add_task_marker(&mut self, task: TaskId, collection: CollectionId) {
        self.tasks_by_collection
            .entry(collection)
            .or_default()
            .insert(task);
        self.task_owner.insert(task, collection);
    }

    /// Removes one task marker (normal termination path). Returns true if
    /// the marker existed.
    pub fn remove_task_marker(&mut self, task: TaskId) -> bool {
        if let Some(col) = self.task_owner.remove(&task) {
            if let Some(set) = self.tasks_by_collection.get_mut(&col) {
                set.remove(&task);
                if set.is_empty() {
                    self.tasks_by_collection.remove(&col);
                }
            }
            true
        } else {
            false
        }
    }

    /// Deletes every remaining marker of a collection (the paper's
    /// synchronisation rule: “terminated collections deleted associated
    /// task markers”). Returns how many markers were swept.
    pub fn sweep_collection(&mut self, collection: CollectionId) -> usize {
        match self.tasks_by_collection.remove(&collection) {
            Some(set) => {
                let n = set.len();
                for t in set {
                    self.task_owner.remove(&t);
                }
                n
            }
            None => 0,
        }
    }

    /// Number of live task markers.
    pub fn live_task_markers(&self) -> usize {
        self.task_owner.len()
    }

    /// True when the task has a live marker.
    #[cfg(test)]
    pub fn has_task_marker(&self, task: TaskId) -> bool {
        self.task_owner.contains_key(&task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_lifecycle() {
        let mut s = ClusterState::new();
        s.add_machine(Machine::new(1, 0.5, 0.5));
        s.add_machine(Machine::new(2, 1.0, 1.0));
        assert_eq!(s.machine_count(), 2);
        assert!(s.remove_machine(1).is_some());
        assert!(s.remove_machine(1).is_none());
        assert_eq!(s.machine_count(), 1);
    }

    #[test]
    fn stale_attr_update_is_ignored() {
        let mut s = ClusterState::new();
        s.add_machine(Machine::new(1, 0.5, 0.5));
        assert!(s.update_attr(1, 0, Some(AttrValue::Int(3))));
        assert!(!s.update_attr(99, 0, Some(AttrValue::Int(3))));
        assert_eq!(s.machine(1).unwrap().attr(0), Some(&AttrValue::Int(3)));
        assert!(s.update_attr(1, 0, None));
        assert_eq!(s.machine(1).unwrap().attr(0), None);
    }

    #[test]
    fn task_markers_follow_collections() {
        let mut s = ClusterState::new();
        s.add_task_marker(10, 1);
        s.add_task_marker(11, 1);
        s.add_task_marker(20, 2);
        assert_eq!(s.live_task_markers(), 3);
        assert!(s.remove_task_marker(10));
        assert!(!s.remove_task_marker(10), "double-removal must be a no-op");
        assert_eq!(s.sweep_collection(1), 1, "one marker left in collection 1");
        assert_eq!(s.live_task_markers(), 1);
        assert!(s.has_task_marker(20));
    }

    #[test]
    fn sweep_of_unknown_collection_is_zero() {
        let mut s = ClusterState::new();
        assert_eq!(s.sweep_collection(42), 0);
    }
}
