//! Constraint matching — the task-to-machine suitability engine.
//!
//! “The key elements of AGOCS include … matching tasks to available
//! machines based on task constraints. The logic behind this matching is
//! the focus of this investigation.” Counting the suitable machines for a
//! task produces the ground-truth group label every model trains against.

use ctlm_data::compaction::AttrRequirement;
use ctlm_trace::Machine;

use crate::state::ClusterState;

/// Evaluates collapsed requirements against one machine — the point
/// check `ctlm_sched::SchedCluster` runs per capacity-ordered candidate.
#[inline]
pub fn machine_suitable(machine: &Machine, reqs: &[AttrRequirement]) -> bool {
    reqs.iter().all(|r| r.accepts(machine.attr(r.attr)))
}

/// Counts the machines in the cluster satisfying every requirement,
/// answering from the cluster's inverted attribute index.
pub fn count_suitable(state: &ClusterState, reqs: &[AttrRequirement]) -> usize {
    state.index().count_matching(reqs)
}

/// Lists the ids of suitable machines in ascending order: the index's
/// walk, its rows turned back into machine ids.
pub fn suitable_machines(state: &ClusterState, reqs: &[AttrRequirement]) -> Vec<u64> {
    let mut ids = Vec::new();
    state.index().matching_visit(reqs, |row| {
        ids.push(state.id_of_key(row));
        true
    });
    ids.sort_unstable();
    ids
}

/// Pre-index reference: counts suitable machines by scanning the fleet.
/// Retained as the equivalence oracle for the index property tests and
/// the `matching` bench (measured against [`count_suitable`] in the same
/// run). Its cost scales with the cluster; the index's with the answer.
pub fn count_suitable_linear(state: &ClusterState, reqs: &[AttrRequirement]) -> usize {
    state
        .machines()
        .filter(|m| machine_suitable(m, reqs))
        .count()
}

/// Pre-index reference for [`suitable_machines`] (ascending ids).
pub fn suitable_machines_linear(state: &ClusterState, reqs: &[AttrRequirement]) -> Vec<u64> {
    state
        .machines()
        .filter(|m| machine_suitable(m, reqs))
        .map(|m| m.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_data::compaction::collapse;
    use ctlm_trace::{AttrValue, ConstraintOp as Op, Machine, TaskConstraint};

    /// A 10-machine cluster with node_index 0..9 (attr 0) and a "gpu"
    /// attribute (attr 1) on even machines.
    fn cluster() -> ClusterState {
        let mut s = ClusterState::new();
        for i in 0..10u64 {
            let mut m = Machine::new(i, 0.5, 0.5);
            m.set_attr(0, AttrValue::Int(i as i64));
            if i % 2 == 0 {
                m.set_attr(1, AttrValue::Int(1));
            }
            s.add_machine(m);
        }
        s
    }

    fn reqs(cs: &[TaskConstraint]) -> Vec<AttrRequirement> {
        collapse(cs).unwrap()
    }

    #[test]
    fn empty_requirements_match_all() {
        let s = cluster();
        assert_eq!(count_suitable(&s, &[]), 10);
    }

    #[test]
    fn window_constraint_counts_exactly() {
        let s = cluster();
        let r = reqs(&[
            TaskConstraint::new(0, Op::GreaterThanEqual(2)),
            TaskConstraint::new(0, Op::LessThan(7)),
        ]);
        assert_eq!(count_suitable(&s, &r), 5); // indices 2..=6
    }

    #[test]
    fn equal_constraint_selects_single_machine() {
        let s = cluster();
        let r = reqs(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(4))))]);
        assert_eq!(count_suitable(&s, &r), 1);
        assert_eq!(suitable_machines(&s, &r), vec![4]);
    }

    #[test]
    fn presence_constraints() {
        let s = cluster();
        let present = reqs(&[TaskConstraint::new(1, Op::Present)]);
        assert_eq!(count_suitable(&s, &present), 5);
        let absent = reqs(&[TaskConstraint::new(1, Op::NotPresent)]);
        assert_eq!(count_suitable(&s, &absent), 5);
    }

    #[test]
    fn conjunction_intersects() {
        let s = cluster();
        let r = reqs(&[
            TaskConstraint::new(0, Op::LessThan(6)),
            TaskConstraint::new(1, Op::Present),
        ]);
        // indices 0..5 with gpu: 0, 2, 4.
        assert_eq!(count_suitable(&s, &r), 3);
    }

    #[test]
    fn machine_churn_changes_counts() {
        let mut s = cluster();
        let r = reqs(&[TaskConstraint::new(0, Op::LessThan(5))]);
        assert_eq!(count_suitable(&s, &r), 5);
        s.remove_machine(3);
        assert_eq!(count_suitable(&s, &r), 4);
    }

    #[test]
    fn index_and_linear_scan_agree_on_a_large_cluster() {
        let mut s = ClusterState::new();
        for i in 0..2000u64 {
            let mut m = Machine::new(i, 0.5, 0.5);
            m.set_attr(0, AttrValue::Int(i as i64));
            s.add_machine(m);
        }
        let r = reqs(&[TaskConstraint::new(0, Op::LessThan(1234))]);
        assert_eq!(count_suitable(&s, &r), 1234);
        assert_eq!(count_suitable_linear(&s, &r), 1234);
    }
}
