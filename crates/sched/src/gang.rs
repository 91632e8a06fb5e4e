//! Atomic gang placement.
//!
//! “This approach works well with gang scheduling, where tasks in the
//! same job are grouped by their CO and scheduled together.” A gang
//! arrives as one event ([`crate::scenario::GangSource`]) and the engine
//! places it all-or-nothing.

use crate::queue::PendingTask;

/// All-or-nothing gang placement into a caller-provided assignment
/// buffer — the engine's scratch-threaded form (no allocation per gang
/// attempt). Reserves machines for *every* member or places nothing:
/// returns true when the whole gang placed, with the `(task, machine)`
/// assignments in member order in `out`; on false the cluster and `out`
/// are left empty of this attempt.
///
/// Greedy best-fit per member with rollback — sufficient for the paper's
/// usage, where gang members share one constraint set.
pub fn place_gang_into<'a>(
    cluster: &mut crate::cluster::SchedCluster,
    gang: impl IntoIterator<Item = &'a PendingTask>,
    out: &mut Vec<(u64, u64)>,
) -> bool {
    out.clear();
    for t in gang {
        match crate::placement::best_fit(cluster, t) {
            crate::placement::Placement::Placed(m) => {
                cluster.place(m, t.id, t.cpu, t.memory, t.priority);
                out.push((t.id, m));
            }
            _ => {
                // Roll back everything reserved so far.
                for &(task, machine) in out.iter() {
                    cluster.release(machine, task);
                }
                out.clear();
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SchedCluster;
    use ctlm_trace::{AttrValue, Machine};

    fn task(id: u64) -> PendingTask {
        PendingTask {
            id,
            collection: 5,
            cpu: 0.8,
            memory: 0.1,
            priority: 0,
            reqs: vec![],
            arrival: ctlm_sim::SimTime::ZERO,
            truth_group: 25,
        }
    }

    #[test]
    fn gang_places_all_or_nothing() {
        let mut ms = Vec::new();
        for i in 0..2u64 {
            let mut m = Machine::new(i, 1.0, 1.0);
            m.set_attr(0, AttrValue::Int(i as i64));
            ms.push(m);
        }
        let mut cluster = SchedCluster::from_machines(ms);
        let mut out = vec![(9, 9)];

        // A 3-member gang needing 0.8 CPU each on 2 machines: only two
        // fit, so nothing must be reserved.
        let gang: Vec<PendingTask> = (100..103).map(task).collect();
        assert!(!place_gang_into(&mut cluster, &gang, &mut out));
        assert!(out.is_empty());
        assert!(
            (cluster.cpu_utilisation()).abs() < 1e-9,
            "failed gang must leave no reservations behind"
        );

        // A 2-member gang fits and reserves both slots, in member order.
        assert!(place_gang_into(&mut cluster, &gang[..2], &mut out));
        assert_eq!(out.iter().map(|&(t, _)| t).collect::<Vec<_>>(), [100, 101]);
        assert!(cluster.cpu_utilisation() > 0.0);
    }
}
