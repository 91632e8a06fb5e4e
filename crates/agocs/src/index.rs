//! Inverted attribute index for constraint matching.
//!
//! `count_suitable` is the AGOCS hot loop: every constrained task asks
//! "how many machines satisfy these requirements" against the whole
//! cluster, and the seed implementation re-scanned every machine per
//! task. This index inverts the cluster: for every attribute it keeps
//!
//! * `present` — which machines define the attribute,
//! * `by_value` — exact-value postings (`value → machines`),
//! * `by_int` — an ordered map over numeric values for range queries,
//! * `value_of` — each machine's current value (O(1) requirement
//!   re-checks without touching the `Machine` itself),
//!
//! plus the set of all live machines. A query walks the postings of its
//! most selective requirement — equality and range postings are usually
//! tiny — and verifies the remaining requirements via `value_of`
//! lookups, so matching cost scales with the answer size rather than the
//! cluster size. There is one such walk, [`AttrIndex::matching_visit`];
//! counting, existence and the sorted list are all folds over it.
//! All-negative queries (not-present / not-equal only) still walk the
//! full machine set once, exactly like the linear scan they replace.
//!
//! The index is maintained incrementally by
//! [`ClusterState`](crate::state::ClusterState) and
//! `ctlm_sched::SchedCluster` (which keys it by machine-table slot, see
//! [`AttrIndex::add_keyed`]) on machine add/remove and attribute
//! updates; `tests/index_properties.rs` pins it to the retained linear
//! scan over randomized clusters and constraint sets.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ctlm_data::compaction::{AttrRequirement, Presence};
use ctlm_trace::{AttrId, AttrValue, Machine, MachineId};

/// Per-attribute postings.
#[derive(Clone, Debug, Default)]
struct AttrPostings {
    /// Machines that define this attribute.
    present: BTreeSet<MachineId>,
    /// Exact-value postings.
    by_value: HashMap<AttrValue, BTreeSet<MachineId>>,
    /// Numeric-value postings ordered for range queries.
    by_int: BTreeMap<i64, BTreeSet<MachineId>>,
    /// Current value per machine (requirement re-checks).
    value_of: HashMap<MachineId, AttrValue>,
}

impl AttrPostings {
    fn insert(&mut self, id: MachineId, value: &AttrValue) {
        self.present.insert(id);
        self.by_value.entry(value.clone()).or_default().insert(id);
        if let Some(n) = value.as_int() {
            self.by_int.entry(n).or_default().insert(id);
        }
        self.value_of.insert(id, value.clone());
    }

    fn remove(&mut self, id: MachineId) {
        let Some(value) = self.value_of.remove(&id) else {
            return;
        };
        self.present.remove(&id);
        if let Some(set) = self.by_value.get_mut(&value) {
            set.remove(&id);
            if set.is_empty() {
                self.by_value.remove(&value);
            }
        }
        if let Some(n) = value.as_int() {
            if let Some(set) = self.by_int.get_mut(&n) {
                set.remove(&id);
                if set.is_empty() {
                    self.by_int.remove(&n);
                }
            }
        }
    }
}

/// The inverted index over a live cluster. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct AttrIndex {
    all: BTreeSet<MachineId>,
    attrs: HashMap<AttrId, AttrPostings>,
}

impl AttrIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed machines.
    pub fn machine_count(&self) -> usize {
        self.all.len()
    }

    /// Indexes a machine's attributes. The machine must not already be
    /// indexed (callers re-indexing an id remove it first).
    pub fn add_machine(&mut self, m: &Machine) {
        self.add_keyed(m.id, m);
    }

    /// [`AttrIndex::add_machine`] under `key` instead of the machine's
    /// own id — for an owner that addresses machines by a dense handle
    /// of its own (`ctlm_sched::SchedCluster` keys the index by table
    /// slot, so a query's answer indexes its table without a lookup).
    /// Every other call then takes and yields that key.
    pub fn add_keyed(&mut self, key: MachineId, m: &Machine) {
        debug_assert!(!self.all.contains(&key), "machine {key} double-indexed");
        self.all.insert(key);
        for (attr, value) in &m.attributes {
            self.attrs.entry(*attr).or_default().insert(key, value);
        }
    }

    /// Removes a machine from every posting.
    pub fn remove_machine(&mut self, id: MachineId) {
        if !self.all.remove(&id) {
            return;
        }
        for postings in self.attrs.values_mut() {
            postings.remove(id);
        }
    }

    /// Applies one attribute update (`None` clears the attribute).
    pub fn update_attr(&mut self, id: MachineId, attr: AttrId, value: Option<&AttrValue>) {
        let postings = self.attrs.entry(attr).or_default();
        postings.remove(id);
        if let Some(v) = value {
            postings.insert(id, v);
        }
    }

    /// The attribute state the index holds for `(machine, attr)`.
    fn state_of(&self, id: MachineId, attr: AttrId) -> Option<&AttrValue> {
        self.attrs.get(&attr).and_then(|p| p.value_of.get(&id))
    }

    /// Estimated candidate count for one requirement (cheap, used to pick
    /// the seed requirement for a query).
    fn selectivity(&self, req: &AttrRequirement) -> usize {
        let Some(postings) = self.attrs.get(&req.attr) else {
            // Unindexed attribute: no machine defines it.
            return match req.presence {
                Presence::Forbidden => self.all.len(),
                _ if req.equal.is_none() && req.lo.is_none() && req.hi.is_none() => {
                    // Pure exclusions on an undefined attribute match all.
                    self.all.len()
                }
                _ => 0,
            };
        };
        if let Some(eq) = &req.equal {
            return postings.by_value.get(eq).map_or(0, BTreeSet::len);
        }
        if req.lo.is_some() || req.hi.is_some() {
            let lo = req.lo.unwrap_or(i64::MIN);
            let hi = req.hi.unwrap_or(i64::MAX);
            return postings.by_int.range(lo..=hi).map(|(_, s)| s.len()).sum();
        }
        match req.presence {
            Presence::Required => postings.present.len(),
            Presence::Forbidden => self.all.len() - postings.present.len(),
            Presence::Any => self.all.len(),
        }
    }

    /// Estimated result size for a requirement set: the candidate count
    /// of its most selective requirement (an upper bound on the true
    /// match count). Callers use it to pick between candidate-driven and
    /// state-driven query plans.
    pub fn selectivity_hint(&self, reqs: &[AttrRequirement]) -> usize {
        reqs.iter()
            .map(|r| self.selectivity(r))
            .min()
            .unwrap_or(self.all.len())
    }

    /// True when the machine's indexed attribute state satisfies every
    /// requirement — the O(|reqs|) point query the scheduler's
    /// capacity-ordered placement scan issues per candidate.
    pub fn matches(&self, id: MachineId, reqs: &[AttrRequirement]) -> bool {
        reqs.iter().all(|r| r.accepts(self.state_of(id, r.attr)))
    }

    /// Streams the candidates of one requirement to `f` (unsorted) — the
    /// index's one postings traversal; returns false if `f` stopped the
    /// walk.
    fn candidates_visit(
        &self,
        req: &AttrRequirement,
        f: &mut impl FnMut(MachineId) -> bool,
    ) -> bool {
        let postings = self.attrs.get(&req.attr);
        if let Some(eq) = &req.equal {
            if let Some(set) = postings.and_then(|p| p.by_value.get(eq)) {
                for &id in set {
                    if !f(id) {
                        return false;
                    }
                }
            }
            return true;
        }
        if req.lo.is_some() || req.hi.is_some() {
            let Some(p) = postings else { return true };
            let lo = req.lo.unwrap_or(i64::MIN);
            let hi = req.hi.unwrap_or(i64::MAX);
            for (n, set) in p.by_int.range(lo..=hi) {
                if !req.excluded.contains(&AttrValue::Int(*n)) {
                    for &id in set {
                        if !f(id) {
                            return false;
                        }
                    }
                }
            }
            return true;
        }
        match req.presence {
            Presence::Required => {
                if let Some(p) = postings {
                    for &id in &p.present {
                        if p.value_of
                            .get(&id)
                            .is_none_or(|v| !req.excluded.contains(v))
                            && !f(id)
                        {
                            return false;
                        }
                    }
                }
            }
            Presence::Forbidden => match postings {
                Some(p) => {
                    for id in self.all.difference(&p.present) {
                        if !f(*id) {
                            return false;
                        }
                    }
                }
                None => {
                    for &id in &self.all {
                        if !f(id) {
                            return false;
                        }
                    }
                }
            },
            Presence::Any => {
                for &id in &self.all {
                    if self
                        .state_of(id, req.attr)
                        .is_none_or(|v| !req.excluded.contains(v))
                        && !f(id)
                    {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Streams every machine satisfying the requirements to `f`, without
    /// materialising a candidate list: seeds from the most selective
    /// requirement and verifies the rest per candidate. Every other query
    /// ([`matching`](AttrIndex::matching), [`count_matching`](AttrIndex::count_matching),
    /// [`matches_any`](AttrIndex::matches_any)) is this walk.
    ///
    /// Visit **order is unspecified** (unlike `matching`, candidates are
    /// not sorted); each matching machine is visited exactly once.
    /// `f` returns `false` to stop early; `matching_visit` returns
    /// `false` when it was stopped.
    pub fn matching_visit(
        &self,
        reqs: &[AttrRequirement],
        mut f: impl FnMut(MachineId) -> bool,
    ) -> bool {
        if reqs.is_empty() {
            for &id in &self.all {
                if !f(id) {
                    return false;
                }
            }
            return true;
        }
        let seed = reqs
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| self.selectivity(r))
            .map(|(i, _)| i)
            .expect("non-empty requirements");
        self.candidates_visit(&reqs[seed], &mut |id| {
            let ok = reqs
                .iter()
                .enumerate()
                .all(|(i, r)| i == seed || r.accepts(self.state_of(id, r.attr)));
            if ok {
                f(id)
            } else {
                true
            }
        })
    }

    /// True when at least one machine satisfies every requirement
    /// (early-exits on the first hit).
    pub fn matches_any(&self, reqs: &[AttrRequirement]) -> bool {
        !self.matching_visit(reqs, |_| false)
    }

    /// Sorted ids of machines satisfying every requirement.
    pub fn matching(&self, reqs: &[AttrRequirement]) -> Vec<MachineId> {
        let mut out = Vec::new();
        self.matching_into(reqs, &mut out);
        out
    }

    /// [`AttrIndex::matching`] into a caller-provided buffer: the
    /// [`matching_visit`](AttrIndex::matching_visit) walk, collected and
    /// sorted.
    pub fn matching_into(&self, reqs: &[AttrRequirement], out: &mut Vec<MachineId>) {
        out.clear();
        self.matching_visit(reqs, |id| {
            out.push(id);
            true
        });
        out.sort_unstable();
    }

    /// Number of machines satisfying every requirement — streamed, so
    /// counting (the AGOCS ground-truth hot loop) never allocates.
    pub fn count_matching(&self, reqs: &[AttrRequirement]) -> usize {
        if reqs.is_empty() {
            return self.all.len();
        }
        let mut n = 0usize;
        self.matching_visit(reqs, |_| {
            n += 1;
            true
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_data::compaction::collapse;
    use ctlm_trace::{ConstraintOp as Op, TaskConstraint};

    fn indexed_cluster() -> (AttrIndex, Vec<Machine>) {
        let mut index = AttrIndex::new();
        let mut machines = Vec::new();
        for i in 0..12u64 {
            let mut m = Machine::new(i, 0.5, 0.5);
            m.set_attr(0, AttrValue::Int(i as i64));
            if i % 2 == 0 {
                m.set_attr(1, AttrValue::Int(1));
            }
            m.set_attr(2, AttrValue::from(["a", "b", "c"][(i % 3) as usize]));
            index.add_machine(&m);
            machines.push(m);
        }
        (index, machines)
    }

    fn reqs(cs: &[TaskConstraint]) -> Vec<AttrRequirement> {
        collapse(cs).unwrap()
    }

    #[test]
    fn equality_and_range_queries_match_scan() {
        let (index, machines) = indexed_cluster();
        for cs in [
            vec![TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(4))))],
            vec![
                TaskConstraint::new(0, Op::GreaterThanEqual(3)),
                TaskConstraint::new(0, Op::LessThan(9)),
            ],
            vec![TaskConstraint::new(1, Op::Present)],
            vec![TaskConstraint::new(1, Op::NotPresent)],
            vec![TaskConstraint::new(2, Op::NotEqual(AttrValue::from("b")))],
            vec![
                TaskConstraint::new(0, Op::LessThan(8)),
                TaskConstraint::new(1, Op::Present),
                TaskConstraint::new(2, Op::Equal(Some(AttrValue::from("a")))),
            ],
        ] {
            let r = reqs(&cs);
            let scan: Vec<MachineId> = machines
                .iter()
                .filter(|m| r.iter().all(|req| req.accepts(m.attr(req.attr))))
                .map(|m| m.id)
                .collect();
            assert_eq!(index.matching(&r), scan, "constraints {cs:?}");
            assert_eq!(index.count_matching(&r), scan.len());
        }
    }

    #[test]
    fn empty_requirements_match_every_machine() {
        let (index, machines) = indexed_cluster();
        assert_eq!(index.count_matching(&[]), machines.len());
    }

    #[test]
    fn removal_and_update_stay_consistent() {
        let (mut index, _) = indexed_cluster();
        let window = reqs(&[TaskConstraint::new(0, Op::LessThan(6))]);
        assert_eq!(index.count_matching(&window), 6);
        index.remove_machine(3);
        assert_eq!(index.count_matching(&window), 5);
        // Move machine 5's node index out of the window.
        index.update_attr(5, 0, Some(&AttrValue::Int(50)));
        assert_eq!(index.count_matching(&window), 4);
        // Clear it entirely: ranges imply presence, so it cannot match.
        index.update_attr(5, 0, None);
        assert_eq!(index.count_matching(&window), 4);
        assert_eq!(index.machine_count(), 11);
    }

    #[test]
    fn unindexed_attribute_behaves_as_absent_everywhere() {
        let (index, machines) = indexed_cluster();
        let absent = reqs(&[TaskConstraint::new(9, Op::NotPresent)]);
        assert_eq!(index.count_matching(&absent), machines.len());
        let present = reqs(&[TaskConstraint::new(9, Op::Present)]);
        assert_eq!(index.count_matching(&present), 0);
        let excl = reqs(&[TaskConstraint::new(9, Op::NotEqual(AttrValue::Int(1)))]);
        assert_eq!(index.count_matching(&excl), machines.len());
    }

    #[test]
    fn streaming_visit_matches_materialised_set() {
        let (index, _) = indexed_cluster();
        for cs in [
            vec![],
            vec![TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(4))))],
            vec![
                TaskConstraint::new(0, Op::GreaterThanEqual(3)),
                TaskConstraint::new(0, Op::LessThan(9)),
            ],
            vec![TaskConstraint::new(1, Op::NotPresent)],
            vec![TaskConstraint::new(2, Op::NotEqual(AttrValue::from("b")))],
            vec![
                TaskConstraint::new(0, Op::LessThan(8)),
                TaskConstraint::new(1, Op::Present),
            ],
        ] {
            let r = reqs(&cs);
            let mut streamed = Vec::new();
            let done = index.matching_visit(&r, |id| {
                streamed.push(id);
                true
            });
            assert!(done);
            streamed.sort_unstable();
            assert_eq!(streamed, index.matching(&r), "constraints {cs:?}");
            assert_eq!(index.count_matching(&r), streamed.len());
            for id in 0..12 {
                assert_eq!(
                    index.matches(id, &r),
                    streamed.contains(&id),
                    "point query for {id} under {cs:?}"
                );
            }
        }
    }

    #[test]
    fn streaming_visit_early_exit_stops_the_walk() {
        let (index, _) = indexed_cluster();
        let mut seen = 0;
        let done = index.matching_visit(&[], |_| {
            seen += 1;
            seen < 3
        });
        assert!(!done, "stopped walks report false");
        assert_eq!(seen, 3);
        assert!(index.matches_any(&[]));
        let impossible = reqs(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(99))))]);
        assert!(!index.matches_any(&impossible));
    }

    #[test]
    fn range_with_interior_exclusion_skips_the_posting() {
        let (index, _) = indexed_cluster();
        // 2 ≤ node < 7 excluding 4 → {2, 3, 5, 6}.
        let r = reqs(&[
            TaskConstraint::new(0, Op::GreaterThanEqual(2)),
            TaskConstraint::new(0, Op::LessThan(7)),
            TaskConstraint::new(0, Op::NotEqual(AttrValue::Int(4))),
        ]);
        assert_eq!(index.matching(&r), vec![2, 3, 5, 6]);
    }
}
