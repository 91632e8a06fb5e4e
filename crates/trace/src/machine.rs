//! Cluster machines (GCD "machine records").

use serde::{Deserialize, Serialize};

use crate::attr::{AttrId, AttrValue};
use crate::constraint::TaskConstraint;

/// Machine identifier, unique within a cell trace.
pub type MachineId = u64;

/// A cluster machine: capacities plus an attribute list.
///
/// Capacities follow the 2019 traces' normalised convention (Borg reports
/// abstract compute units scaled to the largest machine), so `cpu` and
/// `memory` are fractions of the largest machine in the cell.
///
/// The attributes are one `Vec` sorted by attribute id, one entry per
/// attribute: a machine's attributes cost one allocation of 32 bytes an
/// entry, and a lookup is a binary search over a handful of entries.
/// [`Machine::with_attributes`] builds the list in one go, at exactly
/// its length. It serializes as `[[id, value], …]`, the form a map of
/// attributes had.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Machine {
    /// Unique machine id.
    pub id: MachineId,
    /// Normalised CPU capacity (0, 1].
    pub cpu: f64,
    /// Normalised memory capacity (0, 1].
    pub memory: f64,
    /// The node attributes that constraint operators test against,
    /// sorted by attribute id, each id at most once.
    pub attributes: Vec<(AttrId, AttrValue)>,
}

/// The wire form of a [`Machine`], whose attribute list may arrive in
/// any order.
#[derive(Deserialize)]
struct MachineRecord {
    id: MachineId,
    cpu: f64,
    memory: f64,
    attributes: Vec<(AttrId, AttrValue)>,
}

impl Deserialize for Machine {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let r = MachineRecord::from_value(v)?;
        Ok(Self::with_attributes(r.id, r.cpu, r.memory, r.attributes))
    }
}

impl Machine {
    /// A machine with given capacities and no attributes.
    pub fn new(id: MachineId, cpu: f64, memory: f64) -> Self {
        Self {
            id,
            cpu,
            memory,
            attributes: Vec::new(),
        }
    }

    /// A machine with given capacities and attributes. The list is kept
    /// as given when it is sorted by id without repeats (then building it
    /// was the machine's one attribute allocation); otherwise it is
    /// sorted, and of a repeated id the last value wins, as a run of
    /// [`set_attr`](Self::set_attr) calls would leave it.
    pub fn with_attributes(
        id: MachineId,
        cpu: f64,
        memory: f64,
        mut attributes: Vec<(AttrId, AttrValue)>,
    ) -> Self {
        if !attributes.is_sorted_by(|a, b| a.0 < b.0) {
            attributes.sort_by_key(|&(attr, _)| attr);
            // `dedup_by` keeps the earlier of two equal entries: move the
            // later value into it first.
            attributes.dedup_by(|later, kept| {
                let repeat = later.0 == kept.0;
                if repeat {
                    std::mem::swap(later, kept);
                }
                repeat
            });
        }
        Self {
            id,
            cpu,
            memory,
            attributes,
        }
    }

    /// Where `id` is in the attribute list, or where it would go.
    fn position(&self, id: AttrId) -> Result<usize, usize> {
        self.attributes.binary_search_by_key(&id, |&(attr, _)| attr)
    }

    /// Value of one attribute, if set.
    pub fn attr(&self, id: AttrId) -> Option<&AttrValue> {
        self.position(id).ok().map(|at| &self.attributes[at].1)
    }

    /// Sets (or replaces) an attribute value. Returns the previous value.
    pub fn set_attr(&mut self, id: AttrId, value: AttrValue) -> Option<AttrValue> {
        match self.position(id) {
            Ok(at) => Some(std::mem::replace(&mut self.attributes[at].1, value)),
            Err(at) => {
                self.attributes.insert(at, (id, value));
                None
            }
        }
    }

    /// Removes an attribute. Returns the removed value.
    pub fn remove_attr(&mut self, id: AttrId) -> Option<AttrValue> {
        let at = self.position(id).ok()?;
        Some(self.attributes.remove(at).1)
    }

    /// True when this machine satisfies *every* constraint in the slice —
    /// the node-suitability predicate at the heart of the paper.
    pub fn satisfies_all(&self, constraints: &[TaskConstraint]) -> bool {
        constraints.iter().all(|c| c.op.matches(self.attr(c.attr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintOp;

    fn machine_with(attrs: &[(AttrId, AttrValue)]) -> Machine {
        let mut m = Machine::new(1, 0.5, 0.5);
        for (id, v) in attrs {
            m.set_attr(*id, v.clone());
        }
        m
    }

    #[test]
    fn satisfies_all_requires_every_constraint() {
        let m = machine_with(&[(0, AttrValue::Int(3)), (1, AttrValue::from("ssd"))]);
        let ok = vec![
            TaskConstraint::new(0, ConstraintOp::GreaterThan(2)),
            TaskConstraint::new(1, ConstraintOp::Equal(Some(AttrValue::from("ssd")))),
        ];
        assert!(m.satisfies_all(&ok));
        let bad = vec![
            TaskConstraint::new(0, ConstraintOp::GreaterThan(2)),
            TaskConstraint::new(1, ConstraintOp::NotPresent),
        ];
        assert!(!m.satisfies_all(&bad));
    }

    #[test]
    fn empty_constraint_list_always_satisfied() {
        let m = Machine::new(7, 1.0, 1.0);
        assert!(m.satisfies_all(&[]));
    }

    #[test]
    fn attribute_updates_change_matching() {
        let mut m = machine_with(&[(0, AttrValue::Int(1))]);
        let c = vec![TaskConstraint::new(
            0,
            ConstraintOp::Equal(Some(AttrValue::Int(2))),
        )];
        assert!(!m.satisfies_all(&c));
        m.set_attr(0, AttrValue::Int(2));
        assert!(m.satisfies_all(&c));
        m.remove_attr(0);
        assert!(!m.satisfies_all(&c));
    }

    #[test]
    fn attributes_serialize_as_id_value_pairs_and_read_back_sorted() {
        let m = machine_with(&[(3, AttrValue::Int(7)), (0, AttrValue::from("ssd"))]);
        let json = serde_json::to_string(&m).unwrap();
        assert!(
            json.contains(r#""attributes":[[0,{"Str":"ssd"}],[3,{"Int":7}]]"#),
            "{json}"
        );
        assert_eq!(serde_json::from_str::<Machine>(&json).unwrap(), m);
        // Out of order, with a repeat: sorted, and the last value wins.
        let shuffled = json.replace(
            r#"[[0,{"Str":"ssd"}],[3,{"Int":7}]]"#,
            r#"[[3,{"Int":1}],[0,{"Str":"ssd"}],[3,{"Int":7}]]"#,
        );
        assert_eq!(serde_json::from_str::<Machine>(&shuffled).unwrap(), m);
    }

    #[test]
    fn a_sorted_list_is_kept_as_built() {
        let attrs = vec![(0, AttrValue::Int(1)), (2, AttrValue::Int(5))];
        let ptr = attrs.as_ptr();
        let m = Machine::with_attributes(1, 0.5, 0.5, attrs);
        assert_eq!(m.attributes.as_ptr(), ptr);
        assert_eq!(m.attributes.capacity(), 2);
        assert_eq!(m.attr(2), Some(&AttrValue::Int(5)));
        assert_eq!(m.attr(1), None);
    }

    #[test]
    fn set_and_remove_keep_the_list_sorted() {
        let mut m = Machine::new(1, 0.5, 0.5);
        for id in [4, 1, 3, 0, 2] {
            assert_eq!(m.set_attr(id, AttrValue::Int(id as i64)), None);
        }
        assert_eq!(m.set_attr(3, AttrValue::Int(30)), Some(AttrValue::Int(3)));
        assert_eq!(m.remove_attr(1), Some(AttrValue::Int(1)));
        assert_eq!(m.remove_attr(1), None);
        let ids: Vec<AttrId> = m.attributes.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, [0, 2, 3, 4]);
        assert_eq!(m.attr(3), Some(&AttrValue::Int(30)));
    }
}
