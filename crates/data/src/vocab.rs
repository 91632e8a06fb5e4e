//! The attribute-value vocabulary backing the CO-VV feature array.
//!
//! Every feature column of the CO-VV dataset corresponds to either a
//! concrete `(attribute, value)` pair observed on some machine, or the
//! attribute's `(none)` pseudo-value (Table VII's first column). Columns
//! are allocated append-only in first-seen order — the paper: “for
//! traceability and simplicity, new attribute values are appended as the
//! last column”. This append-only discipline is what lets the growing
//! model pad its input weights instead of retraining.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use ctlm_trace::{AttrId, AttrValue};

/// A column key: the `(none)` pseudo-value or a concrete value of an
/// attribute.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ValueKey {
    /// The attribute being absent (Table VII's `${AM}: (none)` column).
    Absent,
    /// A concrete attribute value.
    Value(AttrValue),
}

/// Append-only `(attr, value-key) → column` vocabulary.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ValueVocab {
    columns: Vec<(AttrId, ValueKey)>,
    index: BTreeMap<(AttrId, ValueKey), usize>,
    /// Column indices per attribute, in allocation order — keeps row
    /// encoding O(columns-of-attr) instead of O(total columns).
    by_attr: BTreeMap<AttrId, Vec<usize>>,
}

impl ValueVocab {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current feature-array width.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when no column has been allocated.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Registers an observed value of an attribute, allocating its column
    /// (and, on the attribute's first sighting, the `(none)` column) if
    /// new. Returns the value's column.
    pub fn observe(&mut self, attr: AttrId, value: &AttrValue) -> usize {
        // First sighting of the attribute allocates the Absent column so
        // "attribute must be present" constraints have a cell to mark.
        let absent_key = (attr, ValueKey::Absent);
        if !self.index.contains_key(&absent_key) {
            let col = self.columns.len();
            self.columns.push(absent_key.clone());
            self.index.insert(absent_key, col);
            self.by_attr.entry(attr).or_default().push(col);
        }
        let key = (attr, ValueKey::Value(value.clone()));
        if let Some(&col) = self.index.get(&key) {
            return col;
        }
        let col = self.columns.len();
        self.columns.push(key.clone());
        self.index.insert(key, col);
        self.by_attr.entry(attr).or_default().push(col);
        col
    }

    /// The column of a key, if allocated.
    pub fn column(&self, attr: AttrId, key: &ValueKey) -> Option<usize> {
        self.index.get(&(attr, key.clone())).copied()
    }

    /// The key stored at a column.
    pub fn key_at(&self, col: usize) -> Option<&(AttrId, ValueKey)> {
        self.columns.get(col)
    }

    /// Iterates the columns belonging to one attribute, in column order,
    /// as `(column, key)` pairs. The encoder walks this to build a row;
    /// cost is proportional to the attribute's own column count.
    pub fn attr_columns(&self, attr: AttrId) -> impl Iterator<Item = (usize, &ValueKey)> {
        self.by_attr
            .get(&attr)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(move |&i| (i, &self.columns[i].1))
    }

    /// All attributes with at least one column.
    pub fn attrs(&self) -> Vec<AttrId> {
        self.by_attr.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_allocates_absent_then_value() {
        let mut v = ValueVocab::new();
        let col = v.observe(3, &AttrValue::Int(7));
        assert_eq!(v.len(), 2);
        assert_eq!(v.column(3, &ValueKey::Absent), Some(0));
        assert_eq!(col, 1);
    }

    #[test]
    fn observe_is_idempotent() {
        let mut v = ValueVocab::new();
        let a = v.observe(0, &AttrValue::Int(1));
        let b = v.observe(0, &AttrValue::Int(1));
        assert_eq!(a, b);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn new_values_append_at_the_end() {
        let mut v = ValueVocab::new();
        v.observe(0, &AttrValue::Int(1));
        v.observe(1, &AttrValue::from("x"));
        let before = v.len();
        let col = v.observe(0, &AttrValue::Int(2));
        assert_eq!(col, before, "new value must take the last column");
        assert_eq!(v.len(), before + 1);
    }

    #[test]
    fn attr_columns_filters_by_attribute() {
        let mut v = ValueVocab::new();
        v.observe(0, &AttrValue::Int(1));
        v.observe(1, &AttrValue::Int(9));
        v.observe(0, &AttrValue::Int(2));
        let cols: Vec<usize> = v.attr_columns(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 1, 4]);
        assert_eq!(v.attrs(), vec![0, 1]);
    }

    #[test]
    fn key_at_roundtrips() {
        let mut v = ValueVocab::new();
        let col = v.observe(2, &AttrValue::from("gpu"));
        assert_eq!(
            v.key_at(col),
            Some(&(2, ValueKey::Value(AttrValue::from("gpu"))))
        );
        assert_eq!(v.key_at(99), None);
    }
}
