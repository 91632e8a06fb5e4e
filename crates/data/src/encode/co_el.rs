//! CO-EL — constraint operators as encoded labels (§III.C, Table VI).
//!
//! The original encoding from the paper's prior work \[27\]: each collapsed
//! constraint (attribute + operator + value) is treated as an opaque
//! *label*; the label set is one-hot encoded, so a task's row has a 1 in
//! the column of every label it carries.
//!
//! Its disadvantage — the reason the paper moves to CO-VV — is that a
//! newly appearing CO needs to be label re-encoded, and the label space
//! has no overlapping structure for a model to generalise over, so the
//! model may need full retraining. We reproduce the encoding faithfully so
//! the paper's negative result (“the growing model approach worked well
//! for CO-VV but not for CO-EL”) is demonstrable.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use ctlm_trace::TaskConstraint;

use crate::compaction::{collapse, AttrRequirement, CompactionError};

/// Stateful CO-EL encoder: owns the append-only label → column map.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CoElEncoder {
    labels: Vec<String>,
    index: BTreeMap<String, usize>,
}

impl CoElEncoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of label columns allocated so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no label has been seen.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label string at a column.
    #[cfg(test)]
    pub fn label_at(&self, col: usize) -> Option<&str> {
        self.labels.get(col).map(|s| s.as_str())
    }

    /// Encodes a task, registering any new labels (which is exactly the
    /// re-encoding burden the paper criticises).
    pub fn encode(
        &mut self,
        constraints: &[TaskConstraint],
    ) -> Result<Vec<(usize, f32)>, CompactionError> {
        let reqs = collapse(constraints)?;
        Ok(self.encode_requirements(&reqs))
    }

    /// Encodes pre-collapsed requirements.
    pub fn encode_requirements(&mut self, reqs: &[AttrRequirement]) -> Vec<(usize, f32)> {
        let mut out = Vec::new();
        for req in reqs {
            let label = req.to_string();
            let col = match self.index.get(&label) {
                Some(&c) => c,
                None => {
                    let c = self.labels.len();
                    self.labels.push(label.clone());
                    self.index.insert(label, c);
                    c
                }
            };
            out.push((col, 1.0));
        }
        out.sort_unstable_by_key(|&(c, _)| c);
        out.dedup_by_key(|&mut (c, _)| c);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_trace::{AttrValue, ConstraintOp as Op};

    fn c(attr: u32, op: Op) -> TaskConstraint {
        TaskConstraint::new(attr, op)
    }

    #[test]
    fn same_collapsed_constraint_reuses_column() {
        let mut e = CoElEncoder::new();
        let r1 = e
            .encode(&[c(0, Op::Equal(Some(AttrValue::Int(1))))])
            .unwrap();
        let r2 = e
            .encode(&[c(0, Op::Equal(Some(AttrValue::Int(1))))])
            .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn distinct_values_get_distinct_labels() {
        let mut e = CoElEncoder::new();
        e.encode(&[c(0, Op::Equal(Some(AttrValue::Int(1))))])
            .unwrap();
        e.encode(&[c(0, Op::Equal(Some(AttrValue::Int(2))))])
            .unwrap();
        assert_eq!(e.len(), 2, "CO-EL cannot share structure across values");
    }

    #[test]
    fn collapsing_happens_before_labelling() {
        let mut e = CoElEncoder::new();
        // The Table V row-1 triple collapses to one Between label.
        let r = e
            .encode(&[
                c(0, Op::LessThan(8)),
                c(0, Op::LessThan(3)),
                c(0, Op::GreaterThan(0)),
            ])
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(e.label_at(0), Some("3 > ${0} > 0"));
    }

    #[test]
    fn multi_attribute_tasks_mark_multiple_columns() {
        let mut e = CoElEncoder::new();
        let r = e
            .encode(&[c(0, Op::Present), c(1, Op::NotEqual(AttrValue::from("a")))])
            .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn label_space_grows_monotonically() {
        let mut e = CoElEncoder::new();
        for v in 0..10 {
            e.encode(&[c(0, Op::Equal(Some(AttrValue::Int(v))))])
                .unwrap();
        }
        assert_eq!(e.len(), 10);
        for v in 0..10 {
            let r = e
                .encode(&[c(0, Op::Equal(Some(AttrValue::Int(v))))])
                .unwrap();
            assert_eq!(r[0].0, v as usize, "columns must be stable");
        }
    }
}
