//! CO-VV — constraint operators as value vectors (§III.D, Tables VII–VIII).
//!
//! For every attribute the cluster has ever reported, the feature array
//! lists all its observed values plus a `(none)` pseudo-value. A task's row
//! marks each cell with **1 when the value is unacceptable** under the
//! task's (collapsed) constraints and 0 otherwise — the reversed notation
//! the paper chose "since the model focuses on detecting unacceptable
//! nodes".
//!
//! Because new values append at the end of the array, the encoding can be
//! extended while the cluster is being reconfigured, and an existing model
//! can be expanded through transfer learning — the property the whole
//! growing-model design rests on.

use ctlm_trace::AttrValue;

use crate::compaction::{collapse, AttrRequirement, CompactionError};
use crate::vocab::{ValueKey, ValueVocab};
use ctlm_trace::TaskConstraint;

/// Stateless encoder over a shared [`ValueVocab`].
#[derive(Clone, Debug, Default)]
pub struct CoVvEncoder;

impl CoVvEncoder {
    /// Encodes a task's constraints into sparse `(column, 1.0)` entries
    /// against the current vocabulary.
    ///
    /// Unconstrained attributes contribute nothing (all their values are
    /// acceptable). Constraint values never observed on any machine do not
    /// allocate columns — the encoding enumerates *observed* values only.
    pub fn encode(
        &self,
        constraints: &[TaskConstraint],
        vocab: &ValueVocab,
    ) -> Result<Vec<(usize, f32)>, CompactionError> {
        let reqs = collapse(constraints)?;
        Ok(self.encode_requirements(&reqs, vocab))
    }

    /// Encodes pre-collapsed requirements (used by the replayer, which
    /// collapses once for matching and once for encoding).
    pub fn encode_requirements(
        &self,
        reqs: &[AttrRequirement],
        vocab: &ValueVocab,
    ) -> Vec<(usize, f32)> {
        let mut out = Vec::new();
        self.encode_requirements_into(reqs, vocab, &mut out);
        out
    }

    /// [`CoVvEncoder::encode_requirements`] into a caller-owned buffer,
    /// which is cleared first: the row, sorted by column, with no
    /// allocation once the buffer has held a row as long.
    pub fn encode_requirements_into(
        &self,
        reqs: &[AttrRequirement],
        vocab: &ValueVocab,
        out: &mut Vec<(usize, f32)>,
    ) {
        out.clear();
        for req in reqs {
            for (col, key) in vocab.attr_columns(req.attr) {
                let state: Option<&AttrValue> = match key {
                    ValueKey::Absent => None,
                    ValueKey::Value(v) => Some(v),
                };
                if !req.accepts(state) {
                    out.push((col, 1.0));
                }
            }
        }
        out.sort_unstable_by_key(|&(c, _)| c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_trace::{AttrValue, ConstraintOp as Op};

    /// Builds the Table VII vocabulary: attribute `AM` (id 0) with values
    /// 0..=9, columns `[(none), 0, 1, ..., 9]`.
    fn table7_vocab() -> ValueVocab {
        let mut v = ValueVocab::new();
        for n in 0..10 {
            v.observe(0, &AttrValue::Int(n));
        }
        assert_eq!(v.len(), 11);
        v
    }

    fn row(constraints: &[Op]) -> Vec<u8> {
        let v = table7_vocab();
        let cs: Vec<TaskConstraint> = constraints
            .iter()
            .cloned()
            .map(|op| TaskConstraint::new(0, op))
            .collect();
        let entries = CoVvEncoder.encode(&cs, &v).unwrap();
        let mut dense = vec![0u8; v.len()];
        for (c, val) in entries {
            dense[c] = val as u8;
        }
        dense
    }

    // --- The exact four rows of Table VII --------------------------------

    #[test]
    fn table7_row1_ge_5() {
        // ${AM} >= 5 → 1 1 1 1 1 1 0 0 0 0 0
        assert_eq!(
            row(&[Op::GreaterThanEqual(5)]),
            vec![1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn table7_row2_between_0_and_3() {
        // 3 > ${AM} > 0 → 1 1 0 0 1 1 1 1 1 1 1
        assert_eq!(
            row(&[Op::LessThan(3), Op::GreaterThan(0)]),
            vec![1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1]
        );
    }

    #[test]
    fn table7_row3_not_equal_array() {
        // ${AM} <> 0; 7; 8 → 0 1 0 0 0 0 0 0 1 1 0
        assert_eq!(
            row(&[
                Op::NotEqual(0.into()),
                Op::NotEqual(7.into()),
                Op::NotEqual(8.into())
            ]),
            vec![0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0]
        );
    }

    #[test]
    fn table7_row4_greater_than_0() {
        // ${AM} > 0 → 1 1 0 0 0 0 0 0 0 0 0
        assert_eq!(
            row(&[Op::GreaterThan(0)]),
            vec![1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    // --- Structural properties -------------------------------------------

    #[test]
    fn unconstrained_attributes_contribute_nothing() {
        let mut v = table7_vocab();
        v.observe(1, &AttrValue::from("x")); // second attribute
        let cs = vec![TaskConstraint::new(0, Op::GreaterThan(0))];
        let entries = CoVvEncoder.encode(&cs, &v).unwrap();
        assert!(
            entries.iter().all(|&(c, _)| c < 11),
            "attr 1 columns must stay zero"
        );
    }

    #[test]
    fn empty_constraints_encode_to_empty_row() {
        let v = table7_vocab();
        assert!(CoVvEncoder.encode(&[], &v).unwrap().is_empty());
    }

    #[test]
    fn growing_vocab_extends_rows_without_reindexing() {
        let mut v = table7_vocab();
        let cs = vec![TaskConstraint::new(0, Op::GreaterThanEqual(5))];
        let before = CoVvEncoder.encode(&cs, &v).unwrap();
        // Cluster reconfiguration: value 10 appears.
        v.observe(0, &AttrValue::Int(10));
        let after = CoVvEncoder.encode(&cs, &v).unwrap();
        // Old columns keep their meaning (prefix identical)...
        assert_eq!(&after[..before.len()], &before[..]);
        // ...and the new value (10 >= 5, acceptable) adds no mark.
        assert_eq!(after.len(), before.len());
        // A task rejecting 10 marks exactly the appended column.
        let cs2 = vec![TaskConstraint::new(0, Op::LessThan(10))];
        let r2 = CoVvEncoder.encode(&cs2, &v).unwrap();
        assert!(
            r2.contains(&(11, 1.0)),
            "column 11 is the appended value-10 column"
        );
    }

    #[test]
    fn equal_constraint_marks_everything_but_the_value() {
        let v = table7_vocab();
        let cs = vec![TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(4))))];
        let entries = CoVvEncoder.encode(&cs, &v).unwrap();
        // 10 of 11 columns marked: (none) and all values except 4.
        assert_eq!(entries.len(), 10);
        assert!(
            !entries.iter().any(|&(c, _)| c == 5),
            "value-4 column must stay 0"
        );
    }

    #[test]
    fn present_marks_only_the_none_column() {
        let v = table7_vocab();
        let cs = vec![TaskConstraint::new(0, Op::Present)];
        assert_eq!(CoVvEncoder.encode(&cs, &v).unwrap(), vec![(0, 1.0)]);
    }

    #[test]
    fn not_present_marks_every_value_column() {
        let v = table7_vocab();
        let cs = vec![TaskConstraint::new(0, Op::NotPresent)];
        let entries = CoVvEncoder.encode(&cs, &v).unwrap();
        assert_eq!(entries.len(), 10);
        assert!(
            !entries.iter().any(|&(c, _)| c == 0),
            "(none) column must stay 0"
        );
    }

    #[test]
    fn contradiction_propagates_as_error() {
        let v = table7_vocab();
        let cs = vec![
            TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(1)))),
            TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(7)))),
        ];
        assert!(CoVvEncoder.encode(&cs, &v).is_err());
    }
}
