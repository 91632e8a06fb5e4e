//! Classification metrics.
//!
//! The paper's evaluation reports two numbers per model and step: overall
//! accuracy and the F1 score of Group 0 (tasks allocable to a single
//! node); [`Evaluation::compute`] counts both in one allocation-free pass,
//! since the trainer scores every epoch. The full confusion matrix and
//! per-class precision / recall / F1 are kept for inspection, and as the
//! reference the tests pin `Evaluation` to.

use serde::{Deserialize, Serialize};

/// Fraction of predictions equal to the truth.
///
/// # Panics
/// Panics when lengths differ or inputs are empty.
pub fn accuracy(truth: &[u8], pred: &[u8]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    assert!(!truth.is_empty(), "empty evaluation set");
    let correct = truth
        .iter()
        .zip(pred.iter())
        .filter(|(a, b)| a == b)
        .count();
    correct as f64 / truth.len() as f64
}

/// `n_classes × n_classes` confusion matrix; `m[t][p]` counts samples of
/// true class `t` predicted as `p`.
pub fn confusion_matrix(truth: &[u8], pred: &[u8], n_classes: usize) -> Vec<Vec<usize>> {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    let mut m = vec![vec![0usize; n_classes]; n_classes];
    for (&t, &p) in truth.iter().zip(pred.iter()) {
        m[t as usize][p as usize] += 1;
    }
    m
}

/// Per-class `(precision, recall, f1)`. A class absent from both truth
/// and predictions reports `None`; otherwise an undefined precision or
/// recall is 0.0 (scikit-learn's `zero_division=1` convention, which
/// would report `(1, 1, 1)`, is *not* used).
pub fn f1_scores(truth: &[u8], pred: &[u8], n_classes: usize) -> Vec<Option<(f64, f64, f64)>> {
    let m = confusion_matrix(truth, pred, n_classes);
    (0..n_classes)
        .map(|c| {
            let tp = m[c][c];
            let fn_: usize = (0..n_classes).filter(|&p| p != c).map(|p| m[c][p]).sum();
            let fp: usize = (0..n_classes).filter(|&t| t != c).map(|t| m[t][c]).sum();
            // `None` when the class is absent everywhere.
            (tp + fn_ + fp > 0).then(|| precision_recall_f1(tp, fp, fn_))
        })
        .collect()
}

/// `(precision, recall, f1)` from one class's counts, 0.0 where a ratio
/// is undefined.
fn precision_recall_f1(tp: usize, fp: usize, fn_: usize) -> (f64, f64, f64) {
    let precision = if tp + fp == 0 {
        0.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fn_ == 0 {
        0.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    (precision, recall, f1)
}

/// One evaluation snapshot — the pair of numbers every paper table tracks.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Overall accuracy.
    pub accuracy: f64,
    /// F1 score for Group 0; `None` when the test set has no Group 0
    /// samples (the paper omits the score in that case).
    pub group0_f1: Option<f64>,
}

impl Evaluation {
    /// Computes the snapshot from truth/prediction vectors in one pass
    /// that allocates nothing: the correct count and Group 0's tp / fp /
    /// fn, the counts [`accuracy`] and [`f1_scores`] derive the same two
    /// numbers from.
    ///
    /// # Panics
    /// Panics when lengths differ, inputs are empty, or a class is not
    /// below `n_classes`.
    pub fn compute(truth: &[u8], pred: &[u8], n_classes: usize) -> Self {
        assert_eq!(truth.len(), pred.len(), "length mismatch");
        assert!(!truth.is_empty(), "empty evaluation set");
        let (mut correct, mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize, 0usize);
        for (&t, &p) in truth.iter().zip(pred) {
            assert!(
                usize::from(t.max(p)) < n_classes,
                "class {} out of range",
                t.max(p)
            );
            correct += usize::from(t == p);
            match (t == 0, p == 0) {
                (true, true) => tp += 1,
                (true, false) => fn_ += 1,
                (false, true) => fp += 1,
                (false, false) => {}
            }
        }
        // The paper omits Group-0 F1 "when no Group 0 samples were present
        // in the test dataset": that is, when the *truth* has none.
        let group0_present = tp + fn_ > 0;
        Self {
            accuracy: correct as f64 / truth.len() as f64,
            group0_f1: group0_present.then(|| precision_recall_f1(tp, fp, fn_).2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 2, 2], &[0, 1, 1, 2]), 0.75);
        assert_eq!(accuracy(&[5], &[5]), 1.0);
    }

    #[test]
    fn confusion_matrix_counts() {
        let m = confusion_matrix(&[0, 0, 1, 1], &[0, 1, 1, 1], 2);
        assert_eq!(m, vec![vec![1, 1], vec![0, 2]]);
    }

    #[test]
    fn f1_perfect_prediction() {
        let f1 = f1_scores(&[0, 1, 0, 1], &[0, 1, 0, 1], 2);
        assert_eq!(f1[0], Some((1.0, 1.0, 1.0)));
        assert_eq!(f1[1], Some((1.0, 1.0, 1.0)));
    }

    #[test]
    fn f1_matches_manual_computation() {
        // class 0: tp=1 (idx0), fp=1 (idx3 predicted 0, true 1), fn=1 (idx1).
        let truth = [0, 0, 1, 1];
        let pred = [0, 1, 1, 0];
        let f1 = f1_scores(&truth, &pred, 2);
        let (p, r, f) = f1[0].unwrap();
        assert!((p - 0.5).abs() < 1e-12);
        assert!((r - 0.5).abs() < 1e-12);
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn f1_absent_class_is_none() {
        let f1 = f1_scores(&[0, 0], &[0, 0], 3);
        assert!(f1[2].is_none());
        assert!(f1[1].is_none());
    }

    #[test]
    fn f1_zero_when_never_correct() {
        let f1 = f1_scores(&[0, 0], &[1, 1], 2);
        assert_eq!(f1[0].unwrap().2, 0.0);
    }

    #[test]
    fn evaluation_omits_group0_when_absent_from_truth() {
        let e = Evaluation::compute(&[1, 2, 3], &[1, 2, 0], 4);
        assert!(e.group0_f1.is_none(), "no Group 0 in truth ⇒ omitted");
        let e2 = Evaluation::compute(&[0, 2, 3], &[0, 2, 3], 4);
        assert_eq!(e2.group0_f1, Some(1.0));
    }

    proptest! {
        /// The one-pass count gives the bits of `accuracy` and of class
        /// 0's entry in `f1_scores`, with Group 0 present or absent.
        #[test]
        fn evaluation_matches_accuracy_and_class_zero_f1(
            pairs in prop::collection::vec((0u8..4, 0u8..4), 1..60),
        ) {
            let (truth, pred): (Vec<u8>, Vec<u8>) = pairs.into_iter().unzip();
            let e = Evaluation::compute(&truth, &pred, 4);
            prop_assert_eq!(e.accuracy.to_bits(), accuracy(&truth, &pred).to_bits());
            let reference = if truth.contains(&0) {
                f1_scores(&truth, &pred, 4)[0].map(|(_, _, f1)| f1.to_bits())
            } else {
                None
            };
            prop_assert_eq!(e.group0_f1.map(f64::to_bits), reference);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn evaluation_rejects_a_class_beyond_n_classes() {
        let _ = Evaluation::compute(&[0, 1], &[0, 4], 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_rejects_mismatched_lengths() {
        let _ = accuracy(&[0, 1], &[0]);
    }
}
