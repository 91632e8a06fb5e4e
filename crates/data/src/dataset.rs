//! Labelled sparse datasets.

use serde::{Deserialize, Serialize};

use ctlm_tensor::{Csr, CsrBuilder};

/// The paper's 26 suitable-node groups: Group 0 = exactly one node,
/// Groups 1–25 = buckets of `group_width` nodes.
pub const NUM_GROUPS: usize = 26;

/// Maps a suitable-node count to its group. Width is the scaled bucket
/// size (500 at full 2011/2019c/2019d scale, 360 for 2019a).
///
/// * `0` suitable nodes: the task is unschedulable; the paper's datasets
///   contain only schedulable tasks, but replay can transiently produce 0
///   (machines removed) — callers typically skip those rows. We map it to
///   group 0 (the "critical" class) as the conservative choice.
/// * `1` → Group 0.
/// * otherwise → `1 + (n - 2) / width`, clamped to 25.
pub fn group_for_count(suitable: usize, width: usize) -> u8 {
    debug_assert!(width >= 1);
    match suitable {
        0 | 1 => 0,
        n => (1 + (n - 2) / width.max(1)).min(NUM_GROUPS - 1) as u8,
    }
}

/// A labelled sparse dataset: one row per (constrained) task, one column
/// per feature, one class label per row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature matrix.
    pub x: Csr,
    /// Class labels (`0..NUM_GROUPS`).
    pub y: Vec<u8>,
    /// Number of classes (always [`NUM_GROUPS`] in this reproduction; kept
    /// explicit so the crates stay decoupled from the paper constant).
    pub n_classes: usize,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature-array width.
    pub fn features_count(&self) -> usize {
        self.x.cols()
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &y in &self.y {
            counts[y as usize] += 1;
        }
        counts
    }

    /// Row subset in the given order (labels follow).
    pub fn select(&self, rows: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(rows),
            y: rows.iter().map(|&r| self.y[r]).collect(),
            n_classes: self.n_classes,
        }
    }

    /// Widens the feature array (vocabulary growth between steps).
    pub fn widen(&mut self, new_cols: usize) {
        self.x.widen(new_cols);
    }
}

/// Incremental dataset builder used by the replayer.
#[derive(Clone, Debug)]
pub struct DatasetBuilder {
    x: CsrBuilder,
    y: Vec<u8>,
    n_classes: usize,
}

impl DatasetBuilder {
    /// A builder with an initial feature width.
    pub fn new(cols: usize, n_classes: usize) -> Self {
        Self {
            x: CsrBuilder::new(cols),
            y: Vec::new(),
            n_classes,
        }
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when no row has been pushed.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Current feature-array width.
    pub fn cols(&self) -> usize {
        self.x.cols()
    }

    /// Widens the feature array to match vocabulary growth.
    pub fn widen(&mut self, cols: usize) {
        self.x.widen(cols);
    }

    /// Appends one labelled sample.
    ///
    /// # Panics
    /// Panics if the label is out of range.
    pub fn push(&mut self, entries: impl IntoIterator<Item = (usize, f32)>, label: u8) {
        assert!(
            (label as usize) < self.n_classes,
            "label {label} out of range"
        );
        self.x.push_row(entries);
        self.y.push(label);
    }

    /// Snapshots the accumulated data as a dataset with the given final
    /// width (≥ the builder's current width).
    pub fn snapshot(&self, cols: usize) -> Dataset {
        let b = self.x.clone();
        Dataset {
            x: b.finish_with_cols(cols),
            y: self.y.clone(),
            n_classes: self.n_classes,
        }
    }

    /// Consumes the builder into a dataset with the given final width —
    /// [`DatasetBuilder::snapshot`] without the copy, for a builder that
    /// has seen its last row.
    pub fn finish(self, cols: usize) -> Dataset {
        Dataset {
            x: self.x.finish_with_cols(cols),
            y: self.y,
            n_classes: self.n_classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_for_count_matches_paper_buckets() {
        let w = 500; // full-scale width
        assert_eq!(group_for_count(1, w), 0);
        assert_eq!(group_for_count(2, w), 1);
        assert_eq!(group_for_count(501, w), 1);
        assert_eq!(group_for_count(502, w), 2);
        assert_eq!(group_for_count(1001, w), 2);
        assert_eq!(group_for_count(12_500, w), 25);
        assert_eq!(group_for_count(1_000_000, w), 25, "clamped to 25");
    }

    #[test]
    fn group_for_count_zero_maps_to_group0() {
        assert_eq!(group_for_count(0, 500), 0);
    }

    #[test]
    fn group_for_count_small_width() {
        // Scaled cells use width ~10.
        assert_eq!(group_for_count(1, 10), 0);
        assert_eq!(group_for_count(11, 10), 1);
        assert_eq!(group_for_count(12, 10), 2);
    }

    #[test]
    fn group_covers_2019a_full_cell() {
        // 9.4k machines, width 360: the biggest group is 25.
        assert_eq!(group_for_count(9_400, 360), 25);
        assert!(group_for_count(9_000, 360) <= 25);
    }

    #[test]
    fn builder_snapshot_roundtrip() {
        let mut b = DatasetBuilder::new(4, NUM_GROUPS);
        b.push([(0, 1.0)], 0);
        b.push([(3, 1.0), (1, 1.0)], 5);
        b.widen(6);
        b.push([(5, 1.0)], 25);
        let d = b.snapshot(6);
        assert_eq!(d.len(), 3);
        assert_eq!(d.features_count(), 6);
        assert_eq!(d.y, vec![0, 5, 25]);
        assert_eq!(d.x.get(2, 5), 1.0);
        // The builder keeps accumulating after a snapshot.
        assert_eq!(b.len(), 3);
        let finished = b.finish(6);
        assert_eq!((finished.x, finished.y), (d.x, d.y));
    }

    #[test]
    fn class_counts_and_select() {
        let mut b = DatasetBuilder::new(2, NUM_GROUPS);
        b.push([(0, 1.0)], 0);
        b.push([(1, 1.0)], 1);
        b.push([(0, 1.0), (1, 1.0)], 1);
        let d = b.snapshot(2);
        let counts = d.class_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 2);
        let s = d.select(&[2, 0]);
        assert_eq!(s.y, vec![1, 0]);
        assert_eq!(s.x.get(0, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_bad_label() {
        let mut b = DatasetBuilder::new(1, 26);
        b.push([(0, 1.0)], 26);
    }
}
