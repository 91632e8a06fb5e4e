//! Compressed-sparse-row matrix for the constraint-operator datasets.
//!
//! Both dataset encodings the paper studies (CO-EL one-hot labels and CO-VV
//! value vectors, §III) are extremely sparse — the paper reports non-zero
//! densities below 0.01 % at full feature width (~16k columns). A CSR layout
//! keeps dataset memory proportional to the number of set bits and makes the
//! input-layer products in `ctlm-nn` O(nnz) instead of O(n·d).

use serde::{Deserialize, Serialize};

use crate::dense::Matrix;

/// Immutable CSR matrix of `f32`.
///
/// Row `i` owns entries `indptr[i]..indptr[i+1]` of `indices`/`values`.
/// Column indices within a row are strictly increasing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// An empty matrix with the given shape and no stored entries.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the feature-array width in dataset terms).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries stored; the paper's density claim is testable
    /// through this.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// The `(column, value)` pairs of one row.
    #[inline]
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.indptr[r] as usize;
        let hi = self.indptr[r + 1] as usize;
        self.indices[lo..hi]
            .iter()
            .zip(self.values[lo..hi].iter())
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Number of stored entries in one row.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.indptr[r + 1] - self.indptr[r]) as usize
    }

    /// The storage range of one row in `indices` / `values`.
    #[inline]
    fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.indptr[r] as usize..self.indptr[r + 1] as usize
    }

    /// Whether rows `a` and `b` store the same columns with bit-identical
    /// values — the equality under which two rows produce the same bits
    /// through every kernel. `1.0` and the next float up differ, as do
    /// two NaNs with different payloads.
    pub fn rows_equal(&self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.row_range(a), self.row_range(b));
        self.indices[ra.clone()] == self.indices[rb.clone()]
            && self.values[ra]
                .iter()
                .zip(&self.values[rb])
                .all(|(u, v)| u.to_bits() == v.to_bits())
    }

    /// A hash of row `r`'s stored columns and value bits: rows that
    /// [`Csr::rows_equal`] calls equal hash equal. Unequal rows may
    /// collide, so a caller confirms a match with `rows_equal`.
    ///
    /// Four independent chains take the entries in turn, so their
    /// multiplies overlap instead of each waiting on the one before; the
    /// chains are then folded together, and the last `nnz % 4` entries
    /// mixed in after them.
    pub fn row_hash(&self, r: usize) -> u64 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
        let entry = |c: u32, v: f32| (u64::from(c) << 32) | u64::from(v.to_bits());
        let range = self.row_range(r);
        let mut lanes = [range.len() as u64; 4];
        let (cols, cols_rest) = self.indices[range.clone()].as_chunks::<4>();
        let (vals, vals_rest) = self.values[range].as_chunks::<4>();
        for (c, v) in cols.iter().zip(vals) {
            for (lane, i) in lanes.iter_mut().zip(0..4) {
                *lane = mix(*lane, entry(c[i], v[i]));
            }
        }
        let h = lanes.into_iter().fold(0, mix);
        cols_rest
            .iter()
            .zip(vals_rest)
            .fold(h, |h, (&c, &v)| mix(h, entry(c, v)))
    }

    /// Value at `(r, c)`; zero when not stored. O(log row_nnz).
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let lo = self.indptr[r] as usize;
        let hi = self.indptr[r + 1] as usize;
        match self.indices[lo..hi].binary_search(&(c as u32)) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Widens the matrix to `new_cols` columns without touching stored
    /// entries. This is the dataset-side half of the paper's growing
    /// mechanism: when the attribute vocabulary gains values, older samples
    /// simply have implicit zeros in the appended columns.
    ///
    /// # Panics
    /// Panics if `new_cols < self.cols()`.
    pub fn widen(&mut self, new_cols: usize) {
        assert!(new_cols >= self.cols, "widen cannot shrink a matrix");
        self.cols = new_cols;
    }

    /// Materialises the matrix (or a row subset) densely. Intended for tests
    /// and small examples; dataset-scale matrices should stay sparse.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                out.set(r, c, v);
            }
        }
        out
    }

    /// Builds a new CSR containing only the given rows, in the given order.
    /// Used by the stratified train/test splitter.
    pub fn select_rows(&self, rows: &[usize]) -> Csr {
        let mut out = Csr::empty(0, self.cols);
        self.select_rows_into(rows, &mut out);
        out
    }

    /// Like [`Csr::select_rows`], writing into a caller-provided matrix.
    /// `out`'s buffers are reused, so the mini-batch loop can gather
    /// batches without allocating once capacities have warmed up; a
    /// buffer too small for this selection grows once, to at least its
    /// exact size, before anything is copied.
    pub fn select_rows_into(&self, rows: &[usize], out: &mut Csr) {
        let mut nnz = 0;
        for &r in rows {
            assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
            nnz += self.row_nnz(r);
        }
        out.rows = rows.len();
        out.cols = self.cols;
        out.indptr.clear();
        out.indices.clear();
        out.values.clear();
        out.indptr.reserve(rows.len() + 1);
        out.indices.reserve(nnz);
        out.values.reserve(nnz);
        out.indptr.push(0);
        for &r in rows {
            let range = self.row_range(r);
            out.indices.extend_from_slice(&self.indices[range.clone()]);
            out.values.extend_from_slice(&self.values[range]);
            out.indptr.push(out.indices.len() as u32);
        }
    }

    /// Rebuilds the matrix in place as one row of width `cols` holding
    /// `entries`, reusing its buffers like [`Csr::select_rows_into`]: the
    /// same matrix [`CsrBuilder`] builds from those entries, without the
    /// builder's allocations once capacities have warmed up. Zero values
    /// are dropped, as [`CsrBuilder::push_row`] drops them.
    ///
    /// # Panics
    /// Panics unless the columns strictly increase and stay below `cols`
    /// — what the encoders emit.
    pub fn assign_row(&mut self, cols: usize, entries: &[(usize, f32)]) {
        assert!(
            entries.windows(2).all(|p| p[0].0 < p[1].0),
            "row columns must strictly increase"
        );
        if let Some(&(last, _)) = entries.last() {
            assert!(last < cols, "column {last} out of bounds ({cols})");
        }
        self.rows = 1;
        self.cols = cols;
        self.indptr.clear();
        self.indices.clear();
        self.values.clear();
        for &(c, v) in entries.iter().filter(|&&(_, v)| v != 0.0) {
            self.indices.push(c as u32);
            self.values.push(v);
        }
        self.indptr.extend([0, self.indices.len() as u32]);
    }
}

/// Incremental row-by-row CSR builder.
///
/// The AGOCS dataset generator appends one row per task submission; columns
/// may keep growing while rows are appended (vocabulary growth), so the
/// builder tracks the maximum column seen and the caller fixes the final
/// width via [`CsrBuilder::finish_with_cols`] or lets [`CsrBuilder::finish`]
/// use the declared width.
#[derive(Clone, Debug)]
pub struct CsrBuilder {
    cols: usize,
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrBuilder {
    /// A builder for matrices with (at least) `cols` columns.
    pub fn new(cols: usize) -> Self {
        Self {
            cols,
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows pushed so far.
    pub fn rows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Current column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Widens the declared column count (monotonic).
    pub fn widen(&mut self, new_cols: usize) {
        assert!(new_cols >= self.cols, "builder cannot shrink");
        self.cols = new_cols;
    }

    /// Appends a row given `(column, value)` pairs. Pairs need not be
    /// sorted; they are sorted here. Zero values are dropped; duplicate
    /// columns keep the last value. A row whose kept columns already
    /// strictly increase (what the encoders emit) is stored as given.
    ///
    /// # Panics
    /// Panics if any column index is `>= cols()`.
    pub fn push_row(&mut self, entries: impl IntoIterator<Item = (usize, f32)>) {
        let start = self.indices.len();
        for (c, v) in entries {
            assert!(c < self.cols, "column {c} out of bounds ({})", self.cols);
            if v != 0.0 {
                self.indices.push(c as u32);
                self.values.push(v);
            }
        }
        if self.indices[start..].windows(2).all(|p| p[0] < p[1]) {
            self.indptr.push(self.indices.len() as u32);
            return;
        }
        // Sort the freshly appended slice by column and de-duplicate
        // (keeping the last write, matching dense overwrite semantics).
        let tail_idx = &mut self.indices[start..];
        let tail_val = &mut self.values[start..];
        let mut perm: Vec<usize> = (0..tail_idx.len()).collect();
        perm.sort_by_key(|&i| tail_idx[i]);
        let sorted_idx: Vec<u32> = perm.iter().map(|&i| tail_idx[i]).collect();
        let sorted_val: Vec<f32> = perm.iter().map(|&i| tail_val[i]).collect();
        tail_idx.copy_from_slice(&sorted_idx);
        tail_val.copy_from_slice(&sorted_val);
        // Deduplicate in place.
        let mut write = start;
        let mut read = start;
        while read < self.indices.len() {
            let col = self.indices[read];
            let mut val = self.values[read];
            read += 1;
            while read < self.indices.len() && self.indices[read] == col {
                val = self.values[read];
                read += 1;
            }
            self.indices[write] = col;
            self.values[write] = val;
            write += 1;
        }
        self.indices.truncate(write);
        self.values.truncate(write);
        self.indptr.push(self.indices.len() as u32);
    }

    /// Finishes with the builder's current column count.
    pub fn finish(self) -> Csr {
        Csr {
            rows: self.indptr.len() - 1,
            cols: self.cols,
            indptr: self.indptr,
            indices: self.indices,
            values: self.values,
        }
    }

    /// Finishes, widening to `cols` first (useful when the vocabulary kept
    /// growing after the last row was pushed).
    pub fn finish_with_cols(mut self, cols: usize) -> Csr {
        self.widen(cols);
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        let mut b = CsrBuilder::new(5);
        b.push_row([(1, 1.0), (3, 1.0)]);
        b.push_row([]);
        b.push_row([(0, 2.0), (4, -1.0)]);
        b.finish()
    }

    #[test]
    fn builder_produces_expected_entries() {
        let m = sample();
        assert_eq!(m.shape(), (3, 5));
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.get(2, 4), -1.0);
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    fn push_row_sorts_dedups_last_write_wins_and_drops_zeros() {
        let mut b = CsrBuilder::new(6);
        b.push_row([(0, 1.0), (2, 2.0), (5, 3.0)]);
        b.push_row([(4, 1.0), (1, 2.0), (4, 7.0), (3, 0.0), (0, 5.0), (1, 9.0)]);
        let m = b.finish();
        assert_eq!(m.indptr, vec![0, 3, 6]);
        assert_eq!(m.indices, vec![0, 2, 5, 0, 1, 4]);
        assert_eq!(m.values, vec![1.0, 2.0, 3.0, 5.0, 9.0, 7.0]);
    }

    #[test]
    fn push_row_sorts_unsorted_entries() {
        let mut b = CsrBuilder::new(4);
        b.push_row([(3, 1.0), (0, 2.0), (2, 3.0)]);
        let m = b.finish();
        let entries: Vec<_> = m.row_entries(0).collect();
        assert_eq!(entries, vec![(0, 2.0), (2, 3.0), (3, 1.0)]);
    }

    #[test]
    fn push_row_drops_zeros_and_dedups_keeping_last() {
        let mut b = CsrBuilder::new(4);
        b.push_row([(1, 0.0), (2, 1.0), (2, 5.0)]);
        let m = b.finish();
        let entries: Vec<_> = m.row_entries(0).collect();
        assert_eq!(entries, vec![(2, 5.0)]);
    }

    #[test]
    fn widen_preserves_entries() {
        let mut m = sample();
        m.widen(9);
        assert_eq!(m.cols(), 9);
        assert_eq!(m.get(2, 0), 2.0);
        assert_eq!(m.get(0, 8), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn widen_rejects_shrink() {
        sample().widen(2);
    }

    #[test]
    fn to_dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        for r in 0..3 {
            for c in 0..5 {
                assert_eq!(d.get(r, c), m.get(r, c));
            }
        }
    }

    #[test]
    fn select_rows_reorders() {
        let m = sample();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(1, 1), 1.0);
    }

    #[test]
    fn assign_row_equals_the_builder_and_reuses_the_matrix() {
        let entries = [(0, 2.0), (2, 0.0), (3, -1.0), (6, 1.0)];
        let mut b = CsrBuilder::new(7);
        b.push_row(entries);
        let want = b.finish();
        let mut m = sample();
        m.assign_row(7, &entries);
        assert_eq!(m, want);
        m.assign_row(4, &[]);
        assert_eq!(m, Csr::empty(1, 4));
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn assign_row_rejects_unsorted_columns() {
        Csr::empty(0, 4).assign_row(4, &[(2, 1.0), (1, 1.0)]);
    }

    #[test]
    fn rows_equal_compares_columns_and_value_bits() {
        let next_up = f32::from_bits(1.0f32.to_bits() + 1);
        let mut b = CsrBuilder::new(4);
        b.push_row([(1, 1.0), (3, 2.0)]);
        b.push_row([]);
        b.push_row([(1, 1.0), (3, 2.0)]);
        b.push_row([(1, next_up), (3, 2.0)]);
        b.push_row([(1, 1.0), (2, 2.0)]);
        b.push_row([]);
        let m = b.finish();
        assert!(m.rows_equal(0, 2) && m.rows_equal(1, 5) && m.rows_equal(3, 3));
        assert_eq!(m.row_hash(0), m.row_hash(2));
        assert_eq!(m.row_hash(1), m.row_hash(5));
        assert!(!m.rows_equal(0, 3), "values differ in one bit");
        assert!(!m.rows_equal(0, 4), "columns differ");
        assert!(!m.rows_equal(0, 1), "a stored row is not the empty row");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

        /// Rows that `rows_equal` calls equal hash equal, at every length
        /// from 0 to 9 — each remainder of the hash's four-lane loop, with
        /// and without whole chunks — whatever rows sit before them; and
        /// changing one stored value bit or one column changes the hash.
        #[test]
        fn rows_equal_rows_hash_equal(
            len in 0usize..10,
            cols in prop::collection::vec(0usize..6, 10..11),
            values in prop::collection::vec(2u32..0x7f80_0000, 10..11),
            lead in 0usize..5,
        ) {
            // Strictly increasing columns, finite values of either sign
            // and never `±0.0`, which `push_row` drops.
            let row: Vec<(usize, f32)> = (0..len)
                .map(|k| {
                    let v = f32::from_bits(values[k]);
                    (k * 6 + cols[k], if cols[k] % 2 == 1 { -v } else { v })
                })
                .collect();
            let mut b = CsrBuilder::new(64);
            for r in 0..lead {
                b.push_row([(r, 1.0 + r as f32)]);
            }
            b.push_row(row.iter().copied());
            b.push_row([(63, -2.0)]);
            b.push_row(row.iter().copied());
            let mut changed = row.clone();
            if let Some(last) = changed.last_mut() {
                last.1 = f32::from_bits(last.1.to_bits() ^ 1);
            }
            b.push_row(changed.iter().copied());
            let mut moved = row.clone();
            if let Some(last) = moved.last_mut() {
                last.0 = 60;
            }
            b.push_row(moved.iter().copied());
            let m = b.finish();
            let (first, second) = (lead, lead + 2);
            prop_assert!(m.rows_equal(first, second));
            prop_assert_eq!(m.row_hash(first), m.row_hash(second));
            if len > 0 {
                prop_assert!(!m.rows_equal(first, second + 1));
                prop_assert!(m.row_hash(first) != m.row_hash(second + 1), "one value bit");
                prop_assert!(m.row_hash(first) != m.row_hash(second + 2), "one column");
            }
        }
    }

    #[test]
    fn density_counts_nnz() {
        let m = sample();
        assert!((m.density() - 4.0 / 15.0).abs() < 1e-12);
    }
}
