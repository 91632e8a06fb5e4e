//! Reusable training-step buffers, and the slot map that lets a step run
//! once per distinct row.
//!
//! The seed implementation allocated on every mini-batch: a clone of each
//! hidden activation on the way forward, a clone of the logit gradient on
//! the way back, a fresh softmax matrix in the loss, and fresh gradient
//! temporaries in each layer. A [`Workspace`] owns all of those buffers
//! instead; [`crate::Net::train_batch`] — the only training pass there
//! is — threads it through forward → loss → backward so a steady-state
//! step performs **zero heap allocations**: buffers resize in place only
//! when the batch shape or the architecture actually changes
//! (`nn/tests/zero_alloc.rs` pins this with a counting allocator).
//! [`crate::Net::forward_into`] runs the same forward pass into the same
//! activation buffers for inference, so a workspace also carries the
//! trainer's per-epoch evaluation and the analyzer's per-task
//! prediction without allocating.
//!
//! CO-VV batches repeat rows: every unconstrained task encodes to the
//! same empty row, and tasks sharing a constraint set share a row. A
//! step therefore first numbers the batch's distinct `(row, label)` pairs
//! with a [`RowSlots`] map, and the activation and gradient buffers hold
//! **one row per distinct pair**, not per batch row. Only the reductions
//! across the batch (parameter gradients, loss) read the batch in its
//! own order, through the map. Buffers are sized for the whole batch on
//! first use — the trainer builds a fresh workspace per step, so growing
//! them by doubling as distinct counts vary would cost allocations on
//! every step.
//!
//! A workspace also keeps the step's clock: [`StageTimes`] sums, over
//! every batch it has carried, the time each stage of the step took.
//! It costs seven `Instant` reads a batch and is read only when the
//! caller asks ([`Workspace::stage_times`]).

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use ctlm_tensor::{Csr, Matrix};

/// Marks an unused [`RowSlots`] table entry.
const EMPTY: u32 = u32::MAX;

/// Numbers the distinct rows of a matrix `0, 1, 2, …` in order of first
/// appearance. Two rows share a slot when they store the same columns
/// with bit-identical values ([`Csr::rows_equal`]) and, when labels are
/// given, carry the same label. The hash table behind it is only probed,
/// never iterated, so the numbering depends on the rows alone.
#[derive(Clone, Debug, Default)]
pub struct RowSlots {
    /// Row `r`'s slot.
    slot_of: Vec<u32>,
    /// Slot `s`'s first row.
    firsts: Vec<usize>,
    /// Open-addressing table of slots, linear probing, load ≤ ½.
    table: Vec<u32>,
}

impl RowSlots {
    /// An empty map; buffers materialise on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Numbers the distinct rows of `x` — distinct `(row, label)` pairs
    /// when `labels` is given. Allocation-free once the map has seen a
    /// matrix with at least as many rows.
    ///
    /// # Panics
    /// Panics when `labels` and `x` differ in length.
    pub fn assign(&mut self, x: &Csr, labels: Option<&[u8]>) {
        self.assign_hashed(x, labels, |r| x.row_hash(r));
    }

    /// Numbers the distinct rows among rows `rows` of `x`, read in
    /// place: [`RowSlots::slot_of`] and [`RowSlots::firsts`] speak of
    /// positions in `rows`, so slot `s`'s row is `rows[firsts()[s]]`.
    /// The numbering is the one [`RowSlots::assign`] gives the gathered
    /// `x.select_rows(rows)`, without the copy.
    pub fn assign_subset(&mut self, x: &Csr, rows: &[usize]) {
        self.number(
            rows.len(),
            |i| x.row_hash(rows[i]),
            |a, b| x.rows_equal(rows[a], rows[b]),
        );
    }

    /// [`RowSlots::assign`] with the row hash supplied, so a test can
    /// force every row onto one probe sequence.
    fn assign_hashed(&mut self, x: &Csr, labels: Option<&[u8]>, hash: impl Fn(usize) -> u64) {
        if let Some(l) = labels {
            assert_eq!(l.len(), x.rows(), "batch size mismatch");
        }
        let label = |r: usize| labels.map_or(0, |l| l[r]);
        self.number(
            x.rows(),
            |r| hash(r) ^ u64::from(label(r)),
            |a, b| label(a) == label(b) && x.rows_equal(a, b),
        );
    }

    /// Numbers `n` items in order of first appearance, `hash` keying the
    /// table and `same` deciding equality (items that are `same` must
    /// hash alike).
    fn number(
        &mut self,
        n: usize,
        hash: impl Fn(usize) -> u64,
        same: impl Fn(usize, usize) -> bool,
    ) {
        let bits = (2 * n).max(2).next_power_of_two().trailing_zeros();
        let size = 1usize << bits;
        if self.table.len() < size {
            self.table.resize(size, EMPTY);
        }
        let table = &mut self.table[..size];
        table.fill(EMPTY);
        self.slot_of.clear();
        self.slot_of.reserve(n);
        self.firsts.clear();
        self.firsts.reserve(n);
        for r in 0..n {
            // Multiplicative hashing: the product's top bits index the table.
            let mixed = hash(r).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut i = (mixed >> (64 - bits)) as usize;
            let slot = loop {
                match table[i] {
                    EMPTY => {
                        let s = self.firsts.len() as u32;
                        table[i] = s;
                        self.firsts.push(r);
                        break s;
                    }
                    s => {
                        if same(self.firsts[s as usize], r) {
                            break s;
                        }
                    }
                }
                i = (i + 1) & (size - 1);
            };
            self.slot_of.push(slot);
        }
    }

    /// Each row's slot, in row order.
    pub fn slot_of(&self) -> &[u32] {
        &self.slot_of
    }

    /// Each slot's first row, in slot order.
    pub fn firsts(&self) -> &[usize] {
        &self.firsts
    }

    /// True when no two rows share a slot, so slot `r` is row `r`.
    pub fn is_identity(&self) -> bool {
        self.firsts.len() == self.slot_of.len()
    }
}

/// Where [`crate::Net::train_batch`]'s time went, summed over the
/// batches of one [`Workspace`]. The stages tile each call, in the order
/// it runs them. Host-dependent like any wall time, so nothing derived
/// from it may reach a result that is compared across runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimes {
    /// Zero-grad, the row hash that numbers the distinct `(row, label)`
    /// pairs, and the gather of the distinct rows.
    pub rows: Duration,
    /// `fc1`'s forward (`csr_matmul_into` and its bias).
    pub fc1_forward: Duration,
    /// The dense layers after `fc1` (the paper's ReLU and `fc2`),
    /// forward.
    pub dense_forward: Duration,
    /// Softmax, loss and the weighted logit gradient.
    pub loss: Duration,
    /// The dense layers backward: their parameter gradients and the
    /// gradient they pass down to `fc1`.
    pub dense_backward: Duration,
    /// `fc1`'s weight and bias gradients (`csr_matmul_at_acc`).
    pub fc1_backward: Duration,
}

impl StageTimes {
    /// The stages by name, in the order a step runs them.
    pub fn parts(&self) -> [(&'static str, Duration); 6] {
        [
            ("rows", self.rows),
            ("fc1-fwd", self.fc1_forward),
            ("fc2-fwd", self.dense_forward),
            ("loss", self.loss),
            ("fc2-bwd", self.dense_backward),
            ("fc1-grad", self.fc1_backward),
        ]
    }

    /// Adds another workspace's stages to these.
    pub fn add(&mut self, other: &StageTimes) {
        self.rows += other.rows;
        self.fc1_forward += other.fc1_forward;
        self.dense_forward += other.dense_forward;
        self.loss += other.loss;
        self.dense_backward += other.dense_backward;
        self.fc1_backward += other.fc1_backward;
    }
}

/// Hands out the time since it was last asked, so consecutive stages
/// tile an interval with one clock read per boundary.
pub struct Lap(Instant);

impl Lap {
    /// A lap starting now.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// The time since the last call (or [`Lap::start`]).
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.0;
        self.0 = now;
        d
    }
}

/// Scratch buffers for one training loop: the batch's slot map and its
/// distinct rows, per-layer activations and gradient carriers over those
/// rows, and batch-order copies for the reductions — reused across
/// batches and epochs.
#[derive(Clone, Debug)]
pub struct Workspace {
    /// `acts[i]` is the dense output of layer `i` per distinct row (the
    /// last entry holds the logits).
    pub(crate) acts: Vec<Matrix>,
    /// `grads[i]` carries `dL/d(acts[i])` per distinct row during the
    /// backward pass.
    pub(crate) grads: Vec<Matrix>,
    /// The batch's distinct `(row, label)` pairs.
    pub(crate) slots: RowSlots,
    /// The distinct rows, gathered when the batch has duplicates.
    pub(crate) distinct: Csr,
    /// A gradient carrier expanded back to batch order.
    pub(crate) batch_grad: Matrix,
    /// An activation expanded back to batch order.
    pub(crate) batch_act: Matrix,
    /// Time per stage over every batch so far.
    pub(crate) times: StageTimes,
}

impl Default for Workspace {
    fn default() -> Self {
        Self {
            acts: Vec::new(),
            grads: Vec::new(),
            slots: RowSlots::new(),
            distinct: Csr::empty(0, 0),
            batch_grad: Matrix::zeros(0, 0),
            batch_act: Matrix::zeros(0, 0),
            times: StageTimes::default(),
        }
    }
}

impl Workspace {
    /// An empty workspace; buffers materialise on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where the batches this workspace carried spent their time.
    pub fn stage_times(&self) -> StageTimes {
        self.times
    }

    /// Sizes the per-layer buffer vectors to exactly `n_layers` entries
    /// and makes room in every matrix for `rows × width` — the whole
    /// batch at the network's widest layer, which no distinct-row count
    /// exceeds. Existing buffers keep their capacity, so reuse with the
    /// same architecture never reallocates.
    pub(crate) fn prepare(&mut self, n_layers: usize, rows: usize, width: usize) {
        self.size_layers(n_layers);
        self.grads.resize_with(n_layers, || Matrix::zeros(0, 0));
        let matrices = self.acts.iter_mut().chain(self.grads.iter_mut());
        for m in matrices.chain([&mut self.batch_grad, &mut self.batch_act]) {
            m.reserve(rows, width);
        }
    }

    /// Sizes the activation buffers to exactly `n_layers` entries — all
    /// an inference pass ([`crate::Net::forward_into`]) needs. Its
    /// kernels grow each matrix to the rows they are given, once.
    pub(crate) fn size_layers(&mut self, n_layers: usize) {
        self.acts.resize_with(n_layers, || Matrix::zeros(0, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_tensor::CsrBuilder;

    /// Rows 0/2/5 are equal, 1/4 are empty, 3 differs from 0 in one
    /// value bit.
    fn rows() -> Csr {
        let next_up = f32::from_bits(1.0f32.to_bits() + 1);
        let mut b = CsrBuilder::new(6);
        b.push_row([(0, 1.0), (4, 1.0)]);
        b.push_row([]);
        b.push_row([(0, 1.0), (4, 1.0)]);
        b.push_row([(0, next_up), (4, 1.0)]);
        b.push_row([]);
        b.push_row([(0, 1.0), (4, 1.0)]);
        b.finish()
    }

    #[test]
    fn slots_number_distinct_rows_in_order_of_first_appearance() {
        let x = rows();
        let mut slots = RowSlots::new();
        slots.assign(&x, None);
        assert_eq!(slots.slot_of(), &[0, 1, 0, 2, 1, 0]);
        assert_eq!(slots.firsts(), &[0, 1, 3]);
        assert!(!slots.is_identity());

        // A label splits a row; equal rows with equal labels still merge.
        slots.assign(&x, Some(&[7, 7, 8, 7, 7, 7]));
        assert_eq!(slots.slot_of(), &[0, 1, 2, 3, 1, 0]);
        assert_eq!(slots.firsts(), &[0, 1, 2, 3]);
    }

    /// Every row hashing alike puts every row on one probe sequence:
    /// only `rows_equal` and the label keep rows apart, and the numbering
    /// is the same as with the real hash.
    #[test]
    fn a_forced_hash_collision_merges_nothing() {
        let x = rows();
        let labels = [7, 7, 8, 7, 7, 7];
        let (mut real, mut forced) = (RowSlots::new(), RowSlots::new());
        real.assign(&x, Some(&labels));
        forced.assign_hashed(&x, Some(&labels), |_| 42);
        assert_eq!(forced.slot_of(), real.slot_of());
        assert_eq!(forced.firsts(), real.firsts());
    }

    /// The numbering of a fixed batch, pinned: rows of 0 to 9 stored
    /// entries (every remainder of the row hash's four-lane loop), with
    /// duplicates and a near-duplicate. Any hash under which equal rows
    /// hash equal gives the same numbering as the real one.
    #[test]
    fn slot_numbering_is_pinned_and_independent_of_the_hash() {
        let long = |n: usize| {
            (0..n)
                .map(|k| (2 * k + 1, 0.5 + k as f32))
                .collect::<Vec<_>>()
        };
        let mut nudged = long(9);
        nudged[4].1 = f32::from_bits(nudged[4].1.to_bits() + 1);
        let mut b = CsrBuilder::new(20);
        for row in [
            vec![],
            long(1),
            long(5),
            vec![],
            long(1),
            long(9),
            long(2),
            long(5),
            long(9),
            nudged,
            vec![],
            long(2),
            long(4),
        ] {
            b.push_row(row);
        }
        let x = b.finish();
        let want_slots = [0, 1, 2, 0, 1, 3, 4, 2, 3, 5, 0, 4, 6];
        let want_firsts = [0, 1, 2, 5, 6, 9, 12];
        let mut slots = RowSlots::new();
        slots.assign(&x, None);
        assert_eq!(slots.slot_of(), &want_slots);
        assert_eq!(slots.firsts(), &want_firsts);
        let content_hashes: [&dyn Fn(usize) -> u64; 3] = [&|_| 7, &|r| x.row_nnz(r) as u64, &|r| {
            x.row_entries(r).map(|(c, _)| c as u64).sum::<u64>() << 40
        }];
        for hash in content_hashes {
            slots.assign_hashed(&x, None, hash);
            assert_eq!(slots.slot_of(), &want_slots);
            assert_eq!(slots.firsts(), &want_firsts);
        }
    }

    /// Numbering rows in place through an index list gives the numbering
    /// of the gathered copy, repeated and reordered indices included.
    #[test]
    fn a_subset_numbers_like_its_gathered_copy() {
        let x = rows();
        let subset = [5, 1, 3, 0, 4, 4, 2];
        let mut gathered = RowSlots::new();
        gathered.assign(&x.select_rows(&subset), None);
        let mut in_place = RowSlots::new();
        in_place.assign_subset(&x, &subset);
        assert_eq!(in_place.slot_of(), gathered.slot_of());
        assert_eq!(in_place.firsts(), gathered.firsts());
        assert_eq!(in_place.slot_of(), &[0, 1, 2, 0, 1, 1, 0]);
    }

    #[test]
    fn distinct_rows_map_to_themselves() {
        let mut b = CsrBuilder::new(3);
        for c in 0..3 {
            b.push_row([(c, 1.0)]);
        }
        b.push_row([]);
        let mut slots = RowSlots::new();
        slots.assign(&b.finish(), None);
        assert!(slots.is_identity());
        assert_eq!(slots.slot_of(), &[0, 1, 2, 3]);
    }
}
