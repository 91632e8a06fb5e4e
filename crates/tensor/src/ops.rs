//! Linear-algebra kernels.
//!
//! The layer shapes in the paper are tiny (hidden width 30, 26 classes)
//! but batches and feature widths are large (tens of thousands of
//! samples, ~16k features), so the kernels are organised for data
//! movement first:
//!
//! * **cache blocking** — GEMMs walk `b` in `KC`-deep k-panels shared
//!   across an `MC`-row block of `a`, so the panel stays hot in cache
//!   instead of being re-streamed per row;
//! * **register microkernels** — [`csr_matmul_bt_into`], and
//!   [`matmul_bt_into`] on fewer than four rows, keep an `NR`-wide
//!   accumulator tile in registers, amortising every load of the shared
//!   operand over `NR` outputs;
//! * **input-major sparse products** — the sparse input layer stores its
//!   weight `(in × out)`, so [`csr_matmul_into`] and
//!   [`csr_matmul_at_acc`] touch one contiguous `out`-wide row per stored
//!   entry instead of `out` elements at stride `in`;
//! * **`_into`/`_acc` variants** — every kernel can write into (or
//!   accumulate onto) a caller-provided buffer, which is what lets
//!   `ctlm_nn::Workspace` run steady-state training steps without heap
//!   allocation;
//! * **whole 8-lane groups** — the axpy-shaped kernels
//!   ([`csr_matmul_into`], [`csr_matmul_at_acc`], [`matmul_into`],
//!   [`matmul_at_acc`], [`matmul_bt_into`]) run across a row's outputs in
//!   `GROUP` (8) lane groups, one to `MAX_GROUPS` (4) per row block, the
//!   count fixed at compile time. A block that is not a multiple of 8
//!   lanes starts its last group at `width − 8`, overlapping its
//!   neighbour: both compute the shared lanes from the same inputs, so
//!   they store the same bits, and no lane is left to a scalar or
//!   narrower-vector remainder. The paper's layer widths (26, 30) are one
//!   four-group block; the accumulating kernels keep it in registers
//!   across every term the row sums and write it once. [`matmul_bt_into`]
//!   runs the same loop over a transposed panel of its `b` on the stack
//!   from four rows of `a` on;
//! * **one AVX2 dispatch** — the training kernels ([`csr_matmul_into`],
//!   [`csr_matmul_at_acc`], [`matmul_into`], [`matmul_at_acc`],
//!   [`matmul_bt_into`], [`adam_update`]) each keep one
//!   `#[inline(always)]` body, which the private `avx2` module compiles a
//!   second time with AVX2 enabled; the public function runs that build
//!   when the CPU reports AVX2. No `fma` and no intrinsics: every lane
//!   does the same IEEE multiply, add, divide and square root in either
//!   build, so both give the same bits (the unit tests below run both on
//!   every kernel and compare them).
//!
//! **No subnormal leaves the loss.** [`softmax_rows_inplace`] stores a
//! numerator or probability below `f32::MIN_POSITIVE` as `+0.0`, and
//! `ctlm_nn`'s loss flushes its scaled gradient the same way
//! ([`flush_subnormal`]). A trained network's off-target probabilities
//! underflow, and each subnormal operand of [`matmul_at_acc`],
//! [`matmul_into`] or the softmax costs a microcode assist: with them,
//! `fc2`'s backward cost more than twice its arithmetic. No row sum
//! moves (see
//! [`softmax_rows_inplace`]), and no MXCSR flag is set: the rule is the
//! same on every host and reaches nothing outside the loss. A kernel
//! change must not bring a subnormal back.
//!
//! The pre-optimization reference kernels are retained in [`naive`]; the
//! property tests in `tests/kernel_properties.rs` pin the dense products
//! to them bit for bit and the other blocked kernels within 1e-5, and
//! `ctlm-bench`'s `training_step` bench measures both sides in the same
//! run.

use crate::dense::Matrix;
use crate::sparse::Csr;

/// Row count from which [`col_sums_acc`] sums each column per `MC`-row
/// block instead of in plain row order. Trained weights depend on the
/// bits either association gives, so the switch stays where it is.
pub const COL_SUMS_BLOCK_THRESHOLD: usize = 64;

/// Rows of `a` processed per cache block: one block's k-panel traffic is
/// amortised over `MC` output rows.
const MC: usize = 32;

/// Depth of a k-panel: `KC × m` elements of `b` (≤ 64 KiB at the paper's
/// widths) stay cache-hot while a row block consumes them.
const KC: usize = 256;

/// Width of the register accumulator tile in the dot-product
/// microkernels.
const NR: usize = 4;

/// Edge length of the square tiles used by [`transpose_into`].
const TILE: usize = 32;

/// Columns whose block partials [`col_sums_acc`] keeps on the stack at
/// once (256 B): one strip covers the paper's layer widths (30, 26).
const COL_STRIP: usize = 64;

/// Lanes of one vector group: one AVX2 vector, two SSE2 ones.
const GROUP: usize = 8;

/// Most vector groups one row block keeps in registers.
const MAX_GROUPS: usize = 4;

/// Lanes of one row block: `MAX_GROUPS` groups, one block at the paper's
/// layer widths (26 and 30).
const LANES: usize = MAX_GROUPS * GROUP;

/// Rows of `a` from which [`matmul_bt_into`] transposes panels of `b`:
/// below it the transpose costs more than the vector loop saves. At the
/// paper's `fc2` (26 × 30) the transpose costs ≈ 0.75 µs per call and the
/// loop ≈ 0.05 µs per row, against ≈ 0.25 µs per row as dot products.
const BT_MIN_ROWS: usize = 4;

/// Depth of the transposed panel of `b` that [`matmul_bt_into`] keeps on
/// the stack (4 KiB at `LANES` wide); one panel at the paper's hidden
/// width (30).
const BT_KC: usize = 32;

/// A row block held in `G` vector groups of `GROUP` lanes.
type Groups<const G: usize> = [[f32; GROUP]; G];

/// The row blocks of an `m`-wide row, as `(start, width)`: `LANES` lanes
/// each, except that a last block narrower than `GROUP` takes lanes from
/// the block before it, so that in a row at least `GROUP` wide every
/// block is too. The blocks never overlap.
fn lane_blocks(m: usize) -> impl Iterator<Item = (usize, usize)> {
    let edge = move |c: usize| {
        if c > 0 && c < m && m - c < GROUP {
            m - GROUP
        } else {
            c
        }
    };
    (0..m).step_by(LANES).map(move |c0| {
        let (start, end) = (edge(c0), edge((c0 + LANES).min(m)));
        (start, end - start)
    })
}

/// Runs `$block::<G>(…)` with the group count `G` of a `$w`-lane block:
/// `w / GROUP` rounded up, and 0 — lane by lane — below one group.
macro_rules! by_groups {
    ($w:expr, $block:ident($($arg:expr),* $(,)?)) => {
        match $w {
            w if w < GROUP => $block::<0>($($arg),*),
            w if w <= GROUP => $block::<1>($($arg),*),
            w if w <= 2 * GROUP => $block::<2>($($arg),*),
            w if w <= 3 * GROUP => $block::<3>($($arg),*),
            _ => $block::<4>($($arg),*),
        }
    };
}

/// Where each of the `G` groups of a `w`-lane block starts, for
/// `GROUP · (G − 1) < w ≤ GROUP · G`: every `GROUP` lanes from 0, except
/// the last group, which starts at `w − GROUP`, so it shares lanes with
/// the group before it when `w` is not a multiple of `GROUP`.
#[inline(always)]
fn group_starts<const G: usize>(w: usize) -> [usize; G] {
    std::array::from_fn(|g| if g + 1 == G { w - GROUP } else { g * GROUP })
}

#[inline(always)]
fn load_groups<const G: usize>(lanes: &[f32], starts: &[usize; G]) -> Groups<G> {
    std::array::from_fn(|g| {
        lanes[starts[g]..starts[g] + GROUP]
            .try_into()
            .expect("GROUP lanes")
    })
}

#[inline(always)]
fn store_groups<const G: usize>(lanes: &mut [f32], starts: &[usize; G], groups: &Groups<G>) {
    for (&s, group) in starts.iter().zip(groups) {
        lanes[s..s + GROUP].copy_from_slice(group);
    }
}

/// The across-outputs loop of every axpy-shaped kernel, on one row block:
/// `out[i] += c · row[i]` on each lane `i`, for each term `(c, row)` in
/// order, every `row` as wide as `out`. With `G > 0` the block stays in
/// `G` register groups across all the terms and is stored once; `G = 0`
/// is the lane-by-lane path of a block narrower than one group. Every
/// lane gets the same operations in the same order either way.
#[inline(always)]
fn axpy_terms<'b, const G: usize>(out: &mut [f32], terms: impl Iterator<Item = (f32, &'b [f32])>) {
    if G == 0 {
        for (c, row) in terms {
            for (o, &b) in out.iter_mut().zip(row) {
                *o += c * b;
            }
        }
        return;
    }
    let starts = group_starts::<G>(out.len());
    let mut acc = load_groups(out, &starts);
    for (c, row) in terms {
        for (acc, &s) in acc.iter_mut().zip(&starts) {
            let lanes: &[f32; GROUP] = row[s..s + GROUP].try_into().expect("GROUP lanes");
            for (a, &l) in acc.iter_mut().zip(lanes) {
                *a += c * l;
            }
        }
    }
    store_groups(out, &starts, &acc);
}

/// `out[i] = f(out[i], x[i])` on every lane of a block, with `x` also
/// given as the groups `xg` over `starts`. Every group is computed from
/// the values before any is stored, so lanes two groups share get the
/// same result twice; `G = 0` goes lane by lane.
#[inline(always)]
fn update_groups<const G: usize>(
    out: &mut [f32],
    (x, xg): (&[f32], &Groups<G>),
    starts: &[usize; G],
    f: impl Fn(f32, f32) -> f32,
) {
    if G == 0 {
        for (o, &x) in out.iter_mut().zip(x) {
            *o = f(*o, x);
        }
        return;
    }
    let mut vals = load_groups(out, starts);
    for (vals, xg) in vals.iter_mut().zip(xg) {
        for (o, &x) in vals.iter_mut().zip(xg) {
            *o = f(*o, x);
        }
    }
    store_groups(out, starts, &vals);
}

/// The AVX2 build of each listed kernel body: the same `#[inline(always)]`
/// function, compiled a second time inside a
/// `#[target_feature(enable = "avx2")]` wrapper of the same name in
/// `avx2`. [`dispatch!`] picks between the two.
macro_rules! avx2_builds {
    ($(fn $body:ident($($arg:ident: $ty:ty),* $(,)?);)*) => {
        #[cfg(target_arch = "x86_64")]
        mod avx2 {
            use super::*;
            $(
                /// # Safety
                /// Only on a CPU that supports AVX2.
                #[target_feature(enable = "avx2")]
                pub(super) fn $body($($arg: $ty),*) {
                    super::$body($($arg),*)
                }
            )*
        }
    };
}

avx2_builds! {
    fn matmul_into_body(a: &Matrix, b: &Matrix, out: &mut Matrix);
    fn matmul_at_acc_body(a: &Matrix, b: &Matrix, out: &mut Matrix);
    fn matmul_bt_into_body(a: &Matrix, b: &Matrix, out: &mut Matrix);
    fn csr_matmul_into_body(x: &Csr, w: &Matrix, out: &mut Matrix);
    fn csr_matmul_at_acc_body(x: &Csr, g: &Matrix, out: &mut Matrix);
    fn adam_update_body(
        w: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        c: AdamCoeffs,
    );
}

/// Calls a kernel body's AVX2 build when the CPU has AVX2, its portable
/// build otherwise.
#[cfg(target_arch = "x86_64")]
macro_rules! dispatch {
    ($body:ident($($arg:expr),* $(,)?)) => {
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2 (checked just above), the one
            // requirement for calling a function compiled with it enabled.
            unsafe { avx2::$body($($arg),*) }
        } else {
            $body($($arg),*)
        }
    };
}

/// Off x86-64 only the portable build exists.
#[cfg(not(target_arch = "x86_64"))]
macro_rules! dispatch {
    ($body:ident($($arg:expr),* $(,)?)) => {
        $body($($arg),*)
    };
}

/// Dense GEMM: `a (n×k) · b (k×m) → out (n×m)`, into a caller-provided
/// output (resized, fully overwritten).
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    dispatch!(matmul_into_body(a, b, out))
}

#[inline(always)]
fn matmul_into_body(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    out.resize(a.rows(), b.cols());
    out.as_mut_slice().fill(0.0);
    for block in lane_blocks(b.cols()) {
        by_groups!(block.1, matmul_block(a, b, out, block));
    }
}

/// [`matmul_into`] on the row block `(c0, w)` of every output row.
#[inline(always)]
fn matmul_block<const G: usize>(a: &Matrix, b: &Matrix, out: &mut Matrix, (c0, w): (usize, usize)) {
    let k = a.cols();
    let m = b.cols();
    let (a_data, b_data) = (a.as_slice(), b.as_slice());
    // Each MC-row block of `out` takes `b` in k-panels, reused across the
    // block's rows while cache-hot; within a panel each row accumulates
    // its block in registers. The per-element zero skip from the
    // original kernel stays — CO-VV gradients are full of zeros.
    for (block, out_block) in out.as_mut_slice().chunks_mut(MC * m).enumerate() {
        let r0 = block * MC;
        for kb in (0..k).step_by(KC) {
            let k_end = (kb + KC).min(k);
            let panel = &b_data[kb * m..k_end * m];
            for (i, out_row) in out_block.chunks_exact_mut(m).enumerate() {
                let a_row = &a_data[(r0 + i) * k + kb..(r0 + i) * k + k_end];
                let terms = a_row
                    .iter()
                    .zip(panel.chunks_exact(m))
                    .filter(|&(&av, _)| av != 0.0)
                    .map(|(&av, b_row)| (av, &b_row[c0..c0 + w]));
                axpy_terms::<G>(&mut out_row[c0..c0 + w], terms);
            }
        }
    }
}

/// `a (n×k) · bᵀ` where `b` is `(m×k)` — the PyTorch `x @ W.T` used in
/// `nn.Linear.forward` with `W` stored as `(out_features, in_features)` —
/// into a caller-provided output (resized, overwritten).
///
/// Vectorised across outputs, not along `k`: each `BT_KC`-deep k-panel
/// of `b` is transposed into a buffer on the stack, and every row of `a`
/// runs [`matmul_into`]'s loop over it, with no zero skip. Each output
/// still adds its products in `k` order onto `+0.0`, so it has the bits
/// of the plain dot product — which is what fewer than `BT_MIN_ROWS`
/// rows run instead, since they cannot pay for the transpose.
pub fn matmul_bt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    dispatch!(matmul_bt_into_body(a, b, out))
}

#[inline(always)]
fn matmul_bt_into_body(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.cols(), "matmul_bt inner dimension mismatch");
    out.resize(a.rows(), b.rows());
    if a.rows() < BT_MIN_ROWS {
        matmul_bt_dots(a, b, out);
        return;
    }
    out.as_mut_slice().fill(0.0);
    for block in lane_blocks(b.rows()) {
        by_groups!(block.1, matmul_bt_block(a, b, out, block));
    }
}

/// [`matmul_bt_into`] on the row block `(c0, w)` of every output row:
/// outputs `c0..c0 + w` are rows `c0..c0 + w` of `b`.
#[inline(always)]
fn matmul_bt_block<const G: usize>(
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    (c0, w): (usize, usize),
) {
    let k = a.cols();
    let m = b.rows();
    let mut panel = [0.0f32; BT_KC * LANES];
    for kb in (0..k).step_by(BT_KC) {
        let depth = (k - kb).min(BT_KC);
        let panel = &mut panel[..depth * w];
        for (i, b_row) in b.as_slice()[c0 * k..].chunks_exact(k).take(w).enumerate() {
            for (kk, &bv) in b_row[kb..kb + depth].iter().enumerate() {
                panel[kk * w + i] = bv;
            }
        }
        for (r, out_row) in out.as_mut_slice().chunks_exact_mut(m).enumerate() {
            let terms = a.row(r)[kb..kb + depth]
                .iter()
                .copied()
                .zip(panel.chunks_exact(w));
            axpy_terms::<G>(&mut out_row[c0..c0 + w], terms);
        }
    }
}

/// [`matmul_bt_into`] on fewer than `BT_MIN_ROWS` rows — a single task's
/// prediction — as dot products: `NR` outputs share each pass over the
/// row of `a`, in `NR` scalar accumulators. Each output adds its
/// products in `k` order onto `+0.0`, as the panel loop does.
#[inline(always)]
fn matmul_bt_dots(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let k = a.cols();
    let m = b.rows();
    let b_data = b.as_slice();
    for r in 0..a.rows() {
        let a_row = a.row(r);
        let out_row = &mut out.as_mut_slice()[r * m..(r + 1) * m];
        let mut c = 0;
        while c + NR <= m {
            let b0 = &b_data[c * k..(c + 1) * k];
            let b1 = &b_data[(c + 1) * k..(c + 2) * k];
            let b2 = &b_data[(c + 2) * k..(c + 3) * k];
            let b3 = &b_data[(c + 3) * k..(c + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for kk in 0..k {
                let av = a_row[kk];
                s0 += av * b0[kk];
                s1 += av * b1[kk];
                s2 += av * b2[kk];
                s3 += av * b3[kk];
            }
            out_row[c..c + NR].copy_from_slice(&[s0, s1, s2, s3]);
            c += NR;
        }
        for (tail, o) in out_row[c..].iter_mut().enumerate() {
            let b_row = &b_data[(c + tail) * k..(c + tail + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &w) in a_row.iter().zip(b_row) {
                acc += x * w;
            }
            *o = acc;
        }
    }
}

/// `out (k×m) += aᵀ (k×n) · b (n×m)` without materialising the
/// transpose, with `out` pre-shaped `(a.cols × b.cols)` — the
/// weight-gradient product `grad_W += grad_outᵀ · x` for dense inputs:
/// layers add straight onto `grad_weight` with no temporary.
///
/// Each row of `out` (a column of `a`) accumulates a row block in
/// registers over every sample, in sample order, and is written once per
/// block instead of once per sample.
///
/// # Panics
/// Panics on sample-count or output-shape mismatch.
pub fn matmul_at_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    dispatch!(matmul_at_acc_body(a, b, out))
}

#[inline(always)]
fn matmul_at_acc_body(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.rows(), b.rows(), "matmul_at sample-count mismatch");
    assert_eq!(
        out.shape(),
        (a.cols(), b.cols()),
        "matmul_at_acc output shape mismatch"
    );
    for block in lane_blocks(b.cols()) {
        by_groups!(block.1, matmul_at_block(a, b, out, block));
    }
}

/// [`matmul_at_acc`] on the row block `(c0, w)` of every output row.
#[inline(always)]
fn matmul_at_block<const G: usize>(
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    (c0, w): (usize, usize),
) {
    let k = a.cols();
    let m = b.cols();
    let (a_data, b_data) = (a.as_slice(), b.as_slice());
    for (j, out_row) in out.as_mut_slice().chunks_exact_mut(m).enumerate() {
        let terms = a_data
            .iter()
            .skip(j)
            .step_by(k)
            .zip(b_data.chunks_exact(m))
            .filter(|&(&av, _)| av != 0.0)
            .map(|(&av, b_row)| (av, &b_row[c0..c0 + w]));
        axpy_terms::<G>(&mut out_row[c0..c0 + w], terms);
    }
}

/// Blocked transpose: `a (n×m) → out (m×n)` via `TILE×TILE` tiles so both
/// the read and the write side stay within a cache-line-friendly window.
pub fn transpose_into(a: &Matrix, out: &mut Matrix) {
    let (n, m) = a.shape();
    out.resize(m, n);
    transpose_slice(a.as_slice(), n, m, out.as_mut_slice());
}

/// [`transpose_into`] over flat row-major slices: `a (n×m) → out (m×n)`,
/// written into storage the caller already owns — the form the state-dict
/// boundary of `ctlm_nn::Net` uses, where one side is a tensor payload
/// rather than a [`Matrix`].
///
/// # Panics
/// Panics unless both slices hold `n · m` elements.
pub fn transpose_slice(a_data: &[f32], n: usize, m: usize, out_data: &mut [f32]) {
    assert_eq!(a_data.len(), n * m, "transpose source length mismatch");
    assert_eq!(out_data.len(), n * m, "transpose output length mismatch");
    for rb in (0..n).step_by(TILE) {
        let r_end = (rb + TILE).min(n);
        for cb in (0..m).step_by(TILE) {
            let c_end = (cb + TILE).min(m);
            for r in rb..r_end {
                for c in cb..c_end {
                    out_data[c * n + r] = a_data[r * m + c];
                }
            }
        }
    }
}

/// Sparse × dense-transposed product: `x (n×d, CSR) · Wᵀ` with
/// `W (out×d)`, into a caller-provided output (resized, overwritten);
/// cost is `O(nnz · out)` rather than `O(n · d · out)`.
///
/// `NR` output neurons share each pass over the row's nonzeros, turning
/// the hot loop into `NR` independent gathers per stored entry.
///
/// No layer calls this any more: `ctlm_nn` keeps its sparse input layer
/// input-major and runs [`csr_matmul_into`], which produces the same bits
/// from contiguous loads. The kernel stays public until the next benchmark
/// re-anchor because `benchmark/src/probes.rs` times it, and as the
/// reference `tests/kernel_properties.rs` pins the input-major kernel to.
pub fn csr_matmul_bt_into(x: &Csr, w: &Matrix, out: &mut Matrix) {
    assert_eq!(x.cols(), w.cols(), "csr_matmul_bt inner dimension mismatch");
    let n = x.rows();
    let d = w.cols();
    let out_f = w.rows();
    out.resize(n, out_f);
    let w_data = w.as_slice();
    let body = |(r, out_row): (usize, &mut [f32])| {
        let mut o = 0;
        while o + NR <= out_f {
            let w0 = &w_data[o * d..(o + 1) * d];
            let w1 = &w_data[(o + 1) * d..(o + 2) * d];
            let w2 = &w_data[(o + 2) * d..(o + 3) * d];
            let w3 = &w_data[(o + 3) * d..(o + 4) * d];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (j, v) in x.row_entries(r) {
                s0 += v * w0[j];
                s1 += v * w1[j];
                s2 += v * w2[j];
                s3 += v * w3[j];
            }
            out_row[o] = s0;
            out_row[o + 1] = s1;
            out_row[o + 2] = s2;
            out_row[o + 3] = s3;
            o += NR;
        }
        for oo in o..out_f {
            let w_row = &w_data[oo * d..(oo + 1) * d];
            out_row[oo] = x.row_entries(r).map(|(j, v)| v * w_row[j]).sum();
        }
    };
    for (r, out_row) in out.as_mut_slice().chunks_mut(out_f).enumerate() {
        body((r, out_row));
    }
}

/// Sparse weight-gradient product, accumulating:
/// `gw (out×d) += grad_outᵀ (out×n) · x (n×d, CSR)` with `gw` pre-shaped
/// `(grad_out.cols × x.cols)`, one `grad_W` row per output neuron.
///
/// Like [`csr_matmul_bt_into`], retained only as the bit-for-bit
/// reference of its input-major successor, [`csr_matmul_at_acc`].
///
/// # Panics
/// Panics on sample-count or output-shape mismatch.
pub fn csr_grad_weight_acc(grad_out: &Matrix, x: &Csr, gw: &mut Matrix) {
    assert_eq!(
        grad_out.rows(),
        x.rows(),
        "csr_grad_weight sample-count mismatch"
    );
    assert_eq!(
        gw.shape(),
        (grad_out.cols(), x.cols()),
        "csr_grad_weight_acc output shape mismatch"
    );
    let d = x.cols();
    let n = x.rows();
    let body = |(o, gw_row): (usize, &mut [f32])| {
        for r in 0..n {
            let g = grad_out.get(r, o);
            if g != 0.0 {
                for (j, v) in x.row_entries(r) {
                    gw_row[j] += g * v;
                }
            }
        }
    };
    for (o, gw_row) in gw.as_mut_slice().chunks_mut(d).enumerate() {
        body((o, gw_row));
    }
}

/// Sparse × dense product with the weight stored input-major:
/// `x (n×d, CSR) · w (d×out) → (n×out)` — the forward pass of
/// `ctlm_nn`'s sparse input layer. Every stored entry reads one
/// contiguous `out`-wide weight row instead of `out` loads at stride `d`.
///
/// Each pass over a row's stored entries accumulates a row block in
/// registers and writes it once: one pass per 32 outputs.
///
/// Bit-identical to [`csr_matmul_bt_into`] on the transposed weight:
/// each output element still receives its row's products in stored-entry
/// order, starting from that kernel's zero.
pub fn csr_matmul_into(x: &Csr, w: &Matrix, out: &mut Matrix) {
    dispatch!(csr_matmul_into_body(x, w, out))
}

#[inline(always)]
fn csr_matmul_into_body(x: &Csr, w: &Matrix, out: &mut Matrix) {
    assert_eq!(x.cols(), w.rows(), "csr_matmul inner dimension mismatch");
    out.resize(x.rows(), w.cols());
    for block in lane_blocks(w.cols()) {
        by_groups!(block.1, csr_matmul_block(x, w, out, block));
    }
}

/// [`csr_matmul_into`] on the row block `(c0, width)` of every output
/// row.
#[inline(always)]
fn csr_matmul_block<const G: usize>(
    x: &Csr,
    w: &Matrix,
    out: &mut Matrix,
    (c0, width): (usize, usize),
) {
    let out_f = w.cols();
    let w_block = &w.as_slice()[c0..];
    // The `(out × d)` kernel sums its `out % NR` tail columns with
    // `Iterator::sum`, whose identity is -0.0; its tiled columns start at
    // +0.0. Starting each column from the same zero keeps rows without
    // stored entries equal in sign as well as value.
    let tiled = out_f - out_f % NR;
    let mut zero = [0.0f32; LANES];
    for (lane, z) in zero[..width].iter_mut().enumerate() {
        if c0 + lane >= tiled {
            *z = -0.0;
        }
    }
    for (r, out_row) in out.as_mut_slice().chunks_exact_mut(out_f).enumerate() {
        let lanes = &mut out_row[c0..c0 + width];
        lanes.copy_from_slice(&zero[..width]);
        let terms = x
            .row_entries(r)
            .map(|(j, v)| (v, &w_block[j * out_f..][..width]));
        axpy_terms::<G>(lanes, terms);
    }
}

/// Accumulating transposed-sparse × dense product:
/// `out (d×m) += xᵀ (d×n, CSR) · g (n×m)` — the input-major weight
/// gradient of the sparse input layer (`g` is `dL/d(output)`). Every
/// stored entry updates one contiguous row block of `out`, while the
/// sample's gradient block stays in registers across the sample's stored
/// entries.
///
/// Bit-identical to [`csr_grad_weight_acc`] on the transposed gradient:
/// each element accumulates over samples in row order, then stored-entry
/// order, and exact zeros in `g` add nothing — so a sample whose gradient
/// block is all zeros is skipped whole.
///
/// # Panics
/// Panics on sample-count or output-shape mismatch.
pub fn csr_matmul_at_acc(x: &Csr, g: &Matrix, out: &mut Matrix) {
    dispatch!(csr_matmul_at_acc_body(x, g, out))
}

#[inline(always)]
fn csr_matmul_at_acc_body(x: &Csr, g: &Matrix, out: &mut Matrix) {
    assert_eq!(x.rows(), g.rows(), "csr_matmul_at sample-count mismatch");
    assert_eq!(
        out.shape(),
        (x.cols(), g.cols()),
        "csr_matmul_at_acc output shape mismatch"
    );
    for block in lane_blocks(g.cols()) {
        by_groups!(block.1, csr_matmul_at_block(x, g, out, block));
    }
}

/// [`csr_matmul_at_acc`] on the row block `(c0, w)` of every updated row.
#[inline(always)]
fn csr_matmul_at_block<const G: usize>(
    x: &Csr,
    g: &Matrix,
    out: &mut Matrix,
    (c0, w): (usize, usize),
) {
    let m = g.cols();
    let out_block = &mut out.as_mut_slice()[c0..];
    let starts = group_starts::<G>(w);
    for r in 0..x.rows() {
        let g_lanes = &g.row(r)[c0..c0 + w];
        // A zero gradient leaves its element untouched, as in the
        // `(out × d)` kernel (no `0 · inf`, no sign change): a select per
        // element, and a block of zeros is no work at all. The select
        // alone would be correct for every block, but real gradients
        // almost never hold an exact zero and the plain update costs half
        // as much (34 vs 70 µs per call, measured on the row-at-a-time
        // loops with 128 rows × 58 entries, 30 wide), so one scan of the
        // block picks it. The lab's retraining batches hold about 27 rows
        // with stored entries, about 260 each: 5–12 k entries per batch.
        let zeros = g_lanes.iter().filter(|&&gv| gv == 0.0).count();
        if zeros == w {
            continue;
        }
        let g = (g_lanes, &load_groups(g_lanes, &starts));
        // One loop per update, not a branch per entry: with the branch
        // inside, the compiler hoisted a lane both updates share out of
        // the vector code.
        if zeros > 0 {
            for (j, v) in x.row_entries(r) {
                let lanes = &mut out_block[j * m..][..w];
                update_groups(
                    lanes,
                    g,
                    &starts,
                    |o, gv| if gv != 0.0 { o + gv * v } else { o },
                );
            }
        } else {
            for (j, v) in x.row_entries(r) {
                let lanes = &mut out_block[j * m..][..w];
                update_groups(lanes, g, &starts, |o, gv| o + gv * v);
            }
        }
    }
}

/// Sparse matrix–vector product `x (n×d) · v (d) → (n)`.
pub fn csr_matvec(x: &Csr, v: &[f32]) -> Vec<f32> {
    assert_eq!(x.cols(), v.len(), "csr_matvec dimension mismatch");
    (0..x.rows())
        .map(|r| x.row_entries(r).map(|(j, xv)| xv * v[j]).sum())
        .collect()
}

/// Transposed sparse matrix–vector product `xᵀ (d×n) · u (n) → (d)`.
pub fn csr_tmatvec(x: &Csr, u: &[f32]) -> Vec<f32> {
    assert_eq!(x.rows(), u.len(), "csr_tmatvec dimension mismatch");
    let mut out = vec![0.0f32; x.cols()];
    for (r, &s) in u.iter().enumerate() {
        if s != 0.0 {
            for (j, v) in x.row_entries(r) {
                out[j] += s * v;
            }
        }
    }
    out
}

/// Adds `bias` (length m) to every row of `a (n×m)` in place.
pub fn add_bias(a: &mut Matrix, bias: &[f32]) {
    assert_eq!(a.cols(), bias.len(), "bias length mismatch");
    let m = a.cols();
    let body = |row: &mut [f32]| {
        for (v, &b) in row.iter_mut().zip(bias.iter()) {
            *v += b;
        }
    };
    for row in a.as_mut_slice().chunks_mut(m) {
        body(row);
    }
}

/// Accumulating column sums: `out[c] += Σ_r a[r][c]` — the bias gradient
/// `Σ_samples grad_out`. Allocation-free at every size (the Workspace hot
/// path). Below [`COL_SUMS_BLOCK_THRESHOLD`] rows each column sums in row
/// order; from it on each column adds one partial per `MC`-row block, in
/// block order. That association is pinned — trained weights, and so
/// every model-backed report, depend on its bits. The partials of a
/// 64-column strip live on the stack.
///
/// # Panics
/// Panics when `out.len() != a.cols()`.
pub fn col_sums_acc(a: &Matrix, out: &mut [f32]) {
    assert_eq!(out.len(), a.cols(), "col_sums output length mismatch");
    let (n, m) = a.shape();
    if m == 0 {
        return;
    }
    let data = a.as_slice();
    if n >= COL_SUMS_BLOCK_THRESHOLD {
        for (strip, out_strip) in out.chunks_mut(COL_STRIP).enumerate() {
            let c0 = strip * COL_STRIP;
            let w = out_strip.len();
            let mut partial = [0.0f32; COL_STRIP];
            let partial = &mut partial[..w];
            for block in data.chunks(MC * m) {
                partial.fill(0.0);
                for row in block.chunks_exact(m) {
                    let row = &row[c0..c0 + w];
                    for (p, &v) in partial.iter_mut().zip(row) {
                        *p += v;
                    }
                }
                for (o, &p) in out_strip.iter_mut().zip(partial.iter()) {
                    *o += p;
                }
            }
        }
    } else {
        for row in data.chunks_exact(m) {
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
    }
}

/// Below this, `x − max` gives a subnormal or zero `exp` on any IEEE
/// host: `ln(f32::MIN_POSITIVE) ≈ −87.3365`, and the margin covers a libm
/// that is off by an ulp or two.
const EXP_UNDERFLOW: f32 = -87.5;

/// `v`, or `+0.0` when `v` is subnormal or a zero of either sign: the
/// rule by which [`softmax_rows_inplace`] and `ctlm_nn`'s loss keep
/// subnormals out of a training step.
#[inline(always)]
pub fn flush_subnormal(v: f32) -> f32 {
    if v.abs() < f32::MIN_POSITIVE {
        0.0
    } else {
        v
    }
}

/// In-place row-wise softmax, numerically stabilised by max subtraction —
/// the allocation-free path `CrossEntropyLoss` uses on workspace buffers.
///
/// No subnormal leaves it: a numerator `exp(x − max)` below
/// `f32::MIN_POSITIVE` is stored as `+0.0`, and so is a normalised
/// probability below it. `exp` is not called where `x − max` is below
/// −87.5, where its result cannot reach `MIN_POSITIVE`. The row sum is
/// the one without the flush whenever the row's maximum is finite: a
/// subnormal moves a partial sum only while that sum is below 2⁻¹⁰²,
/// which the maximum's numerator, 1.0, then rounds away, and it cannot
/// move a sum of at least 1.0. So every output is the unflushed one, or
/// `+0.0` where that is subnormal. [`naive::softmax_rows`] keeps the
/// unflushed arithmetic as the reference.
pub fn softmax_rows_inplace(logits: &mut Matrix) {
    let m = logits.cols();
    let body = |row: &mut [f32]| {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            let d = *v - max;
            *v = if d < EXP_UNDERFLOW {
                0.0
            } else {
                flush_subnormal(d.exp())
            };
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v = flush_subnormal(*v * inv);
        }
    };
    for row in logits.as_mut_slice().chunks_mut(m) {
        body(row);
    }
}

/// The scalars of one [`adam_update`] step, shared by every element.
#[derive(Clone, Copy, Debug)]
pub struct AdamCoeffs {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Denominator guard ε.
    pub eps: f32,
    /// First-moment bias correction `1 − β₁ᵗ`.
    pub bias1: f32,
    /// Second-moment bias correction `1 − β₂ᵗ`.
    pub bias2: f32,
}

/// One Adam update of a parameter tensor `w` from its gradient `g`,
/// with first and second moments `m` and `v` (updated in place), in
/// `torch.optim.Adam`'s arithmetic: three divisions and a square root
/// per element, each lane the same IEEE operations in either build.
///
/// # Panics
/// Panics unless all four slices have the same length.
pub fn adam_update(w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], c: AdamCoeffs) {
    dispatch!(adam_update_body(w, g, m, v, c))
}

#[inline(always)]
fn adam_update_body(w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], c: AdamCoeffs) {
    let n = w.len();
    assert!(
        g.len() == n && m.len() == n && v.len() == n,
        "adam_update length mismatch"
    );
    let AdamCoeffs {
        lr,
        beta1: b1,
        beta2: b2,
        eps,
        bias1,
        bias2,
    } = c;
    let moments = m.iter_mut().zip(v.iter_mut());
    for ((w, &g), (m, v)) in w.iter_mut().zip(g).zip(moments) {
        *m = b1 * *m + (1.0 - b1) * g;
        *v = b2 * *v + (1.0 - b2) * g * g;
        let m_hat = *m / bias1;
        let v_hat = *v / bias2;
        *w -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

pub mod naive {
    //! Pre-optimization reference kernels.
    //!
    //! Retained on purpose: the property tests pin every blocked kernel
    //! to these within 1e-5, and the criterion benches measure both sides
    //! in the same run. Textbook loops over `get()`, no blocking.

    use crate::dense::Matrix;
    use crate::sparse::Csr;

    /// Reference dense GEMM.
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for c in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(r, k) * b.get(k, c);
                }
                out.set(r, c, acc);
            }
        }
        out
    }

    /// Reference `a · bᵀ`.
    pub fn matmul_bt(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "matmul_bt inner dimension mismatch");
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for r in 0..a.rows() {
            for c in 0..b.rows() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(r, k) * b.get(c, k);
                }
                out.set(r, c, acc);
            }
        }
        out
    }

    /// Reference `aᵀ · b`.
    pub fn matmul_at(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "matmul_at sample-count mismatch");
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for c in 0..a.cols() {
            for m in 0..b.cols() {
                let mut acc = 0.0;
                for r in 0..a.rows() {
                    acc += a.get(r, c) * b.get(r, m);
                }
                out.set(c, m, acc);
            }
        }
        out
    }

    /// Reference transpose.
    pub fn transpose(a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), a.rows());
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                out.set(c, r, a.get(r, c));
            }
        }
        out
    }

    /// Reference sparse × dense-transposed product.
    pub fn csr_matmul_bt(x: &Csr, w: &Matrix) -> Matrix {
        assert_eq!(x.cols(), w.cols(), "csr_matmul_bt inner dimension mismatch");
        let mut out = Matrix::zeros(x.rows(), w.rows());
        for r in 0..x.rows() {
            for o in 0..w.rows() {
                let mut acc = 0.0;
                for (j, v) in x.row_entries(r) {
                    acc += v * w.get(o, j);
                }
                out.set(r, o, acc);
            }
        }
        out
    }

    /// Reference sparse weight gradient.
    pub fn csr_grad_weight(grad_out: &Matrix, x: &Csr) -> Matrix {
        assert_eq!(
            grad_out.rows(),
            x.rows(),
            "csr_grad_weight sample-count mismatch"
        );
        let mut gw = Matrix::zeros(grad_out.cols(), x.cols());
        for o in 0..grad_out.cols() {
            for r in 0..x.rows() {
                let g = grad_out.get(r, o);
                for (j, v) in x.row_entries(r) {
                    gw.set(o, j, gw.get(o, j) + g * v);
                }
            }
        }
        gw
    }

    /// Reference column sums.
    pub fn col_sums(a: &Matrix) -> Vec<f32> {
        let mut out = vec![0.0f32; a.cols()];
        for r in 0..a.rows() {
            for (o, &v) in out.iter_mut().zip(a.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Reference row softmax.
    pub fn softmax_rows(logits: &Matrix) -> Matrix {
        let mut out = logits.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrBuilder;

    // The kernels under test write into (or accumulate onto) a caller's
    // buffer; these give each a fresh one.
    fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        matmul_into(a, b, &mut out);
        out
    }
    fn matmul_bt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        matmul_bt_into(a, b, &mut out);
        out
    }
    fn matmul_at(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        matmul_at_acc(a, b, &mut out);
        out
    }
    fn col_sums(a: &Matrix) -> Vec<f32> {
        let mut out = vec![0.0; a.cols()];
        col_sums_acc(a, &mut out);
        out
    }
    fn softmax_rows(logits: &Matrix) -> Matrix {
        let mut out = logits.clone();
        softmax_rows_inplace(&mut out);
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Matrix::from_fn(7, 5, |r, c| (r as f32 - c as f32) * 0.5);
        let b = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32 * 0.25);
        assert!(matmul(&a, &b).max_abs_diff(&naive::matmul(&a, &b)) < 1e-4);
    }

    #[test]
    fn matmul_over_several_row_blocks_matches_naive() {
        let a = Matrix::from_fn(130, 9, |r, c| ((r * 7 + c) % 11) as f32 - 5.0);
        let b = Matrix::from_fn(9, 4, |r, c| ((r + c) % 3) as f32);
        assert!(matmul(&a, &b).max_abs_diff(&naive::matmul(&a, &b)) < 1e-4);
    }

    #[test]
    fn matmul_blocked_k_panels_match_naive() {
        // k straddles KC so multiple panels execute.
        let a = Matrix::from_fn(5, 2 * super::KC + 17, |r, c| {
            ((r * 13 + c) % 7) as f32 - 3.0
        });
        let b = Matrix::from_fn(2 * super::KC + 17, 6, |r, c| ((r + 2 * c) % 5) as f32 * 0.5);
        assert!(matmul(&a, &b).max_abs_diff(&naive::matmul(&a, &b)) < 1e-2);
    }

    #[test]
    fn matmul_bt_equals_matmul_with_transpose() {
        let a = Matrix::from_fn(6, 4, |r, c| (r + 2 * c) as f32);
        let w = Matrix::from_fn(3, 4, |r, c| (r as f32 + 1.0) * (c as f32 - 1.5));
        assert!(matmul_bt(&a, &w).max_abs_diff(&matmul(&a, &w.transpose())) < 1e-4);
    }

    #[test]
    fn matmul_bt_microkernel_tail_matches_naive() {
        // m not divisible by NR exercises the scalar tail.
        for m in 1..=9 {
            let a = Matrix::from_fn(3, 11, |r, c| ((r * 5 + c) % 7) as f32 - 2.0);
            let b = Matrix::from_fn(m, 11, |r, c| ((r * 3 + c) % 5) as f32 * 0.5);
            assert!(matmul_bt(&a, &b).max_abs_diff(&naive::matmul_bt(&a, &b)) < 1e-4);
        }
    }

    /// `matmul_bt_into` skips no zero operand: `0 · inf` is NaN, as in
    /// the plain dot product, on both of its paths and at every group
    /// count.
    #[test]
    fn matmul_bt_zero_times_infinity_is_nan() {
        for (n, m) in [(2, 3), (5, 3), (2, 26), (5, 8), (5, 26), (5, 30), (5, 33)] {
            let a = Matrix::from_fn(n, 5, |r, c| if c == 1 { 0.0 } else { (r + c) as f32 });
            let mut b = Matrix::from_fn(m, 5, |r, c| (r * 5 + c) as f32 * 0.25);
            b.set(m - 1, 1, f32::INFINITY);
            let got = matmul_bt(&a, &b);
            let want = naive::matmul_bt(&a, &b);
            for r in 0..n {
                assert!(got.get(r, m - 1).is_nan(), "{n} × {m}, row {r}");
                assert_eq!(got.get(r, 0).to_bits(), want.get(r, 0).to_bits());
            }
        }
    }

    #[test]
    fn matmul_at_equals_transpose_then_matmul() {
        let a = Matrix::from_fn(8, 3, |r, c| ((r * c) % 5) as f32 - 2.0);
        let b = Matrix::from_fn(8, 6, |r, c| ((r + c) % 4) as f32);
        assert!(matmul_at(&a, &b).max_abs_diff(&matmul(&a.transpose(), &b)) < 1e-4);
    }

    #[test]
    fn matmul_at_acc_accumulates() {
        let a = Matrix::from_fn(4, 3, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(4, 2, |r, c| (r as f32) - (c as f32));
        let mut acc = naive::matmul_at(&a, &b);
        matmul_at_acc(&a, &b, &mut acc);
        let mut twice = naive::matmul_at(&a, &b);
        twice.scale(2.0);
        assert!(acc.max_abs_diff(&twice) < 1e-4);
    }

    #[test]
    fn transpose_into_matches_naive_off_tile_sizes() {
        for (n, m) in [(1, 1), (3, 70), (33, 31), (64, 65)] {
            let a = Matrix::from_fn(n, m, |r, c| (r * m + c) as f32);
            let mut out = Matrix::zeros(0, 0);
            transpose_into(&a, &mut out);
            assert_eq!(out, naive::transpose(&a));
        }
    }

    #[test]
    fn csr_matmul_bt_matches_dense() {
        let mut b = CsrBuilder::new(10);
        for r in 0..9 {
            b.push_row([(r % 10, 1.0), ((r * 3 + 1) % 10, 0.5)]);
        }
        let x = b.finish();
        let w = Matrix::from_fn(4, 10, |r, c| (r as f32 + 1.0) * 0.1 * (c as f32 - 4.0));
        let mut sparse_out = Matrix::zeros(0, 0);
        csr_matmul_bt_into(&x, &w, &mut sparse_out);
        let dense_out = matmul_bt(&x.to_dense(), &w);
        assert!(sparse_out.max_abs_diff(&dense_out) < 1e-4);
    }

    #[test]
    fn csr_grad_weight_matches_dense() {
        let mut b = CsrBuilder::new(12);
        for r in 0..20 {
            b.push_row([((r * 5) % 12, 1.0)]);
        }
        let x = b.finish();
        let go = Matrix::from_fn(20, 3, |r, c| ((r + c) % 7) as f32 * 0.3 - 0.9);
        let mut sparse_gw = Matrix::zeros(3, 12);
        csr_grad_weight_acc(&go, &x, &mut sparse_gw);
        let dense_gw = matmul_at(&go, &x.to_dense());
        assert!(sparse_gw.max_abs_diff(&dense_gw) < 1e-4);
    }

    #[test]
    fn csr_matvec_matches_dense() {
        let mut b = CsrBuilder::new(6);
        b.push_row([(0, 1.0), (5, 2.0)]);
        b.push_row([(3, -1.0)]);
        let x = b.finish();
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let got = csr_matvec(&x, &v);
        assert_eq!(got, vec![13.0, -4.0]);
    }

    #[test]
    fn csr_tmatvec_matches_dense_transpose() {
        let mut b = CsrBuilder::new(4);
        b.push_row([(0, 1.0), (2, 1.0)]);
        b.push_row([(2, 3.0)]);
        b.push_row([(3, -2.0)]);
        let x = b.finish();
        let u = [1.0, 2.0, 0.5];
        let got = csr_tmatvec(&x, &u);
        // column sums: col0: 1*1, col1: 0, col2: 1*1+3*2, col3: -2*0.5
        assert_eq!(got, vec![1.0, 0.0, 7.0, -1.0]);
    }

    #[test]
    fn csr_matvec_tmatvec_adjoint_identity() {
        // <Xv, u> == <v, Xᵀu> — the property CG relies on.
        let mut b = CsrBuilder::new(5);
        for r in 0..7 {
            b.push_row([((r * 2) % 5, 1.0), ((r + 3) % 5, 0.5)]);
        }
        let x = b.finish();
        let v: Vec<f32> = (0..5).map(|i| i as f32 - 2.0).collect();
        let u: Vec<f32> = (0..7).map(|i| (i as f32) * 0.3).collect();
        let xv = csr_matvec(&x, &v);
        let xtu = csr_tmatvec(&x, &u);
        let lhs: f32 = xv.iter().zip(u.iter()).map(|(a, b)| a * b).sum();
        let rhs: f32 = v.iter().zip(xtu.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn add_bias_adds_rowwise() {
        let mut a = Matrix::zeros(2, 3);
        add_bias(&mut a, &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn col_sums_matches_manual() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(col_sums(&a), vec![4.0, 6.0]);
    }

    #[test]
    fn col_sums_blocked_reduction_matches_naive() {
        let a = Matrix::from_fn(3 * COL_SUMS_BLOCK_THRESHOLD + 7, 5, |r, c| {
            ((r * 3 + c) % 13) as f32 - 6.0
        });
        let blocked = col_sums(&a);
        let reference = naive::col_sums(&a);
        for (b, n) in blocked.iter().zip(reference.iter()) {
            assert!((b - n).abs() < 1e-3, "{b} vs {n}");
        }
    }

    /// Above the threshold the association is pinned: per column, one
    /// partial per `MC`-row block (summed from 0.0 in row order), added
    /// onto `out` in block order. Trained weights depend on these bits.
    #[test]
    fn col_sums_adds_block_partials_in_block_order() {
        let (n, m) = (3 * COL_SUMS_BLOCK_THRESHOLD + 7, 5);
        let a = Matrix::from_fn(n, m, |r, c| (r as f32 * 0.37 + c as f32).sin() * 1e3);
        let mut out = vec![0.25f32; m];
        col_sums_acc(&a, &mut out);
        for (c, &got) in out.iter().enumerate() {
            let mut want = 0.25f32;
            for b in 0..n.div_ceil(MC) {
                let mut partial = 0.0f32;
                for r in b * MC..((b + 1) * MC).min(n) {
                    partial += a.get(r, c);
                }
                want += partial;
            }
            assert_eq!(got.to_bits(), want.to_bits(), "column {c}");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, -1.0, -1.0]);
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(p.get(0, 2) > p.get(0, 1));
        assert!((p.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![101.0, 102.0, 103.0]);
        assert!(softmax_rows(&a).max_abs_diff(&softmax_rows(&b)) < 1e-5);
    }

    #[test]
    fn into_variants_reuse_buffers_across_shapes() {
        // A single output buffer serves differently-shaped products.
        let mut out = Matrix::zeros(9, 9);
        let a = Matrix::from_fn(4, 6, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(6, 3, |r, c| (r as f32) * 0.5 - (c as f32));
        matmul_into(&a, &b, &mut out);
        assert_eq!(out.shape(), (4, 3));
        assert!(out.max_abs_diff(&naive::matmul(&a, &b)) < 1e-4);
        let w = Matrix::from_fn(5, 6, |r, c| ((r * c) % 3) as f32);
        matmul_bt_into(&a, &w, &mut out);
        assert_eq!(out.shape(), (4, 5));
        assert!(out.max_abs_diff(&naive::matmul_bt(&a, &w)) < 1e-4);
    }

    /// Output widths at every group-count edge — below one group, one
    /// to four whole or overlapping `GROUP` = 8 lane groups — and across
    /// the `LANES` = 32 row block, once and twice, including the last
    /// blocks narrower than a group that borrow lanes from the block
    /// before.
    const WIDTHS: [usize; 21] = [
        1, 7, 8, 9, 16, 17, 24, 25, 26, 29, 30, 31, 32, 33, 64, 65, 66, 67, 68, 69, 70,
    ];

    fn bits(m: &[f32]) -> Vec<u32> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    /// `tests/kernel_properties.rs`' fill, plus `-0.0`: exact zeros of
    /// both signs sprinkled among values of either sign.
    fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let h = (r as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add((c as u64).wrapping_mul(0x85EB_CA6B))
                .wrapping_add(seed.wrapping_mul(0xC2B2_AE35));
            let h = (h ^ (h >> 13)).wrapping_mul(0x27D4_EB2F);
            match h % 7 {
                0 => 0.0,
                1 => -0.0,
                _ => ((h % 2000) as f32 - 1000.0) / 503.0,
            }
        })
    }

    /// Rows of zero to four stored entries; the last row stores the last
    /// column, so the forward reads the last weight row (the padded path).
    fn sparse(rows: usize, cols: usize, seed: u64) -> Csr {
        let mut b = CsrBuilder::new(cols);
        for r in 0..rows {
            let nnz = ((r as u64 + seed) % 5) as usize;
            let mut entries: Vec<(usize, f32)> = (0..nnz)
                .map(|k| {
                    (
                        (r * 31 + k * 7 + seed as usize) % cols,
                        (k + r) as f32 * 0.5 - 1.0,
                    )
                })
                .collect();
            if r + 1 == rows {
                entries.push((cols - 1, 1.5));
            }
            entries.sort_by_key(|&(c, _)| c);
            entries.dedup_by_key(|e| e.0);
            b.push_row(entries);
        }
        b.finish()
    }

    /// A gradient with an all-zero row (both signs) and a row zero in
    /// all but one column among rows of mixed zeros.
    fn gradient(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut g = dense(rows, cols, seed);
        for c in 0..cols {
            g.set(0, c, if c % 2 == 0 { 0.0 } else { -0.0 });
            if rows > 2 && c != cols / 2 {
                g.set(2, c, 0.0);
            }
        }
        g
    }

    /// The AVX2 build of each dispatched kernel against its portable
    /// build, bit for bit. The `ctlm-nn` tests and the end-to-end goldens
    /// run whichever the host picks; this runs both on the same inputs.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_builds_equal_portable_builds_bit_for_bit() {
        if !std::is_x86_feature_detected!("avx2") {
            return;
        }
        for &w in &WIDTHS {
            for (n, d, seed) in [(1, 1, 0), (5, 3, 1), (40, 57, 2)] {
                let x = sparse(n, d, seed);
                let weight = dense(d, w, seed ^ 1);
                let (mut portable, mut avx) = (Matrix::zeros(0, 0), dense(2, 3, 9));
                csr_matmul_into_body(&x, &weight, &mut portable);
                // SAFETY: AVX2 was detected at the top of this test.
                unsafe { avx2::csr_matmul_into_body(&x, &weight, &mut avx) };
                assert_eq!(
                    bits(avx.as_slice()),
                    bits(portable.as_slice()),
                    "csr_matmul_into {n}×{d}·{w}"
                );

                let g = gradient(n, w, seed ^ 2);
                let mut portable = dense(d, w, seed ^ 3);
                let mut avx = portable.clone();
                for _ in 0..2 {
                    csr_matmul_at_acc_body(&x, &g, &mut portable);
                    // SAFETY: AVX2 was detected at the top of this test.
                    unsafe { avx2::csr_matmul_at_acc_body(&x, &g, &mut avx) };
                }
                assert_eq!(
                    bits(avx.as_slice()),
                    bits(portable.as_slice()),
                    "csr_matmul_at_acc {n}×{d}·{w}"
                );

                let a = gradient(n, d, seed ^ 4);
                let (mut portable, mut avx) = (Matrix::zeros(0, 0), dense(2, 3, 9));
                matmul_into_body(&a, &weight, &mut portable);
                // SAFETY: AVX2 was detected at the top of this test.
                unsafe { avx2::matmul_into_body(&a, &weight, &mut avx) };
                assert_eq!(
                    bits(avx.as_slice()),
                    bits(portable.as_slice()),
                    "matmul_into {n}×{d}·{w}"
                );

                let b = dense(w, d, seed ^ 7);
                let (mut portable, mut avx) = (Matrix::zeros(0, 0), dense(2, 3, 9));
                matmul_bt_into_body(&a, &b, &mut portable);
                // SAFETY: AVX2 was detected at the top of this test.
                unsafe { avx2::matmul_bt_into_body(&a, &b, &mut avx) };
                assert_eq!(
                    bits(avx.as_slice()),
                    bits(portable.as_slice()),
                    "matmul_bt_into {n}×{d}·({w}×{d})ᵀ"
                );

                let mut portable = dense(d, w, seed ^ 5);
                let mut avx = portable.clone();
                matmul_at_acc_body(&a, &g, &mut portable);
                // SAFETY: AVX2 was detected at the top of this test.
                unsafe { avx2::matmul_at_acc_body(&a, &g, &mut avx) };
                assert_eq!(
                    bits(avx.as_slice()),
                    bits(portable.as_slice()),
                    "matmul_at_acc {n}×{d}·{w}"
                );
            }

            let len = w * 37;
            let grad = dense(1, len, 6).into_vec();
            // Weights, first moments, second moments (non-negative).
            let mut portable = [
                dense(1, len, 7).into_vec(),
                dense(1, len, 8).into_vec(),
                (0..len).map(|i| (i % 13) as f32 * 1e-3).collect::<Vec<_>>(),
            ];
            let mut avx = portable.clone();
            for t in 1..=3 {
                let c = AdamCoeffs {
                    lr: 0.05,
                    beta1: 0.9,
                    beta2: 0.999,
                    eps: 1e-8,
                    bias1: 1.0 - 0.9f32.powi(t),
                    bias2: 1.0 - 0.999f32.powi(t),
                };
                let [w, m, v] = &mut portable;
                adam_update_body(w, &grad, m, v, c);
                let [w, m, v] = &mut avx;
                // SAFETY: AVX2 was detected at the top of this test.
                unsafe { avx2::adam_update_body(w, &grad, m, v, c) };
            }
            for (p, a) in portable.iter().zip(&avx) {
                assert_eq!(bits(a), bits(p), "adam_update ×{len}");
            }
        }
    }

    /// The dense kernels keep the association of the row-at-a-time loops
    /// they replaced: each element adds its products in `k` (or sample)
    /// order onto `+0.0` (or onto what `out` held), skipping exact zeros
    /// of `a` — except `matmul_bt_into`, which skips nothing.
    #[test]
    fn dense_register_blocks_sum_in_the_old_order() {
        for &w in &WIDTHS {
            for (n, k, seed) in [(1, 1, 0), (6, 3, 1), (70, 33, 2), (3, 2 * KC + 5, 3)] {
                let a = gradient(n, k, seed);
                let b = dense(k, w, seed ^ 1);
                let mut want = Matrix::zeros(n, w);
                for r in 0..n {
                    for kk in 0..k {
                        let av = a.get(r, kk);
                        if av != 0.0 {
                            for c in 0..w {
                                want.set(r, c, want.get(r, c) + av * b.get(kk, c));
                            }
                        }
                    }
                }
                assert_eq!(
                    bits(matmul(&a, &b).as_slice()),
                    bits(want.as_slice()),
                    "matmul_into {n}×{k}·{w}"
                );

                let bt = dense(w, k, seed ^ 4);
                let mut want = Matrix::zeros(n, w);
                for r in 0..n {
                    for c in 0..w {
                        for kk in 0..k {
                            want.set(r, c, want.get(r, c) + a.get(r, kk) * bt.get(c, kk));
                        }
                    }
                }
                assert_eq!(
                    bits(matmul_bt(&a, &bt).as_slice()),
                    bits(want.as_slice()),
                    "matmul_bt_into {n}×{k}·({w}×{k})ᵀ"
                );

                let x = dense(n, w, seed ^ 2);
                let mut got = dense(k, w, seed ^ 3);
                let mut want = got.clone();
                matmul_at_acc(&a, &x, &mut got);
                for r in 0..n {
                    for j in 0..k {
                        let av = a.get(r, j);
                        if av != 0.0 {
                            for c in 0..w {
                                want.set(j, c, want.get(j, c) + av * x.get(r, c));
                            }
                        }
                    }
                }
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "matmul_at_acc {n}×{k}·{w}"
                );
            }
        }
    }
}
