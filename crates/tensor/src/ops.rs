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
//! * **register microkernels** — dot-product kernels ([`matmul_bt_into`],
//!   [`csr_matmul_bt_into`]) and outer-product kernels
//!   ([`matmul_at_acc`]) keep an `NR`-wide accumulator tile in registers,
//!   amortising every load of the shared operand over `NR` outputs;
//! * **input-major sparse products** — the sparse input layer stores its
//!   weight `(in × out)`, so [`csr_matmul_into`] and
//!   [`csr_matmul_at_acc`] touch one contiguous `out`-wide row per stored
//!   entry instead of `out` elements at stride `in`;
//! * **`_into`/`_acc` variants** — every kernel can write into (or
//!   accumulate onto) a caller-provided buffer, which is what lets
//!   `ctlm_nn::Workspace` run steady-state training steps without heap
//!   allocation.
//!
//! The pre-optimization reference kernels are retained in [`naive`]; the
//! property tests in `tests/kernel_properties.rs` pin the blocked kernels
//! to them within 1e-5, and `ctlm-bench`'s `training_step` bench measures
//! both sides in the same run.

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

/// Width of the register accumulator tile in the dot-product and
/// outer-product microkernels.
const NR: usize = 4;

/// Edge length of the square tiles used by [`transpose_into`].
const TILE: usize = 32;

/// Columns whose block partials [`col_sums_acc`] keeps on the stack at
/// once (256 B): one strip covers the paper's layer widths (30, 26).
const COL_STRIP: usize = 64;

/// Dense GEMM: `a (n×k) · b (k×m) → out (n×m)`, into a caller-provided
/// output (resized, fully overwritten).
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    let (n, k) = a.shape();
    let m = b.cols();
    out.resize(n, m);
    let b_data = b.as_slice();
    let a_data = a.as_slice();
    // Each body call owns an MC-row block of `out`; k-panels of `b` are
    // the innermost shared operand, reused across the block's rows while
    // cache-hot. The per-element zero skip from the original kernel is
    // kept inside the panel loop — CO-VV gradients are full of zeros.
    let body = |(block, out_block): (usize, &mut [f32])| {
        out_block.fill(0.0);
        let r0 = block * MC;
        let rows = out_block.len() / m;
        for kb in (0..k).step_by(KC) {
            let k_end = (kb + KC).min(k);
            for (i, out_row) in out_block.chunks_exact_mut(m).enumerate() {
                let a_row = &a_data[(r0 + i) * k + kb..(r0 + i) * k + k_end];
                for (kk, &av) in a_row.iter().enumerate() {
                    if av != 0.0 {
                        let b_row = &b_data[(kb + kk) * m..(kb + kk + 1) * m];
                        for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                            *o += av * bv;
                        }
                    }
                }
            }
        }
        debug_assert_eq!(rows * m, out_block.len());
    };
    for (block, out_block) in out.as_mut_slice().chunks_mut(MC * m).enumerate() {
        body((block, out_block));
    }
}

/// `a (n×k) · bᵀ` where `b` is `(m×k)` — the PyTorch `x @ W.T` used in
/// `nn.Linear.forward` with `W` stored as `(out_features, in_features)` —
/// into a caller-provided output (resized, overwritten).
///
/// Register microkernel: `NR` output columns share every load of the
/// `a`-row, with `NR` scalar accumulators the compiler keeps in
/// registers and vectorises along `k`.
pub fn matmul_bt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.cols(), "matmul_bt inner dimension mismatch");
    let n = a.rows();
    let k = a.cols();
    let m = b.rows();
    out.resize(n, m);
    let b_data = b.as_slice();
    let body = |(r, out_row): (usize, &mut [f32])| {
        let a_row = a.row(r);
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
            out_row[c] = s0;
            out_row[c + 1] = s1;
            out_row[c + 2] = s2;
            out_row[c + 3] = s3;
            c += NR;
        }
        for (tail, o) in out_row[c..].iter_mut().enumerate() {
            let b_row = &b_data[(c + tail) * k..(c + tail + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &w) in a_row.iter().zip(b_row.iter()) {
                acc += x * w;
            }
            *o = acc;
        }
    };
    for (r, out_row) in out.as_mut_slice().chunks_mut(m).enumerate() {
        body((r, out_row));
    }
}

/// `out (k×m) += aᵀ (k×n) · b (n×m)` without materialising the
/// transpose, with `out` pre-shaped `(a.cols × b.cols)` — the
/// weight-gradient product `grad_W += grad_outᵀ · x` for dense inputs:
/// layers add straight onto `grad_weight` with no temporary.
///
/// Outer-product microkernel: an `NR`-row group of `out` (columns of `a`)
/// consumes each `b`-row once, so `b` is streamed `NR×` less often than
/// in the row-at-a-time formulation.
///
/// # Panics
/// Panics on sample-count or output-shape mismatch.
pub fn matmul_at_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.rows(), b.rows(), "matmul_at sample-count mismatch");
    assert_eq!(
        out.shape(),
        (a.cols(), b.cols()),
        "matmul_at_acc output shape mismatch"
    );
    let k = a.cols();
    let m = b.cols();
    let n = a.rows();
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let body = |(block, out_block): (usize, &mut [f32])| {
        let c0 = block * NR;
        let width = out_block.len() / m;
        for r in 0..n {
            let a_row = &a_data[r * k + c0..r * k + c0 + width];
            if a_row.iter().all(|&v| v == 0.0) {
                continue;
            }
            let b_row = &b_data[r * m..(r + 1) * m];
            for (j, &av) in a_row.iter().enumerate() {
                if av != 0.0 {
                    let out_row = &mut out_block[j * m..(j + 1) * m];
                    for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += av * bv;
                    }
                }
            }
        }
    };
    for (block, out_block) in out.as_mut_slice().chunks_mut(NR * m).enumerate() {
        body((block, out_block));
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
/// `ctlm_nn`'s sparse input layer. Every stored entry is one contiguous
/// `out`-wide axpy (`out_row += v · w[j]`) instead of `out` loads at
/// stride `d`.
///
/// Bit-identical to [`csr_matmul_bt_into`] on the transposed weight:
/// each output element still receives its row's products in stored-entry
/// order, starting from that kernel's zero.
pub fn csr_matmul_into(x: &Csr, w: &Matrix, out: &mut Matrix) {
    assert_eq!(x.cols(), w.rows(), "csr_matmul inner dimension mismatch");
    let n = x.rows();
    let out_f = w.cols();
    out.resize(n, out_f);
    let w_data = w.as_slice();
    // The `(out × d)` kernel sums its `out % NR` tail columns with
    // `Iterator::sum`, whose identity is -0.0; its tiled columns start at
    // +0.0. Starting each column from the same zero keeps rows without
    // stored entries equal in sign as well as value.
    let tiled = out_f - out_f % NR;
    let body = |(r, out_row): (usize, &mut [f32])| {
        out_row[..tiled].fill(0.0);
        out_row[tiled..].fill(-0.0);
        for (j, v) in x.row_entries(r) {
            let w_row = &w_data[j * out_f..(j + 1) * out_f];
            for (o, &wv) in out_row.iter_mut().zip(w_row) {
                *o += v * wv;
            }
        }
    };
    for (r, out_row) in out.as_mut_slice().chunks_mut(out_f).enumerate() {
        body((r, out_row));
    }
}

/// Accumulating transposed-sparse × dense product:
/// `out (d×m) += xᵀ (d×n, CSR) · g (n×m)` — the input-major weight
/// gradient of the sparse input layer (`g` is `dL/d(output)`). Every
/// stored entry updates one contiguous `m`-wide row of `out`.
///
/// Bit-identical to [`csr_grad_weight_acc`] on the transposed gradient:
/// each element accumulates over samples in row order, then stored-entry
/// order, and exact zeros in `g` add nothing.
///
/// # Panics
/// Panics on sample-count or output-shape mismatch.
pub fn csr_matmul_at_acc(x: &Csr, g: &Matrix, out: &mut Matrix) {
    assert_eq!(x.rows(), g.rows(), "csr_matmul_at sample-count mismatch");
    assert_eq!(
        out.shape(),
        (x.cols(), g.cols()),
        "csr_matmul_at_acc output shape mismatch"
    );
    let m = g.cols();
    let out_data = out.as_mut_slice();
    for r in 0..x.rows() {
        let g_row = g.row(r);
        // A zero gradient leaves its element untouched, as in the
        // `(out × d)` kernel (no `0 · inf`, no sign change): a select
        // per element. The select loop alone would be correct for every
        // row, but real gradients almost never hold an exact zero, and
        // the plain axpy runs at half its cost — 34 vs 70 µs per call at
        // the lab's retrain shape (128 rows × 58 entries, 30 wide; both
        // loops lifted into one `rustc -O` program, five alternating
        // rounds of 20 000 calls) — so one scan of the row picks it.
        let has_zero = g_row.contains(&0.0);
        for (j, v) in x.row_entries(r) {
            let out_row = &mut out_data[j * m..(j + 1) * m];
            if has_zero {
                for (o, &gv) in out_row.iter_mut().zip(g_row) {
                    *o = if gv != 0.0 { *o + gv * v } else { *o };
                }
            } else {
                for (o, &gv) in out_row.iter_mut().zip(g_row) {
                    *o += gv * v;
                }
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

/// In-place row-wise softmax, numerically stabilised by max subtraction —
/// the allocation-free path `CrossEntropyLoss` uses on workspace buffers.
pub fn softmax_rows_inplace(logits: &mut Matrix) {
    let m = logits.cols();
    let body = |row: &mut [f32]| {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    };
    for row in logits.as_mut_slice().chunks_mut(m) {
        body(row);
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
}
