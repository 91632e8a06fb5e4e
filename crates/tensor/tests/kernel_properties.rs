//! Property tests pinning every blocked/`_into` kernel to the retained
//! naive references — the dense products bit for bit, the rest within
//! 1e-5 — over shapes chosen to straddle `col_sums_acc`'s block
//! threshold (`ops::COL_SUMS_BLOCK_THRESHOLD` = 64 rows) and the blocking
//! parameters (`MC` = 32 row blocks, `KC` = 256 k-panels, `NR` = 4 wide
//! register tiles, 8-lane groups) — so both reduction orders, full
//! blocks, and every tail all get exercised.

use proptest::prelude::*;

use ctlm_tensor::ops::{self, naive};
use ctlm_tensor::{CsrBuilder, Matrix};

/// Dimensions that cross the interesting boundaries: microkernel tails
/// (1..6), the MC=32 row block (31..34), the
/// COL_SUMS_BLOCK_THRESHOLD=64 switch (63..66), and a straggler past two
/// blocks (70).
fn arb_dim() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..6, 31usize..34, 63usize..66, Just(70usize)]
}

/// Inner dimensions additionally cross the KC=256 k-panel boundary.
fn arb_inner() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..6, 63usize..66, 255usize..258, Just(520usize)]
}

fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    // Deterministic pseudo-random fill with exact zeros sprinkled in so
    // the kernels' zero-skip branches execute.
    Matrix::from_fn(rows, cols, |r, c| {
        let h = (r as u64)
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add((c as u64).wrapping_mul(0x85EB_CA6B))
            .wrapping_add(seed.wrapping_mul(0xC2B2_AE35));
        let h = (h ^ (h >> 13)).wrapping_mul(0x27D4_EB2F);
        if h.is_multiple_of(5) {
            0.0
        } else {
            ((h % 2000) as f32 - 1000.0) / 503.0
        }
    })
}

fn sparse(rows: usize, cols: usize, seed: u64) -> ctlm_tensor::Csr {
    let mut b = CsrBuilder::new(cols);
    for r in 0..rows {
        let nnz = ((r as u64 + seed) % 4) as usize;
        b.push_row((0..nnz).map(|k| {
            let col = ((r as u64 + seed)
                .wrapping_mul(31)
                .wrapping_add(k as u64 * 7)
                % cols as u64) as usize;
            (col, ((k + r) % 3) as f32 - 1.0)
        }));
    }
    b.finish()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// 1e-5 relative to the magnitude of the values involved.
fn close(a: &Matrix, b: &Matrix, scale: f32) -> bool {
    a.shape() == b.shape() && a.max_abs_diff(b) <= 1e-5 * scale.max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The dense products add each output's products in `k` (or
    /// sample) order onto `+0.0`, as the textbook loops do: equal bit for
    /// bit, not close. Skipping an exact zero of `a` only drops a `±0.0`
    /// term, which leaves a finite sum unchanged.
    #[test]
    fn matmul_matches_naive(n in arb_dim(), k in arb_inner(), m in arb_dim(), seed in 0u64..100) {
        let a = dense(n, k, seed);
        let b = dense(k, m, seed ^ 1);
        let reference = naive::matmul(&a, &b);
        // A dirty, differently-shaped buffer: resized and overwritten.
        let mut out = dense(3, 7, 99);
        ops::matmul_into(&a, &b, &mut out);
        prop_assert_eq!(out.shape(), reference.shape());
        prop_assert_eq!(bits(&out), bits(&reference));
    }

    #[test]
    fn matmul_bt_matches_naive(n in arb_dim(), k in arb_inner(), m in arb_dim(), seed in 0u64..100) {
        let a = dense(n, k, seed);
        let b = dense(m, k, seed ^ 2);
        let reference = naive::matmul_bt(&a, &b);
        let mut out = dense(2, 5, 98);
        ops::matmul_bt_into(&a, &b, &mut out);
        prop_assert_eq!(out.shape(), reference.shape());
        prop_assert_eq!(bits(&out), bits(&reference));
    }

    #[test]
    fn matmul_at_matches_naive(n in arb_inner(), k in arb_dim(), m in arb_dim(), seed in 0u64..100) {
        let a = dense(n, k, seed);
        let b = dense(n, m, seed ^ 3);
        let reference = naive::matmul_at(&a, &b);
        let mut acc = Matrix::zeros(k, m);
        ops::matmul_at_acc(&a, &b, &mut acc);
        prop_assert_eq!(bits(&acc), bits(&reference));
        // Accumulating: a second call adds each product, in sample order,
        // on top of the gradient.
        ops::matmul_at_acc(&a, &b, &mut acc);
        let mut twice = reference.clone();
        for c in 0..k {
            for j in 0..m {
                for r in 0..n {
                    twice.set(c, j, twice.get(c, j) + a.get(r, c) * b.get(r, j));
                }
            }
        }
        prop_assert_eq!(bits(&acc), bits(&twice));
    }

    #[test]
    fn transpose_matches_naive(n in arb_dim(), m in arb_inner(), seed in 0u64..100) {
        let a = dense(n, m, seed);
        let reference = naive::transpose(&a);
        let mut out = dense(2, 2, 5);
        ops::transpose_into(&a, &mut out);
        prop_assert_eq!(&out, &reference);
        prop_assert_eq!(&a.transpose(), &reference);
    }

    #[test]
    fn csr_kernels_match_naive(n in arb_dim(), d in arb_inner(), o in arb_dim(), seed in 0u64..100) {
        let x = sparse(n, d, seed);
        let w = dense(o, d, seed ^ 4);
        let fwd_ref = naive::csr_matmul_bt(&x, &w);
        let mut out = Matrix::zeros(0, 0);
        ops::csr_matmul_bt_into(&x, &w, &mut out);
        prop_assert!(close(&out, &fwd_ref, d as f32));

        let go = dense(n, o, seed ^ 5);
        let gw_ref = naive::csr_grad_weight(&go, &x);
        let mut acc = Matrix::zeros(o, d);
        ops::csr_grad_weight_acc(&go, &x, &mut acc);
        prop_assert!(close(&acc, &gw_ref, n as f32));
        ops::csr_grad_weight_acc(&go, &x, &mut acc);
        let mut doubled = gw_ref.clone();
        doubled.scale(2.0);
        prop_assert!(close(&acc, &doubled, n as f32 * 2.0));
    }

    /// The input-major sparse kernels against the `(out × in)` ones they
    /// replaced in `ctlm-nn`: not close — equal, bit for bit, which is
    /// what lets the layout change under recorded goldens. `sparse` mixes
    /// in rows without stored entries, `dense` exact zeros in `grad_out`;
    /// `o` crosses the NR = 4 tile tail and `n` the 64-row block threshold.
    #[test]
    fn input_major_csr_kernels_equal_out_major_bit_for_bit(
        n in arb_dim(),
        d in arb_inner(),
        o in arb_dim(),
        seed in 0u64..100,
    ) {
        let x = sparse(n, d, seed);
        let w = dense(o, d, seed ^ 4);
        let mut out_major = Matrix::zeros(0, 0);
        ops::csr_matmul_bt_into(&x, &w, &mut out_major);
        let mut input_major = dense(3, 3, 9);
        ops::csr_matmul_into(&x, &w.transpose(), &mut input_major);
        prop_assert_eq!(input_major.shape(), (n, o));
        prop_assert_eq!(bits(&input_major), bits(&out_major));

        // Accumulated twice onto a gradient that is already non-zero.
        let go = dense(n, o, seed ^ 5);
        let mut gw = dense(o, d, seed ^ 6);
        let mut gw_t = gw.transpose();
        for _ in 0..2 {
            ops::csr_grad_weight_acc(&go, &x, &mut gw);
            ops::csr_matmul_at_acc(&x, &go, &mut gw_t);
        }
        prop_assert_eq!(bits(&gw_t.transpose()), bits(&gw));
    }

    #[test]
    fn reductions_match_naive(n in arb_inner(), m in arb_dim(), seed in 0u64..100) {
        let a = dense(n, m, seed);
        let reference = naive::col_sums(&a);
        let mut got = vec![0.0f32; m];
        ops::col_sums_acc(&a, &mut got);
        prop_assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(reference.iter()) {
            prop_assert!((g - r).abs() <= 1e-4 * (n as f32).max(1.0), "{} vs {}", g, r);
        }

        let soft_ref = naive::softmax_rows(&a);
        let mut inplace = a.clone();
        ops::softmax_rows_inplace(&mut inplace);
        prop_assert!(close(&inplace, &soft_ref, 1.0));
    }
}

/// No subnormal leaves the softmax. Over logits spread up to ±200, where
/// most numerators of a row underflow: every output is normal or `+0.0`,
/// within 1e-5 of the unflushed reference, `+0.0` wherever that
/// reference is below `f32::MIN_POSITIVE`, and normal wherever it is
/// clear of that bound (the reference divides where the kernel
/// multiplies by a reciprocal, so they may differ in the last bit).
/// Some of these rows do flush a subnormal the reference keeps, so the
/// check is not vacuous.
#[test]
fn softmax_flushes_underflowed_probabilities() {
    let mut flushed = 0;
    for spread in [1.0f32, 20.0, 50.0, 100.0, 200.0] {
        for (seed, (n, m)) in [(1, 26), (3, 26), (5, 7), (33, 30), (70, 3)]
            .into_iter()
            .enumerate()
        {
            // `dense` draws from (−2, 2) with exact zeros sprinkled in.
            let mut logits = dense(n, m, seed as u64 + spread as u64);
            logits
                .as_mut_slice()
                .iter_mut()
                .for_each(|v| *v *= spread / 2.0);
            let reference = naive::softmax_rows(&logits);
            let mut got = logits.clone();
            ops::softmax_rows_inplace(&mut got);
            assert!(close(&got, &reference, 1.0), "spread {spread}, {n}×{m}");
            for (&g, &r) in got.as_slice().iter().zip(reference.as_slice()) {
                assert!(!g.is_subnormal(), "subnormal {g:e} at spread {spread}");
                if r < f32::MIN_POSITIVE {
                    assert_eq!(g.to_bits(), 0, "reference {r:e} not flushed to +0.0");
                } else if r >= 2.0 * f32::MIN_POSITIVE {
                    assert!(g.is_normal(), "reference {r:e} flushed to {g:e}");
                }
                flushed += usize::from(r.is_subnormal());
            }
        }
    }
    assert!(flushed > 0, "no case reached a subnormal probability");
}
