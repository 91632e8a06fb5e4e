//! The Listing-3 gradient-multiplier mechanism.
//!
//! After backpropagation, the growing model multiplies the gradient of the
//! *pre-trained* `fc1.weight` columns by `PRETRAINED_GRADIENT_RATE` (0.1
//! in the paper) while the freshly padded columns keep their full
//! gradient:
//!
//! ```text
//! multiplier = [0.1, 0.1, …, 0.1,   1, 1, …, 1]
//!               └ pretrained cols ┘ └ new cols ┘
//! param.grad.mul_(multiplier)   # in-place, per row
//! ```
//!
//! “A scaling factor above 20–30 % negated training effects, while zeroing
//! gradients for pre-trained weights reduced model accuracy” — the
//! ablation bench sweeps this rate to reproduce that observation.

use crate::layer::SparseLinear;

/// The per-column multiplier tensor of Listing 3, built once and applied
/// in place each step (mirroring the paper's device-resident
/// `multiplier_tensor` with `requires_grad=False`).
#[derive(Clone, Debug)]
pub struct ColumnGradScale {
    multiplier: Vec<f32>,
}

impl ColumnGradScale {
    /// `[rate; pretrained_cols] ++ [1.0; total_cols - pretrained_cols]`.
    ///
    /// # Panics
    /// Panics if `pretrained_cols > total_cols`.
    pub fn new(pretrained_cols: usize, total_cols: usize, rate: f32) -> Self {
        assert!(
            pretrained_cols <= total_cols,
            "pretrained boundary beyond width"
        );
        let mut multiplier = vec![rate; pretrained_cols];
        multiplier.resize(total_cols, 1.0);
        Self { multiplier }
    }

    /// The raw multiplier vector.
    pub fn multiplier(&self) -> &[f32] {
        &self.multiplier
    }

    /// Applies the multiplier to `fc1`'s accumulated weight gradient —
    /// the in-place `param_grad.mul_(multiplier_tensor)` of Listing 3.
    /// The gradient is input-major, so input column `j` is one
    /// contiguous row scaled by `multiplier[j]`: the same product per
    /// element as the listing's per-row broadcast. Columns at full rate
    /// are left alone (`g · 1.0` is `g`).
    ///
    /// # Panics
    /// Panics if the layer width does not match the multiplier length.
    pub fn apply(&self, layer: &mut SparseLinear) {
        assert_eq!(
            layer.in_features(),
            self.multiplier.len(),
            "multiplier width must match fc1 input width"
        );
        let hidden = layer.out_features();
        let g = layer.grad_weight.as_mut_slice();
        for (row, &m) in g.chunks_mut(hidden).zip(&self.multiplier) {
            if m != 1.0 {
                row.iter_mut().for_each(|v| *v *= m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_tensor::init::seeded_rng;
    use ctlm_tensor::Matrix;

    #[test]
    fn multiplier_layout_matches_listing3() {
        let s = ColumnGradScale::new(3, 5, 0.1);
        assert_eq!(s.multiplier(), &[0.1, 0.1, 0.1, 1.0, 1.0]);
    }

    #[test]
    fn apply_scales_only_pretrained_columns() {
        let mut rng = seeded_rng(1);
        let mut l = SparseLinear::new(4, 2, &mut rng);
        l.grad_weight = Matrix::full(4, 2, 10.0);
        ColumnGradScale::new(2, 4, 0.1).apply(&mut l);
        assert_eq!(
            l.grad_weight.transpose().row(0),
            &[1.0, 1.0, 10.0, 10.0],
            "hidden unit 0 across the four input columns"
        );
        assert_eq!(l.grad_weight.transpose().row(1), &[1.0, 1.0, 10.0, 10.0]);
    }

    /// The Listing-3 form on an `(out × in)` gradient — every row times
    /// the multiplier vector — gives the same bits, element for element.
    #[test]
    fn apply_equals_the_column_wise_product_on_the_pytorch_layout() {
        let (d, hidden) = (7, 5);
        let mut l = SparseLinear::new(d, hidden, &mut seeded_rng(5));
        l.grad_weight = Matrix::from_fn(d, hidden, |j, o| (j * 31 + o * 7) as f32 * 0.013 - 1.1);
        let scale = ColumnGradScale::new(4, d, 0.1);
        let mut expected = l.grad_weight.transpose();
        for o in 0..hidden {
            for (v, &m) in expected.row_mut(o).iter_mut().zip(scale.multiplier()) {
                *v *= m;
            }
        }
        scale.apply(&mut l);
        let got = l.grad_weight.transpose();
        assert!(got
            .as_slice()
            .iter()
            .zip(expected.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn zero_pretrained_boundary_is_identity() {
        let mut rng = seeded_rng(2);
        let mut l = SparseLinear::new(3, 1, &mut rng);
        l.grad_weight = Matrix::full(3, 1, 2.0);
        ColumnGradScale::new(0, 3, 0.1).apply(&mut l);
        assert_eq!(l.grad_weight.as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn full_boundary_scales_everything() {
        let mut rng = seeded_rng(3);
        let mut l = SparseLinear::new(3, 1, &mut rng);
        l.grad_weight = Matrix::full(3, 1, 2.0);
        ColumnGradScale::new(3, 3, 0.5).apply(&mut l);
        assert_eq!(l.grad_weight.as_slice(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "beyond width")]
    fn rejects_bad_boundary() {
        let _ = ColumnGradScale::new(6, 5, 0.1);
    }

    #[test]
    #[should_panic(expected = "must match fc1 input width")]
    fn rejects_mismatched_layer() {
        let mut rng = seeded_rng(4);
        let mut l = SparseLinear::new(4, 2, &mut rng);
        ColumnGradScale::new(2, 5, 0.1).apply(&mut l);
    }
}
