//! Layer-weight initialisation.
//!
//! `torch.nn.Linear` initialises both weights and biases from
//! `U(-1/√fan_in, 1/√fan_in)` (Kaiming-uniform with a = √5 reduces to this
//! bound for the weight, and the bias bound matches). The paper relies on
//! PyTorch defaults for fresh models, so we reproduce them exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dense::Matrix;

/// Deterministic RNG used throughout the workspace. Seeded `StdRng`
/// (ChaCha-based) so results are reproducible across platforms.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Kaiming-uniform weight matrix `(out_features × in_features)` with the
/// PyTorch `nn.Linear` bound `1/√in_features`.
pub fn linear_weight(out_features: usize, in_features: usize, rng: &mut StdRng) -> Matrix {
    let bound = 1.0 / (in_features.max(1) as f32).sqrt();
    let mut data = Vec::with_capacity(out_features * in_features);
    for _ in 0..out_features * in_features {
        data.push(rng.gen_range(-bound..bound));
    }
    Matrix::from_vec(out_features, in_features, data)
}

/// [`linear_weight`] stored input-major, `(in_features × out_features)`:
/// the same draws in the same order (output-major, as PyTorch fills its
/// `(out × in)` tensor), each written straight to its transposed slot —
/// so a sparse input layer starts from exactly the weights its
/// `(out × in)` state-dict view shows.
pub fn linear_weight_input_major(
    in_features: usize,
    out_features: usize,
    rng: &mut StdRng,
) -> Matrix {
    let bound = 1.0 / (in_features.max(1) as f32).sqrt();
    let mut w = Matrix::zeros(in_features, out_features);
    let data = w.as_mut_slice();
    for o in 0..out_features {
        for j in 0..in_features {
            data[j * out_features + o] = rng.gen_range(-bound..bound);
        }
    }
    w
}

/// Bias vector with the same `1/√in_features` uniform bound.
pub fn linear_bias(out_features: usize, in_features: usize, rng: &mut StdRng) -> Vec<f32> {
    let bound = 1.0 / (in_features.max(1) as f32).sqrt();
    (0..out_features)
        .map(|_| rng.gen_range(-bound..bound))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_within_fan_in_bound() {
        let mut rng = seeded_rng(7);
        let w = linear_weight(30, 100, &mut rng);
        let bound = 1.0 / (100.0f32).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= bound));
        assert_eq!(w.shape(), (30, 100));
    }

    #[test]
    fn bias_within_fan_in_bound() {
        let mut rng = seeded_rng(7);
        let b = linear_bias(26, 30, &mut rng);
        let bound = 1.0 / (30.0f32).sqrt();
        assert!(b.iter().all(|v| v.abs() <= bound));
        assert_eq!(b.len(), 26);
    }

    #[test]
    fn input_major_weight_is_the_transpose_of_the_same_draws() {
        let w = linear_weight(5, 7, &mut seeded_rng(9));
        let w_im = linear_weight_input_major(7, 5, &mut seeded_rng(9));
        assert_eq!(w_im, w.transpose());
    }

    #[test]
    fn same_seed_same_weights() {
        let a = linear_weight(4, 9, &mut seeded_rng(42));
        let b = linear_weight(4, 9, &mut seeded_rng(42));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_weights() {
        let a = linear_weight(4, 9, &mut seeded_rng(1));
        let b = linear_weight(4, 9, &mut seeded_rng(2));
        assert_ne!(a, b);
    }

    #[test]
    fn weights_are_not_degenerate() {
        let w = linear_weight(10, 50, &mut seeded_rng(3));
        let mean: f32 = w.as_slice().iter().sum::<f32>() / w.len() as f32;
        // Mean of U(-b, b) is 0; with 500 samples it should be close.
        assert!(mean.abs() < 0.02, "suspicious mean {mean}");
        let distinct = w
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct > w.len() / 2);
    }
}
