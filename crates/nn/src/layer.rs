//! Linear layers and activations.
//!
//! Two layer types, told apart by what they consume. [`SparseLinear`] is
//! a network's first layer: it takes the CSR batch and keeps its weight
//! **input-major** `(in_features × out_features)`, so each stored entry
//! of a CO-VV row touches one contiguous row of the weight (forward) or
//! of its gradient (backward). [`Linear`] is every later layer: dense
//! input, weight stored PyTorch-style `(out_features × in_features)`.
//! Which layout a layer uses is its type — no kernel branches on a flag.
//! State dicts speak `(out × in)` for both (see [`crate::Net`]).

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use ctlm_tensor::{init, ops, Csr, Matrix};

/// The sparse input layer (`fc1`): `y = x W + b` over a CSR batch, with
/// weight, gradient and (through `Net::visit_params_mut`) optimizer
/// moments all input-major `(in_features × out_features)`.
///
/// The floats are those of an `(out × in)` layer: every output and every
/// gradient element accumulates the same products in the same order, only
/// from contiguous memory (`ctlm_tensor`'s `kernel_properties.rs` pins
/// the two kernels bit for bit), and Adam and the Listing-3 multiplier
/// are element-wise.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SparseLinear {
    /// Weight matrix `(in, out)` — row `j` holds input column `j`'s
    /// weight to every output unit.
    pub weight: Matrix,
    /// Bias vector, length `out`.
    pub bias: Vec<f32>,
    /// Accumulated weight gradient, same shape as `weight`.
    pub grad_weight: Matrix,
    /// Accumulated bias gradient.
    pub grad_bias: Vec<f32>,
    /// When false the optimizer skips the weight (frozen).
    pub weight_requires_grad: bool,
    /// When false the optimizer skips the bias (frozen).
    pub bias_requires_grad: bool,
}

impl SparseLinear {
    /// A layer with PyTorch-default initialisation: the draws
    /// `Linear::new` would make, written straight into the input-major
    /// layout.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        Self::from_parameters(
            init::linear_weight_input_major(in_features, out_features, rng),
            init::linear_bias(out_features, in_features, rng),
        )
    }

    /// An all-zero layer of the given shape, for callers that overwrite
    /// every parameter (loading a state dict).
    pub fn zeros(in_features: usize, out_features: usize) -> Self {
        Self::from_parameters(
            Matrix::zeros(in_features, out_features),
            vec![0.0; out_features],
        )
    }

    /// A trainable layer over the given `(in × out)` weight and bias,
    /// gradients zeroed.
    fn from_parameters(weight: Matrix, bias: Vec<f32>) -> Self {
        Self {
            grad_weight: Matrix::zeros(weight.rows(), weight.cols()),
            grad_bias: vec![0.0; bias.len()],
            weight,
            bias,
            weight_requires_grad: true,
            bias_requires_grad: true,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.weight.rows()
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.weight.cols()
    }

    /// `y = x W + b` over a sparse batch, into a caller-provided buffer
    /// (allocation-free once the buffer has warmed up).
    pub fn forward_into(&self, x: &Csr, out: &mut Matrix) {
        ops::csr_matmul_into(x, &self.weight, out);
        ops::add_bias(out, &self.bias);
    }

    /// Accumulates gradients for a sparse input batch. Input gradients
    /// are not produced (nothing precedes the first layer).
    /// Allocation-free: gradients accumulate straight onto
    /// `grad_weight`/`grad_bias`.
    pub fn backward(&mut self, x: &Csr, grad_out: &Matrix) {
        if self.weight_requires_grad {
            ops::csr_matmul_at_acc(x, grad_out, &mut self.grad_weight);
        }
        if self.bias_requires_grad {
            ops::col_sums_acc(grad_out, &mut self.grad_bias);
        }
    }

    /// Zeroes accumulated gradients (`optimizer.zero_grad()`).
    pub fn zero_grad(&mut self) {
        self.grad_weight.zero();
        self.grad_bias.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Freezes both tensors.
    pub fn freeze(&mut self) {
        self.weight_requires_grad = false;
        self.bias_requires_grad = false;
    }
}

/// A fully-connected layer over dense input, storing its weight
/// PyTorch-style as `(out_features × in_features)`, with per-tensor
/// `requires_grad` flags — the freezing mechanism of the paper's
/// Listing 1 (`param.requires_grad = False`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix `(out, in)`.
    pub weight: Matrix,
    /// Bias vector, length `out`.
    pub bias: Vec<f32>,
    /// Accumulated weight gradient, same shape as `weight`.
    pub grad_weight: Matrix,
    /// Accumulated bias gradient.
    pub grad_bias: Vec<f32>,
    /// When false the optimizer skips the weight (frozen).
    pub weight_requires_grad: bool,
    /// When false the optimizer skips the bias (frozen).
    pub bias_requires_grad: bool,
}

impl Linear {
    /// A layer with PyTorch-default initialisation.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        Self::from_parameters(
            init::linear_weight(out_features, in_features, rng),
            init::linear_bias(out_features, in_features, rng),
        )
    }

    /// An all-zero layer of the given shape, for callers that overwrite
    /// every parameter (loading a state dict).
    pub fn zeros(in_features: usize, out_features: usize) -> Self {
        Self::from_parameters(
            Matrix::zeros(out_features, in_features),
            vec![0.0; out_features],
        )
    }

    /// A trainable layer over the given `(out × in)` weight and bias,
    /// gradients zeroed.
    fn from_parameters(weight: Matrix, bias: Vec<f32>) -> Self {
        Self {
            grad_weight: Matrix::zeros(weight.rows(), weight.cols()),
            grad_bias: vec![0.0; bias.len()],
            weight,
            bias,
            weight_requires_grad: true,
            bias_requires_grad: true,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.weight.cols()
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.weight.rows()
    }

    /// `y = x Wᵀ + b` over a dense batch, into a caller-provided buffer.
    pub fn forward_dense_into(&self, x: &Matrix, out: &mut Matrix) {
        ops::matmul_bt_into(x, &self.weight, out);
        ops::add_bias(out, &self.bias);
    }

    /// Accumulates gradients for a dense input batch straight onto
    /// `grad_weight`/`grad_bias` (frozen tensors are skipped). `x` and
    /// `grad_out` hold the same samples in the same order; the sums run
    /// over them in that order.
    pub fn backward(&mut self, x: &Matrix, grad_out: &Matrix) {
        if self.weight_requires_grad {
            ops::matmul_at_acc(grad_out, x, &mut self.grad_weight);
        }
        if self.bias_requires_grad {
            ops::col_sums_acc(grad_out, &mut self.grad_bias);
        }
    }

    /// Writes the gradient w.r.t. the input, `grad_in = grad_out · W`,
    /// into a caller-provided buffer. Each output row depends on its own
    /// `grad_out` row only.
    pub fn input_grad_into(&self, grad_out: &Matrix, grad_in: &mut Matrix) {
        ops::matmul_into(grad_out, &self.weight, grad_in);
    }

    /// Zeroes accumulated gradients (`optimizer.zero_grad()`).
    pub fn zero_grad(&mut self) {
        self.grad_weight.zero();
        self.grad_bias.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Freezes both tensors (Listing 1's base-layer freeze).
    pub fn freeze(&mut self) {
        self.weight_requires_grad = false;
        self.bias_requires_grad = false;
    }
}

/// A network layer after the sparse input layer: linear or ReLU. The
/// paper's own model is two bare linear layers (Listing 1 has no
/// activation); the MLP baseline inserts a ReLU, matching scikit-learn's
/// `MLPClassifier` default.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Layer {
    /// Fully-connected layer.
    Linear(Linear),
    /// Rectified linear unit.
    Relu,
}

impl Layer {
    /// Applies the layer forward into a caller-provided buffer.
    pub fn forward_dense_into(&self, x: &Matrix, out: &mut Matrix) {
        match self {
            Layer::Linear(l) => l.forward_dense_into(x, out),
            Layer::Relu => relu_into(x, out),
        }
    }
}

/// Element-wise ReLU into a caller-provided buffer.
fn relu_into(x: &Matrix, out: &mut Matrix) {
    out.copy_from(x);
    out.as_mut_slice().iter_mut().for_each(|v| {
        if *v < 0.0 {
            *v = 0.0;
        }
    });
}

/// Backward of ReLU into a caller-provided buffer: passes gradient where
/// the forward input was > 0.
pub fn relu_backward_into(x: &Matrix, grad_out: &Matrix, out: &mut Matrix) {
    assert_eq!(x.shape(), grad_out.shape());
    out.copy_from(grad_out);
    for (gv, &xv) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
        if xv <= 0.0 {
            *gv = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_tensor::init::seeded_rng;
    use ctlm_tensor::CsrBuilder;

    /// A dense layer holding the same parameters as `s`.
    fn dense_twin(s: &SparseLinear) -> Linear {
        Linear::from_parameters(s.weight.transpose(), s.bias.clone())
    }

    #[test]
    fn sparse_layer_draws_the_weights_a_dense_layer_would() {
        let s = SparseLinear::new(6, 3, &mut seeded_rng(1));
        let d = Linear::new(6, 3, &mut seeded_rng(1));
        assert_eq!(s.weight, d.weight.transpose());
        assert_eq!(s.bias, d.bias);
        assert_eq!((s.in_features(), s.out_features()), (6, 3));
    }

    #[test]
    fn forward_sparse_matches_dense() {
        let mut rng = seeded_rng(1);
        let l = SparseLinear::new(6, 3, &mut rng);
        let mut b = CsrBuilder::new(6);
        b.push_row([(0, 1.0), (4, 1.0)]);
        b.push_row([(2, 1.0)]);
        let x = b.finish();
        let (mut ys, mut yd) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        l.forward_into(&x, &mut ys);
        dense_twin(&l).forward_dense_into(&x.to_dense(), &mut yd);
        assert!(ys.max_abs_diff(&yd) < 1e-5);
    }

    #[test]
    fn frozen_layer_accumulates_no_gradient() {
        let mut rng = seeded_rng(2);
        let mut l = Linear::new(4, 2, &mut rng);
        l.freeze();
        let x = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        let go = Matrix::full(3, 2, 1.0);
        l.backward(&x, &go);
        assert_eq!(l.grad_weight, Matrix::zeros(2, 4));
        assert!(l.grad_bias.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn backward_dense_weight_grad_matches_manual() {
        let mut rng = seeded_rng(3);
        let mut l = Linear::new(2, 1, &mut rng);
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let go = Matrix::from_vec(2, 1, vec![1.0, 1.0]);
        l.backward(&x, &go);
        // grad_W[0][j] = sum_i go[i] * x[i][j] = [1+3, 2+4]
        assert_eq!(l.grad_weight.row(0), &[4.0, 6.0]);
        assert_eq!(l.grad_bias, vec![2.0]);
        // grad_in[i] = go[i] · W, row by row.
        let mut gi = Matrix::zeros(0, 0);
        l.input_grad_into(&go, &mut gi);
        assert_eq!(gi.row(0), l.weight.row(0));
        assert_eq!(gi.row(1), l.weight.row(0));
    }

    #[test]
    fn backward_sparse_matches_dense_backward() {
        let mut rng = seeded_rng(4);
        let mut ls = SparseLinear::new(5, 3, &mut rng);
        let mut ld = dense_twin(&ls);
        let mut b = CsrBuilder::new(5);
        b.push_row([(1, 1.0)]);
        b.push_row([(0, 2.0), (4, 1.0)]);
        let x = b.finish();
        let go = Matrix::from_fn(2, 3, |r, c| (r as f32 + 1.0) * (c as f32 - 1.0));
        ls.backward(&x, &go);
        ld.backward(&x.to_dense(), &go);
        assert!(ls.grad_weight.max_abs_diff(&ld.grad_weight.transpose()) < 1e-5);
        for (a, b) in ls.grad_bias.iter().zip(ld.grad_bias.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = seeded_rng(5);
        let mut l = Linear::new(2, 1, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let go = Matrix::from_vec(1, 1, vec![1.0]);
        l.backward(&x, &go);
        l.backward(&x, &go);
        assert_eq!(l.grad_weight.row(0), &[2.0, 2.0]);
        l.zero_grad();
        assert_eq!(l.grad_weight.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn relu_and_its_backward() {
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        let mut y = Matrix::zeros(0, 0);
        relu_into(&x, &mut y);
        assert_eq!(y.row(0), &[0.0, 0.0, 2.0, 0.0]);
        let go = Matrix::full(1, 4, 1.0);
        let mut gx = Matrix::zeros(0, 0);
        relu_backward_into(&x, &go, &mut gx);
        assert_eq!(gx.row(0), &[0.0, 0.0, 1.0, 0.0]);
    }
}
