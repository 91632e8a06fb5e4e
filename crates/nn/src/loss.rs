//! Weighted cross-entropy loss.
//!
//! `torch.nn.CrossEntropyLoss(weight=class_weights)` with mean reduction:
//! softmax over logits, negative log-likelihood weighted per class, and
//! the weighted-mean convention PyTorch uses (divide by the *sum of the
//! selected samples' weights*, not the batch size). The paper sets the
//! Group 0 weight to 200 and all others to 1.
//!
//! **No subnormal leaves the loss.** A confident network drives most
//! off-target probabilities far below `f32::MIN_POSITIVE`, and every
//! subnormal operand costs the backward kernels a microcode assist. So
//! the softmax stores such probabilities as `+0.0`
//! ([`ops::softmax_rows_inplace`]), and a gradient entry whose magnitude
//! falls below `MIN_POSITIVE` after the per-sample `w / Σw` scaling is
//! stored as zero too ([`ops::flush_subnormal`]). The target entry,
//! `(p − 1) · w / Σw`, is normal (or zero where `p` rounds to 1), so in
//! practice only off-target entries flush. The loss value cannot change:
//! it reads `p.max(1e-12)`.

use ctlm_tensor::{ops, Matrix};

/// Cross-entropy with per-class weights.
#[derive(Clone, Debug)]
pub struct CrossEntropyLoss {
    weights: Vec<f32>,
}

impl CrossEntropyLoss {
    /// Uniform weights over `n_classes`.
    pub fn uniform(n_classes: usize) -> Self {
        Self {
            weights: vec![1.0; n_classes],
        }
    }

    /// Explicit per-class weights.
    ///
    /// # Panics
    /// Panics if any weight is non-positive.
    pub fn with_weights(weights: Vec<f32>) -> Self {
        assert!(
            weights.iter().all(|&w| w > 0.0),
            "class weights must be positive"
        );
        Self { weights }
    }

    /// The paper's weighting: `[GROUP_0_CLASS_WEIGHT] + [1] * 25`.
    pub fn group0_boosted(n_classes: usize, group0_weight: f32) -> Self {
        let mut w = vec![1.0; n_classes];
        w[0] = group0_weight;
        Self { weights: w }
    }

    /// The weight vector.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Computes `(loss, grad_logits)` for a batch.
    ///
    /// # Panics
    /// Panics on shape mismatch or out-of-range targets.
    pub fn forward(&self, logits: &Matrix, targets: &[u8]) -> (f32, Matrix) {
        let identity: Vec<u32> = (0..targets.len() as u32).collect();
        let mut grad = Matrix::zeros(0, 0);
        let loss = self.forward_into(logits, targets, &identity, &mut grad);
        (loss, grad)
    }

    /// [`CrossEntropyLoss::forward`] over a batch stored once per distinct
    /// `(row, label)` pair: sample `i` of the batch has label `targets[i]`
    /// and logits `logits.row(slot_of[i])`, with slots numbered in order
    /// of first appearance (what [`crate::workspace::RowSlots`] hands
    /// out). `grad` receives `dL/dlogits` per slot.
    ///
    /// The softmax and the per-row gradient scaling run once per slot;
    /// the loss and weight sums run over the batch in its order, so the
    /// result has the bits of the per-sample computation. The softmax
    /// runs in place on `grad`, so a warmed buffer makes the whole
    /// loss+gradient step allocation-free.
    ///
    /// # Panics
    /// Panics on shape mismatch, out-of-range targets, or slots that are
    /// not numbered in order of first appearance.
    pub fn forward_into(
        &self,
        logits: &Matrix,
        targets: &[u8],
        slot_of: &[u32],
        grad: &mut Matrix,
    ) -> f32 {
        assert_eq!(slot_of.len(), targets.len(), "batch size mismatch");
        assert_eq!(logits.cols(), self.weights.len(), "class count mismatch");
        grad.copy_from(logits);
        ops::softmax_rows_inplace(grad);
        let mut loss = 0.0f64;
        let mut weight_sum = 0.0f64;
        for (&t, &s) in targets.iter().zip(slot_of) {
            let t = t as usize;
            assert!(t < self.weights.len(), "target {t} out of range");
            let w = self.weights[t] as f64;
            let p = grad.get(s as usize, t).max(1e-12) as f64;
            loss -= w * p.ln();
            weight_sum += w;
        }

        // grad wrt logits: w[y_i] * (softmax - onehot) / Σ w[y_i], written
        // once per slot, at the slot's first sample.
        let inv = 1.0 / weight_sum as f32;
        let mut next = 0u32;
        for (&t, &s) in targets.iter().zip(slot_of) {
            assert!(
                s <= next,
                "slots must be numbered in order of first appearance"
            );
            if s < next {
                continue;
            }
            next += 1;
            let w = self.weights[t as usize];
            let row = grad.row_mut(s as usize);
            for v in row.iter_mut() {
                *v = ops::flush_subnormal(*v * (w * inv));
            }
            row[t as usize] -= w * inv;
        }
        assert_eq!(next as usize, logits.rows(), "a logit row has no sample");
        (loss / weight_sum) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_loss_matches_manual_nll() {
        let loss_fn = CrossEntropyLoss::uniform(2);
        // Logits [0, 0] → p = 0.5 → loss = ln 2.
        let logits = Matrix::zeros(1, 2);
        let (l, _) = loss_fn.forward(&logits, &[0]);
        assert!((l - std::f32::consts::LN_2).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let loss_fn = CrossEntropyLoss::uniform(3);
        let logits = Matrix::from_vec(1, 3, vec![10.0, -10.0, -10.0]);
        let (l, _) = loss_fn.forward(&logits, &[0]);
        assert!(l < 1e-3);
        let (l_wrong, _) = loss_fn.forward(&logits, &[1]);
        assert!(
            l_wrong > 5.0,
            "incorrect confident prediction heavily penalised"
        );
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        // Σ_c grad[i][c] = w (Σ softmax - 1) / Σw = 0 per row.
        let loss_fn = CrossEntropyLoss::group0_boosted(4, 200.0);
        let logits = Matrix::from_vec(2, 4, vec![1.0, 2.0, 0.5, -1.0, 0.0, 0.0, 3.0, 1.0]);
        let (_, g) = loss_fn.forward(&logits, &[0, 2]);
        for r in 0..2 {
            let s: f32 = g.row(r).iter().sum();
            assert!(s.abs() < 1e-5, "row {r} grad sum {s}");
        }
    }

    #[test]
    fn group0_weight_amplifies_group0_gradient() {
        let uniform = CrossEntropyLoss::uniform(2);
        let boosted = CrossEntropyLoss::group0_boosted(2, 200.0);
        let logits = Matrix::from_vec(2, 2, vec![0.0, 0.0, 0.0, 0.0]);
        // Batch with one sample of each class.
        let (_, gu) = uniform.forward(&logits, &[0, 1]);
        let (_, gb) = boosted.forward(&logits, &[0, 1]);
        // Relative contribution of the class-0 sample grows under boosting.
        let ratio_u = gu.get(0, 0).abs() / gu.get(1, 1).abs();
        let ratio_b = gb.get(0, 0).abs() / gb.get(1, 1).abs();
        assert!((ratio_u - 1.0).abs() < 1e-4);
        assert!((ratio_b - 200.0).abs() < 0.5, "boost ratio {ratio_b}");
    }

    #[test]
    fn weighted_mean_uses_weight_sum_denominator() {
        // PyTorch semantics: loss = Σ w_i * nll_i / Σ w_i. With all
        // samples in one class, the weight cancels exactly.
        let boosted = CrossEntropyLoss::group0_boosted(2, 200.0);
        let uniform = CrossEntropyLoss::uniform(2);
        let logits = Matrix::from_vec(2, 2, vec![0.3, -0.2, 1.0, 0.1]);
        let (lb, _) = boosted.forward(&logits, &[0, 0]);
        let (lu, _) = uniform.forward(&logits, &[0, 0]);
        assert!((lb - lu).abs() < 1e-6);
    }

    #[test]
    fn numeric_gradient_of_loss() {
        let loss_fn = CrossEntropyLoss::with_weights(vec![2.0, 1.0, 5.0]);
        let logits = Matrix::from_vec(2, 3, vec![0.5, -0.1, 0.2, 1.0, 0.0, -1.0]);
        let targets = [2u8, 0];
        let (_, g) = loss_fn.forward(&logits, &targets);
        let eps = 1e-3;
        for (r, c) in [(0usize, 0usize), (0, 2), (1, 1)] {
            let mut lp = logits.clone();
            lp.set(r, c, lp.get(r, c) + eps);
            let mut lm = logits.clone();
            lm.set(r, c, lm.get(r, c) - eps);
            let (fp, _) = loss_fn.forward(&lp, &targets);
            let (fm, _) = loss_fn.forward(&lm, &targets);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (g.get(r, c) - numeric).abs() < 1e-3,
                "grad[{r}][{c}] analytic {} vs numeric {numeric}",
                g.get(r, c)
            );
        }
    }

    /// The loss and gradient with the arithmetic of `forward_into` and no
    /// flush anywhere: what the loss computed before subnormals were
    /// kept out of it.
    fn unflushed(weights: &[f32], logits: &Matrix, targets: &[u8]) -> (f32, Matrix) {
        let mut grad = logits.clone();
        for r in 0..grad.rows() {
            let row = grad.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            row.iter_mut().for_each(|v| *v *= inv);
        }
        let (mut loss, mut weight_sum) = (0.0f64, 0.0f64);
        for (i, &t) in targets.iter().enumerate() {
            let w = weights[t as usize] as f64;
            loss -= w * (grad.get(i, t as usize).max(1e-12) as f64).ln();
            weight_sum += w;
        }
        let inv = 1.0 / weight_sum as f32;
        for (i, &t) in targets.iter().enumerate() {
            let w = weights[t as usize];
            let row = grad.row_mut(i);
            row.iter_mut().for_each(|v| *v *= w * inv);
            row[t as usize] -= w * inv;
        }
        ((loss / weight_sum) as f32, grad)
    }

    /// No subnormal leaves the loss. Logits spread up to ±200 over the
    /// paper's 26 classes, Group 0 weighted 200: no gradient entry is
    /// subnormal, each equals the unflushed entry with its subnormals
    /// stored as `+0.0`, bit for bit, and the loss is the unflushed loss
    /// bit for bit. Some entries do flush, so the check is not vacuous.
    #[test]
    fn no_subnormal_gradient_leaves_the_loss() {
        let loss_fn = CrossEntropyLoss::group0_boosted(26, 200.0);
        let mut flushed = 0;
        for spread in [10.0f32, 60.0, 120.0, 200.0] {
            for n in [1usize, 5, 40] {
                let mut state = 0x9e37_79b9u32 ^ (n as u32) ^ spread.to_bits();
                let mut draw = || {
                    state ^= state << 13;
                    state ^= state >> 17;
                    state ^= state << 5;
                    state
                };
                let logits = Matrix::from_fn(n, 26, |_, _| {
                    (draw() % 2001) as f32 / 1000.0 * spread - spread
                });
                let targets: Vec<u8> = (0..n).map(|_| (draw() % 26) as u8).collect();
                let (loss, grad) = loss_fn.forward(&logits, &targets);
                let (want_loss, want_grad) = unflushed(loss_fn.weights(), &logits, &targets);
                assert_eq!(
                    loss.to_bits(),
                    want_loss.to_bits(),
                    "loss at ±{spread}, {n} rows"
                );
                for (&g, &w) in grad.as_slice().iter().zip(want_grad.as_slice()) {
                    assert!(!g.is_subnormal(), "subnormal gradient {g:e}");
                    let want = if w.abs() < f32::MIN_POSITIVE { 0.0 } else { w };
                    assert_eq!(g.to_bits(), want.to_bits(), "{w:e}");
                    flushed += usize::from(w.is_subnormal());
                }
            }
        }
        assert!(flushed > 0, "no gradient entry reached a subnormal");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_weights() {
        let _ = CrossEntropyLoss::with_weights(vec![1.0, 0.0]);
    }
}
