//! The optimizer.
//!
//! [`Adam`] reproduces `torch.optim.Adam` (β₁ 0.9, β₂ 0.999, ε 1e-8, the
//! paper's learning rate is 0.05). It respects `requires_grad` — frozen
//! tensors are skipped entirely, matching PyTorch where frozen parameters
//! are excluded from the optimizer's work.

use std::collections::HashMap;

use ctlm_tensor::ops::{self, AdamCoeffs};

use crate::net::Net;

/// Adam with PyTorch-default hyper-parameters.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    /// First/second-moment state per parameter name. Reset when a
    /// parameter's length changes (fresh optimizer after model surgery,
    /// as the paper's per-step training loop does).
    state: HashMap<String, (Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Adam with the given learning rate and default betas.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            state: HashMap::new(),
        }
    }

    /// The paper's optimizer: `torch.optim.Adam(model.parameters(), lr=0.05)`.
    pub fn paper_default() -> Self {
        Self::new(0.05)
    }

    /// Learning rate accessor (used by ablation benches).
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one update step from the accumulated gradients.
    pub fn step(&mut self, net: &mut Net) {
        self.t += 1;
        let t = self.t;
        let coeffs = AdamCoeffs {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bias1: 1.0 - self.beta1.powi(t as i32),
            bias2: 1.0 - self.beta2.powi(t as i32),
        };
        let state = &mut self.state;
        net.visit_params_mut(|name, data, grad, requires_grad| {
            if !requires_grad {
                return;
            }
            // Double lookup instead of `entry(name.to_string())`: the
            // steady-state hit path must not allocate a key String.
            if state.get(name).is_none_or(|e| e.0.len() != data.len()) {
                // First sight, or parameter resized (grown input layer):
                // fresh moments.
                state.insert(
                    name.to_string(),
                    (vec![0.0; data.len()], vec![0.0; data.len()]),
                );
            }
            let (m, v) = state.get_mut(name).expect("just inserted");
            ops::adam_update(data, grad, m, v, coeffs);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::CrossEntropyLoss;
    use crate::workspace::Workspace;
    use ctlm_tensor::init::seeded_rng;
    use ctlm_tensor::CsrBuilder;

    fn toy_problem() -> (ctlm_tensor::Csr, Vec<u8>) {
        // Linearly separable 3-class problem on 6 features.
        let mut b = CsrBuilder::new(6);
        let mut y = Vec::new();
        for i in 0..30 {
            let class = i % 3;
            b.push_row([(class * 2, 1.0), ((class * 2 + 1) % 6, 1.0)]);
            y.push(class as u8);
        }
        (b.finish(), y)
    }

    fn train_loss(optimizer: &mut Adam, epochs: usize) -> (f32, f32) {
        let mut rng = seeded_rng(10);
        let mut net = Net::two_layer(6, 8, 3, &mut rng);
        let (x, y) = toy_problem();
        let loss_fn = CrossEntropyLoss::uniform(3);
        let (first, _) = loss_fn.forward(&net.forward(&x), &y);
        let mut ws = Workspace::new();
        for _ in 0..epochs {
            net.train_batch(&x, &y, &loss_fn, &mut ws);
            optimizer.step(&mut net);
        }
        let (last, _) = loss_fn.forward(&net.forward(&x), &y);
        (first, last)
    }

    #[test]
    fn adam_reduces_loss() {
        let mut opt = Adam::new(0.05);
        let (first, last) = train_loss(&mut opt, 30);
        assert!(last < first * 0.2, "Adam failed to learn: {first} → {last}");
    }

    #[test]
    fn frozen_parameters_do_not_move() {
        let mut rng = seeded_rng(11);
        let mut net = Net::two_layer(6, 4, 3, &mut rng);
        // Freeze fc2 (Listing 3 freezes everything but fc1).
        if let crate::layer::Layer::Linear(l) = &mut net.dense_layers_mut()[0] {
            l.freeze();
        }
        let before = net.state_dict();
        let (x, y) = toy_problem();
        let loss_fn = CrossEntropyLoss::uniform(3);
        let mut opt = Adam::new(0.1);
        let mut ws = Workspace::new();
        for _ in 0..5 {
            net.train_batch(&x, &y, &loss_fn, &mut ws);
            opt.step(&mut net);
        }
        let after = net.state_dict();
        assert_eq!(
            before["fc2.weight"], after["fc2.weight"],
            "frozen fc2 moved"
        );
        assert_ne!(
            before["fc1.weight"], after["fc1.weight"],
            "fc1 should train"
        );
    }

    #[test]
    fn adam_state_resets_on_resize() {
        let mut rng = seeded_rng(12);
        let mut net = Net::two_layer(4, 3, 2, &mut rng);
        let mut opt = Adam::new(0.05);
        let mut b = CsrBuilder::new(4);
        b.push_row([(0, 1.0)]);
        b.push_row([(1, 1.0)]);
        let x = b.finish();
        let loss_fn = CrossEntropyLoss::uniform(2);
        let mut ws = Workspace::new();
        for _ in 0..3 {
            net.train_batch(&x, &[0, 1], &loss_fn, &mut ws);
            opt.step(&mut net);
        }
        // Grow the input layer and keep stepping with the same optimizer —
        // must not panic, moments reset for the resized tensor.
        let mut sd = net.state_dict();
        crate::state_dict::pad_input_weight(&mut sd, "fc1.weight", 6).unwrap();
        let mut net = Net::from_state_dict(&sd).unwrap();
        let mut b2 = CsrBuilder::new(6);
        b2.push_row([(4, 1.0)]);
        b2.push_row([(5, 1.0)]);
        let x2 = b2.finish();
        net.train_batch(&x2, &[0, 1], &loss_fn, &mut ws);
        opt.step(&mut net);
    }
}
