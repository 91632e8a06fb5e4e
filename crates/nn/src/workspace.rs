//! Reusable training-step buffers.
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
//!
//! One caveat, documented rather than hidden: above
//! `ctlm_tensor::ops::PAR_THRESHOLD` output rows the kernels take their
//! Rayon path, and at a pool width above one the thread-pool shim
//! allocates while dispatching. At width 1 those paths run inline and
//! allocate nothing either, so the guarantee covers every batch size
//! there (the test pins the trainer's 128-row batch); wider pools trade
//! the dispatch allocations for multi-core throughput.

use ctlm_tensor::Matrix;

/// Scratch buffers for one training loop: per-layer activations and
/// per-layer gradient carriers, reused across batches and epochs.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// `acts[i]` is the dense output of layer `i` (the last entry holds
    /// the logits).
    pub(crate) acts: Vec<Matrix>,
    /// `grads[i]` carries `dL/d(acts[i])` during the backward pass.
    pub(crate) grads: Vec<Matrix>,
}

impl Workspace {
    /// An empty workspace; buffers materialise on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the per-layer buffer vectors to exactly `n_layers` entries —
    /// existing buffers keep their capacity, so reuse with the same
    /// architecture never reallocates, and `logits()` always refers to
    /// the current network's last layer.
    pub(crate) fn ensure_layers(&mut self, n_layers: usize) {
        self.acts.truncate(n_layers);
        self.grads.truncate(n_layers);
        while self.acts.len() < n_layers {
            self.acts.push(Matrix::zeros(0, 0));
        }
        while self.grads.len() < n_layers {
            self.grads.push(Matrix::zeros(0, 0));
        }
    }

    /// The logits of the most recent forward pass.
    ///
    /// # Panics
    /// Panics before any forward pass has run.
    pub fn logits(&self) -> &Matrix {
        self.acts
            .last()
            .expect("no forward pass has populated this workspace")
    }
}
