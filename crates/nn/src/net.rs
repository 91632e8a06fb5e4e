//! The `nn.Sequential` equivalent.
//!
//! A [`Net`] is a [`SparseLinear`] input layer, which consumes the sparse
//! batch, followed by an ordered stack of dense [`Layer`]s. Linear layers
//! are named `fc1`, `fc2`, … in order, so state dicts carry the exact
//! keys the paper's listings manipulate (`fc1.weight`, `fc1.bias`,
//! `fc2.weight`, `fc2.bias`).
//!
//! The input layer stores `fc1.weight` input-major `(in × out)`; the
//! state dict is the one place that is visible, and it is hidden there:
//! [`Net::state_dict`] and [`Net::load_state_dict`] transpose at the
//! boundary, so dicts keep PyTorch's `(out × in)` shape and the
//! Listing-2 padding surgery, saved models and serde round-trips are
//! layout-blind.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use ctlm_tensor::{ops, Csr, Matrix};

use crate::layer::{relu_backward_into, Layer, Linear, SparseLinear};
use crate::loss::CrossEntropyLoss;
use crate::state_dict::{StateDict, StateDictError, TensorData};
use crate::workspace::{Lap, RowSlots, Workspace};

/// A sequential network over sparse input batches.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Net {
    /// `fc1`, the only layer that sees the sparse batch.
    input: SparseLinear,
    /// Everything after it, in order.
    layers: Vec<Layer>,
}

/// Fixed-capacity formatter for `fcN.weight`/`fcN.bias` parameter names —
/// keeps [`Net::visit_params_mut`] off the heap.
#[derive(Default)]
struct ParamName {
    buf: [u8; 32],
}

impl ParamName {
    fn format(&mut self, n: usize, suffix: &str) -> &str {
        use std::io::Write as _;
        let mut cursor = &mut self.buf[..];
        write!(cursor, "fc{n}.{suffix}").expect("parameter name fits the buffer");
        let remaining = cursor.len();
        let len = self.buf.len() - remaining;
        std::str::from_utf8(&self.buf[..len]).expect("ASCII parameter name")
    }
}

/// `m`'s rows in batch order: `m` itself when every batch row is its own
/// slot, else row `slot_of[r]` of `m` copied to row `r` of `buf`. The
/// batch reductions read this, so each sums its operands in batch order.
fn batch_order<'a>(m: &'a Matrix, slots: &RowSlots, buf: &'a mut Matrix) -> &'a Matrix {
    if slots.is_identity() {
        return m;
    }
    buf.resize(slots.slot_of().len(), m.cols());
    for (r, &s) in slots.slot_of().iter().enumerate() {
        buf.row_mut(r).copy_from_slice(m.row(s as usize));
    }
    buf
}

/// Looks up `key` and checks its shape (and that the payload holds what
/// the shape says — a hand-edited or truncated saved dict must be an
/// error, not a slice-length panic).
fn tensor<'a>(
    sd: &'a StateDict,
    key: String,
    expected: &[usize],
) -> Result<&'a TensorData, StateDictError> {
    let Some(t) = sd.get(&key) else {
        return Err(StateDictError::MissingKey(key));
    };
    if t.shape != expected || t.data.len() != t.numel() {
        return Err(StateDictError::ShapeMismatch {
            key,
            expected: expected.to_vec(),
            found: t.shape.clone(),
        });
    }
    Ok(t)
}

impl Net {
    /// Builds the paper's model (Listing 1): two bare linear layers,
    /// `fc1: in → hidden`, `fc2: hidden → classes`, no activation.
    pub fn two_layer(in_features: usize, hidden: usize, classes: usize, rng: &mut StdRng) -> Self {
        Self {
            input: SparseLinear::new(in_features, hidden, rng),
            layers: vec![Layer::Linear(Linear::new(hidden, classes, rng))],
        }
    }

    /// Builds an MLP with one ReLU hidden layer (the scikit-learn
    /// `MLPClassifier` architecture used as a baseline).
    pub fn mlp(in_features: usize, hidden: usize, classes: usize, rng: &mut StdRng) -> Self {
        Self {
            input: SparseLinear::new(in_features, hidden, rng),
            layers: vec![
                Layer::Relu,
                Layer::Linear(Linear::new(hidden, classes, rng)),
            ],
        }
    }

    /// Builds from an explicit input layer and the dense stack after it.
    pub fn from_layers(input: SparseLinear, layers: Vec<Layer>) -> Self {
        Self { input, layers }
    }

    /// Builds the bare linear stack a state dict describes — `fc1`,
    /// `fc2`, … for as long as `fcN.weight` is present, no activations
    /// (the paper's Listing-1 architecture) — with every parameter taken
    /// from the dict. Shapes come from the `(out × in)` weights, so no
    /// weight is drawn only to be overwritten.
    pub fn from_state_dict(sd: &StateDict) -> Result<Self, StateDictError> {
        let dims = |n: usize| match sd.get(&format!("fc{n}.weight")) {
            Some(t) if t.shape.len() == 2 => Ok(Some((t.shape[1], t.shape[0]))),
            Some(t) => Err(StateDictError::ShapeMismatch {
                key: format!("fc{n}.weight"),
                expected: vec![0, 0],
                found: t.shape.clone(),
            }),
            None => Ok(None),
        };
        let (in_features, hidden) =
            dims(1)?.ok_or_else(|| StateDictError::MissingKey("fc1.weight".to_string()))?;
        let mut net = Self {
            input: SparseLinear::zeros(in_features, hidden),
            layers: Vec::new(),
        };
        while let Some((i, o)) = dims(net.layers.len() + 2)? {
            net.layers.push(Layer::Linear(Linear::zeros(i, o)));
        }
        net.load_state_dict(sd)?;
        Ok(net)
    }

    /// The dense layers after the input layer (read-only).
    pub fn dense_layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the dense layers (freezing, ablation surgery).
    pub fn dense_layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Input feature width of the network.
    pub fn in_features(&self) -> usize {
        self.input.in_features()
    }

    /// Output width (class count).
    pub fn out_features(&self) -> usize {
        self.layers
            .iter()
            .rev()
            .find_map(|l| match l {
                Layer::Linear(lin) => Some(lin.out_features()),
                Layer::Relu => None,
            })
            .unwrap_or_else(|| self.input.out_features())
    }

    /// The sparse input layer — the paper's `fc1`, target of all the
    /// growing-model surgery.
    pub fn input_layer_mut(&mut self) -> &mut SparseLinear {
        &mut self.input
    }

    /// Immutable access to `fc1`.
    pub fn input_layer(&self) -> &SparseLinear {
        &self.input
    }

    /// The forward pass — the only one there is: `acts[0]` gets `fc1`'s
    /// output and `acts[i + 1]` dense layer `i`'s, so the last entry holds
    /// the logits. `after_fc1` runs between `fc1` and the dense stack
    /// (the training step's clock reads there).
    ///
    /// # Panics
    /// Panics unless `acts` holds one matrix per layer, `fc1` included.
    fn forward_acts(&self, x: &Csr, acts: &mut [Matrix], after_fc1: impl FnOnce()) {
        assert_eq!(acts.len(), 1 + self.layers.len(), "one buffer per layer");
        self.input.forward_into(x, &mut acts[0]);
        after_fc1();
        for (i, layer) in self.layers.iter().enumerate() {
            let (prev, rest) = acts.split_at_mut(i + 1);
            layer.forward_dense_into(&prev[i], &mut rest[0]);
        }
    }

    /// Inference forward pass into `ws`'s activation buffers, returning
    /// the logits borrowed from it. Allocation-free once `ws` has carried
    /// as many rows through a network as wide — the per-task analyzer
    /// and the trainer's per-epoch evaluation both run here.
    pub fn forward_into<'w>(&self, x: &Csr, ws: &'w mut Workspace) -> &'w Matrix {
        ws.size_layers(1 + self.layers.len());
        self.forward_acts(x, &mut ws.acts, || {});
        ws.acts.last().expect("fc1 always has a buffer")
    }

    /// Inference forward pass into fresh buffers, the logits returned.
    pub fn forward(&self, x: &Csr) -> Matrix {
        let mut acts = vec![Matrix::zeros(0, 0); 1 + self.layers.len()];
        self.forward_acts(x, &mut acts, || {});
        acts.pop().expect("fc1 always has a buffer")
    }

    /// Predicted class per row.
    pub fn predict(&self, x: &Csr) -> Vec<u8> {
        let logits = self.forward(x);
        (0..logits.rows())
            .map(|r| logits.argmax_row(r) as u8)
            .collect()
    }

    /// The widest activation: `fc1`'s output or a later linear layer's.
    fn widest(&self) -> usize {
        self.layers
            .iter()
            .filter_map(|l| match l {
                Layer::Linear(lin) => Some(lin.out_features()),
                Layer::Relu => None,
            })
            .fold(self.input.out_features(), usize::max)
    }

    /// One full training step on a mini-batch — `zero_grad`, forward,
    /// weighted cross-entropy, backward — returning the batch loss.
    /// Steady-state calls perform zero heap allocations (see
    /// [`Workspace`]); the caller applies gradient scaling and the
    /// optimizer step.
    ///
    /// Every per-row operation — the forward pass, the softmax, the
    /// gradient scaling and each `grad_in = grad_out · W` — runs once per
    /// distinct `(row, label)` pair of the batch. The reductions across
    /// the batch (parameter gradients, loss) read it in batch order, so
    /// the loss and every gradient have the bits a per-sample pass gives.
    /// A batch without duplicates runs the same code with an identity
    /// slot map. Each stage's time is added to the workspace's
    /// [`StageTimes`](crate::StageTimes).
    pub fn train_batch(
        &mut self,
        x: &Csr,
        targets: &[u8],
        loss_fn: &CrossEntropyLoss,
        ws: &mut Workspace,
    ) -> f32 {
        let mut lap = Lap::start();
        self.zero_grad();
        ws.prepare(1 + self.layers.len(), x.rows(), self.widest());
        let Workspace {
            acts,
            grads,
            slots,
            distinct,
            batch_grad,
            batch_act,
            times,
        } = ws;
        slots.assign(x, Some(targets));
        let rows = if slots.is_identity() {
            x
        } else {
            x.select_rows_into(slots.firsts(), distinct);
            &*distinct
        };
        times.rows += lap.lap();

        self.forward_acts(rows, acts, || times.fc1_forward += lap.lap());
        times.dense_forward += lap.lap();
        let last = self.layers.len();
        let loss = loss_fn.forward_into(&acts[last], targets, slots.slot_of(), &mut grads[last]);
        times.loss += lap.lap();

        // Backward: grads[i] carries dL/d(acts[i]).
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let (before, after) = grads.split_at_mut(i + 1);
            let (grad_out, grad_in) = (&after[0], &mut before[i]);
            match layer {
                Layer::Linear(l) => {
                    if l.weight_requires_grad || l.bias_requires_grad {
                        let input = batch_order(&acts[i], slots, batch_act);
                        l.backward(input, batch_order(grad_out, slots, batch_grad));
                    }
                    l.input_grad_into(grad_out, grad_in);
                }
                Layer::Relu => relu_backward_into(&acts[i], grad_out, grad_in),
            }
        }
        times.dense_backward += lap.lap();
        self.input
            .backward(x, batch_order(&grads[0], slots, batch_grad));
        times.fc1_backward += lap.lap();
        loss
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.input.zero_grad();
        for layer in &mut self.layers {
            if let Layer::Linear(l) = layer {
                l.zero_grad();
            }
        }
    }

    /// Visits every parameter tensor as `(name, data, grad, requires_grad)`.
    /// Names follow the PyTorch convention of the listings: `fcN.weight`,
    /// `fcN.bias` with N counting linear layers from 1. `data` and `grad`
    /// are each tensor's own storage in its own layout (`fc1.weight` is
    /// input-major), which is all an element-wise optimizer needs. Names
    /// are formatted into a stack buffer, so visiting allocates nothing —
    /// optimizers run this on every step.
    pub fn visit_params_mut(&mut self, mut f: impl FnMut(&str, &mut [f32], &[f32], bool)) {
        let mut name = ParamName::default();
        let fc1 = &mut self.input;
        f(
            name.format(1, "weight"),
            fc1.weight.as_mut_slice(),
            fc1.grad_weight.as_slice(),
            fc1.weight_requires_grad,
        );
        f(
            name.format(1, "bias"),
            &mut fc1.bias,
            &fc1.grad_bias,
            fc1.bias_requires_grad,
        );
        let mut n = 1;
        for layer in &mut self.layers {
            if let Layer::Linear(l) = layer {
                n += 1;
                f(
                    name.format(n, "weight"),
                    l.weight.as_mut_slice(),
                    l.grad_weight.as_slice(),
                    l.weight_requires_grad,
                );
                f(
                    name.format(n, "bias"),
                    &mut l.bias,
                    &l.grad_bias,
                    l.bias_requires_grad,
                );
            }
        }
    }

    /// Extracts the model's state dict (PyTorch `model.state_dict()`).
    /// Every weight is `(out × in)`, `fc1.weight` included: it is
    /// transposed out of its input-major storage straight into the
    /// dict's tensor.
    pub fn state_dict(&self) -> StateDict {
        let bias = |b: &[f32]| TensorData {
            shape: vec![b.len()],
            data: b.to_vec(),
        };
        let mut sd = StateDict::new();
        let (d, hidden) = self.input.weight.shape();
        let mut fc1 = vec![0.0; d * hidden];
        ops::transpose_slice(self.input.weight.as_slice(), d, hidden, &mut fc1);
        sd.insert(
            "fc1.weight".to_string(),
            TensorData {
                shape: vec![hidden, d],
                data: fc1,
            },
        );
        sd.insert("fc1.bias".to_string(), bias(&self.input.bias));
        let mut n = 1;
        for layer in &self.layers {
            if let Layer::Linear(l) = layer {
                n += 1;
                sd.insert(
                    format!("fc{n}.weight"),
                    TensorData {
                        shape: vec![l.weight.rows(), l.weight.cols()],
                        data: l.weight.as_slice().to_vec(),
                    },
                );
                sd.insert(format!("fc{n}.bias"), bias(&l.bias));
            }
        }
        sd
    }

    /// Restores parameters from a state dict (PyTorch
    /// `model.load_state_dict()`): strict shape checking, all keys
    /// required. Values are written into the existing storage —
    /// `fc1.weight` transposed into its input-major matrix — so loading
    /// allocates nothing.
    pub fn load_state_dict(&mut self, sd: &StateDict) -> Result<(), StateDictError> {
        let (d, hidden) = self.input.weight.shape();
        let w = tensor(sd, "fc1.weight".to_string(), &[hidden, d])?;
        ops::transpose_slice(&w.data, hidden, d, self.input.weight.as_mut_slice());
        let b = tensor(sd, "fc1.bias".to_string(), &[hidden])?;
        self.input.bias.copy_from_slice(&b.data);
        let mut n = 1;
        for layer in &mut self.layers {
            if let Layer::Linear(l) = layer {
                n += 1;
                let shape = [l.weight.rows(), l.weight.cols()];
                let w = tensor(sd, format!("fc{n}.weight"), &shape)?;
                l.weight.as_mut_slice().copy_from_slice(&w.data);
                let b = tensor(sd, format!("fc{n}.bias"), &[l.bias.len()])?;
                l.bias.copy_from_slice(&b.data);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::CrossEntropyLoss;
    use ctlm_tensor::init::seeded_rng;
    use ctlm_tensor::CsrBuilder;

    fn toy_batch(d: usize) -> (Csr, Vec<u8>) {
        let mut b = CsrBuilder::new(d);
        b.push_row([(0, 1.0), (2, 1.0)]);
        b.push_row([(1, 1.0)]);
        b.push_row([(3, 1.0), (4, 1.0)]);
        (b.finish(), vec![0, 1, 2])
    }

    #[test]
    fn two_layer_shapes() {
        let mut rng = seeded_rng(1);
        let net = Net::two_layer(10, 30, 26, &mut rng);
        assert_eq!(net.in_features(), 10);
        assert_eq!(net.out_features(), 26);
        let (x, _) = toy_batch(10);
        let y = net.forward(&x);
        assert_eq!(y.shape(), (3, 26));
    }

    #[test]
    fn state_dict_roundtrip() {
        let mut rng = seeded_rng(2);
        let net = Net::two_layer(8, 5, 3, &mut rng);
        let sd = net.state_dict();
        assert!(sd.contains_key("fc1.weight"));
        assert!(sd.contains_key("fc2.bias"));
        let mut net2 = Net::two_layer(8, 5, 3, &mut seeded_rng(99));
        net2.load_state_dict(&sd).unwrap();
        let (x, _) = toy_batch(8);
        assert_eq!(net.forward(&x), net2.forward(&x));
        // state_dict → load_state_dict → state_dict is the identity.
        assert_eq!(net2.state_dict(), sd);
    }

    #[test]
    fn state_dict_shows_pytorch_shapes_over_input_major_storage() {
        let net = Net::two_layer(8, 5, 3, &mut seeded_rng(2));
        let sd = net.state_dict();
        assert_eq!(sd["fc1.weight"].shape, vec![5, 8], "[hidden, in]");
        assert_eq!(sd["fc2.weight"].shape, vec![3, 5]);
        let w = &net.input_layer().weight;
        assert_eq!(w.shape(), (8, 5), "stored (in × out)");
        for o in 0..5 {
            for j in 0..8 {
                assert_eq!(sd["fc1.weight"].data[o * 8 + j], w.get(j, o));
            }
        }
    }

    #[test]
    fn from_state_dict_rebuilds_the_same_network() {
        let net = Net::two_layer(8, 5, 3, &mut seeded_rng(2));
        let sd = net.state_dict();
        let rebuilt = Net::from_state_dict(&sd).unwrap();
        assert_eq!(rebuilt.state_dict(), sd);
        let (x, _) = toy_batch(8);
        assert_eq!(net.forward(&x), rebuilt.forward(&x));
        assert_eq!(rebuilt.dense_layers().len(), 1);

        let mut broken = sd.clone();
        broken.remove("fc2.bias");
        assert!(matches!(
            Net::from_state_dict(&broken),
            Err(StateDictError::MissingKey(k)) if k == "fc2.bias"
        ));
        broken.remove("fc1.weight");
        assert!(Net::from_state_dict(&broken).is_err());
    }

    #[test]
    fn load_state_dict_rejects_shape_mismatch() {
        let mut rng = seeded_rng(3);
        let net = Net::two_layer(8, 5, 3, &mut rng);
        let sd = net.state_dict();
        let mut bigger = Net::two_layer(9, 5, 3, &mut rng);
        let err = bigger.load_state_dict(&sd).unwrap_err();
        assert!(matches!(err, StateDictError::ShapeMismatch { .. }));
    }

    /// The dict speaks `[hidden, in]`: a `fc1.weight` shaped like the
    /// layer's own `(in × out)` storage is a mismatch even though its
    /// payload has the right length, and so is a wrong-shaped `fc2`.
    #[test]
    fn load_state_dict_rejects_right_length_wrong_shape() {
        let mut net = Net::two_layer(8, 5, 3, &mut seeded_rng(3));
        let good = net.state_dict();

        let mut sd = good.clone();
        sd.get_mut("fc1.weight").unwrap().shape = vec![8, 5];
        assert!(matches!(
            net.load_state_dict(&sd).unwrap_err(),
            StateDictError::ShapeMismatch { key, expected, found }
                if key == "fc1.weight" && expected == [5, 8] && found == [8, 5]
        ));

        let mut sd = good.clone();
        sd.get_mut("fc2.weight").unwrap().shape = vec![5, 3];
        assert!(matches!(
            net.load_state_dict(&sd).unwrap_err(),
            StateDictError::ShapeMismatch { key, expected, found }
                if key == "fc2.weight" && expected == [3, 5] && found == [5, 3]
        ));

        net.load_state_dict(&good).unwrap();
    }

    #[test]
    fn load_state_dict_rejects_a_payload_shorter_than_its_shape() {
        let mut net = Net::two_layer(8, 5, 3, &mut seeded_rng(2));
        let mut sd = net.state_dict();
        sd.get_mut("fc1.weight").unwrap().data.pop();
        let err = net.load_state_dict(&sd).unwrap_err();
        assert!(matches!(err, StateDictError::ShapeMismatch { .. }));
    }

    /// Finite-difference gradient check on the full two-layer network,
    /// weighted loss included — validates the entire backward path.
    #[test]
    fn numeric_gradient_check() {
        let mut rng = seeded_rng(4);
        let mut net = Net::two_layer(5, 4, 3, &mut rng);
        let (x, y) = toy_batch(5);
        let loss_fn = CrossEntropyLoss::with_weights(vec![3.0, 1.0, 1.0]);

        // Analytic gradients.
        net.train_batch(&x, &y, &loss_fn, &mut Workspace::new());

        let eps = 1e-3f32;
        // Check a sample of fc1.weight entries numerically.
        // (input column, hidden unit): fc1 is stored input-major.
        for (c, r) in [(0usize, 0usize), (2, 1), (4, 3)] {
            let analytic = net.input_layer().grad_weight.get(c, r);
            let orig = net.input_layer().weight.get(c, r);
            net.input_layer_mut().weight.set(c, r, orig + eps);
            let (lp, _) = loss_fn.forward(&net.forward(&x), &y);
            net.input_layer_mut().weight.set(c, r, orig - eps);
            let (lm, _) = loss_fn.forward(&net.forward(&x), &y);
            net.input_layer_mut().weight.set(c, r, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2_f32.max(0.05 * numeric.abs()),
                "fc1.weight[{r}][{c}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn mlp_gradient_check_through_relu() {
        let mut rng = seeded_rng(5);
        let mut net = Net::mlp(5, 6, 3, &mut rng);
        let (x, y) = toy_batch(5);
        let loss_fn = CrossEntropyLoss::uniform(3);
        net.train_batch(&x, &y, &loss_fn, &mut Workspace::new());
        let eps = 1e-3f32;
        // Check one entry of the *second* linear layer (fc2).
        let (r, c) = (1usize, 3usize);
        let analytic = match &net.dense_layers()[1] {
            Layer::Linear(l) => l.grad_weight.get(r, c),
            _ => unreachable!(),
        };
        let get_set = |net: &mut Net, v: Option<f32>| -> f32 {
            match &mut net.layers[1] {
                Layer::Linear(l) => {
                    let old = l.weight.get(r, c);
                    if let Some(v) = v {
                        l.weight.set(r, c, v);
                    }
                    old
                }
                _ => unreachable!(),
            }
        };
        let orig = get_set(&mut net, None);
        get_set(&mut net, Some(orig + eps));
        let (lp, _) = loss_fn.forward(&net.forward(&x), &y);
        get_set(&mut net, Some(orig - eps));
        let (lm, _) = loss_fn.forward(&net.forward(&x), &y);
        get_set(&mut net, Some(orig));
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 2e-2_f32.max(0.05 * numeric.abs()),
            "fc2.weight[{r}][{c}]: analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn visit_params_yields_pytorch_names() {
        let mut rng = seeded_rng(6);
        let mut net = Net::two_layer(4, 3, 2, &mut rng);
        let mut names = Vec::new();
        net.visit_params_mut(|name, _, _, _| names.push(name.to_string()));
        assert_eq!(
            names,
            vec!["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]
        );
    }

    #[test]
    fn predict_returns_argmax() {
        let mut rng = seeded_rng(7);
        let net = Net::two_layer(5, 4, 3, &mut rng);
        let (x, _) = toy_batch(5);
        let logits = net.forward(&x);
        let pred = net.predict(&x);
        for (i, &p) in pred.iter().enumerate() {
            assert_eq!(p as usize, logits.argmax_rows()[i]);
        }
    }

    #[test]
    fn from_layers_takes_the_input_layer_by_type() {
        let mut rng = seeded_rng(9);
        let net = Net::from_layers(
            SparseLinear::new(5, 4, &mut rng),
            vec![Layer::Relu, Layer::Linear(Linear::new(4, 3, &mut rng))],
        );
        assert_eq!((net.in_features(), net.out_features()), (5, 3));
        let (x, _) = toy_batch(5);
        assert_eq!(net.forward(&x).shape(), (3, 3));
    }
}
