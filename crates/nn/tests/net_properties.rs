//! Property tests over the NN substrate: gradient correctness, the
//! Listing-2 padding invariant on random networks, and bit-identity of
//! the once-per-distinct-row training pass with a per-sample one.

use proptest::prelude::*;

use ctlm_nn::grad_scale::ColumnGradScale;
use ctlm_nn::layer::relu_backward_into;
use ctlm_nn::state_dict::pad_input_weight;
use ctlm_nn::{Adam, CrossEntropyLoss, Layer, Net, RowSlots, Workspace};
use ctlm_tensor::init::seeded_rng;
use ctlm_tensor::{ops, Csr, CsrBuilder, Matrix};

fn random_batch(n: usize, d: usize, seed: u64) -> (ctlm_tensor::Csr, Vec<u8>) {
    use rand::Rng;
    let mut rng = seeded_rng(seed);
    let mut b = CsrBuilder::new(d);
    let mut y = Vec::new();
    for _ in 0..n {
        let k = rng.gen_range(1..=d.min(4));
        let mut cols: Vec<usize> = (0..d).collect();
        for i in 0..k {
            let j = rng.gen_range(i..d);
            cols.swap(i, j);
        }
        b.push_row(cols[..k].iter().map(|&c| (c, 1.0)));
        y.push(rng.gen_range(0..3));
    }
    (b.finish(), y)
}

/// A batch full of duplicates: about 60 % one empty row, the rest drawn
/// from five stored rows under three labels — so a row appears under
/// more than one label — plus a twin of stored row 0 whose first value is
/// one bit larger, which must not merge with it.
fn duplicate_batch(n: usize, d: usize, seed: u64) -> (Csr, Vec<u8>) {
    use rand::Rng;
    let mut rng = seeded_rng(seed);
    let next_up = f32::from_bits(1.0f32.to_bits() + 1);
    let mut b = CsrBuilder::new(d);
    let mut y = Vec::new();
    for _ in 0..n {
        let label = rng.gen_range(0..3u8);
        match rng.gen_range(0..10) {
            0..=5 => b.push_row([]),
            6 => b.push_row([(0, next_up), (d - 1, 2.0)]),
            _ => {
                let set = rng.gen_range(0..5usize);
                b.push_row([(set, 1.0), (d - 1, 2.0)]);
            }
        }
        y.push(label);
    }
    (b.finish(), y)
}

/// How [`per_sample_step`] treats subnormals in the loss.
#[derive(Clone, Copy)]
enum Subnormals {
    /// As the training step does: the softmax and the scaled gradient
    /// store a value below `f32::MIN_POSITIVE` as `+0.0`.
    Flush,
    /// As the step did before that rule: every value kept.
    Keep,
}

/// Row softmax with the arithmetic of `ops::softmax_rows_inplace` and
/// no flush: `exp(x − max)`, the row sum, one reciprocal, one multiply.
fn softmax_unflushed(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        row.iter_mut().for_each(|v| *v *= inv);
    }
}

/// The per-sample training pass, written with the public kernels: every
/// batch row forwarded, soft-maxed, scaled and back-propagated on its own
/// buffer row, as the step ran before rows were deduplicated. Leaves the
/// gradients on `net` and returns the loss.
fn per_sample_step(
    net: &mut Net,
    x: &Csr,
    y: &[u8],
    loss_fn: &CrossEntropyLoss,
    subnormals: Subnormals,
) -> f32 {
    net.zero_grad();
    let fc1 = net.input_layer();
    let mut acts = vec![Matrix::zeros(0, 0)];
    ops::csr_matmul_into(x, &fc1.weight, &mut acts[0]);
    ops::add_bias(&mut acts[0], &fc1.bias);
    for layer in net.dense_layers() {
        let prev = acts.last().expect("fc1 output");
        let mut out = Matrix::zeros(0, 0);
        match layer {
            Layer::Linear(l) => {
                ops::matmul_bt_into(prev, &l.weight, &mut out);
                ops::add_bias(&mut out, &l.bias);
            }
            Layer::Relu => {
                out.copy_from(prev);
                for v in out.as_mut_slice() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
        }
        acts.push(out);
    }

    let weights = loss_fn.weights();
    let mut grad = acts.last().expect("logits").clone();
    let flush = match subnormals {
        Subnormals::Flush => {
            ops::softmax_rows_inplace(&mut grad);
            ops::flush_subnormal
        }
        Subnormals::Keep => {
            softmax_unflushed(&mut grad);
            std::convert::identity
        }
    };
    let (mut loss, mut weight_sum) = (0.0f64, 0.0f64);
    for (i, &t) in y.iter().enumerate() {
        let w = weights[t as usize] as f64;
        loss -= w * (grad.get(i, t as usize).max(1e-12) as f64).ln();
        weight_sum += w;
    }
    let inv = 1.0 / weight_sum as f32;
    for (i, &t) in y.iter().enumerate() {
        let w = weights[t as usize];
        let row = grad.row_mut(i);
        row.iter_mut().for_each(|v| *v = flush(*v * (w * inv)));
        row[t as usize] -= w * inv;
    }

    for (i, layer) in net.dense_layers_mut().iter_mut().enumerate().rev() {
        let mut grad_in = Matrix::zeros(0, 0);
        match layer {
            Layer::Linear(l) => {
                if l.weight_requires_grad {
                    ops::matmul_at_acc(&grad, &acts[i], &mut l.grad_weight);
                }
                if l.bias_requires_grad {
                    ops::col_sums_acc(&grad, &mut l.grad_bias);
                }
                ops::matmul_into(&grad, &l.weight, &mut grad_in);
            }
            Layer::Relu => relu_backward_into(&acts[i], &grad, &mut grad_in),
        }
        grad = grad_in;
    }
    let fc1 = net.input_layer_mut();
    ops::csr_matmul_at_acc(x, &grad, &mut fc1.grad_weight);
    ops::col_sums_acc(&grad, &mut fc1.grad_bias);
    (loss / weight_sum) as f32
}

/// Every parameter's values and gradient, as bits, in visiting order.
fn param_bits(net: &mut Net) -> Vec<(String, Vec<u32>, Vec<u32>)> {
    let mut out = Vec::new();
    net.visit_params_mut(|name, data, grad, _| {
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect();
        out.push((name.to_string(), bits(data), bits(grad)));
    });
    out
}

/// The three nets the trainer and baselines run — the paper's model
/// fresh, the paper's model on the growing path (`fc2` frozen, pre-trained
/// `fc1` columns at the reduced rate), and the MLP with its ReLU — each
/// for three steps on duplicate-heavy batches.
#[test]
fn deduplicated_step_matches_the_per_sample_pass_bit_for_bit() {
    // Row counts on both sides of `col_sums_acc`'s block threshold: the
    // bias gradients change association there.
    const { assert!(40 < ops::COL_SUMS_BLOCK_THRESHOLD && 130 > ops::COL_SUMS_BLOCK_THRESHOLD) };
    let d = 12;
    for n in [40, 130] {
        for arch in ["fresh", "growing", "mlp"] {
            let mut rng = seeded_rng(n as u64);
            let mut net = if arch == "mlp" {
                Net::mlp(d, 7, 3, &mut rng)
            } else {
                Net::two_layer(d, 7, 3, &mut rng)
            };
            let scale = (arch == "growing").then(|| {
                if let Layer::Linear(fc2) = &mut net.dense_layers_mut()[0] {
                    fc2.freeze();
                }
                ColumnGradScale::new(d / 2, d, 0.1)
            });
            let loss_fn = CrossEntropyLoss::with_weights(vec![200.0, 1.0, 3.0]);
            let (mut dedup, mut reference) = (net.clone(), net);
            let (mut opt_a, mut opt_b) = (Adam::paper_default(), Adam::paper_default());
            let mut ws = Workspace::new();
            for step in 0..3u64 {
                let (x, y) = duplicate_batch(n, d, 100 * n as u64 + step);
                let mut slots = RowSlots::new();
                slots.assign(&x, Some(&y));
                assert!(slots.firsts().len() <= 7 * 3, "7 rows × 3 labels");
                let loss_a = dedup.train_batch(&x, &y, &loss_fn, &mut ws);
                let loss_b = per_sample_step(&mut reference, &x, &y, &loss_fn, Subnormals::Flush);
                if let Some(m) = &scale {
                    m.apply(dedup.input_layer_mut());
                    m.apply(reference.input_layer_mut());
                }
                let at = format!("{arch}, {n} rows, step {step}");
                assert_eq!(loss_a.to_bits(), loss_b.to_bits(), "loss: {at}");
                let grads = param_bits(&mut dedup);
                assert_eq!(grads, param_bits(&mut reference), "gradients: {at}");
                opt_a.step(&mut dedup);
                opt_b.step(&mut reference);
                let weights = param_bits(&mut dedup);
                assert_eq!(weights, param_bits(&mut reference), "Adam: {at}");
            }
        }
    }
}

/// Each parameter's values as bits, in visiting order: no gradients.
fn value_bits(net: &mut Net) -> Vec<(String, Vec<u32>)> {
    let mut out = Vec::new();
    net.visit_params_mut(|name, data, _, _| {
        out.push((name.to_string(), data.iter().map(|v| v.to_bits()).collect()));
    });
    out
}

/// Subnormal softmax numerators `exp(x − max)` in a batch's logits: the
/// values the loss stores as `+0.0` where it would have kept them.
fn subnormal_numerators(logits: &Matrix) -> usize {
    (0..logits.rows())
        .map(|r| {
            let row = logits.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            row.iter()
                .filter(|&&v| (v - max).exp().is_subnormal())
                .count()
        })
        .sum()
}

/// The flush moves no trained weight: a CO-VV-shaped toy (70 % one
/// empty row, seven wide constraint rows, each row one label, Group 0
/// weighted 200) trains until its softmax numerators are subnormal, and
/// after every Adam step each parameter of the deduplicated, flushing
/// step equals, bit for bit, the one a per-sample pass gives that keeps
/// every subnormal. The gradients themselves may differ below
/// `MIN_POSITIVE`; what reaches the weights may not.
#[test]
fn flushing_subnormals_moves_no_weight_bit() {
    use rand::Rng;
    let (d, hidden, classes, n) = (64, 30, 8, 64);
    let mut rng = seeded_rng(11);
    // One constraint row of 20–30 stored columns per label below the
    // last; the empty row takes the last label.
    let sets: Vec<Vec<usize>> = (0..classes - 1)
        .map(|_| {
            let k = rng.gen_range(20..=30);
            let mut cols: Vec<usize> = (0..d).collect();
            for i in 0..k {
                let j = rng.gen_range(i..d);
                cols.swap(i, j);
            }
            let mut set = cols[..k].to_vec();
            set.sort_unstable();
            set
        })
        .collect();
    let batch = |seed: u64| {
        let mut rng = seeded_rng(seed);
        let mut b = CsrBuilder::new(d);
        let mut y = Vec::new();
        for _ in 0..n {
            if rng.gen_bool(0.7) {
                b.push_row([]);
                y.push(classes as u8 - 1);
            } else {
                let c: usize = rng.gen_range(0..classes - 1);
                b.push_row(sets[c].iter().map(|&col| (col, 1.0)));
                y.push(c as u8);
            }
        }
        (b.finish(), y)
    };
    let loss_fn = CrossEntropyLoss::group0_boosted(classes, 200.0);
    let mut flushing = Net::two_layer(d, hidden, classes, &mut seeded_rng(5));
    let mut keeping = flushing.clone();
    let (mut opt_a, mut opt_b) = (Adam::paper_default(), Adam::paper_default());
    let mut ws = Workspace::new();
    let mut flushed = 0;
    for step in 0..200u64 {
        let (x, y) = batch(1000 + step);
        flushed += subnormal_numerators(&flushing.forward(&x));
        let loss_a = flushing.train_batch(&x, &y, &loss_fn, &mut ws);
        let loss_b = per_sample_step(&mut keeping, &x, &y, &loss_fn, Subnormals::Keep);
        assert_eq!(loss_a.to_bits(), loss_b.to_bits(), "loss at step {step}");
        opt_a.step(&mut flushing);
        opt_b.step(&mut keeping);
        assert_eq!(
            value_bits(&mut flushing),
            value_bits(&mut keeping),
            "weights after step {step}"
        );
    }
    assert!(
        flushed > 0,
        "no softmax numerator was subnormal: the toy never reached the flush"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Analytic gradients match finite differences for random shapes,
    /// seeds and class weights — the whole backward path, sparse input
    /// included.
    #[test]
    fn gradients_match_finite_differences(
        d in 3usize..10,
        hidden in 2usize..8,
        n in 2usize..8,
        seed in 0u64..500,
        w0 in 1u32..100,
    ) {
        let mut rng = seeded_rng(seed);
        let mut net = Net::two_layer(d, hidden, 3, &mut rng);
        let (x, y) = random_batch(n, d, seed ^ 0xABCD);
        let loss_fn = CrossEntropyLoss::with_weights(vec![w0 as f32, 1.0, 1.0]);

        net.train_batch(&x, &y, &loss_fn, &mut Workspace::new());

        let eps = 1e-2f32;
        // fc1 is stored input-major: (input column, hidden unit).
        let (r, c) = (d - 1, 0usize);
        let analytic = net.input_layer().grad_weight.get(r, c);
        let orig = net.input_layer().weight.get(r, c);
        net.input_layer_mut().weight.set(r, c, orig + eps);
        let (lp, _) = loss_fn.forward(&net.forward(&x), &y);
        net.input_layer_mut().weight.set(r, c, orig - eps);
        let (lm, _) = loss_fn.forward(&net.forward(&x), &y);
        let numeric = (lp - lm) / (2.0 * eps);
        let tol = 2e-2f32.max(0.1 * numeric.abs());
        prop_assert!(
            (analytic - numeric).abs() < tol,
            "analytic {analytic} vs numeric {numeric} (d={d} hidden={hidden} n={n})"
        );
    }

    /// Listing 2 invariant: padding fc1.weight with zero columns never
    /// changes the network's output on inputs confined to the original
    /// feature prefix — for any architecture and any amount of padding.
    #[test]
    fn zero_padding_preserves_old_prefix_behaviour(
        d in 2usize..12,
        hidden in 2usize..10,
        classes in 2usize..6,
        extra in 1usize..20,
        seed in 0u64..500,
    ) {
        let mut rng = seeded_rng(seed);
        let net = Net::two_layer(d, hidden, classes, &mut rng);
        let (x, _) = random_batch(5, d, seed ^ 0x77);
        let before = net.forward(&x);

        let mut sd = net.state_dict();
        pad_input_weight(&mut sd, "fc1.weight", d + extra).unwrap();
        let wide = Net::from_state_dict(&sd).unwrap();
        prop_assert_eq!(wide.in_features(), d + extra);

        // Same rows, widened matrix.
        let mut b = CsrBuilder::new(d + extra);
        for r in 0..x.rows() {
            b.push_row(x.row_entries(r));
        }
        let after = wide.forward(&b.finish());
        prop_assert_eq!(before, after);
    }

    /// Loss is permutation-equivariant over the batch: shuffling samples
    /// never changes the (weighted-mean) loss value.
    #[test]
    fn loss_is_batch_order_invariant(
        n in 2usize..10,
        seed in 0u64..500,
    ) {
        let mut rng = seeded_rng(seed);
        let net = Net::two_layer(6, 4, 3, &mut rng);
        let (x, y) = random_batch(n, 6, seed ^ 0x55);
        let loss_fn = CrossEntropyLoss::with_weights(vec![5.0, 1.0, 2.0]);
        let (l1, _) = loss_fn.forward(&net.forward(&x), &y);

        let perm: Vec<usize> = (0..n).rev().collect();
        let xp = x.select_rows(&perm);
        let yp: Vec<u8> = perm.iter().map(|&i| y[i]).collect();
        let (l2, _) = loss_fn.forward(&net.forward(&xp), &yp);
        prop_assert!((l1 - l2).abs() < 1e-4, "loss {l1} vs permuted {l2}");
    }
}
