//! Property tests over the NN substrate: gradient correctness and the
//! Listing-2 padding invariant on random networks.

use proptest::prelude::*;

use ctlm_nn::state_dict::pad_input_weight;
use ctlm_nn::{CrossEntropyLoss, Net, Workspace};
use ctlm_tensor::init::seeded_rng;
use ctlm_tensor::CsrBuilder;

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
