//! Pins the Workspace contract: a steady-state training step — batch
//! gather, forward, weighted loss, backward, Adam — performs zero heap
//! allocations once buffers have warmed up, and so does the forward pass
//! that inference and the trainer's evaluation run into the same
//! buffers.
//!
//! A counting global allocator wraps the system one; each test warms every
//! buffer with a few steps, then asserts the allocation counter does not
//! move for subsequent steps. The batch shapes are 48 rows and the
//! trainer's 128 rows — on both sides of `col_sums_acc`'s 64-row block
//! threshold — the latter once with all-distinct rows and once with the
//! lab's mostly repeated ones, all at a pool width of four: no kernel
//! reaches the pool, so the width changes nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ctlm_nn::{Adam, CrossEntropyLoss, Net, Workspace};
use ctlm_tensor::init::seeded_rng;
use ctlm_tensor::{Csr, CsrBuilder};

struct CountingAlloc;

thread_local! {
    /// Per thread: the harness runs tests on parallel threads and does
    /// its own bookkeeping meanwhile, and none of that may land in a
    /// measured window. Everything measured here runs on the test's own
    /// thread. Const-initialised and drop-free, so touching it from the
    /// allocator neither allocates nor outlives the thread's TLS.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn batch(n: usize, d: usize, seed: u64) -> (Csr, Vec<u8>) {
    use rand::Rng;
    let mut rng = seeded_rng(seed);
    let mut b = CsrBuilder::new(d);
    let mut y = Vec::new();
    for _ in 0..n {
        let c0 = rng.gen_range(0..d);
        let c1 = rng.gen_range(0..d);
        b.push_row([(c0, 1.0), (c1, 1.0)]);
        y.push(rng.gen_range(0..26));
    }
    (b.finish(), y)
}

/// A batch shaped like the lab's retraining batches: about 80 % one
/// empty row (an unconstrained task), the rest drawn from six distinct
/// constrained rows, each with its own label.
fn duplicate_heavy_batch(n: usize, d: usize, seed: u64) -> (Csr, Vec<u8>) {
    use rand::Rng;
    let mut rng = seeded_rng(seed);
    let mut b = CsrBuilder::new(d);
    let mut y = Vec::new();
    for _ in 0..n {
        if rng.gen_bool(0.8) {
            b.push_row([]);
            y.push(25);
        } else {
            let set = rng.gen_range(0..6usize);
            b.push_row((set..d).step_by(4).map(|c| (c, 1.0)));
            y.push(set as u8);
        }
    }
    (b.finish(), y)
}

/// Warms a paper-shaped model (hidden 30, 26 classes) on `n`-row batches
/// cut from `data`, then asserts five more epochs of steps allocate
/// nothing.
fn assert_steady_state_steps_do_not_allocate(n: usize, (full, labels): (Csr, Vec<u8>)) {
    let d = full.cols();
    let mut rng = seeded_rng(7);
    let mut net = Net::two_layer(d, 30, 26, &mut rng);
    let loss_fn = CrossEntropyLoss::group0_boosted(26, 200.0);
    let mut opt = Adam::paper_default();
    let mut ws = Workspace::new();

    let order: Vec<usize> = (0..full.rows()).collect();
    let mut xb = Csr::empty(0, d);
    let mut yb: Vec<u8> = Vec::new();

    let step = |xb: &mut Csr,
                yb: &mut Vec<u8>,
                net: &mut Net,
                ws: &mut Workspace,
                opt: &mut Adam,
                chunk: &[usize]| {
        full.select_rows_into(chunk, xb);
        yb.clear();
        yb.extend(chunk.iter().map(|&i| labels[i]));
        let loss = net.train_batch(xb, yb, &loss_fn, ws);
        opt.step(net);
        loss
    };

    // Warm-up: touch every chunk shape once so capacities settle (the
    // last chunk is smaller, exercising buffer reuse across shapes).
    for chunk in order.chunks(n) {
        step(&mut xb, &mut yb, &mut net, &mut ws, &mut opt, chunk);
    }

    let before = allocations();
    let mut total_loss = 0.0f32;
    for _ in 0..5 {
        for chunk in order.chunks(n) {
            total_loss += step(&mut xb, &mut yb, &mut net, &mut ws, &mut opt, chunk);
        }
    }
    let after = allocations();
    assert!(total_loss.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state {n}-row training steps allocated {} times",
        after - before
    );
}

#[test]
fn steady_state_training_step_does_not_allocate_at_any_pool_width() {
    // Set before anything in this binary could start the pool: were a
    // kernel to dispatch to it, the dispatch would allocate here.
    std::env::set_var("RAYON_NUM_THREADS", "4");
    assert_steady_state_steps_do_not_allocate(48, batch(48 * 4 - 5, 40, 1));
    assert_steady_state_steps_do_not_allocate(128, batch(128 * 4 - 5, 40, 1));
    // Mostly duplicates: the slot map, the gathered distinct rows and the
    // batch-order copies reuse their buffers too, while the distinct
    // count moves from batch to batch.
    assert_steady_state_steps_do_not_allocate(128, duplicate_heavy_batch(128 * 4 - 5, 40, 2));
}

/// The one forward pass, into a workspace's buffers, allocates nothing
/// once warm: on one-row inputs (the analyzer's per-task call) and on
/// 64-row ones (a per-epoch evaluation), in a workspace that only runs
/// inference and in one that, as in the trainer, carries training steps
/// between evaluations. The logits equal `Net::forward`'s bit for bit.
#[test]
fn warm_forward_pass_and_evaluation_do_not_allocate() {
    let d = 40;
    let (x64, _) = duplicate_heavy_batch(64, d, 5);
    let (x1, _) = batch(1, d, 6);
    let (train_x, train_y) = batch(128, d, 7);
    let mut net = Net::two_layer(d, 30, 26, &mut seeded_rng(8));
    let loss_fn = CrossEntropyLoss::group0_boosted(26, 200.0);
    let mut opt = Adam::paper_default();
    let mut pred: Vec<u8> = Vec::with_capacity(64);

    // An evaluation as the trainer runs one: the logits' argmax per row
    // into a reused buffer, then one single-row prediction.
    let evaluate = |net: &Net, ws: &mut Workspace, pred: &mut Vec<u8>| {
        let logits = net.forward_into(&x64, ws);
        pred.clear();
        pred.extend((0..logits.rows()).map(|r| logits.argmax_row(r) as u8));
        net.forward_into(&x1, ws).argmax_row(0)
    };

    let mut inference = Workspace::new();
    evaluate(&net, &mut inference, &mut pred);
    let before = allocations();
    for _ in 0..5 {
        evaluate(&net, &mut inference, &mut pred);
    }
    assert_eq!(allocations() - before, 0, "warm inference allocated");

    let mut ws = Workspace::new();
    let mut train_and_evaluate = |net: &mut Net, ws: &mut Workspace, pred: &mut Vec<u8>| {
        net.train_batch(&train_x, &train_y, &loss_fn, ws);
        opt.step(net);
        evaluate(net, ws, pred)
    };
    train_and_evaluate(&mut net, &mut ws, &mut pred);
    let before = allocations();
    for _ in 0..5 {
        train_and_evaluate(&mut net, &mut ws, &mut pred);
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm training steps with evaluations allocated"
    );

    for x in [&x1, &x64] {
        let want = net.forward(x);
        for ws in [&mut inference, &mut ws] {
            let got = net.forward_into(x, ws);
            assert_eq!(got.shape(), want.shape());
            assert!(got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}

#[test]
fn workspace_reuse_still_learns() {
    // There is one training pass, so the reference for a reused
    // workspace is a fresh one: buffers left over from another batch
    // shape and another architecture must not leak into the step — nor
    // distinct rows gathered from another batch.
    let (x, y) = duplicate_heavy_batch(60, 24, 3);
    let loss_fn = CrossEntropyLoss::uniform(26);

    let mut rng_a = seeded_rng(11);
    let mut net_a = Net::two_layer(24, 12, 26, &mut rng_a);
    let mut net_b = net_a.clone();

    // Reference: a workspace nothing has touched.
    let loss_ref = net_a.train_batch(&x, &y, &loss_fn, &mut Workspace::new());

    // Reused: warmed on a wider, deeper network and a different batch.
    let mut ws = Workspace::new();
    let (x_other, y_other) = duplicate_heavy_batch(17, 31, 4);
    Net::mlp(31, 20, 26, &mut seeded_rng(12)).train_batch(&x_other, &y_other, &loss_fn, &mut ws);
    let loss_ws = net_b.train_batch(&x, &y, &loss_fn, &mut ws);

    assert_eq!(loss_ref.to_bits(), loss_ws.to_bits());
    assert_eq!(
        net_a.input_layer().grad_weight,
        net_b.input_layer().grad_weight,
        "a reused workspace changed the gradients"
    );
}
