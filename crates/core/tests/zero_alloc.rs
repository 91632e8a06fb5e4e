//! Pins the analyzer's allocation contract: once one call has warmed
//! this thread's scratch, `TaskCoAnalyzer::group_of` — encode, one-row
//! matrix, forward pass, argmax — allocates nothing, even for a row
//! holding about a thousand stored entries at the lab's 1 211-column
//! width.
//!
//! A counting global allocator wraps the system one and counts per
//! thread, so the harness's own bookkeeping on other threads never lands
//! in the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ctlm_core::TaskCoAnalyzer;
use ctlm_data::compaction::{collapse, AttrRequirement};
use ctlm_data::dataset::NUM_GROUPS;
use ctlm_data::vocab::ValueVocab;
use ctlm_nn::Net;
use ctlm_tensor::init::seeded_rng;
use ctlm_trace::{AttrValue, ConstraintOp as Op, TaskConstraint};

struct CountingAlloc;

thread_local! {
    /// Const-initialised and drop-free, so touching it from the allocator
    /// neither allocates nor outlives the thread's TLS.
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

/// 1 211 columns: attribute 0 (`node_index`-like) with 1 000 values, and
/// three small attributes after it.
fn lab_width_vocab() -> ValueVocab {
    let mut vocab = ValueVocab::new();
    for v in 0..1_000 {
        vocab.observe(0, &AttrValue::Int(v));
    }
    for attr in 1..4 {
        for v in 0..69 {
            vocab.observe(attr, &AttrValue::Int(v));
        }
    }
    assert_eq!(vocab.len(), 1_211);
    vocab
}

fn reqs(cs: &[TaskConstraint]) -> Vec<AttrRequirement> {
    collapse(cs).expect("consistent constraints")
}

#[test]
fn group_of_does_not_allocate_once_warm() {
    let vocab = lab_width_vocab();
    let net = Net::two_layer(vocab.len(), 30, NUM_GROUPS, &mut seeded_rng(3));
    let analyzer = TaskCoAnalyzer::new(net, vocab);
    // A single-node task: every value of attribute 0 but one is
    // rejected, so its row stores 1 000 entries.
    let single = reqs(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(17))))]);
    let sets = [
        single.clone(),
        reqs(&[
            TaskConstraint::new(0, Op::GreaterThanEqual(10)),
            TaskConstraint::new(0, Op::LessThan(60)),
        ]),
        reqs(&[
            TaskConstraint::new(2, Op::NotEqual(AttrValue::Int(4))),
            TaskConstraint::new(1, Op::Present),
            TaskConstraint::new(3, Op::LessThanEqual(30)),
        ]),
        Vec::new(),
    ];

    let warm = analyzer.group_of(&single);
    let mut groups = Vec::with_capacity(3 * sets.len());
    let before = allocations();
    for _ in 0..3 {
        groups.extend(sets.iter().map(|r| analyzer.group_of(r)));
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm group_of calls allocated {} times",
        after - before
    );
    assert_eq!(groups[0], warm);
    assert_eq!(groups[3], (NUM_GROUPS - 1) as u8);
}
