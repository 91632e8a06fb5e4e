//! Pins what a machine joining the attribute index costs: no heap
//! allocation of its own. The index's tables grow by doubling, so
//! indexing *n* machines allocates O(log *n*) times, however many
//! distinct values they hold.
//!
//! A counting global allocator wraps the system one, counting per
//! thread so the harness's other threads never land in a measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ctlm_agocs::AttrIndex;
use ctlm_trace::{AttrValue, Machine};

struct CountingAlloc;

thread_local! {
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

/// Allocations made indexing `n` machines with one attribute each, every
/// value held by one machine only — the synthetic fleets' pin.
fn indexing_cost(n: u64) -> usize {
    let machines: Vec<Machine> = (0..n)
        .map(|i| Machine::with_attributes(i, 1.0, 1.0, vec![(0, AttrValue::Int(i as i64))]))
        .collect();
    let mut index = AttrIndex::new();
    let before = allocations();
    for m in &machines {
        index.add_machine(m);
    }
    let cost = allocations() - before;
    assert_eq!(index.machine_count(), machines.len());
    cost
}

#[test]
fn indexing_unique_values_allocates_per_table_not_per_machine() {
    let (small, large) = (indexing_cost(1_000), indexing_cost(10_000));
    println!("indexing allocations: {small} at 1 000 machines, {large} at 10 000");
    // Six tables grow with the fleet (the machine bitset, the
    // attribute's bitset, its key → row table, its value rows, their
    // hash table and their integer order), each doubling ⌈log₂ 10⌉ = 4
    // more times from 1 000 to 10 000 entries; the attribute's own entry
    // is the one other.
    assert!(
        large - small <= 6 * 4,
        "{small} → {large}: grows with the fleet"
    );
    assert!(
        small <= 6 * 10 + 1,
        "{small} allocations for 1 000 machines"
    );
}
