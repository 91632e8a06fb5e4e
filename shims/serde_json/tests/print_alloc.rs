//! Pins what printing a `Value` costs: only the output `String`'s
//! growth. The printers borrow the tree (no clone) and write indentation,
//! integers and escapes straight into the buffer (no per-node
//! temporaries), so a 10 000-node document allocates O(log output_len)
//! times.
//!
//! A counting global allocator wraps the system one, counting per thread
//! so the harness's own bookkeeping on other threads never lands in the
//! measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use serde_json::Value;

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

/// 2 000 trace-event-shaped objects of four fields: 10 001 nodes, with
/// strings that need escaping, integers and fractions among the leaves.
fn document() -> Value {
    let events = (0..2_000u32)
        .map(|i| {
            Value::Object(vec![
                ("name".to_string(), Value::Str(format!("span \"{i}\"\n"))),
                ("ts".to_string(), Value::Num(f64::from(i) * 1_000.0)),
                ("ratio".to_string(), Value::Num(f64::from(i) / 7.0)),
                ("args".to_string(), Value::Array(vec![])),
            ])
        })
        .collect();
    Value::Array(events)
}

/// Allocations `print` makes, and the length of what it printed.
fn count(print: impl FnOnce() -> String) -> (usize, usize) {
    let before = allocations();
    let text = print();
    let made = allocations() - before;
    (made, text.len())
}

/// `floor(log2(len)) + 1`: one buffer growth per doubling.
fn log_bound(len: usize) -> usize {
    (usize::BITS - len.leading_zeros()) as usize
}

#[test]
fn printing_a_value_allocates_only_output_growth() {
    let doc = document();
    let (pretty, pretty_len) = count(|| serde_json::to_string_pretty(&doc).unwrap());
    let (compact, compact_len) = count(|| serde_json::to_string(&doc).unwrap());
    assert!(pretty_len > 100_000, "document too small to mean anything");
    assert!(
        pretty <= log_bound(pretty_len),
        "to_string_pretty allocated {pretty} times for {pretty_len} bytes"
    );
    assert!(
        compact <= log_bound(compact_len),
        "to_string allocated {compact} times for {compact_len} bytes"
    );
}
