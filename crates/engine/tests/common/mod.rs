//! What the engine's integration suites share: the virtual network
//! ([`net`]), the fuzzers' byte mutations ([`mutate`]) and the counting
//! allocator the allocation suites install (`run_allocs.rs`,
//! `relay_budget.rs`, `host_budget.rs`).
#![allow(dead_code)]

pub mod mutate;
pub mod net;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator that counts the calling thread's `alloc`s (the
/// default `realloc` goes through `alloc`). Per thread, so the test
/// harness's own threads cannot disturb the count. A suite installs it
/// with `#[global_allocator]`.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both methods forward to `System` with the caller's own
// arguments; the bookkeeping is a const-initialised thread-local `Cell`
// with no destructor, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// `f`'s value, with the `alloc` calls the calling thread made while it
/// ran.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}
