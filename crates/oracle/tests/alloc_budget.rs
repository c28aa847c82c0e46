//! Allocation budget of one differ check: after a warm-up check, a
//! `check` over seeds `0..2000` of [`Schedule::generate`] must average
//! at most 17 heap allocations. Building both untimed models from
//! scratch for every check cost 51.3; the models are now reset in
//! place, and this pins that no per-check set-up allocation comes back.
//! Counted per thread by this binary's own global allocator, so the
//! figure does not depend on host timing or on other test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xui_oracle::{check, Schedule};

/// Forwards to the system allocator, counting allocations (and
/// reallocations) made on the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Most allocations one `check` may average: a third of the 51.3 that
/// rebuilding both models per check cost.
const BUDGET: f64 = 17.0;

#[test]
fn a_check_averages_at_most_17_allocations() {
    let corpus: Vec<Schedule> = (0..2000u64).map(Schedule::generate).collect();
    assert!(check(&corpus[0]).is_none(), "warm-up");
    let before = ALLOCS.with(Cell::get);
    let divergences = corpus.iter().filter(|s| check(s).is_some()).count();
    let per_check = (ALLOCS.with(Cell::get) - before) as f64 / corpus.len() as f64;
    assert_eq!(divergences, 0);
    println!("{per_check:.2} allocations per check");
    assert!(per_check <= BUDGET, "{per_check:.2} allocations per check, budget {BUDGET}");
}
