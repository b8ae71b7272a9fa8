//! Heap allocations and arena words while encoding: a watch list of
//! three watchers or fewer lives in place, so encoding a Tseitin AND
//! chain, where no literal gets a fourth watcher, allocates only when
//! the solver's arrays grow, not once per literal; and a binary clause
//! lives only in its watchers, so each gate takes arena words for its
//! ternary clause alone.
//!
//! This file is its own test binary, so its counting allocator sees
//! only this test.

use psketch_sat::{Lit, SolveResult, Solver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method passes its arguments to `System` unchanged and
// returns its result, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `g_i = g_{i-1} & x_i`, encoded as MiniSat-style Tseitin clauses:
/// `g_i`'s positive literal is watched by its own two binary clauses
/// and by the next gate's ternary one, every other literal by one
/// clause.
#[test]
fn and_chain_encoding_allocates_once_per_growth() {
    const GATES: usize = 10_000;
    let mut s = Solver::new();
    let mut inputs = Vec::with_capacity(GATES);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let x0 = Lit::pos(s.new_var());
    inputs.push(x0);
    let mut g = x0;
    for _ in 1..GATES {
        let x = Lit::pos(s.new_var());
        let v = Lit::pos(s.new_var());
        s.add_clause([!v, g]);
        s.add_clause([!v, x]);
        s.add_clause([v, !g, !x]);
        inputs.push(x);
        g = v;
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        allocations < 1_000,
        "encoding {GATES} AND gates made {allocations} allocations"
    );
    // Each gate's two binary clauses live only in their watchers: the
    // arena holds the ternary, a header and three literals.
    let words = s.heap_bytes().clause_bytes / 4;
    assert!(
        words <= 4 * GATES,
        "encoding {GATES} AND gates took {words} arena words"
    );
    // The chain's output forces every input true.
    s.add_clause([g]);
    assert_eq!(s.solve(), SolveResult::Sat);
    for x in inputs {
        assert_eq!(s.lit_model_value(x), Some(true));
    }
}
