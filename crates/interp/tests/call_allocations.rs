//! Allocation gate for a call on the bytecode VM: it allocates only what
//! the callee's body can name.
//!
//! A counting global allocator counts the allocations of the current
//! thread. A measurement runs the same loop of N and of 2N calls, each in
//! a fresh interpreter pinned to [`Backend::Vm`], and takes the
//! difference, so parsing, compiling and warming the frame pool cancel
//! out.

use ceres_interp::value::next_object_id;
use ceres_interp::{set_default_backend, Backend, Interp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, so each
// upholds `GlobalAlloc`'s contract as `System` does. Counting touches only
// a thread-local `Cell` with a const initializer, which neither allocates
// nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: u64 = 2_000;

/// Run `prelude`, then `calls` iterations of `call` in a loop. Returns the
/// loop's allocations, the object ids it took, and the console.
fn run(prelude: &str, call: &str, calls: u64) -> (u64, u64, Vec<String>) {
    set_default_backend(Some(Backend::Vm));
    let mut interp = Interp::new(42);
    set_default_backend(None);
    interp.eval_source(prelude).expect("prelude");
    // The same source length for every count, so parsing and compiling
    // cancel out.
    let src = format!("for (var i = 0; i < {calls:>8}; i++) {{ {call}; }}");
    let (allocs, ids) = (ALLOCS.get(), next_object_id());
    interp.eval_source(&src).expect("loop");
    let console = interp.console.clone();
    (ALLOCS.get() - allocs, next_object_id() - ids, console)
}

/// Allocations and object ids per call of `call`.
fn per_call(prelude: &str, call: &str) -> (f64, u64) {
    let (allocs_n, ids_n, _) = run(prelude, call, N);
    let (allocs_2n, ids_2n, _) = run(prelude, call, 2 * N);
    (
        (allocs_2n - allocs_n) as f64 / N as f64,
        (ids_2n - ids_n) / N,
    )
}

#[test]
fn a_call_allocates_its_scope_map_and_parameters() {
    let prelude = "function f(a, b) { return a + b; } var s = 0;";
    let (allocs, ids) = per_call(prelude, "s = f(i, 1)");
    // The activation scope, its binding map, `a` and `b`. The prologue
    // that bound `this` and `arguments` in every call made 12.
    assert!(allocs <= 5.0, "{allocs} allocations per call");
    // The `arguments` array the body never names still takes its id.
    assert_eq!(ids, 1);
}

#[test]
fn a_body_that_names_arguments_gets_a_real_array() {
    let prelude = "function g() { return arguments.length + ':' + arguments[1]; }";
    let (_, ids) = per_call(prelude, "g(i, 10, 'x')");
    assert_eq!(ids, 1);
    let (_, _, console) = run(prelude, "console.log(g(i, 10, 'x'))", 2);
    assert_eq!(console, ["3:10", "3:10"]);
}
