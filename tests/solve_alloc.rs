//! Allocation guard for the sparse solve.
//!
//! The solver keeps every set it works with — values, pending deltas and
//! fresh deltas — as a handle into its hash-consed pool, walks the slot
//! tables the SVFG carries, and keeps each variable's sources and
//! dependencies in one counted table, so a solve allocates a few thousand
//! times per thousand worklist items instead of once per delta.
//! These pins are the measured allocation count and bytes of one
//! `solver::solve` call, times about 1.25; a change that brings back owned
//! per-delta sets or tables regrown by doubling blows through them (before
//! the pool carried deltas, x264 @ 0.32 made 244,492 allocations and
//! 20.66 MiB in its solve). The graph measured here was already solved
//! once by the pipeline, so its slot tables are laid out and the pins
//! count the solve state alone.
//!
//! The counting allocator counts only on the thread that switched it on,
//! because the test harness runs tests on parallel threads, and it counts
//! a `realloc` as an allocation of its new size. If an intentional solver
//! change shifts the counts, re-measure (the output prints the actual
//! counts) and update the pins alongside the change.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fsam::Fsam;
use fsam_suite::{Program, Scale};

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Records one allocation of `size` bytes if this thread is counting.
fn record(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
            BYTES.with(|b| b.set(b.get() + size as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `record` only bumps const-initialized
// thread-local counters and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count and bytes of one sparse solve of `program` @ 0.32,
/// on the thread-aware SVFG of the full configuration.
fn solve_allocations(program: Program) -> (u64, u64) {
    let module = program.generate(Scale(0.32));
    let fsam = Fsam::analyze(&module);
    ALLOCS.with(|n| n.set(0));
    BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    let result = fsam::solver::solve(&module, &fsam.pre, &fsam.svfg);
    COUNTING.with(|on| on.set(false));
    assert!(result.points_to_eq(&fsam.result));
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Checks one program's solve against its pins: at most `max_allocs`
/// allocations and `max_mib` MiB.
fn check(program: Program, max_allocs: u64, max_mib: f64) {
    let (allocs, bytes) = solve_allocations(program);
    let mib = bytes as f64 / (1024.0 * 1024.0);
    println!(
        "{} @ 0.32 solve: {allocs} allocations, {mib:.2} MiB (pins {max_allocs}, {max_mib} MiB)",
        program.name()
    );
    assert!(
        allocs <= max_allocs,
        "{} solve made {allocs} allocations, pinned at {max_allocs}",
        program.name()
    );
    assert!(
        mib <= max_mib,
        "{} solve allocated {mib:.2} MiB, pinned at {max_mib} MiB",
        program.name()
    );
}

/// Measured 10,362 allocations and 1.61 MiB.
#[test]
fn httpd_server_solve_allocations_stay_under_pins() {
    check(Program::HttpdServer, 12_950, 2.0);
}

/// Measured 47,555 allocations and 8.04 MiB.
#[test]
fn x264_solve_allocations_stay_under_pins() {
    if cfg!(debug_assertions) {
        eprintln!("the x264 @ 0.32 allocation pins run in release builds only");
        return;
    }
    check(Program::X264, 59_400, 10.1);
}
