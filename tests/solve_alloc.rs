//! Allocation guards for the sparse solve, the pre-analysis and the FIR parse.
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
//! 20.66 MiB in its solve). The first graph measured here was already
//! solved once by the pipeline, so its slot tables are laid out and those
//! pins count the solve state alone; a second pin solves a fresh copy, as
//! a pipeline run does, and so counts the slot-table layout too.
//!
//! The pre-analysis is pinned the same way: it keeps one points-to set per
//! representative and one per complex constraint, plus buffers it reuses
//! from round to round, so a change that brings back per-round adjacency
//! lists or per-visit set clones blows through its pins.
//!
//! So is the FIR front end: its tokens are byte offsets into the text and
//! its names are interned symbols, so a parse allocates the module's own
//! names and tables and little else, and a change that brings back owned
//! tokens or string-keyed name tables blows through its pins.
//!
//! The counting allocator counts only on the thread that switched it on,
//! because the test harness runs tests on parallel threads, and it counts
//! a `realloc` as an allocation of its new size. If an intentional solver
//! change shifts the counts, re-measure (the output prints the actual
//! counts) and update the pins alongside the change.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fsam::Fsam;
use fsam_andersen::PreAnalysis;
use fsam_ir::parse::parse_module;
use fsam_ir::print::module_to_string;
use fsam_mssa::Svfg;
use fsam_suite::{Program, Scale};
use fsam_threads::valueflow;

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

/// Runs `f` with this thread's allocations counted; returns its result,
/// the allocation count and the bytes allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.with(|n| n.set(0));
    BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Allocation count and bytes of one sparse solve of `program` @ 0.32,
/// on the thread-aware SVFG of the full configuration.
fn solve_allocations(program: Program) -> (u64, u64) {
    let module = program.generate(Scale(0.32));
    let fsam = Fsam::analyze(&module);
    let (result, allocs, bytes) = counted(|| fsam::solver::solve(&module, &fsam.pre, &fsam.svfg));
    assert!(result.points_to_eq(&fsam.result));
    (allocs, bytes)
}

/// Asserts one measurement against its pins: at most `max_allocs`
/// allocations and `max_mib` MiB.
fn check_pins(what: &str, (allocs, bytes): (u64, u64), max_allocs: u64, max_mib: f64) {
    let mib = bytes as f64 / (1024.0 * 1024.0);
    println!("{what}: {allocs} allocations, {mib:.2} MiB (pins {max_allocs}, {max_mib} MiB)");
    assert!(
        allocs <= max_allocs,
        "{what} made {allocs} allocations, pinned at {max_allocs}"
    );
    assert!(
        mib <= max_mib,
        "{what} allocated {mib:.2} MiB, pinned at {max_mib} MiB"
    );
}

/// Checks one program's solve against its pins.
fn check(program: Program, max_allocs: u64, max_mib: f64) {
    let what = format!("{} @ 0.32 solve", program.name());
    check_pins(&what, solve_allocations(program), max_allocs, max_mib);
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

/// A pipeline run clones its cached thread-oblivious graph, inserts the
/// thread-aware edges and solves over the copy, whose slot tables are laid
/// out inside the solve; this pins that solve, layout included. Measured
/// 47,666 allocations and 11.45 MiB.
#[test]
fn x264_solve_on_a_fresh_graph_stays_under_pins() {
    if cfg!(debug_assertions) {
        eprintln!("the x264 @ 0.32 allocation pins run in release builds only");
        return;
    }
    let module = Program::X264.generate(Scale(0.32));
    let fsam = Fsam::analyze(&module);
    let (pre, tm) = (&fsam.pre, &fsam.tm);
    let oblivious = Svfg::build(&module, pre, tm);
    let lock = fsam.lock.as_deref();
    let vf = valueflow::compute(
        &module,
        &fsam.icfg,
        pre,
        &fsam.mhp,
        &fsam.mhp_rel,
        lock,
        false,
    );
    let mut svfg = oblivious.clone();
    svfg.insert_thread_edges_grouped(&vf.edges);
    let (result, allocs, bytes) = counted(|| fsam::solver::solve(&module, pre, &svfg));
    assert!(result.points_to_eq(&fsam.result));
    check_pins(
        "x264 @ 0.32 solve on a fresh graph",
        (allocs, bytes),
        59_600,
        14.3,
    );
}

/// The thread-oblivious SVFG of x264 @ 0.32 and the thread-aware edges a
/// pipeline run appends to a copy of it.
fn x264_svfg_parts() -> (fsam_ir::Module, Fsam, Vec<valueflow::ThreadGroup>) {
    let module = Program::X264.generate(Scale(0.32));
    let fsam = Fsam::analyze(&module);
    let vf = valueflow::compute(
        &module,
        &fsam.icfg,
        &fsam.pre,
        &fsam.mhp,
        &fsam.mhp_rel,
        fsam.lock.as_deref(),
        false,
    );
    (module, fsam, vf.edges)
}

/// Building the thread-oblivious SVFG of x264 @ 0.32: mod/ref, mu/chi,
/// the renaming walk and the edge merge. Measured 5,961 allocations and
/// 3.76 MiB; renaming with per-function hash maps and vectors and a merge
/// that sorted 24-byte keys made 44,980 and 7.23 MiB.
#[test]
fn x264_svfg_build_allocations_stay_under_pins() {
    if cfg!(debug_assertions) {
        eprintln!("the x264 @ 0.32 allocation pins run in release builds only");
        return;
    }
    let (module, fsam, _) = x264_svfg_parts();
    let (svfg, allocs, bytes) = counted(|| Svfg::build(&module, &fsam.pre, &fsam.tm));
    assert_eq!(svfg.node_count(), 24_657);
    check_pins("x264 @ 0.32 SVFG build", (allocs, bytes), 7_460, 4.58);
}

/// A pipeline run's copy of the cached thread-oblivious SVFG and the
/// insertion of the thread-aware edges into it. Measured 19 allocations
/// and 2.83 MiB (0.40 MiB for the copy); a copy of every edge row and a
/// merge that sorted 24-byte keys made 42 and 5.43 MiB (1.59 + 3.84).
#[test]
fn x264_thread_edge_insertion_allocations_stay_under_pins() {
    if cfg!(debug_assertions) {
        eprintln!("the x264 @ 0.32 allocation pins run in release builds only");
        return;
    }
    let (module, fsam, groups) = x264_svfg_parts();
    let oblivious = Svfg::build(&module, &fsam.pre, &fsam.tm);
    let (svfg, allocs, bytes) = counted(|| {
        let mut svfg = oblivious.clone();
        svfg.insert_thread_edges_grouped(&groups);
        svfg
    });
    assert_eq!(svfg.stats.thread_edges, 19_195);
    check_pins(
        "x264 @ 0.32 SVFG copy and thread edges",
        (allocs, bytes),
        24,
        3.44,
    );
}

/// The pre-analysis of x264 @ 0.32. Measured 43,677 allocations and
/// 4.40 MiB (the whole-set wave solver it replaced made 238,566 and
/// 10.54 MiB).
#[test]
fn x264_pre_analysis_allocations_stay_under_pins() {
    if cfg!(debug_assertions) {
        eprintln!("the x264 @ 0.32 allocation pins run in release builds only");
        return;
    }
    let module = Program::X264.generate(Scale(0.32));
    let (pre, allocs, bytes) = counted(|| PreAnalysis::run(&module));
    assert_eq!(pre.stats.rounds, 8);
    check_pins("x264 @ 0.32 pre-analysis", (allocs, bytes), 55_100, 5.5);
}

/// The FIR parse of x264 @ 0.32 (168,146 bytes of text). Measured 10,192
/// allocations and 1.55 MiB (the parser that gave each token an owned
/// string and resolved names through string-keyed maps made 124,795 and
/// 8.01 MiB).
#[test]
fn x264_parse_allocations_stay_under_pins() {
    let text = module_to_string(&Program::X264.generate(Scale(0.32)));
    let (module, allocs, bytes) = counted(|| parse_module(&text));
    assert_eq!(module.expect("printed FIR parses").stmt_count(), 7239);
    check_pins("x264 @ 0.32 parse", (allocs, bytes), 12_740, 1.94);
}
