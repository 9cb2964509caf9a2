//! The allocation ledger: a counting wrapper over the system allocator.
//!
//! Every allocation in the process — benchmark, analysis, server threads —
//! goes through [`Counting`], which keeps three process-wide counters:
//! bytes ever allocated, bytes currently live, and the peak of live bytes
//! since the last [`reset_peak`]. A `realloc` counts as freeing the old
//! block and allocating the new one, so growing a vector shows up as the
//! bytes it asked for.
//!
//! Shared atomics bumped on every allocation from two threads made the
//! x264 pipeline about 40 % slower on a 2-vCPU Xeon VM, so each thread
//! first sums into thread-local counters and moves them to the shared ones
//! once `FLUSH_BYTES` have built up, and when the thread ends. A reading
//! moves the reading thread's own pending bytes first; every other live
//! thread holds back less than `FLUSH_BYTES`, which bounds the error of a
//! reading and of the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Pending bytes a thread holds back before moving them to the shared
/// counters.
const FLUSH_BYTES: usize = 64 << 10;

/// The counting allocator installed as the benchmark's global allocator.
pub struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// A thread's counts not yet moved to the shared counters.
struct Pending {
    allocated: Cell<usize>,
    live: Cell<isize>,
}

impl Drop for Pending {
    fn drop(&mut self) {
        publish(self.allocated.take(), self.live.take());
    }
}

thread_local! {
    static PENDING: Pending = const {
        Pending {
            allocated: Cell::new(0),
            live: Cell::new(0),
        }
    };
}

// The counters publish no other data, so `Relaxed` is enough: a reader
// only needs each counter's own value, taken between phases.
fn publish(allocated: usize, live: isize) {
    ALLOCATED.fetch_add(allocated, Ordering::Relaxed);
    let now = LIVE.fetch_add(live, Ordering::Relaxed) + live;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn record(allocated: usize, live: isize) {
    let held = PENDING.try_with(|p| {
        let a = p.allocated.get() + allocated;
        let l = p.live.get() + live;
        if a >= FLUSH_BYTES || l.unsigned_abs() >= FLUSH_BYTES {
            p.allocated.set(0);
            p.live.set(0);
            publish(a, l);
        } else {
            p.allocated.set(a);
            p.live.set(l);
        }
    });
    // The thread's pending counts are gone (it is exiting): count directly.
    if held.is_err() {
        publish(allocated, live);
    }
}

/// Moves the calling thread's pending counts to the shared counters.
fn flush_here() {
    let _ = PENDING.try_with(|p| publish(p.allocated.take(), p.live.take()));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// integers and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size(), layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record(layout.size(), layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        record(0, -(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s
        // contract for `ptr`, `layout` and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size, new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Bytes allocated since the process started.
pub fn allocated() -> usize {
    flush_here();
    ALLOCATED.load(Ordering::Relaxed)
}

/// Bytes currently live.
pub fn live() -> usize {
    flush_here();
    LIVE.load(Ordering::Relaxed).max(0) as usize
}

/// Peak live bytes since the last [`reset_peak`].
pub fn peak() -> usize {
    flush_here();
    PEAK.load(Ordering::Relaxed).max(0) as usize
}

/// Restarts the peak at the current live size.
pub fn reset_peak() {
    flush_here();
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
