//! The benchmark's global allocator: the system allocator, counting the
//! live heap and its peak for the `peak_heap_mib` metric.
//!
//! A process's peak resident set follows the heaviest of its elections,
//! whose contender count is the tail of a seed-dependent draw, so it
//! moves by a quarter or more from one workload seed to the next. The
//! peak measured here is per unit (an election, or a campaign of a
//! sweep). It sits on one of a few levels, as buffers grow by doubling,
//! so the median over a run's units jumps between levels; their mean
//! moves smoothly with the share of units on each level.
//!
//! Each thread keeps the bytes it allocates and frees to itself until
//! their sum passes [`SLACK`], then adds them to the shared count, so
//! that the trial threads of a sweep do not contend on it. The count is
//! therefore exact to within [`SLACK`] bytes per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// Bytes a thread allocates or frees, net, before it publishes them.
pub const SLACK: isize = 64 * 1024;

// Statistics that publish no other data, so `Relaxed` suffices.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

/// Records a change of `delta` bytes in the live heap.
fn note(delta: isize) {
    // A thread whose locals are gone (it is exiting) publishes at once.
    let publish = PENDING
        .try_with(|pending| {
            let sum = pending.get() + delta;
            if sum.abs() < SLACK {
                pending.set(sum);
                None
            } else {
                pending.set(0);
                Some(sum)
            }
        })
        .unwrap_or(Some(delta));
    if let Some(sum) = publish {
        let live = LIVE.fetch_add(sum, Relaxed) + sum;
        PEAK.fetch_max(live, Relaxed);
    }
}

/// The system allocator, counting.
pub struct Counting;

fn signed(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every call is passed to `System` unchanged; the counting
// touches no memory the caller owns.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(signed(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note(signed(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-signed(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note(signed(new_size) - signed(layout.size()));
        }
        p
    }
}

/// Starts a new peak at the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The live heap's peak since the last [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}
