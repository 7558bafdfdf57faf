//! Allocation accounting for the traced run.
//!
//! A counting wrapper around the system allocator keeps a per-thread
//! running total of bytes requested. Counting is off until
//! [`set_counting`] turns it on, so the untraced end-to-end passes pay one
//! relaxed load per allocation and nothing else. The traced run reads the
//! total at span boundaries (to attribute `*.alloc_mb` to the open span)
//! and registers [`thread_bytes`] as the simulator's allocation probe, which
//! makes `RunStats::epoch_bytes` real.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Whether allocations are being counted. A statistic only: it publishes
/// no other data, so `Relaxed` suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], plus the per-thread byte count.
pub struct CountingAlloc;

#[inline]
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with`: allocations during thread teardown must not panic.
        let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    }
}

// SAFETY: every operation is delegated verbatim to `System`; the only
// addition is bookkeeping, which allocates nothing itself (the thread-local
// is const-initialized) and never panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Bytes the calling thread has allocated while counting was on.
pub fn thread_bytes() -> u64 {
    BYTES.with(Cell::get)
}
