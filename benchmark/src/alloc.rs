//! A counting global allocator for the `alloc.*` per-layer metrics.
//!
//! Counting is off unless a traced pass switches it on, so the end-to-end
//! run pays one relaxed load per allocation and nothing else.  The counters
//! are bumped with a relaxed load and store, not a read-modify-write: the
//! benchmark runs on one thread, and the locked instructions of `fetch_add`
//! cost a traced `netmon_stream` pass a tenth of its time.  A second thread
//! could only make the counts too low, never corrupt anything.

// The one justified unsafe site of the benchmark: the allocator delegates to
// the system allocator verbatim and only bumps relaxed counters.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics that publish no other
// data, so relaxed ordering is enough.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.store(ALLOCATIONS.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        BYTES.store(
            BYTES.load(Ordering::Relaxed) + bytes as u64,
            Ordering::Relaxed,
        );
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn counters() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
