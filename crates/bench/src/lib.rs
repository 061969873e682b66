//! Support library for the five bench binaries left (see `benches/`).
//!
//! Three print a `pier-harness` table and export its artifacts; the two
//! that measure something on this machine (`dht_ops`, `mqo_shared`) count
//! allocations through [`CountingAlloc`].  Every other experiment table is
//! rendered, compared and re-recorded by `tests/paper_tables.rs`.

// The counting allocator is the one justified unsafe site of the benches:
// it delegates to the system allocator verbatim and only bumps a relaxed
// counter, so the alloc/dealloc contracts are inherited.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through allocator that counts allocations, so a bench can report
/// "allocation-free" as a measured number.  Install it with
/// `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;` and
/// read [`allocations`] before and after the measured loop.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made so far through an installed [`CountingAlloc`].
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Print one machine-readable metric line (`pier_harness::metric_line`):
/// `{"bench": "...", "metric": "...", "value": ...}`.  Metric names carry
/// their unit as a suffix (`_ns_per_op`, `_allocs_per_row`, …).
pub fn emit_metric(bench: &str, metric: &str, value: f64) {
    println!("{}", pier_harness::metric_line(bench, metric, value));
}

#[cfg(test)]
mod tests {
    #[test]
    fn emit_metric_does_not_panic() {
        super::emit_metric("smoke", "noop_count", 1.0);
    }
}
