//! Counting global allocator for the zero-allocation gates.
//!
//! A bench binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: pf_bench::alloc::CountingAlloc = pf_bench::alloc::CountingAlloc;
//! ```
//!
//! and every heap allocation in the process then ticks one counter, so
//! a bench region can assert it allocated nothing by reading
//! [`allocations`] before and after.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`] plus a process-wide allocation counter.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` obligations are exactly `System`'s; the
// counter is a statistic and touches no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds this method's contract for us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds this method's contract for us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds this method's contract for us.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds this method's contract for us.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made so far by the whole process (0 unless the binary
/// installed [`CountingAlloc`] as its global allocator).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
