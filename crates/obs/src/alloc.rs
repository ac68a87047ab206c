//! A counting global allocator for allocation audits.
//!
//! Install it in a binary or test crate with
//! `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`,
//! then read [`CountingAlloc::count`] before and after the code under
//! audit: the delta is the number of heap allocations (and reallocations)
//! in between. The counter is process-global, so an audit must not run
//! alongside other threads that allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every `alloc` and `realloc`.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Allocations counted so far in this process (zero unless a
    /// `CountingAlloc` is the global allocator).
    #[must_use]
    pub fn count() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// relaxed atomic that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
