//! A counting [`GlobalAlloc`] wrapper for the allocation-budget gate
//! (DESIGN.md §12).
//!
//! The steady-state simulator loop is supposed to be *allocation-free*:
//! every buffer the hot path touches (slab slots, wakeup links, the
//! wake-event heap, ready lists, store overlays, lane pools) is either
//! sized at construction or grows only during a warmup transient. The
//! only way to *prove* that — rather than eyeball it — is to count
//! every call into the global allocator across a measured region of
//! interest and assert the delta is zero.
//!
//! It also keeps a high-water mark of live bytes (each call's `Layout`
//! size, added on allocation and taken off on free), so a region that
//! *must* allocate — building a workload image — can be held to what
//! it keeps rather than to zero.
//!
//! This module is dependency-free: it wraps [`std::alloc::System`] and
//! bumps relaxed atomics. It lives in the library unconditionally (the
//! counters are inert unless registered via `#[global_allocator]`);
//! only the test binary that registers it is feature-gated behind
//! `alloc-count`, because a counting allocator would add noise to the
//! throughput benchmarks sharing this crate.
//!
//! Usage (see `tests/alloc_budget.rs`):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//! // ... warm up ...
//! let before = ALLOC.heap_ops();
//! // ... region of interest ...
//! assert_eq!(ALLOC.heap_ops() - before, 0);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`GlobalAlloc`] that forwards to [`System`] while counting every
/// allocation, reallocation, and free. See the [module docs](self).
#[derive(Debug)]
pub struct CountingAlloc {
    allocs: AtomicU64,
    reallocs: AtomicU64,
    frees: AtomicU64,
    bytes: AtomicU64,
    /// Bytes allocated and not yet freed, by each call's `Layout`.
    live: AtomicU64,
    /// The most `live` has been since construction or the last
    /// [`CountingAlloc::reset_peak`].
    peak: AtomicU64,
}

impl CountingAlloc {
    /// A fresh counter; `const` so it can be a `static` registered as
    /// the `#[global_allocator]`.
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            reallocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Fresh allocations observed so far (`alloc` + `alloc_zeroed`).
    pub fn allocations(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Reallocations observed so far. A `Vec` growing past its
    /// capacity in the hot loop shows up here.
    pub fn reallocations(&self) -> u64 {
        self.reallocs.load(Ordering::Relaxed)
    }

    /// Frees observed so far.
    pub fn frees(&self) -> u64 {
        self.frees.load(Ordering::Relaxed)
    }

    /// Total bytes requested across all allocations and reallocations.
    pub fn bytes_allocated(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Allocator traffic that *acquires* memory: allocations plus
    /// reallocations. This is the quantity the budget gate pins to
    /// zero across the region of interest — frees are deliberately
    /// excluded so that dropping warmup-era scratch inside the ROI
    /// (harmless) cannot fail the gate, while any *growth* does.
    pub fn heap_ops(&self) -> u64 {
        self.allocations() + self.reallocations()
    }

    /// Bytes allocated and not yet freed.
    pub fn live_bytes(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of [`CountingAlloc::live_bytes`] since
    /// construction or the last [`CountingAlloc::reset_peak`]. A
    /// reallocation that moves counts its old and new blocks both, as
    /// both are held while the contents are copied.
    pub fn peak_live_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark at the current live bytes, so a
    /// region's peak rise is `peak_live_bytes() - live_bytes()` read
    /// at this call.
    pub fn reset_peak(&self) {
        self.peak.store(self.live_bytes(), Ordering::Relaxed);
    }

    fn grow(&self, size: usize) {
        let live = self.live.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, size: usize) {
        self.live.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

// SAFETY: forwards every call verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.reallocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.grow(new_size);
            self.shrink(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.frees.fetch_add(1, Ordering::Relaxed);
        self.shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: these unit tests do NOT register the counter as the global
    // allocator (that would be process-wide); they just exercise the
    // counting plumbing through direct calls.
    #[test]
    fn counts_alloc_realloc_free() {
        let a = CountingAlloc::new();
        unsafe {
            let layout = Layout::from_size_align(64, 8).unwrap();
            let p = a.alloc(layout);
            assert!(!p.is_null());
            let p = a.realloc(p, layout, 128);
            assert!(!p.is_null());
            let layout2 = Layout::from_size_align(128, 8).unwrap();
            a.dealloc(p, layout2);
        }
        assert_eq!(a.allocations(), 1);
        assert_eq!(a.reallocations(), 1);
        assert_eq!(a.frees(), 1);
        assert_eq!(a.heap_ops(), 2);
        assert_eq!(a.bytes_allocated(), 64 + 128);
        assert_eq!(a.live_bytes(), 0);
        // The realloc held the 64-byte and 128-byte blocks at once.
        assert_eq!(a.peak_live_bytes(), 64 + 128);
    }

    #[test]
    fn peak_tracks_live_bytes_from_the_last_reset() {
        let a = CountingAlloc::new();
        let big = Layout::from_size_align(1000, 8).unwrap();
        let small = Layout::from_size_align(10, 8).unwrap();
        unsafe {
            let p = a.alloc(big);
            a.dealloc(p, big);
            assert_eq!((a.live_bytes(), a.peak_live_bytes()), (0, 1000));
            a.reset_peak();
            let q = a.alloc(small);
            assert_eq!((a.live_bytes(), a.peak_live_bytes()), (10, 10));
            a.dealloc(q, small);
        }
        assert_eq!(a.peak_live_bytes(), 10);
    }

    #[test]
    fn alloc_zeroed_counts_as_allocation() {
        let a = CountingAlloc::new();
        unsafe {
            let layout = Layout::from_size_align(32, 8).unwrap();
            let p = a.alloc_zeroed(layout);
            assert!(!p.is_null());
            assert_eq!(*p, 0);
            a.dealloc(p, layout);
        }
        assert_eq!(a.allocations(), 1);
        assert_eq!(a.heap_ops(), 1);
    }
}
