//! A counting global allocator: live and peak heap bytes, measured
//! rather than estimated.
//!
//! The benchmark binary installs [`CountingAlloc`] as its
//! `#[global_allocator]`; every allocation the engine makes then passes
//! through [`System`] plus two relaxed atomic updates. The counters only
//! publish statistics (no other data is ordered by them), so `Relaxed`
//! is enough; under concurrent updates the peak is the largest live
//! total any single update observed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A [`System`] allocator that tracks current and peak live bytes.
#[derive(Debug)]
pub struct CountingAlloc {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// A counter at zero.
    pub const fn new() -> Self {
        CountingAlloc {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Bytes currently allocated through this allocator.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// The highest live total since the last [`CountingAlloc::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts peak tracking from the current live total, which it
    /// returns — the "pre-call level" a transient peak is measured above.
    pub fn reset_peak(&self) -> usize {
        let now = self.current();
        self.peak.store(now, Ordering::Relaxed);
        now
    }

    /// Sets the recorded peak back to `peak`, a value [`CountingAlloc::peak`]
    /// returned earlier: once a measurement's own allocations are all
    /// freed, this keeps them out of the peak of the work around them.
    pub fn restore_peak(&self, peak: usize) {
        self.peak.store(peak.max(self.current()), Ordering::Relaxed);
    }

    fn grow(&self, bytes: usize) {
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.current.fetch_sub(bytes, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counter
// updates touch only this struct's atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator and that `new_size` is valid for it.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            let old = layout.size();
            if new_size >= old {
                self.grow(new_size - old);
            } else {
                self.shrink(old - new_size);
            }
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_realloc_dealloc_accounting() {
        let a = CountingAlloc::new();
        let small = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: non-zero layouts; every pointer is freed with the
        // layout and size it currently has.
        unsafe {
            let p = a.alloc(small);
            assert!(!p.is_null());
            assert_eq!((a.current(), a.peak()), (64, 64));

            let q = a.alloc_zeroed(small);
            assert_eq!((a.current(), a.peak()), (128, 128));

            let p = a.realloc(p, small, 256);
            assert!(!p.is_null());
            assert_eq!((a.current(), a.peak()), (320, 320));

            let big = Layout::from_size_align(256, 8).unwrap();
            let p = a.realloc(p, big, 16);
            assert_eq!((a.current(), a.peak()), (80, 320));

            assert_eq!(a.reset_peak(), 80);
            assert_eq!(a.peak(), 80);

            let saved = a.peak();
            let r = a.alloc(big);
            a.dealloc(r, big);
            assert_eq!(a.peak(), 336);
            a.restore_peak(saved);
            assert_eq!((a.current(), a.peak()), (80, 80));

            a.dealloc(q, small);
            a.dealloc(p, Layout::from_size_align(16, 8).unwrap());
            assert_eq!((a.current(), a.peak()), (0, 80));
        }
    }
}
