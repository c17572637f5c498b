//! Live heap bytes, counted by the benchmark binary's global allocator.
//!
//! The resident set depends on how much freed memory the C allocator keeps
//! mapped, which flips by megabytes between inputs of the same size. The
//! peak of live heap bytes depends only on what the program allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live and peak heap bytes.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// observe the sizes of the calls that succeed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Peak live heap bytes so far; 0 unless [`Counting`] is the global
/// allocator.
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_allocations_and_growth() {
        // The test binary's global allocator is the default one, so only
        // these calls move the counters.
        let small = Layout::from_size_align(1_000, 8).unwrap();
        // SAFETY: the pointer comes from the matching `alloc`/`realloc`
        // with the layout it was made with, and is freed once.
        unsafe {
            let p = Counting.alloc(small);
            assert!(!p.is_null());
            let p = Counting.realloc(p, small, 3_000);
            assert!(!p.is_null());
            Counting.dealloc(p, Layout::from_size_align(3_000, 8).unwrap());
        }
        assert_eq!(peak_bytes(), 3_000);
        assert_eq!(LIVE.load(Relaxed), 0);
    }
}
