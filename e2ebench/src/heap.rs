//! Heap accounting for `peak_heap_mb`: a global allocator that forwards to
//! the system allocator and, while switched on, counts the bytes live
//! across all threads.
//!
//! The resident-set high-water mark depends on how the C allocator lays
//! out and keeps freed memory: on `mobile` it moves by a quarter from one
//! seed to the next. Live heap bytes depend only on what the program
//! allocates.
//!
//! Counting is off during timed calls, so they pay one relaxed load of a
//! flag nobody writes per allocation, and no shared-counter updates. The
//! peak is taken from a separate, untimed call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
// Signed: blocks allocated before counting started may be freed while it
// runs.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live bytes while switched on.
pub struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn signed(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// Relaxed ordering throughout: the counters are statistics and publish no
// other data.
fn grow(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(signed(bytes), Ordering::Relaxed) + signed(bytes);
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(signed(bytes), Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s requirements.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s requirements.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller meets `GlobalAlloc::dealloc`'s requirements.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s requirements.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Starts counting from zero: the peak then measures the most bytes held
/// at once on top of what was live at this call.
pub fn start() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
}

/// Stops counting and returns the peak since [`start`], in MB.
pub fn stop() -> f64 {
    COUNTING.store(false, Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_live_allocations() {
        start();
        let block = std::hint::black_box(vec![0u8; 8 << 20]);
        drop(block);
        let peak = stop();
        assert!(peak >= 7.9, "peak {peak}");
        let unseen = std::hint::black_box(vec![0u8; 16 << 20]);
        start();
        drop(unseen);
        assert!(stop() < 1.0, "an allocation made while off is not counted");
    }
}
