//! Counting global allocator: relaxed-atomic tallies around the system
//! allocator, so a workload can report heap allocations per measurement
//! run and its peak live heap. The tallies have no effect on how memory
//! is allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The ordering of every tally: each is a statistic that publishes no
/// other data, read only after the section it measures.
// countlint: allow(undocumented-relaxed-atomic) -- statistics that publish no other data; see above
const STAT: Ordering = Ordering::Relaxed;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, STAT) + bytes;
    if live > PEAK.load(STAT) {
        PEAK.fetch_max(live, STAT);
    }
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, STAT);
}

struct Counting;

// SAFETY: every method delegates directly to the system allocator with
// the caller's arguments; the tallies touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, STAT);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, STAT);
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, STAT);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls (alloc, alloc_zeroed, realloc) since process start,
/// on every thread.
pub fn allocations() -> u64 {
    ALLOCS.load(STAT)
}

/// Restarts the peak at the bytes live now, and returns them.
pub fn reset_peak() -> usize {
    let live = LIVE.load(STAT);
    PEAK.store(live, STAT);
    live
}

/// The most heap bytes live at once since the last [`reset_peak`], above
/// `base` bytes, in MiB.
pub fn peak_mib_above(base: usize) -> f64 {
    PEAK.load(STAT).saturating_sub(base) as f64 / (1024.0 * 1024.0)
}
