//! Peak-memory accounting for the Table 3 experiment.
//!
//! A counting wrapper around the system allocator. The measuring binary
//! registers it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: indbml_core::memtrack::TrackingAllocator =
//!     indbml_core::memtrack::TrackingAllocator;
//! ```
//!
//! and brackets each approach run with [`reset_peak`] / [`peak_bytes`].
//! The paper measures "peak memory of the database engine for the
//! ModelJoin operator, the Tensorflow C-API approach and ML-To-SQL while
//! measuring peak memory of the Python process for Tensorflow using
//! Python" — with every approach in-process here, the tracker sees whichever
//! side does the allocating, which is the same quantity.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// Highest live level since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Lowest live level since the last reset.
static LOW: AtomicUsize = AtomicUsize::new(0);
/// Largest growth of the live level above an earlier level since the
/// last reset: what [`peak_bytes`] reports.
static RISE: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = CURRENT.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
    // The level just before this allocation is itself an earlier level,
    // so the allocation counts in full even while a concurrent free has
    // lowered `CURRENT` but not yet `LOW`.
    let low = LOW.load(Ordering::Relaxed).min(now - by);
    RISE.fetch_max(now - low, Ordering::Relaxed);
}

fn shrank(by: usize) {
    let now = CURRENT.fetch_sub(by, Ordering::Relaxed).wrapping_sub(by);
    LOW.fetch_min(now, Ordering::Relaxed);
}

/// Counting allocator; see module docs.
pub struct TrackingAllocator;

// SAFETY: defers all allocation to `System`; only the accounting is added.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

/// Currently live tracked bytes.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Start a measurement at the current live size.
pub fn reset_peak() {
    let now = CURRENT.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    LOW.store(now, Ordering::Relaxed);
    RISE.store(0, Ordering::Relaxed);
}

/// Peak bytes of the measurement started by the last [`reset_peak`]: the
/// largest amount the live size grew above any earlier level since then.
/// Measured from the lowest level rather than from the level at the
/// reset, so memory other threads free meanwhile (a finished query's
/// scheduler tasks, the test harness) cannot hide the measured work's
/// allocations. Zero when the tracking allocator is not registered.
pub fn peak_bytes() -> usize {
    RISE.load(Ordering::Relaxed)
}

/// Absolute peak since the last reset.
pub fn peak_total_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Human-readable byte size, matching the paper's Table 3 units.
pub fn format_bytes(bytes: usize) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KB * KB * KB {
        format!("{:.1} GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.1} MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.0 KB");
        assert_eq!(format_bytes(109 * 1024 * 1024 + 512 * 1024), "109.5 MB");
        assert_eq!(format_bytes(3 * 1024 * 1024 * 1024), "3.0 GB");
    }

    // Note: allocation-accounting behaviour is exercised in the
    // `memtrack_allocator` integration test, where the allocator can be
    // registered as the global allocator for the whole test binary.
}
