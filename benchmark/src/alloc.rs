#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
//! A counting global allocator: live heap bytes and their peak, so a
//! round can report `heap_peak_bytes_per_block` without asking the
//! measured crates to instrument themselves.
//!
//! This module holds the package's only `unsafe` code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator and counts what passes through it.
pub struct Counting;

// Statistics only: neither counter publishes other data, so `Relaxed`
// is enough (a reader that wants a consistent peak joins the threads
// that allocate first, and the join synchronises).
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged, so `System`'s own guarantees (and the caller's
// obligations towards it) carry over exactly; the counters are updated
// only with sizes of blocks `System` has just handed out or is about to
// take back, and never influence which pointer is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with this layout, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's to vouch for.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
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

/// Bytes currently allocated.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// A measurement window over the allocator: the peak of live bytes
/// above the level at which the window was opened.
pub struct PeakWindow {
    base: usize,
}

impl PeakWindow {
    /// Opens a window at the current live level. Windows do not nest:
    /// opening one restarts the global peak.
    pub fn open() -> Self {
        let base = live_bytes();
        PEAK.store(base, Ordering::Relaxed);
        PeakWindow { base }
    }

    /// Highest live level seen since `open`, relative to the level at
    /// `open`.
    pub fn peak_delta(&self) -> usize {
        PEAK.load(Ordering::Relaxed).saturating_sub(self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // A window restarts the process-wide peak, so tests that open one
    // must not overlap. Other tests still allocate on their own threads
    // (`cargo test` runs tests in parallel) and free what they held when
    // the window opened, so the assertions leave half a MiB of slack
    // either way.
    static WINDOW: Mutex<()> = Mutex::new(());
    const MIB: usize = 1 << 20;

    #[test]
    fn peak_is_the_high_water_mark_not_a_running_total() {
        let _guard = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
        let w = PeakWindow::open();
        for _ in 0..4 {
            let big = vec![1u8; MIB];
            std::hint::black_box(&big);
        }
        let peak = w.peak_delta();
        assert!(
            peak + MIB / 2 >= MIB,
            "peak {peak} lost the 1 MiB allocation"
        );
        assert!(
            peak < MIB + MIB / 2,
            "peak {peak} counted freed memory again"
        );
    }

    #[test]
    fn realloc_counts_only_the_size_difference() {
        let _guard = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
        let w = PeakWindow::open();
        let mut v: Vec<u8> = vec![7u8; MIB];
        v.reserve_exact(MIB);
        std::hint::black_box(&v);
        let grown = w.peak_delta();
        // Growing in place or by move, at most old + new are live at once.
        assert!(
            grown + MIB / 2 >= 2 * MIB,
            "peak {grown} missed the grown buffer"
        );
        assert!(
            grown < 3 * MIB + MIB / 2,
            "peak {grown} double-counted the realloc"
        );
        v.truncate(1 << 8);
        v.shrink_to_fit();
        let w = PeakWindow::open();
        std::hint::black_box(&v);
        assert!(
            w.peak_delta() < MIB / 2,
            "a new window must start from the current level"
        );
    }
}
