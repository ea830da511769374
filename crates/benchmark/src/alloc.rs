//! A counting global allocator, flag-gated so it counts only in the
//! traced run.
//!
//! The `conch-benchmark` binary installs [`Counting`] as its
//! `#[global_allocator]`. With the flag off (every untraced run) each
//! call costs one relaxed load on top of the system allocator; with it
//! on, allocations, reallocations, bytes and the live high-water mark
//! are tallied. The library's own test binary does not install it, so
//! there the tallies stay at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

// All `Relaxed`: these are statistics that publish no other data. The
// tallies are bumped with a load and a store, not a read-modify-write:
// every phase that is counted runs on one thread, where the two are the
// same, and a locked instruction on each of the ~100 allocations a
// request makes would cost more than the request's own work. Were a
// second thread ever to allocate while counting is on, increments could
// be lost — the tallies would read low; nothing else can go wrong.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus tallies.
pub struct Counting;

fn add(counter: &AtomicU64, n: u64) -> u64 {
    let now = counter.load(Relaxed) + n;
    counter.store(now, Relaxed);
    now
}

fn grow(bytes: u64) {
    add(&BYTES, bytes);
    let live = add(&LIVE, bytes);
    if live > PEAK_LIVE.load(Relaxed) {
        PEAK_LIVE.store(live, Relaxed);
    }
}

fn shrink(bytes: u64) {
    // Memory allocated before counting was switched on may be freed
    // while it is on; saturate instead of wrapping below zero.
    LIVE.store(LIVE.load(Relaxed).saturating_sub(bytes), Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments unchanged, so `System`'s guarantees carry over; the tallies
// touch only atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            add(&ALLOCS, 1);
            grow(layout.size() as u64);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            shrink(layout.size() as u64);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            add(&ALLOCS, 1);
            grow(layout.size() as u64);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            add(&REALLOCS, 1);
            shrink(layout.size() as u64);
            grow(new_size as u64);
        }
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Tallies since the last [`start`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    pub allocs: u64,
    pub reallocs: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

/// Zeroes the tallies and switches counting on.
pub fn start() {
    for counter in [&ALLOCS, &REALLOCS, &BYTES, &LIVE, &PEAK_LIVE] {
        counter.store(0, Relaxed);
    }
    ENABLED.store(true, Relaxed);
}

/// Switches counting off and returns the tallies.
pub fn stop() -> AllocCounts {
    ENABLED.store(false, Relaxed);
    AllocCounts {
        allocs: ALLOCS.load(Relaxed),
        reallocs: REALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK_LIVE.load(Relaxed),
    }
}
