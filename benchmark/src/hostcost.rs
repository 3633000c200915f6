//! Host-side cost meters: what the simulator itself costs to run.
//!
//! A counting `#[global_allocator]` (installed by the binary and by this
//! crate's tests), the process's peak resident set and its on-CPU time.
//! Allocator counts repeat exactly from run to run on this
//! single-threaded harness, which is why they — not wall time — carry
//! most of the end-to-end gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Per-thread, so a reading is exact for the thread that takes it even
// while another thread (libtest's reporter) allocates. The workloads
// run on one thread, so for the binary "this thread" is "the program".
// Const-initialised `Cell`s need neither lazy set-up nor a destructor,
// which is what makes them safe to touch from inside an allocator.
thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    CALLS.with(|c| c.set(c.get() + 1));
    BYTES.with(|b| b.set(b.get() + bytes as u64));
}

/// The system allocator with two counters in front: calls (`alloc`,
/// `alloc_zeroed`, `realloc`) and bytes requested (a `realloc` counts its
/// new size — the bytes the program asked to be able to address).
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees;
// the counters are side effects that touch no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// A reading of the allocator counters; subtract two to get a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Allocator calls so far.
    pub calls: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// This thread's counters now.
    pub fn now() -> AllocSnapshot {
        AllocSnapshot {
            calls: CALLS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    /// What was requested between `earlier` and `self`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Allocator activity of one closure.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, AllocSnapshot) {
    let before = AllocSnapshot::now();
    let out = f();
    (out, AllocSnapshot::now().since(before))
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of this process (`VmHWM`), in bytes; `None` where
/// `/proc` is missing.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kb("VmHWM:").map(|kb| kb * 1024)
}

/// Nanoseconds this process spent on a CPU (first field of
/// `/proc/self/schedstat`). Wall time that grows while this does not is
/// descheduling; both growing together is contention for the core.
pub fn on_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn a_known_allocation_shows_up_exactly() {
        let (v, d) = count_allocs(|| black_box(Vec::<u8>::with_capacity(12_345)));
        assert_eq!(d.calls, 1);
        assert_eq!(d.bytes, 12_345);
        drop(v);
    }

    #[test]
    fn realloc_counts_its_new_size() {
        let mut v = black_box(Vec::<u8>::with_capacity(100));
        let (_, d) = count_allocs(|| v.reserve_exact(1000));
        assert_eq!(d.calls, 1);
        assert_eq!(d.bytes, 1000);
    }

    #[test]
    fn identical_closures_count_identically() {
        let work = || {
            let mut acc = Vec::new();
            for i in 0..100u32 {
                acc.push(black_box(vec![i; (i as usize % 7) + 1]));
            }
            acc.len()
        };
        let (_, a) = count_allocs(work);
        let (_, b) = count_allocs(work);
        assert_eq!(a, b);
        assert!(a.calls > 100);
    }

    #[test]
    fn proc_readers_report_something_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes().is_some_and(|b| b > 0));
            assert!(on_cpu_ns().is_some());
        }
    }
}
