//! The counting allocator behind `allocs_per_op` and `alloc_bytes_per_op`.
//!
//! It wraps the system allocator and adds two relaxed atomic increments
//! per allocation. It is always on — installed by this crate's
//! `#[global_allocator]` in every binary that links it — so both sides of
//! a later comparison pay the same cost. Frees are not counted: the
//! metrics price allocator traffic, not residency (`peak_rss_mb` does
//! that).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counted.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller was promised; the counters are statistics
// that publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` asks for `new_size` bytes: count the request.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator traffic of the whole process so far, every thread included.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

impl Traffic {
    /// The counters now.
    pub fn now() -> Traffic {
        Traffic {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Traffic since `earlier`.
    #[must_use]
    pub fn since(self, earlier: Traffic) -> Traffic {
        Traffic {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_boxed_value_and_a_growing_vec() {
        // Other test threads allocate too, so only lower bounds hold.
        let before = Traffic::now();
        let boxed = std::hint::black_box(Box::new([0u8; 4096]));
        let mut v: Vec<u64> = Vec::with_capacity(1);
        for i in 0..1024 {
            v.push(i);
        }
        let after = Traffic::now().since(before);
        assert!(after.allocs >= 3, "{after:?}");
        assert!(after.bytes >= 4096 + 1024 * 8, "{after:?}");
        drop((boxed, v));
    }
}
