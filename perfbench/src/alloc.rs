//! A counting global allocator.
//!
//! Every allocation and reallocation made on a thread bumps that
//! thread's counter, so the single-threaded benchmark can read exactly
//! how many heap allocations a span of work made (and test threads
//! running in parallel do not see each other's).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread.
pub struct Counting;

fn bump() {
    // `try_with` fails only while the thread is being torn down;
    // allocations made then go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; counting touches only a thread-local `Cell`
// initialised without allocating.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations (and reallocations) made by this thread so far.
pub fn count() -> u64 {
    ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_a_known_allocation() {
        let before = count();
        let b = black_box(Box::new(black_box(7u64)));
        let after = count();
        assert_eq!(*b, 7);
        assert_eq!(after - before, 1, "one Box is one allocation");

        let before = count();
        let mut v: Vec<u8> = black_box(Vec::with_capacity(4));
        v.extend_from_slice(black_box(&[1, 2, 3, 4, 5]));
        let after = count();
        assert_eq!(after - before, 2, "allocate, then grow once");
        drop(black_box(v));
        assert_eq!(count(), after, "freeing is not counted");
    }
}
