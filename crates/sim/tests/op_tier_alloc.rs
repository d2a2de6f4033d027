//! An empty op tier allocates nothing: a process that builds an evaluator
//! but has not simulated yet (a daemon between its spawn and its first
//! job) pays nothing for its mapper cache.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn an_empty_mapper_cache_allocates_nothing() {
    let before = ALLOCATIONS.with(Cell::get);
    let cache = fast_sim::MapperCache::new();
    cache.track_new();
    assert!(cache.is_empty());
    assert_eq!(cache.stats(), fast_sim::CacheStats::default());
    assert!(cache.take_new().is_empty());
    assert!(cache.export().is_empty());
    drop(cache);
    assert_eq!(ALLOCATIONS.with(Cell::get), before);
}
