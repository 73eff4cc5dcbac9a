//! Hot-path allocation check for the *instrumented* KV read path: the
//! service-entry `kv.engine.get` trace is compiled in unconditionally, so a
//! resident get with no PROFILE capture active must still not touch the
//! allocator once the thread's span scratch buffer is warm — profiling that
//! is free when idle is the contract that lets it stay always-on.
//!
//! Runs under a counting global allocator; integration tests get their own
//! binary, so the allocator swap is invisible to the rest of the suite.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cbs_common::Cas;
use cbs_json::Value;
use cbs_kv::{DataEngine, EngineConfig, MutateMode};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn instrumented_resident_get_is_allocation_free() {
    let engine = DataEngine::new(EngineConfig::for_test(16)).unwrap();
    engine.activate_all();
    let doc = Value::object([("v", Value::int(1)), ("name", Value::from("resident"))]);
    engine.set("user::1", doc, MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();

    // Warm the path: the first gets may allocate thread-local state and
    // any lazily-built lookup state.
    for _ in 0..64 {
        engine.get("user::1").unwrap();
    }

    // The counting allocator is global, so the engine's own background
    // threads (flushers waking up to commit the set above) can land a
    // handful of allocations inside the measurement window. A per-read
    // allocation would show up ~10k times in every window; background
    // noise is O(1) and transient — so measure a few windows and require
    // at least one to be completely clean.
    let mut last = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..10_000 {
            let g = engine.get("user::1").unwrap();
            // The shared document must come back by refcount, not by copy.
            assert!(!g.meta.is_expired_at(0));
        }
        last = ALLOCS.load(Ordering::SeqCst) - before;
        if last == 0 {
            return;
        }
    }
    panic!("instrumented resident get allocated {last} times over 10k reads in every window");
}
