//! Agents free everything they allocated once their engine is dropped: a
//! finished agent's frame is never unwound, so the engine must release
//! what the agent owns before its last stack switch.
//!
//! The only test of its binary, so the counting allocator sees no other
//! test's allocations.

use sim_des::{us, Cmp, Engine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// 200 agents that each capture a kilobyte: half finish, half are left
/// deadlocked on a flag, and one more is spawned and never started.
fn run_one() {
    let engine = Engine::new();
    let f = engine.flag(0);
    for i in 0..200 {
        let payload = vec![i as u8; 1024];
        engine.spawn(format!("a{i}"), move |ctx| {
            ctx.advance(us(1.0));
            if i % 2 == 1 {
                ctx.wait_flag(f, Cmp::Ge, 1);
            }
            std::hint::black_box(&payload);
        });
    }
    assert!(engine.run().is_err());
    let late = vec![0u8; 1024];
    engine.spawn("late", move |_| drop(late));
}

#[test]
fn dropped_engines_free_their_agents_memory() {
    run_one();
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..5 {
        run_one();
    }
    let grown = LIVE.load(Ordering::Relaxed) - before;
    // Five runs of 201 agents: leaking even one small box per agent would
    // exceed this.
    assert!(grown < 16 * 1024, "{grown} bytes still allocated");
}
