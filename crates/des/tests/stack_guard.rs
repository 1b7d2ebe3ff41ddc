//! An agent that overflows its stack faults on the guard page below it,
//! instead of running on into other memory.
//!
//! The overflow runs in a child process: this test binary re-runs itself
//! with only the ignored `overflowing_agent` test selected.

use sim_des::{us, Engine};
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Stdio};

/// Recurse, a kilobyte of stack per level, until the stack runs out (the
/// depth limit is out of reach).
fn bottomless(depth: u64) -> u64 {
    let frame = std::hint::black_box([depth as u8; 1024]);
    if depth == u64::MAX {
        return 0;
    }
    bottomless(depth + 1) + u64::from(frame[1023])
}

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn setrlimit(resource: i32, limit: *const Rlimit) -> i32;
}

/// `RLIMIT_CORE` on Linux.
const RLIMIT_CORE: i32 = 4;

#[test]
#[ignore = "overflows an agent's stack; run by `agent_stack_overflow_faults`"]
fn overflowing_agent() {
    // The fault is expected: leave no core file behind.
    // SAFETY: a valid limit struct; only lowers this process's own limit.
    unsafe { setrlimit(RLIMIT_CORE, &Rlimit { cur: 0, max: 0 }) };
    let engine = Engine::new();
    engine.spawn("bottomless", |ctx| {
        ctx.advance(us(1.0));
        std::hint::black_box(bottomless(0));
    });
    let _ = engine.run();
}

#[test]
fn agent_stack_overflow_faults() {
    let status = Command::new(std::env::current_exe().unwrap())
        .args([
            "--ignored",
            "--exact",
            "overflowing_agent",
            "--test-threads=1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    // SIGSEGV: the guard page stopped the recursion.
    assert_eq!(status.signal(), Some(11), "{status:?}");
}
