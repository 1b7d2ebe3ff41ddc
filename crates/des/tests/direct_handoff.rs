//! The agent-driven event loop: every way a run stops, whichever stack is
//! running the loop when it does, the `handoffs()` counter, and the
//! lifecycle of agents and their stacks.
//!
//! A blocking agent runs the loop itself and switches to its successor, so
//! the same stop can be reached on a blocked agent's stack or on a
//! finishing agent's stack; the run's own stack only pops the first
//! `Resume`. Each test pins the outcome the caller of `Engine::run` sees,
//! and that the run ends rather than hangs.

use sim_des::{us, Cmp, Engine, SignalOp, SimError, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Run `engine` to completion on a helper thread and return the message of
/// the panic `run` re-raises. Fails, instead of hanging, when the run does
/// not end within ten seconds.
fn run_panic_message(engine: Engine) -> String {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.run()));
        let message = match outcome {
            Ok(result) => format!("run returned instead of panicking: {result:?}"),
            Err(payload) => match payload.downcast::<&str>() {
                Ok(s) => (*s).to_string(),
                Err(payload) => payload
                    .downcast::<String>()
                    .map_or_else(|_| "(non-string payload)".to_string(), |s| *s),
            },
        };
        let _ = tx.send(message);
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the run hung instead of re-raising the closure's panic")
}

fn at_us(t: f64) -> SimTime {
    SimTime::ZERO + us(t)
}

#[test]
fn call_panic_in_a_blocked_agents_loop_is_not_blamed_on_it() {
    let engine = Engine::new();
    engine.spawn("blocked", |ctx| {
        ctx.schedule_call(us(5.0), || {
            panic!("call panicked in a blocked agent's loop")
        });
        // Blocks; this agent's own loop pops the call.
        ctx.advance(us(10.0));
    });
    assert_eq!(
        run_panic_message(engine),
        "call panicked in a blocked agent's loop"
    );
}

#[test]
fn call_panic_in_a_finishing_agents_loop_does_not_hang() {
    let engine = Engine::new();
    engine.spawn("finisher", |ctx| {
        ctx.schedule_call(us(5.0), || {
            panic!("call panicked in a finishing agent's loop")
        });
        // Returns; the retiring agent's loop pops the call.
    });
    assert_eq!(
        run_panic_message(engine),
        "call panicked in a finishing agent's loop"
    );
}

#[test]
fn deadlock_found_by_an_agents_loop() {
    let engine = Engine::new();
    let (fa, fb) = (engine.flag(0), engine.flag(0));
    engine.spawn("left", move |ctx| {
        ctx.set_identity("pe0");
        ctx.advance(us(1.0));
        ctx.wait_flag_from(fa, Cmp::Ge, 1, "pe1");
    });
    engine.spawn("right", move |ctx| {
        ctx.set_identity("pe1");
        ctx.advance(us(2.0));
        // The last agent to block finds the empty queue.
        ctx.wait_flag_from(fb, Cmp::Ge, 1, "pe0");
    });
    let err = engine.run().unwrap_err();
    match &err {
        SimError::Deadlock {
            time,
            blocked,
            cycle,
        } => {
            assert_eq!(*time, at_us(2.0));
            assert_eq!(
                blocked,
                &[
                    "left: flag #0 Ge 1".to_string(),
                    "right: flag #1 Ge 1".into()
                ]
            );
            assert_eq!(cycle, &["left".to_string(), "right".into()]);
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
    assert_eq!(
        err.to_string(),
        "simulation deadlocked at 2.000us; blocked agents: left: flag #0 Ge 1, \
         right: flag #1 Ge 1; wait-for cycle: left -> right"
    );
}

#[test]
fn watchdog_abort_stops_the_run() {
    let engine = Engine::new();
    let f = engine.flag(0);
    engine.spawn("stuck", move |ctx| {
        ctx.set_identity("pe0");
        ctx.wait_flag_from(f, Cmp::Ge, 1, "pe1");
    });
    engine.spawn("watchdog", |ctx| {
        ctx.advance(us(3.0));
        assert_eq!(ctx.blocked_agents().len(), 1);
        let err = ctx.timeout_error("flag from pe1", ctx.now());
        ctx.abort(err);
    });
    match engine.run() {
        Err(SimError::Timeout {
            time,
            agent,
            waiting_on,
            deadline,
            cycle,
        }) => {
            assert_eq!((time, deadline), (at_us(3.0), at_us(3.0)));
            assert_eq!(agent, "watchdog");
            assert_eq!(waiting_on, "flag from pe1");
            assert!(cycle.is_empty());
        }
        other => panic!("expected a timeout abort, got {other:?}"),
    }
}

#[test]
fn timeout_fire_resumes_the_timed_out_agent() {
    let engine = Engine::new();
    let f = engine.flag(0);
    engine.spawn("waiter", move |ctx| {
        assert!(ctx.wait_flag_until(f, Cmp::Ge, 1, at_us(7.0)).is_err());
        assert_eq!(ctx.now(), at_us(7.0));
        ctx.signal(f, SignalOp::Set, 1);
    });
    engine.spawn("ticker", move |ctx| {
        // This agent's loop pops the deadline and wakes the waiter.
        for _ in 0..10 {
            ctx.advance(us(1.0));
        }
        assert_eq!(ctx.flag_value(f), 1);
    });
    assert_eq!(engine.run().unwrap(), at_us(10.0));
}

#[test]
fn a_failed_engine_returns_its_error_again() {
    let engine = Engine::new();
    engine.spawn("parent", |ctx| {
        // The child's first resume is still queued when the parent fails.
        ctx.spawn("child", |ctx| ctx.advance(us(1.0)));
        panic!("parent failed");
    });
    let first = engine.run().unwrap_err();
    let second = engine.run().unwrap_err();
    for err in [&first, &second] {
        match err {
            SimError::AgentPanic { agent, message } => {
                assert_eq!(
                    (agent.as_str(), message.as_str()),
                    ("parent", "parent failed")
                );
            }
            other => panic!("expected an agent panic, got {other:?}"),
        }
    }
    assert_eq!(first.to_string(), second.to_string());
}

#[test]
fn lone_agent_is_its_own_successor() {
    let engine = Engine::new();
    engine.spawn("solo", |ctx| {
        for _ in 0..1000 {
            ctx.advance(us(1.0));
        }
        ctx.yield_now();
    });
    assert_eq!(engine.run().unwrap(), at_us(1000.0));
    assert_eq!(engine.events_processed(), 1002);
    // The run's caller passes the token to the agent, and the finished
    // agent passes it back: the 1001 resumes in between switch no stack.
    assert_eq!(engine.handoffs(), 2);
}

#[test]
fn ping_pong_hands_off_once_per_resume() {
    let engine = Engine::new();
    let (f1, f2) = (engine.flag(0), engine.flag(0));
    engine.spawn("ping", move |ctx| {
        for i in 1..=100u64 {
            ctx.signal(f1, SignalOp::Set, i);
            ctx.wait_flag(f2, Cmp::Ge, i);
        }
    });
    engine.spawn("pong", move |ctx| {
        for i in 1..=100u64 {
            ctx.wait_flag(f1, Cmp::Ge, i);
            ctx.signal(f2, SignalOp::Set, i);
        }
    });
    engine.run().unwrap();
    assert_eq!(engine.events_processed(), 202);
    // Every resume switches stacks except pong's first, whose wait is
    // already satisfied; the final pass back to the run's caller makes up
    // the difference.
    assert_eq!(engine.handoffs(), 202);
}

/// Counts its drops into a shared counter.
struct DropCount(Arc<AtomicUsize>);

impl Drop for DropCount {
    fn drop(&mut self) {
        self.0.fetch_add(1, AtomicOrdering::SeqCst);
    }
}

#[test]
fn agent_captures_and_the_engine_are_freed_on_drop() {
    let dropped = Arc::new(AtomicUsize::new(0));
    let counted = || DropCount(Arc::clone(&dropped));
    let started = Arc::new(AtomicUsize::new(0));

    // A finished agent and one suspended by the deadlock that ends the run.
    let engine = Engine::new();
    let pool = Arc::downgrade(&engine.pool());
    let f = engine.flag(0);
    let (done, stuck) = (counted(), counted());
    engine.spawn("done", move |ctx| {
        let _done = done;
        ctx.advance(us(1.0));
    });
    engine.spawn("stuck", move |ctx| {
        let _stuck = stuck;
        ctx.wait_flag(f, Cmp::Ge, 1);
    });
    assert!(matches!(engine.run(), Err(SimError::Deadlock { .. })));
    drop(engine);
    assert_eq!(dropped.load(AtomicOrdering::SeqCst), 2);
    assert!(pool.upgrade().is_none(), "the deadlocked engine leaked");

    // An agent never started: the engine is dropped without a run.
    let engine = Engine::new();
    let pool = Arc::downgrade(&engine.pool());
    let never = counted();
    let never_started = Arc::clone(&started);
    engine.spawn("never", move |_| {
        let _never = never;
        never_started.fetch_add(1, AtomicOrdering::SeqCst);
    });
    drop(engine);
    assert_eq!(dropped.load(AtomicOrdering::SeqCst), 3);
    assert_eq!(started.load(AtomicOrdering::SeqCst), 0);
    assert!(pool.upgrade().is_none(), "the unrun engine leaked");

    // A child left unstarted by an abort, and a clean run.
    let engine = Engine::new();
    let pool = Arc::downgrade(&engine.pool());
    let (child, aborter) = (counted(), counted());
    let child_started = Arc::clone(&started);
    engine.spawn("aborter", move |ctx| {
        let _aborter = aborter;
        ctx.spawn("child", move |_| {
            let _child = child;
            child_started.fetch_add(1, AtomicOrdering::SeqCst);
        });
        let err = ctx.timeout_error("nothing", ctx.now());
        ctx.abort(err);
    });
    assert!(matches!(engine.run(), Err(SimError::Timeout { .. })));
    drop(engine);
    assert_eq!(dropped.load(AtomicOrdering::SeqCst), 5);
    assert_eq!(started.load(AtomicOrdering::SeqCst), 0);
    assert!(pool.upgrade().is_none(), "the aborted engine leaked");

    let engine = Engine::new();
    let pool = Arc::downgrade(&engine.pool());
    let ok = counted();
    engine.spawn("ok", move |ctx| {
        let _ok = ok;
        ctx.advance(us(1.0));
    });
    engine.run().unwrap();
    drop(engine);
    assert_eq!(dropped.load(AtomicOrdering::SeqCst), 6);
    assert!(pool.upgrade().is_none(), "the finished engine leaked");
}

/// Recurse until the frames below `top` span `bytes` of stack; returns the
/// depth reached.
fn recurse(top: usize, bytes: usize) -> u64 {
    let frame = std::hint::black_box([1u8; 1024]);
    if top - frame.as_ptr() as usize >= bytes {
        return u64::from(frame[0]);
    }
    recurse(top, bytes) + u64::from(frame[1023])
}

#[test]
fn agent_can_use_a_megabyte_of_stack() {
    let engine = Engine::new();
    let depth = Arc::new(AtomicUsize::new(0));
    let out = Arc::clone(&depth);
    engine.spawn("deep", move |ctx| {
        ctx.advance(us(1.0));
        let top = std::hint::black_box(0u8);
        let levels = recurse(&top as *const u8 as usize, 1 << 20);
        out.store(levels as usize, AtomicOrdering::SeqCst);
        ctx.advance(us(1.0));
    });
    assert_eq!(engine.run().unwrap(), at_us(2.0));
    // A level takes 1–3 KiB, depending on the build profile.
    assert!(depth.load(AtomicOrdering::SeqCst) >= 300);
}

#[test]
fn backtrace_inside_an_agent_then_panic() {
    let engine = Engine::new();
    engine.spawn("traced", |ctx| {
        ctx.advance(us(1.0));
        let trace = std::backtrace::Backtrace::force_capture();
        assert_eq!(trace.status(), std::backtrace::BacktraceStatus::Captured);
        assert!(!trace.to_string().is_empty());
        ctx.advance(us(1.0));
        panic!("after the backtrace");
    });
    match engine.run() {
        Err(SimError::AgentPanic { agent, message }) => {
            assert_eq!(agent, "traced");
            assert_eq!(message, "after the backtrace");
        }
        other => panic!("expected an agent panic, got {other:?}"),
    }
}

#[test]
fn two_thousand_children_all_finish() {
    const BATCHES: usize = 40;
    const PER_BATCH: usize = 50;
    let engine = Engine::new();
    let finished = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&finished);
    engine.spawn("parent", move |ctx| {
        for b in 0..BATCHES {
            for i in 0..PER_BATCH {
                let count = Arc::clone(&count);
                ctx.spawn(format!("child{b}.{i}"), move |ctx| {
                    ctx.advance(us(1.0));
                    count.fetch_add(1, AtomicOrdering::SeqCst);
                });
            }
            ctx.advance(us(2.0));
            assert_eq!(count.load(AtomicOrdering::SeqCst), (b + 1) * PER_BATCH);
        }
    });
    assert_eq!(engine.run().unwrap(), at_us(2.0 * BATCHES as f64));
    assert_eq!(finished.load(AtomicOrdering::SeqCst), BATCHES * PER_BATCH);
    assert_eq!(engine.live_agents(), 0);
    // Per batch: 50 starts, 50 child resumes and one parent resume, each a
    // switch; plus the first resume of the parent and the final pass back.
    assert_eq!(engine.events_processed(), 4041);
    assert_eq!(engine.handoffs(), 4042);
}
