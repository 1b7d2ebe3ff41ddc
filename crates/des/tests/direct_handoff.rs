//! The agent-driven event loop: every way a run stops, whichever thread is
//! running the loop when it does, and the `handoffs()` counter.
//!
//! A blocking agent runs the loop itself and wakes its successor, so the
//! same stop can be reached on the run's thread, on a blocked agent's
//! thread or on a finishing agent's thread. Each test pins the outcome the
//! caller of `Engine::run` sees, and that the run ends rather than hangs.

use sim_des::{us, Cmp, Engine, RunStatus, SignalOp, SimError, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
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
fn call_panic_on_the_run_thread_is_reraised() {
    let engine = Engine::new();
    engine.spawn("caller", |ctx| {
        ctx.schedule_call(us(10.0), || panic!("call panicked on the run thread"));
        ctx.advance(us(20.0));
    });
    // The window stops inside the caller's loop, before the call is due;
    // the next run pops the call on the run's own thread.
    assert_eq!(
        engine.run_until(at_us(5.0)).unwrap(),
        RunStatus::Idle {
            next: Some(at_us(10.0))
        }
    );
    assert_eq!(run_panic_message(engine), "call panicked on the run thread");
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
fn window_ending_in_an_agents_loop_resumes_to_the_same_end() {
    fn build() -> Engine {
        let engine = Engine::new();
        let f = engine.flag(0);
        engine.spawn("producer", move |ctx| {
            for i in 1..=5 {
                ctx.advance(us(10.0));
                ctx.signal(f, SignalOp::Set, i);
            }
        });
        engine.spawn("consumer", move |ctx| {
            for i in 1..=5 {
                ctx.wait_flag(f, Cmp::Ge, i);
                ctx.advance(us(3.0));
            }
        });
        engine
    }
    let whole = build();
    let end = whole.run().unwrap();

    let windowed = build();
    // At 33 µs the consumer blocks and its loop meets the limit.
    assert_eq!(
        windowed.run_until(at_us(35.0)).unwrap(),
        RunStatus::Idle {
            next: Some(at_us(40.0))
        }
    );
    assert_eq!(windowed.now(), at_us(33.0));
    assert_eq!(windowed.run().unwrap(), end);
    assert_eq!(windowed.events_processed(), whole.events_processed());
    assert_eq!(end, at_us(53.0));
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
    // The run's thread passes the token to the agent, and the finished
    // agent passes it back: the 1001 resumes in between switch no thread.
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
    // Every resume switches threads except pong's first, whose wait is
    // already satisfied; the final pass back to the run's thread makes up
    // the difference.
    assert_eq!(engine.handoffs(), 202);
}
