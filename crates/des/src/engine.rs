//! The deterministic virtual-time scheduler.
//!
//! # Execution model
//!
//! Agents are imperative routines (host threads, persistent-kernel thread
//! blocks, stream workers, …) written as ordinary Rust closures against
//! [`AgentCtx`](crate::agent::AgentCtx). Each agent is a stackful coroutine:
//! it runs on a stack of its own (see `coro.rs`), on the thread that called
//! [`Engine::run`], and **exactly one stack holds the execution token at a
//! time**. There is no scheduler: when an agent blocks (`advance`,
//! `wait_flag`, `barrier`), it applies its own request, runs the event loop
//! itself under the engine lock until the loop pops the next `Resume`, and
//! switches straight to that agent's stack (direct handoff) — a register
//! swap, not a kernel context switch. An agent that is its own successor
//! keeps running with no switch. The caller of [`Engine::run`] is one more
//! token holder, on its own thread's stack: it starts the loop and is
//! switched back to when some holder stops the run (every agent done,
//! deadlock, panic or abort). The result is a sequential, fully
//! deterministic simulation in which agent code can block with ordinary
//! imperative control flow — no hand written state machines, no async.
//!
//! # Agent stacks
//!
//! Each agent gets a 2 MiB stack (Rust's default thread stack), mapped
//! without reserving memory, so only the pages it touches become resident,
//! above a `PROT_NONE` guard page: an overflow faults instead of running
//! into other memory. A finished agent drops everything it owns before its
//! last switch, and the next token holder unmaps its stack. Shutting an
//! engine down switches to every suspended or never-started agent once, so
//! that it unwinds and its destructors run. The switch is x86_64 System V
//! assembly on Linux; other targets do not compile until `coro.rs` is
//! ported.
//!
//! An engine's agents run only on the thread that drives it (`run`) or
//! shuts it down (an error, or dropping the engine), which may differ from
//! one call to the next. Agent code must therefore not keep per-thread
//! state across a blocking call: no `thread_local!`, no thread ids. No
//! crate of this workspace uses either.
//!
//! # Determinism
//!
//! Runnable work is ordered by `(virtual_time, sequence_number)`, where the
//! sequence number increases monotonically with every enqueue. Two runs of
//! the same program therefore execute agents in the identical order and
//! produce identical virtual end times (and identical buffer contents in the
//! layers above). Which stack happens to run the loop never enters the
//! order.
//!
//! # Hot path
//!
//! The event queue is arena-allocated: the binary heap orders small
//! `(time, seq, slot)` keys while action payloads live in a slab whose
//! slots are recycled through a free list, so steady-state scheduling
//! performs no allocation. All names (agents, identities, span labels,
//! wait annotations) are interned [`Sym`]s; strings are materialized only
//! when a diagnostic or report is rendered.

use crate::agent::{AgentCtx, AgentId};
use crate::coro::{self, Context, Stack};
use crate::fault::mix64;
use crate::hb::{AsyncClock, HbTracker};
use crate::intern::{Label, Sym, SymPool};
use crate::lock::{Mutex, MutexGuard};
use crate::sync::{Barrier, Cmp, Flag, SignalOp};
use crate::time::{SimDur, SimTime};
use crate::trace::{Trace, TraceSpan};
use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Errors surfaced by [`Engine::run`].
#[derive(Debug, Clone)]
pub enum SimError {
    /// Live agents remain but none can ever run again.
    Deadlock {
        /// Virtual time at which progress stopped.
        time: SimTime,
        /// `name: blocked-on` diagnostics for every stuck agent.
        blocked: Vec<String>,
        /// Agent names forming a wait-for cycle, when the blocked agents'
        /// declared wait-for edges (see [`AgentCtx::wait_flag_from`]) close
        /// one; empty when no cycle could be established.
        cycle: Vec<String>,
    },
    /// An agent closure panicked.
    AgentPanic {
        /// Name of the panicking agent.
        agent: String,
        /// Rendered panic payload.
        message: String,
    },
    /// A deadline wait expired (or a watchdog diagnosed a stall) and the
    /// simulation was aborted with attribution.
    Timeout {
        /// Virtual time at which the timeout fired.
        time: SimTime,
        /// Name of the agent that timed out (or was diagnosed as stuck).
        agent: String,
        /// What the agent was waiting for.
        waiting_on: String,
        /// The deadline that expired.
        deadline: SimTime,
        /// Agent names forming a wait-for cycle at diagnosis time (empty
        /// when the stall is not a cyclic wait).
        cycle: Vec<String>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock {
                time,
                blocked,
                cycle,
            } => {
                write!(f, "simulation deadlocked at {time}; blocked agents: ")?;
                for (i, b) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{b}")?;
                }
                if !cycle.is_empty() {
                    write!(f, "; wait-for cycle: {}", cycle.join(" -> "))?;
                }
                Ok(())
            }
            SimError::AgentPanic { agent, message } => {
                write!(f, "agent `{agent}` panicked: {message}")
            }
            SimError::Timeout {
                time,
                agent,
                waiting_on,
                deadline,
                cycle,
            } => {
                write!(
                    f,
                    "agent `{agent}` timed out at {time} (deadline {deadline}) waiting on {waiting_on}"
                )?;
                if !cycle.is_empty() {
                    write!(f, "; wait-for cycle: {}", cycle.join(" -> "))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Diagnostic snapshot of one blocked agent (for watchdogs).
#[derive(Debug, Clone)]
pub struct BlockedInfo {
    /// The agent's name.
    pub name: String,
    /// The agent's declared identity label (e.g. `"pe3"`), if any.
    pub identity: Option<String>,
    /// Human-readable description of what it is blocked on.
    pub blocked_on: String,
    /// Identity label of the peer it declared it is waiting for, if any.
    pub waiting_for: Option<String>,
}

/// Why the event loop stopped: what the caller of [`Engine::run`] reports
/// once the token comes back to it.
enum Outcome {
    /// Every agent finished and no event remains.
    Done,
    /// Deadlock, agent panic or structured abort.
    Error(SimError),
    /// A `schedule_call` closure (or the loop itself) panicked; the payload
    /// is re-raised by the caller of [`Engine::run`].
    Panic(Box<dyn Any + Send>),
}

/// Panic payload used by [`AgentCtx::abort`] to carry a structured
/// [`SimError`] out of an agent closure.
pub(crate) struct AbortSim(pub(crate) SimError);

/// What a blocking agent asks of the engine before it runs the event loop.
pub(crate) enum Request {
    /// Charge virtual time, resume at `now + dur`.
    Advance(SimDur),
    /// Block until the flag satisfies `cmp value`, optionally bounded by a
    /// virtual-time deadline and annotated with the identity of the peer the
    /// agent expects the signal from (wait-for-graph edge).
    WaitFlag {
        flag: Flag,
        cmp: Cmp,
        value: u64,
        deadline: Option<SimTime>,
        expected_from: Option<Sym>,
    },
    /// Block on an N-party barrier, optionally bounded by a deadline.
    Barrier {
        barrier: Barrier,
        deadline: Option<SimTime>,
    },
    /// Resume after other same-time work.
    Yield,
}

/// A queue entry: something that happens at a virtual time.
enum Action {
    Resume(AgentId),
    Signal {
        flag: Flag,
        op: SignalOp,
        value: u64,
        /// Happens-before stamp the delivery carries (present only when the
        /// HB tracker is enabled at issue time).
        stamp: Option<AsyncClock>,
    },
    /// Run a side-effect closure (e.g. materialize DMA data at completion
    /// time). Executed by whichever stack holds the token and is running
    /// the event loop, outside the engine lock; the closure must not call
    /// back into the engine. A panic stops the run and is re-raised by the
    /// caller of [`Engine::run`].
    Call(Box<dyn FnOnce() + Send>),
    /// A deadline for a bounded wait. Stale once the agent's wait epoch has
    /// moved on (the wait completed first); stale fires are skipped WITHOUT
    /// advancing the clock so unexpired deadlines never distort end times.
    TimeoutFire {
        agent: AgentId,
        epoch: u64,
    },
}

/// What a blocked agent is parked on. Doubles as the "blocked on"
/// diagnostic via `Display`, replacing the `format!` that used to allocate
/// on every blocking wait — the description is rendered only when a
/// deadlock/timeout/watchdog actually looks.
#[derive(Clone, Copy)]
pub(crate) enum BlockedOn {
    Flag { flag: Flag, cmp: Cmp, value: u64 },
    Barrier(Barrier),
}

impl fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockedOn::Flag { flag, cmp, value } => {
                write!(f, "flag #{} {:?} {}", flag.0, cmp, value)
            }
            BlockedOn::Barrier(b) => write!(f, "barrier #{}", b.0),
        }
    }
}

/// Heap key for the arena'd event queue: 20 bytes of ordering data. The
/// action payload lives in the slab at `slot`, so heap sift operations move
/// small keys instead of whole `Action`s (which embed clocks and boxed
/// closures).
#[derive(PartialEq, Eq)]
struct HeapKey {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    // Reversed: BinaryHeap is a max-heap, we want the earliest first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Who holds the execution token.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Turn {
    /// The caller of [`Engine::run`], on its own thread's stack.
    Driver,
    Agent(AgentId),
}

struct FlagState {
    value: u64,
    waiters: Vec<(AgentId, Cmp, u64)>,
}

struct BarrierState {
    parties: usize,
    waiting: Vec<AgentId>,
}

struct AgentSlot {
    name: Sym,
    /// The agent's stack: moved to `Central::reap` when it finishes, freed
    /// when [`Engine::shutdown`] has unwound it.
    stack: Option<Stack>,
    alive: bool,
    /// Logical identity (e.g. `"pe2"`) used as the node label in the
    /// wait-for graph. Set via [`AgentCtx::set_identity`].
    identity: Option<Sym>,
    /// Identity of the peer this agent declared it is waiting for
    /// (wait-for-graph edge); cleared when the wait completes.
    waiting_for: Option<Sym>,
    /// The flag/barrier the agent is currently parked on, if any. Also the
    /// source of the human-readable "blocked on" description.
    wait_target: Option<BlockedOn>,
    /// Bumped on every blocking wait; guards [`Action::TimeoutFire`]
    /// staleness.
    wait_epoch: u64,
    /// Set by a fired timeout; consumed by the agent when it resumes.
    timed_out: bool,
}

pub(crate) struct Central {
    /// The driver's context while an agent holds the token.
    driver: Context,
    pub(crate) clock: SimTime,
    shutdown: bool,
    /// The error that ended the first failed run; every later
    /// [`Engine::run`] returns it again.
    failed: Option<SimError>,
    /// Set by the holder that stops the run; taken by the driver.
    stop: Option<Outcome>,
    /// Stacks of finished agents, freed by the next holder to take the
    /// token (a stack cannot free itself while it runs).
    reap: Vec<Stack>,
    /// Token passes to a different stack.
    handoffs: u64,
    seq: u64,
    /// Ordering keys; payloads live in `slab`.
    queue: BinaryHeap<HeapKey>,
    /// Arena of pending actions, indexed by `HeapKey::slot`.
    slab: Vec<Option<Action>>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Total events popped from the queue (the engine's throughput unit).
    events: u64,
    flags: Vec<FlagState>,
    barriers: Vec<BarrierState>,
    agents: Vec<AgentSlot>,
    /// Identity label -> agent indices that declared it, in registration
    /// order. Maintained incrementally by [`Central::set_identity`] so
    /// wait-cycle detection never rebuilds a map from scratch.
    by_identity: HashMap<Sym, Vec<usize>>,
    live_agents: usize,
    pub(crate) trace: Trace,
    trace_enabled: bool,
    /// Shared with [`Shared::pool`]; lets lock-holding diagnostics resolve
    /// names without reaching outside `Central`.
    pool: Arc<SymPool>,
    /// Happens-before tracker; `None` (the default) records nothing.
    pub(crate) hb: Option<Arc<HbTracker>>,
    /// Seed for the wake-order perturbation; `None` keeps FIFO tie-breaks.
    jitter: Option<u64>,
    /// Draw counter for the jitter stream (advances per permutation step).
    jitter_ctr: u64,
}

impl Central {
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn push(&mut self, time: SimTime, action: Action) {
        let seq = self.next_seq();
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(action);
                s
            }
            None => {
                let s = u32::try_from(self.slab.len()).expect("event slab overflow");
                self.slab.push(Some(action));
                s
            }
        };
        self.queue.push(HeapKey { time, seq, slot });
    }

    /// Pop the earliest event, returning its time and payload. The slab
    /// slot is recycled immediately.
    fn pop_event(&mut self) -> Option<(SimTime, Action)> {
        let key = self.queue.pop()?;
        self.events += 1;
        let action = self.slab[key.slot as usize]
            .take()
            .expect("queued slab slot is empty");
        self.free.push(key.slot);
        Some((key.time, action))
    }

    /// `name: blocked-on` diagnostics for every live agent — the payload of
    /// a deadlock report.
    fn blocked_strings(&self) -> Vec<String> {
        self.agents
            .iter()
            .filter(|a| a.alive)
            .map(|a| match a.wait_target {
                Some(w) => format!("{}: {}", self.pool.resolve(a.name), w),
                None => format!("{}: (unknown wait)", self.pool.resolve(a.name)),
            })
            .collect()
    }

    /// Schedule a future signal application (e.g. a DMA completion).
    pub(crate) fn push_signal(
        &mut self,
        time: SimTime,
        flag: Flag,
        op: SignalOp,
        value: u64,
        stamp: Option<AsyncClock>,
    ) {
        self.push(
            time,
            Action::Signal {
                flag,
                op,
                value,
                stamp,
            },
        );
    }

    /// Schedule a future side-effect closure.
    pub(crate) fn push_call(&mut self, time: SimTime, f: Box<dyn FnOnce() + Send>) {
        self.push(time, Action::Call(f));
    }

    /// Apply a signal to a flag and make every now-satisfied waiter runnable.
    pub(crate) fn apply_signal(
        &mut self,
        flag: Flag,
        op: SignalOp,
        value: u64,
        at: SimTime,
        stamp: Option<AsyncClock>,
    ) {
        if let (Some(hb), Some(s)) = (&self.hb, &stamp) {
            hb.on_signal_deliver(flag, s, at);
        }
        let state = &mut self.flags[flag.0];
        state.value = op.apply(state.value, value);
        let val = state.value;
        let mut woken = Vec::new();
        state.waiters.retain(|&(agent, cmp, target)| {
            if cmp.eval(val, target) {
                woken.push(agent);
                false
            } else {
                true
            }
        });
        if let Some(hb) = &self.hb {
            for &agent in &woken {
                hb.on_wait_satisfied(agent, flag, at);
            }
        }
        self.wake(at, woken);
    }

    /// Make a batch of simultaneously released agents runnable at `at`, in
    /// FIFO (or jittered) order.
    fn wake(&mut self, at: SimTime, mut woken: Vec<AgentId>) {
        self.permute_woken(&mut woken);
        for agent in woken {
            self.clear_wait(agent);
            self.push(at, Action::Resume(agent));
        }
    }

    /// Seeded Fisher–Yates permutation of a batch of simultaneously woken
    /// agents. The members of such a batch are mutually concurrent (all
    /// released by the same signal application or barrier arrival), so any
    /// relative wake order is a valid schedule — this is the perturbation
    /// lever used by the conformance harness. A no-op unless
    /// [`Engine::set_wake_jitter`] was called.
    fn permute_woken(&mut self, woken: &mut [AgentId]) {
        let Some(seed) = self.jitter else { return };
        for i in (1..woken.len()).rev() {
            self.jitter_ctr += 1;
            let j = (mix64(seed ^ self.jitter_ctr) % (i as u64 + 1)) as usize;
            woken.swap(i, j);
        }
    }

    /// Forget a completed (or cancelled) blocking wait.
    fn clear_wait(&mut self, agent: AgentId) {
        let slot = &mut self.agents[agent.0];
        slot.waiting_for = None;
        slot.wait_target = None;
    }

    /// Apply a blocking agent's request at the current clock: queue its
    /// resume, or park it on a flag / barrier (releasing the barrier when it
    /// is the last arrival).
    fn apply_request(&mut self, agent: AgentId, request: Request) {
        match request {
            Request::Advance(dur) => {
                let t = self.clock + dur;
                self.push(t, Action::Resume(agent));
            }
            Request::WaitFlag {
                flag,
                cmp,
                value,
                deadline,
                expected_from,
            } => {
                if cmp.eval(self.flags[flag.0].value, value) {
                    let t = self.clock;
                    if let Some(hb) = &self.hb {
                        hb.on_wait_satisfied(agent, flag, t);
                    }
                    self.push(t, Action::Resume(agent));
                } else {
                    let epoch = {
                        let slot = &mut self.agents[agent.0];
                        slot.waiting_for = expected_from;
                        slot.wait_target = Some(BlockedOn::Flag { flag, cmp, value });
                        slot.wait_epoch += 1;
                        slot.wait_epoch
                    };
                    self.flags[flag.0].waiters.push((agent, cmp, value));
                    if let Some(d) = deadline {
                        let d = d.max(self.clock);
                        self.push(d, Action::TimeoutFire { agent, epoch });
                    }
                }
            }
            Request::Barrier {
                barrier: b,
                deadline,
            } => {
                let epoch = {
                    let slot = &mut self.agents[agent.0];
                    slot.wait_target = Some(BlockedOn::Barrier(b));
                    slot.wait_epoch += 1;
                    slot.wait_epoch
                };
                self.barriers[b.0].waiting.push(agent);
                if self.barriers[b.0].waiting.len() == self.barriers[b.0].parties {
                    let t = self.clock;
                    let woken = std::mem::take(&mut self.barriers[b.0].waiting);
                    if let Some(hb) = &self.hb {
                        hb.on_barrier_release(&woken, b, t);
                    }
                    self.wake(t, woken);
                } else if let Some(d) = deadline {
                    let d = d.max(self.clock);
                    self.push(d, Action::TimeoutFire { agent, epoch });
                }
            }
            Request::Yield => {
                let t = self.clock;
                self.push(t, Action::Resume(agent));
            }
        }
    }

    /// Mark a finished agent dead; its stack is freed by the next holder.
    fn retire(&mut self, agent: AgentId) {
        let slot = &mut self.agents[agent.0];
        slot.alive = false;
        self.reap.extend(slot.stack.take());
        self.live_agents -= 1;
    }

    /// Where the token holder `turn` saves (or is resumed from) its
    /// context.
    fn context(&mut self, turn: Turn) -> *mut Context {
        match turn {
            Turn::Driver => &raw mut self.driver,
            Turn::Agent(a) => self.agents[a.0]
                .stack
                .as_ref()
                .expect("resumed an agent whose stack is gone")
                .context(),
        }
    }

    /// Declare an agent's identity, keeping the `by_identity` index current.
    pub(crate) fn set_identity(&mut self, id: AgentId, identity: Sym) {
        let slot = &mut self.agents[id.0];
        if slot.identity == Some(identity) {
            return;
        }
        if let Some(old) = slot.identity.take() {
            if let Some(v) = self.by_identity.get_mut(&old) {
                v.retain(|&i| i != id.0);
            }
        }
        self.agents[id.0].identity = Some(identity);
        self.by_identity.entry(identity).or_default().push(id.0);
    }

    /// Consume the agent's timed-out marker (set by a fired deadline).
    pub(crate) fn take_timed_out(&mut self, id: AgentId) -> bool {
        std::mem::take(&mut self.agents[id.0].timed_out)
    }

    /// Snapshot of every live blocked agent, for watchdog diagnosis.
    pub(crate) fn blocked_snapshot(&self) -> Vec<BlockedInfo> {
        self.agents
            .iter()
            .filter(|a| a.alive && a.wait_target.is_some())
            .map(|a| BlockedInfo {
                name: self.pool.resolve(a.name).to_string(),
                identity: a.identity.map(|s| self.pool.resolve(s).to_string()),
                blocked_on: a.wait_target.map(|w| w.to_string()).unwrap_or_default(),
                waiting_for: a.waiting_for.map(|s| self.pool.resolve(s).to_string()),
            })
            .collect()
    }

    /// The live blocked agent currently holding `ident`, preferring the most
    /// recent registrant when several agents share an identity (a heuristic,
    /// fine for diagnostics).
    fn blocked_with_identity(&self, ident: Sym) -> Option<usize> {
        self.by_identity
            .get(&ident)?
            .iter()
            .rev()
            .copied()
            .find(|&i| matches!(&self.agents[i], a if a.alive && a.wait_target.is_some()))
    }

    /// Find a wait-for cycle among blocked agents, following the
    /// `waiting_for` edges declared via `expected_from` annotations. Edges
    /// point at identity labels, resolved through the incrementally
    /// maintained `by_identity` index. Returns the agent NAMES on the first
    /// cycle found, or an empty vector if the blocked set is acyclic /
    /// unannotated.
    pub(crate) fn wait_cycle(&self) -> Vec<String> {
        for (start, a) in self.agents.iter().enumerate() {
            if !(a.alive && a.wait_target.is_some()) {
                continue;
            }
            let mut path: Vec<usize> = Vec::new();
            let mut cur = start;
            loop {
                if let Some(pos) = path.iter().position(|&p| p == cur) {
                    return path[pos..]
                        .iter()
                        .map(|&p| self.pool.resolve(self.agents[p].name).to_string())
                        .collect();
                }
                path.push(cur);
                let Some(next_ident) = self.agents[cur].waiting_for else {
                    break;
                };
                let Some(next) = self.blocked_with_identity(next_ident) else {
                    break;
                };
                cur = next;
            }
        }
        Vec::new()
    }

    pub(crate) fn flag_value(&self, flag: Flag) -> u64 {
        self.flags[flag.0].value
    }

    pub(crate) fn new_flag(&mut self, init: u64) -> Flag {
        self.flags.push(FlagState {
            value: init,
            waiters: Vec::new(),
        });
        Flag(self.flags.len() - 1)
    }

    pub(crate) fn new_barrier(&mut self, parties: usize) -> Barrier {
        assert!(parties > 0, "barrier needs at least one party");
        self.barriers.push(BarrierState {
            parties,
            waiting: Vec::new(),
        });
        Barrier(self.barriers.len() - 1)
    }

    pub(crate) fn record_span(&mut self, span: TraceSpan) {
        if self.trace_enabled {
            self.trace.push(span);
        }
    }

    /// The agent's name, resolved from the pool (report paths only).
    pub(crate) fn agent_name(&self, id: AgentId) -> Arc<str> {
        self.pool.resolve(self.agents[id.0].name)
    }

    /// The agent's interned name (hot path: span recording).
    pub(crate) fn agent_name_sym(&self, id: AgentId) -> Sym {
        self.agents[id.0].name
    }
}

pub(crate) struct Shared {
    pub(crate) central: Mutex<Central>,
    /// The engine-wide symbol pool. Deliberately *outside* the central lock
    /// so agents intern labels without serializing on the engine.
    pub(crate) pool: Arc<SymPool>,
}

/// The deterministic virtual-time discrete-event engine.
///
/// Typical use:
///
/// ```
/// use sim_des::{Engine, Cmp, SignalOp, us};
///
/// let engine = Engine::new();
/// let flag = engine.flag(0);
/// engine.spawn("producer", move |ctx| {
///     ctx.advance(us(5.0));
///     ctx.signal(flag, SignalOp::Set, 1);
/// });
/// engine.spawn("consumer", move |ctx| {
///     ctx.wait_flag(flag, Cmp::Ge, 1);
///     assert_eq!(ctx.now().as_micros_f64(), 5.0);
/// });
/// let end = engine.run().unwrap();
/// assert_eq!(end.as_micros_f64(), 5.0);
/// ```
pub struct Engine {
    shared: Arc<Shared>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Create an empty engine at virtual time zero.
    pub fn new() -> Self {
        let pool = Arc::new(SymPool::new());
        Engine {
            shared: Arc::new(Shared {
                central: Mutex::new(Central {
                    driver: 0,
                    clock: SimTime::ZERO,
                    shutdown: false,
                    failed: None,
                    stop: None,
                    reap: Vec::new(),
                    handoffs: 0,
                    seq: 0,
                    queue: BinaryHeap::new(),
                    slab: Vec::new(),
                    free: Vec::new(),
                    events: 0,
                    flags: Vec::new(),
                    barriers: Vec::new(),
                    agents: Vec::new(),
                    by_identity: HashMap::new(),
                    live_agents: 0,
                    trace: Trace::with_pool(Arc::clone(&pool)),
                    trace_enabled: true,
                    pool: Arc::clone(&pool),
                    hb: None,
                    jitter: None,
                    jitter_ctr: 0,
                }),
                pool,
            }),
        }
    }

    /// Allocate a signal flag with an initial value.
    pub fn flag(&self, init: u64) -> Flag {
        self.shared.central.lock().new_flag(init)
    }

    /// Allocate a reusable N-party barrier.
    pub fn barrier(&self, parties: usize) -> Barrier {
        self.shared.central.lock().new_barrier(parties)
    }

    /// Current value of a flag (also usable after the run for inspection).
    pub fn flag_value(&self, flag: Flag) -> u64 {
        self.shared.central.lock().flag_value(flag)
    }

    /// Enable or disable span recording (enabled by default).
    pub fn set_trace_enabled(&self, enabled: bool) {
        self.shared.central.lock().trace_enabled = enabled;
    }

    /// Clone the recorded trace (normally read after [`Engine::run`]).
    pub fn trace(&self) -> Trace {
        self.shared.central.lock().trace.clone()
    }

    /// Intern a string in the engine's symbol pool. Pre-intern hot labels
    /// once and pass the [`Sym`] to `busy`/`record` to keep the per-event
    /// path allocation-free.
    pub fn intern(&self, s: &str) -> Sym {
        self.shared.pool.intern(s)
    }

    /// The engine's symbol pool (shared with its trace).
    pub fn pool(&self) -> Arc<SymPool> {
        Arc::clone(&self.shared.pool)
    }

    /// Total events processed (queue pops) so far — the numerator of the
    /// engine's events/sec throughput metric.
    pub fn events_processed(&self) -> u64 {
        self.shared.central.lock().events
    }

    /// Execution-token passes to a different stack so far, the driver's
    /// counting as one: one per switch. An agent that is its own successor
    /// costs none.
    pub fn handoffs(&self) -> u64 {
        self.shared.central.lock().handoffs
    }

    /// Virtual time of the engine clock.
    pub fn now(&self) -> SimTime {
        self.shared.central.lock().clock
    }

    /// Snapshot of every live blocked agent (for watchdog diagnosis).
    pub fn blocked_agents(&self) -> Vec<BlockedInfo> {
        self.shared.central.lock().blocked_snapshot()
    }

    /// Current wait-for cycle among blocked agents, if any (agent names).
    pub fn wait_cycle(&self) -> Vec<String> {
        self.shared.central.lock().wait_cycle()
    }

    /// Spawn an agent, runnable at the current virtual time.
    ///
    /// Returns its id. The closure runs on a stack of its own, on the
    /// thread that drives the engine, only while it holds the (single)
    /// execution token.
    pub fn spawn<'a, F>(&self, name: impl Into<Label<'a>>, f: F) -> AgentId
    where
        F: FnOnce(&mut AgentCtx) + Send + 'static,
    {
        let name = name.into().intern(&self.shared.pool);
        spawn_agent(&self.shared, name, None, f)
    }

    /// Enable happens-before tracking, creating the tracker on first call.
    ///
    /// Call before spawning agents so every synchronization edge is seen.
    /// Returns the (shared) tracker for recording memory effects and
    /// reading diagnostics. Tier-1 runs never call this, so the default
    /// cost is a skipped `Option` check per engine operation.
    pub fn enable_hb(&self) -> Arc<HbTracker> {
        let mut g = self.shared.central.lock();
        if g.hb.is_none() {
            g.hb = Some(Arc::new(HbTracker::new()));
        }
        Arc::clone(g.hb.as_ref().expect("just set"))
    }

    /// The happens-before tracker, if [`Engine::enable_hb`] was called.
    pub fn hb(&self) -> Option<Arc<HbTracker>> {
        self.shared.central.lock().hb.clone()
    }

    /// Seed the wake-order perturbation: batches of simultaneously woken
    /// agents (barrier releases, multi-waiter signal applications) are
    /// permuted by a deterministic seeded shuffle instead of FIFO order.
    ///
    /// Every permuted order is a valid schedule of the same program, so a
    /// correct protocol must produce bit-identical results under any seed —
    /// the property the conformance harness asserts. Unset (the default)
    /// keeps the historical FIFO tie-break.
    pub fn set_wake_jitter(&self, seed: u64) {
        self.shared.central.lock().jitter = Some(seed);
    }

    /// Drive the simulation until every agent has finished.
    ///
    /// Returns the final virtual time, or an error on deadlock / agent panic.
    /// On error the engine is shut down: every suspended agent is unwound,
    /// so what it owns is dropped. A failed engine does not run again:
    /// every later call returns the same error.
    pub fn run(&self) -> Result<SimTime, SimError> {
        if let Some(e) = &self.shared.central.lock().failed {
            return Err(e.clone());
        }
        match self.drive() {
            Ok(()) => Ok(self.now()),
            Err(e) => {
                self.shared.central.lock().failed = Some(e.clone());
                self.shutdown();
                Err(e)
            }
        }
    }

    /// Number of agents that have not finished yet.
    pub fn live_agents(&self) -> usize {
        self.shared.central.lock().live_agents
    }

    /// Start the event loop as the driver, and report why the run stopped
    /// once the token comes back.
    fn drive(&self) -> Result<(), SimError> {
        let shared = &*self.shared;
        let mut g = pass_token(shared, shared.central.lock(), Turn::Driver);
        match g.stop.take().expect("the run stopped without an outcome") {
            Outcome::Done => Ok(()),
            Outcome::Error(e) => Err(e),
            Outcome::Panic(payload) => {
                drop(g);
                resume_unwind(payload)
            }
        }
    }

    /// Unwind every suspended or never-started agent on its own stack, once,
    /// so its destructors run, and free the stacks. Unwound agents stay
    /// `alive`: the blocked-agent diagnostics still describe them.
    pub(crate) fn shutdown(&self) {
        let shared = &*self.shared;
        let mut g = shared.central.lock();
        g.shutdown = true;
        let mut a = 0;
        while a < g.agents.len() {
            // Finished agents gave their stacks up; unwound ones freed theirs.
            if g.agents[a].stack.is_some() {
                let (from, to) = (g.context(Turn::Driver), g.context(Turn::Agent(AgentId(a))));
                drop(g);
                // SAFETY: the agent is suspended on its mapped stack, and
                // switches back to the driver's context when it has unwound.
                unsafe { coro::switch(from, to) };
                g = shared.central.lock();
                g.agents[a].stack = None;
            }
            a += 1;
        }
        g.reap.clear();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Sentinel panic payload used to unwind agents during shutdown.
pub(crate) struct ShutdownUnwind;

type Guard<'a> = MutexGuard<'a, Central>;

/// Pop events on the calling stack until one resumes an agent, and return
/// that agent's turn; or stop the run (the outcome goes into
/// `Central::stop`) and return the driver's turn.
fn next_turn<'a>(shared: &'a Shared, mut g: Guard<'a>) -> (Guard<'a>, Turn) {
    // A finishing agent that failed has stopped the run already.
    if g.stop.is_some() {
        return (g, Turn::Driver);
    }
    loop {
        let Some((time, action)) = g.pop_event() else {
            let outcome = if g.live_agents == 0 {
                Outcome::Done
            } else {
                Outcome::Error(SimError::Deadlock {
                    time: g.clock,
                    blocked: g.blocked_strings(),
                    cycle: g.wait_cycle(),
                })
            };
            g.stop = Some(outcome);
            return (g, Turn::Driver);
        };
        if let Action::TimeoutFire { agent, epoch } = action {
            let live = {
                let slot = &g.agents[agent.0];
                slot.alive && slot.wait_epoch == epoch && slot.wait_target.is_some()
            };
            if !live {
                // The wait completed first; drop the deadline WITHOUT
                // touching the clock so it cannot distort end times.
                continue;
            }
            g.clock = time;
            match g.agents[agent.0].wait_target {
                Some(BlockedOn::Flag { flag, .. }) => {
                    g.flags[flag.0].waiters.retain(|&(a, _, _)| a != agent);
                }
                Some(BlockedOn::Barrier(b)) => {
                    g.barriers[b.0].waiting.retain(|&a| a != agent);
                }
                None => unreachable!("live timeout without wait target"),
            }
            g.clear_wait(agent);
            g.agents[agent.0].timed_out = true;
            let t = g.clock;
            g.push(t, Action::Resume(agent));
            continue;
        }
        debug_assert!(time >= g.clock, "time went backwards");
        g.clock = time;
        match action {
            Action::TimeoutFire { .. } => unreachable!("handled above"),
            Action::Signal {
                flag,
                op,
                value,
                stamp,
            } => {
                let at = g.clock;
                g.apply_signal(flag, op, value, at, stamp);
            }
            Action::Call(f) => {
                // Run outside the lock: the closure may take unrelated
                // locks (buffer mutexes) but must not re-enter the engine.
                drop(g);
                f();
                g = shared.central.lock();
            }
            Action::Resume(agent) => return (g, Turn::Agent(agent)),
        }
    }
}

/// Run the event loop as the token holder `me`, then give the token to the
/// turn it selects, switching stacks unless that is `me` again. Returns
/// with the guard once `me` holds the token again.
fn pass_token<'a>(shared: &'a Shared, g: Guard<'a>, me: Turn) -> Guard<'a> {
    let (mut g, next) = next_holder(shared, g);
    if next == me {
        return g;
    }
    g.handoffs += 1;
    let (from, to) = (g.context(me), g.context(next));
    drop(g);
    // SAFETY: `to` is the driver, suspended in a token pass, or an agent
    // suspended in one or never started; either way its stack is mapped.
    unsafe { coro::switch(from, to) };
    reap(shared.central.lock())
}

/// [`next_turn`], with a panic in the loop (a `schedule_call` closure)
/// turned into a stop that carries the payload, so it reaches the driver
/// whichever stack was running the loop.
fn next_holder<'a>(shared: &'a Shared, g: Guard<'a>) -> (Guard<'a>, Turn) {
    catch_unwind(AssertUnwindSafe(move || next_turn(shared, g))).unwrap_or_else(|payload| {
        let mut g = shared.central.lock();
        g.stop = Some(Outcome::Panic(payload));
        (g, Turn::Driver)
    })
}

/// Free the stacks of agents that finished since the token last moved.
fn reap(mut g: Guard<'_>) -> Guard<'_> {
    g.reap.clear();
    g
}

/// A blocking call: apply `request`, run the loop and pass the token on,
/// and return once the token comes back. Unwinds with [`ShutdownUnwind`]
/// when the engine is shutting down instead.
pub(crate) fn block(shared: &Shared, id: AgentId, request: Request) {
    let mut g = shared.central.lock();
    if !g.shutdown {
        g.apply_request(id, request);
        g = pass_token(shared, g, Turn::Agent(id));
    }
    if g.shutdown {
        drop(g);
        resume_unwind(Box::new(ShutdownUnwind));
    }
}

pub(crate) fn spawn_agent<F>(
    shared: &Arc<Shared>,
    name: Sym,
    parent: Option<AgentId>,
    f: F,
) -> AgentId
where
    F: FnOnce(&mut AgentCtx) + Send + 'static,
{
    let mut g = shared.central.lock();
    let id = AgentId(g.agents.len());
    if let Some(hb) = &g.hb {
        hb.on_spawn(parent, id, g.clock);
    }
    let agent_shared = Arc::clone(shared);
    // SAFETY: `run_agent` returns the driver's context or the next token
    // holder's, suspended on a mapped stack (see `pass_token`).
    let stack = unsafe { Stack::new(move || run_agent(agent_shared, id, f)) };
    g.agents.push(AgentSlot {
        name,
        stack: Some(stack),
        alive: true,
        identity: None,
        waiting_for: None,
        wait_target: None,
        wait_epoch: 0,
        timed_out: false,
    });
    g.live_agents += 1;
    let t = g.clock;
    g.push(t, Action::Resume(id));
    id
}

/// An agent's whole life on its own stack: run its closure (unless the
/// engine shut down before it started), retire it and select the next
/// holder. Returns the context to switch to for the last time; the
/// closure, the context and this reference to the engine are dropped by
/// then, since a finished stack is never unwound.
fn run_agent<F>(shared: Arc<Shared>, id: AgentId, f: F) -> *mut Context
where
    F: FnOnce(&mut AgentCtx) + Send + 'static,
{
    if !reap(shared.central.lock()).shutdown {
        let mut ctx = AgentCtx::new(Arc::clone(&shared), id);
        let err = match catch_unwind(AssertUnwindSafe(move || f(&mut ctx))) {
            Ok(()) => None,
            Err(payload) => match payload.downcast::<AbortSim>() {
                Ok(abort) => Some(abort.0),
                Err(payload) => Some(SimError::AgentPanic {
                    agent: shared.central.lock().agent_name(id).to_string(),
                    message: render_panic(&*payload),
                }),
            },
        };
        let mut g = shared.central.lock();
        if !g.shutdown {
            g.retire(id);
            if let Some(e) = err {
                g.stop = Some(Outcome::Error(e));
            }
            let (mut g, next) = next_holder(&shared, g);
            g.handoffs += 1;
            return g.context(next);
        }
    }
    // Never started, or unwound by `Engine::shutdown` (or finished during
    // it): back to the shutdown's caller, still `alive` for the
    // diagnostics.
    shared.central.lock().context(Turn::Driver)
}

fn render_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "(non-string panic payload)".to_string()
    }
}
