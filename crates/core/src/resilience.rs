//! Resilience as a policy: one control plane for every persistent kernel
//! that must survive a [`gpu_sim::FaultPlan`].
//!
//! A workload writes its iteration once, as [`Resilient::step`], against a
//! per-PE [`Guard`] whose waits, puts and allreduce follow the policy:
//!
//! | [`Resilience`] | waits | puts | allreduce over | a crash |
//! |---|---|---|---|---|
//! | `None` | blocking | non-blocking | the world | — |
//! | `Checkpoint` | deadline-sliced, interruptible | retried | the world | a rollback |
//! | `Quorum` | peer-declared | retried, to living PEs | the living quorum | a permanent death |
//!
//! Under `Checkpoint`, each iteration joins any announced rollback,
//! snapshots the state at every [`CHECKPOINT_EVERY`]-iteration boundary
//! (after a `quiet` and an interruptible rendezvous), and on a crash
//! scheduled there scrubs, reboots and announces the rollback. Recovery is
//! `quiet` → barrier A (nothing in flight machine-wide) → restore → rewind
//! the local flags to their fault-free values at the checkpoint iteration
//! `k0` → barrier B → resume at `k0 + 1`, so the replay is bit-identical
//! to the fault-free run. Waits poll for rollback notices between [`POLL`]
//! slices, and a heartbeat watchdog attributes any stall.

use crate::watchdog::{spawn_watchdog, WatchdogSpec};
use gpu_sim::{alive_at, ExecMode, FaultState, KernelCtx, Machine};
use nvshmem_sim::{
    allreduce, AllreduceWs, Exchange, Put, ReduceOp, ShmemCtx, ShmemWorld, SymArray, SymSignal,
    Wait,
};
use sim_des::lock::Mutex;
use sim_des::{ns, Barrier, Category, Flag, SignalOp, SimDur, SimTime};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Checkpoint every this many iterations.
pub const CHECKPOINT_EVERY: u64 = 4;
/// Deadline slice of interruptible waits: the rollback-notice poll period.
pub const POLL: SimDur = ns(50_000);
/// Watchdog stall-detection window.
pub const WATCHDOG_INTERVAL: SimDur = ns(10_000_000);
/// Reboot time charged to a crashed PE.
const REBOOT: SimDur = ns(500_000);
/// Time a PE spends dying for good.
const DIE: SimDur = ns(1_000);

/// How a persistent kernel survives faults (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resilience {
    /// No fault handling: the fault-free CPU-Free kernel.
    None,
    /// Checkpoint/restart: a crash rolls every PE back, and the run
    /// completes bit-identically to the fault-free one.
    Checkpoint,
    /// Degraded mode: a crash is a permanent death at the start of its
    /// iteration (plan-derived "oracle membership", [`gpu_sim::alive_at`]),
    /// and the surviving quorum completes the run among itself.
    Quorum,
}

/// A rollback was announced: the iteration is abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rollback;

/// One PE of a resilient workload: its iteration, and the hooks that
/// snapshot, restore, rewind and scrub its state.
pub trait Resilient {
    /// What one checkpoint captures.
    type Snapshot;
    /// Iteration `t`, with every wait, put and collective through `g`.
    fn step(&mut self, k: &mut KernelCtx<'_>, g: &mut Guard, t: u64) -> ControlFlow<Rollback>;
    /// Bytes a checkpoint or a restore moves over PCIe.
    fn state_bytes(&self) -> u64;
    /// Capture the state.
    fn snapshot(&self) -> Self::Snapshot;
    /// Restore a captured state.
    fn restore(&mut self, snap: &Self::Snapshot);
    /// Reset the PE's local flags to their fault-free values after `k0`
    /// iterations, so no stale advance satisfies a post-rollback wait.
    fn rewind(&mut self, k: &mut KernelCtx<'_>, k0: u64);
    /// Overwrite the device state with NaN.
    fn scrub(&self);
}

/// Recovery counters of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Rollback rounds (per PE).
    pub rollbacks: u64,
    /// Extra put attempts spent on dropped deliveries (all PEs).
    pub retries: u64,
    /// Checkpoints taken (per PE).
    pub checkpoints: u64,
}

/// A checkpointed run's rollback signal, barriers and heartbeats.
#[derive(Clone)]
struct Rendezvous {
    recover: SymSignal,
    checkpoint: Barrier,
    restore: Barrier,
    resume: Barrier,
    done: Barrier,
    heartbeats: Vec<Flag>,
    finished: Flag,
}

/// The run-wide half of a [`Resilience`] policy, shared by every PE.
#[derive(Clone)]
pub struct ControlPlane {
    policy: Resilience,
    world: ShmemWorld,
    /// Prefix of the checkpoint, restore and reboot trace labels.
    tag: &'static str,
    rendezvous: Option<Rendezvous>,
    totals: Arc<Mutex<Counts>>,
}

impl ControlPlane {
    /// Set up `policy` on `machine`. A checkpointed run allocates its
    /// rendezvous state and spawns the watchdog here: call this after the
    /// fault plan is installed and before the kernel launches.
    pub fn new(
        machine: &Machine,
        world: &ShmemWorld,
        policy: Resilience,
        tag: &'static str,
    ) -> ControlPlane {
        let n = world.n_pes();
        let rendezvous = (policy == Resilience::Checkpoint).then(|| {
            let rv = Rendezvous {
                recover: world.signal(0),
                checkpoint: machine.barrier(n),
                restore: machine.barrier(n),
                resume: machine.barrier(n),
                done: machine.barrier(n),
                heartbeats: (0..n).map(|_| machine.flag(0)).collect(),
                finished: machine.flag(0),
            };
            let heartbeats = rv.heartbeats.iter().enumerate();
            spawn_watchdog(
                machine,
                WatchdogSpec {
                    heartbeats: heartbeats.map(|(pe, f)| (format!("pe{pe}"), *f)).collect(),
                    done: rv.finished,
                    target: n as u64,
                    interval: WATCHDOG_INTERVAL,
                },
            );
            rv
        });
        ControlPlane {
            policy,
            world: world.clone(),
            tag,
            rendezvous,
            totals: Arc::new(Mutex::new(Counts::default())),
        }
    }

    /// The handle of the PE running `k` (creates its NVSHMEM context).
    pub fn guard(&self, k: &KernelCtx<'_>) -> Guard {
        Guard {
            plane: self.clone(),
            sh: ShmemCtx::new(&self.world, k),
            pe: k.device().0,
            faults: k.machine().faults(),
            handled: 0,
            counts: Counts::default(),
        }
    }

    /// The run's counters once every PE finished.
    pub fn counts(&self) -> Counts {
        let g = self.totals.lock();
        let rollbacks = g.rollbacks / self.world.n_pes() as u64;
        Counts { rollbacks, ..*g }
    }

    /// Run `f` with this policy's wait; a sliced wait is interrupted by a
    /// rollback announcement past the `handled` count.
    fn with_wait<R>(&self, handled: u64, f: impl FnOnce(Wait<'_>) -> R) -> R {
        match (&self.rendezvous, self.policy) {
            (Some(rv), _) => f(Wait::Sliced {
                poll: POLL,
                interrupted: &mut |sh: &ShmemCtx, k: &KernelCtx<'_>| {
                    sh.signal_fetch(k, &rv.recover) > handled
                },
            }),
            (None, Resilience::Quorum) => f(Wait::FromPeer),
            (None, _) => f(Wait::Blocking),
        }
    }
}

/// One PE's handle on the control plane: its NVSHMEM context, the
/// policy's waits, puts and allreduce, its view of the membership, and
/// the iteration driver.
pub struct Guard {
    plane: ControlPlane,
    sh: ShmemCtx,
    pe: usize,
    faults: Arc<FaultState>,
    /// Rollback announcements consumed.
    handled: u64,
    counts: Counts,
}

/// What a checkpointed PE remembers across rollbacks.
struct Saved<S> {
    /// The iteration the last checkpoint captured.
    last: Option<u64>,
    snap: Option<S>,
    crashed: bool,
}

fn flow<T>(done: Option<T>) -> ControlFlow<Rollback, T> {
    done.map_or(ControlFlow::Break(Rollback), ControlFlow::Continue)
}

impl Guard {
    /// The policy in force.
    pub fn policy(&self) -> Resilience {
        self.plane.policy
    }

    /// The iteration at whose start `pe` dies for good (quorum only).
    pub fn death(&self, pe: usize) -> Option<u64> {
        match self.plane.policy {
            Resilience::Quorum => self.faults.crash_iteration(pe).map(|d| d.max(1)),
            _ => None,
        }
    }

    /// Whether `pe` runs iteration `t`.
    pub fn alive(&self, pe: usize, t: u64) -> bool {
        self.death(pe).is_none_or(|d| t < d)
    }

    /// The signal value to wait for from `peer` when `want` is due: a dead
    /// neighbor's last commit (iteration `d - 1`) is all it ever delivers.
    pub fn halo_target(&self, peer: usize, want: u64) -> u64 {
        self.death(peer).map_or(want, |d| want.min(d - 1))
    }

    /// The PEs a quorum collective spans at iteration `t` (all of them at
    /// `t = 0`, before any death); `None` under whole-world policies.
    pub fn members(&self, t: u64) -> Option<Vec<usize>> {
        let n = self.sh.n_pes();
        (self.plane.policy == Resilience::Quorum).then(|| match t {
            0 => (0..n).collect(),
            t => alive_at(self.faults.plan(), n, t),
        })
    }

    /// The straggler multiplier on this PE's compute right now.
    pub fn stretch(&self, k: &KernelCtx<'_>) -> f64 {
        self.faults.compute_mult(self.pe, k.now())
    }

    fn put_kind(&self) -> Put {
        match self.plane.policy {
            Resilience::None => Put::Nbi,
            _ => Put::Reliable,
        }
    }

    /// Wait until this PE's copy of `sig` reaches `target`, delivered by
    /// PE `from`.
    pub fn wait(
        &mut self,
        k: &mut KernelCtx<'_>,
        sig: &SymSignal,
        target: u64,
        from: usize,
    ) -> ControlFlow<Rollback> {
        let Guard {
            plane, sh, handled, ..
        } = self;
        flow(plane.with_wait(*handled, |mut w| sh.wait_ge(k, &mut w, sig, target, from)))
    }

    /// Put `len` elements from `src_off` of this PE's `arr` to `dst_off`
    /// of PE `pe`'s, then set PE `pe`'s `sig` to `val`.
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &mut self,
        k: &mut KernelCtx<'_>,
        arr: &SymArray,
        (src_off, dst_off): (usize, usize),
        len: usize,
        sig: &SymSignal,
        val: u64,
        pe: usize,
    ) {
        let (put, src) = (self.put_kind(), arr.local(self.pe));
        let extra = self
            .sh
            .put_signal(k, put, arr, dst_off, src, src_off, len, sig, val, pe);
        self.counts.retries += extra;
    }

    /// Sum `value` over the world, or over `members` under
    /// [`Resilience::Quorum`] (see [`Guard::members`]).
    pub fn allreduce(
        &mut self,
        k: &mut KernelCtx<'_>,
        ws: &mut AllreduceWs,
        value: f64,
        members: Option<&[usize]>,
    ) -> ControlFlow<Rollback, f64> {
        let put = self.put_kind();
        let Guard {
            plane, sh, handled, ..
        } = self;
        let (sum, retries) = plane.with_wait(*handled, |wait| {
            let mut how = Exchange {
                wait,
                put,
                members,
                retries: 0,
            };
            (
                allreduce(sh, k, ws, value, ReduceOp::Sum, &mut how),
                how.retries,
            )
        });
        self.counts.retries += retries;
        flow(sum)
    }

    /// Run iterations `1..=iters` of `state` under the policy. Returns
    /// `false` when this PE died (quorum only): it drained its puts,
    /// scrubbed its state and stopped for good.
    pub fn run<W: Resilient>(&mut self, k: &mut KernelCtx<'_>, state: &mut W, iters: u64) -> bool {
        if let Some(rv) = self.plane.rendezvous.clone() {
            self.run_checkpointed(k, state, iters, &rv);
            return true;
        }
        let death = self.death(self.pe);
        for t in 1..=iters {
            if death == Some(t) {
                // An nbi put reads its source at delivery time: the final
                // halos must leave before the state is scrubbed.
                self.sh.quiet(k);
                if k.exec_mode() == ExecMode::Full {
                    state.scrub();
                }
                k.busy(Category::Api, "degraded.die", DIE);
                return false;
            }
            let flow = state.step(k, self, t);
            assert!(flow.is_continue(), "only checkpointed runs roll back");
        }
        true
    }

    fn run_checkpointed<W: Resilient>(
        &mut self,
        k: &mut KernelCtx<'_>,
        state: &mut W,
        iters: u64,
        rv: &Rendezvous,
    ) {
        let mut saved = Saved {
            last: None,
            snap: None,
            crashed: false,
        };
        let mut t = 1;
        loop {
            while t <= iters {
                if self.iteration(k, state, t, rv, &mut saved).is_break() {
                    t = self.recover(k, state, rv, &saved);
                    continue;
                }
                k.agent_mut()
                    .signal(rv.heartbeats[self.pe], SignalOp::Add, 1);
                t += 1;
            }
            let done = rv.done;
            let at_done = |k: &mut KernelCtx<'_>, until| k.agent_mut().barrier_until(done, until);
            if self.sliced(k, rv, at_done).is_continue() {
                return;
            }
            t = self.recover(k, state, rv, &saved);
        }
    }

    /// Steps 1–4 of the protocol for iteration `t`.
    fn iteration<W: Resilient>(
        &mut self,
        k: &mut KernelCtx<'_>,
        state: &mut W,
        t: u64,
        rv: &Rendezvous,
        saved: &mut Saved<W::Snapshot>,
    ) -> ControlFlow<Rollback> {
        if self.announced(k, rv) {
            return ControlFlow::Break(Rollback);
        }
        if (t - 1).is_multiple_of(CHECKPOINT_EVERY) && saved.last != Some(t - 1) {
            // The previous iteration's halos land before the rendezvous.
            self.sh.quiet(k);
            let barrier = rv.checkpoint;
            self.sliced(k, rv, |k, until| {
                k.agent_mut().barrier_until(barrier, until)
            })?;
            self.pcie(k, state.state_bytes(), "checkpoint");
            saved.snap = Some(state.snapshot());
            saved.last = Some(t - 1);
            self.counts.checkpoints += 1;
        }
        if !saved.crashed && self.faults.crash_iteration(self.pe) == Some(t) {
            saved.crashed = true;
            if k.exec_mode() == ExecMode::Full {
                state.scrub();
            }
            k.busy(Category::Api, format!("{}.reboot", self.plane.tag), REBOOT);
            for q in 0..self.sh.n_pes() {
                self.sh.signal_op(k, &rv.recover, SignalOp::Add, 1, q);
            }
            return ControlFlow::Break(Rollback);
        }
        state.step(k, self, t)
    }

    /// Join a rollback; returns the iteration to resume at.
    fn recover<W: Resilient>(
        &mut self,
        k: &mut KernelCtx<'_>,
        state: &mut W,
        rv: &Rendezvous,
        saved: &Saved<W::Snapshot>,
    ) -> u64 {
        // Drain own in-flight deliveries; once every PE is past barrier A,
        // nothing stale is in flight machine-wide.
        self.sh.quiet(k);
        k.agent_mut().barrier(rv.restore);
        if let Some(snap) = &saved.snap {
            state.restore(snap);
        }
        self.pcie(k, state.state_bytes(), "restore");
        let k0 = saved.last.unwrap_or(0);
        state.rewind(k, k0);
        k.agent_mut().barrier(rv.resume);
        self.handled += 1;
        self.counts.rollbacks += 1;
        k0 + 1
    }

    /// Charge a host <-> device staging copy of `bytes`.
    fn pcie(&self, k: &mut KernelCtx<'_>, bytes: u64, what: &str) {
        let dur = k
            .machine()
            .transport()
            .host_copy(k.device(), bytes, k.now());
        k.busy(Category::Api, format!("{}.{what}", self.plane.tag), dur);
    }

    fn announced(&self, k: &KernelCtx<'_>, rv: &Rendezvous) -> bool {
        self.sh.signal_fetch(k, &rv.recover) > self.handled
    }

    /// Retry `attempt` in [`POLL`]-long deadline slices until it succeeds,
    /// breaking on a rollback announcement before each slice.
    fn sliced<E>(
        &self,
        k: &mut KernelCtx<'_>,
        rv: &Rendezvous,
        mut attempt: impl FnMut(&mut KernelCtx<'_>, SimTime) -> Result<(), E>,
    ) -> ControlFlow<Rollback> {
        loop {
            if self.announced(k, rv) {
                return ControlFlow::Break(Rollback);
            }
            let deadline = k.now() + POLL;
            if attempt(k, deadline).is_ok() {
                return ControlFlow::Continue(());
            }
        }
    }

    /// Fold this PE's counters into the run's; in a checkpointed run, also
    /// tell the watchdog this PE is done.
    pub fn finish(self, k: &mut KernelCtx<'_>) {
        {
            let mut g = self.plane.totals.lock();
            g.rollbacks += self.counts.rollbacks;
            g.retries += self.counts.retries;
            g.checkpoints = g.checkpoints.max(self.counts.checkpoints);
        }
        if let Some(rv) = &self.plane.rendezvous {
            k.agent_mut().signal(rv.finished, SignalOp::Add, 1);
        }
    }
}
