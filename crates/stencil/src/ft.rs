//! The resilient CPU-Free Jacobi kernel, and its checkpointed runner.
//!
//! One block group per PE sweeps boundary and inner layers in one pass
//! (bitwise identical to the split-group `variants::cpufree`). Each
//! iteration waits for the neighbors' previous halos, sweeps, and commits
//! its boundary layers; the [`Resilience`] policy supplies the waits and
//! puts and decides what a crash means ([`cpufree_core::resilience`]).
//! A checkpoint holds **both** ping-pong generations, so a rollback restores
//! the exact byte state. The kernel issues no checker annotations of its
//! own: the chaos sweep runs it with the checker on, as pinned.

use crate::config::{StencilConfig, Workload};
use crate::domain::{compute_phase, Domain, Executed};
use cpufree_core::{launch_cpu_free, ControlPlane, Counts, Guard, Resilience, Resilient, Rollback};
use gpu_sim::{alive_at, BlockGroup, ExecMode, FaultPlan, KernelCtx};
use nvshmem_sim::AllreduceWs;
use sim_des::lock::Mutex;
use sim_des::{SignalOp, SimError, SimTime};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Configuration of a fault-tolerant run.
#[derive(Clone)]
pub struct FtConfig {
    /// The underlying stencil problem.
    pub base: StencilConfig,
    /// The deterministic fault schedule (empty plan = fault-free).
    pub plan: FaultPlan,
}

impl FtConfig {
    /// A checkpointed run of `base` under `plan`.
    pub fn new(base: StencilConfig, plan: FaultPlan) -> FtConfig {
        FtConfig { base, plan }
    }
}

/// Outcome of a fault-tolerant run.
#[derive(Debug, Clone)]
pub struct FtExecuted {
    /// The usual measurements (total time, stats, max_err, checksum).
    pub exec: Executed,
    /// Rollback rounds performed (summed over PEs / number of PEs).
    pub rollbacks: u64,
    /// Extra put attempts spent on dropped deliveries (all PEs).
    pub retries: u64,
    /// Checkpoints taken (per PE).
    pub checkpoints: u64,
}

/// Run the fault-tolerant CPU-Free stencil under `cfg.plan`.
///
/// Returns `Err` only for unrecoverable outcomes — a watchdog-diagnosed
/// stall surfaces as [`SimError::Timeout`] naming the stuck PE and the
/// wait-for cycle. All faults covered by the plan classes are recovered
/// bit-identically, with the overhead visible in `exec.total`.
pub fn run_cpu_free_ft(cfg: &FtConfig) -> Result<FtExecuted, SimError> {
    let run = run_resilient(&cfg.base, &cfg.plan, Resilience::Checkpoint)?;
    Ok(FtExecuted {
        exec: Executed::collect(&run.dom, run.end),
        rollbacks: run.counts.rollbacks,
        retries: run.counts.retries,
        checkpoints: run.counts.checkpoints,
    })
}

/// A quorum allreduce result: the reduced value plus the contribution
/// report (ascending member ids).
pub(crate) type Agreement = (f64, Vec<usize>);

/// What one resilient Jacobi run leaves behind.
pub(crate) struct JacobiRun {
    pub(crate) dom: Arc<Domain>,
    pub(crate) end: SimTime,
    pub(crate) counts: Counts,
    /// The survivors' final quorum allreduce (quorum runs only).
    pub(crate) agreed: Vec<Option<Agreement>>,
}

/// Run `base` under `plan` with `policy` (`Checkpoint` or `Quorum`).
/// After a quorum run's sweeps, the survivors prove the healed collective:
/// each joins a quorum allreduce of its local field sum.
pub(crate) fn run_resilient(
    base: &StencilConfig,
    plan: &FaultPlan,
    policy: Resilience,
) -> Result<JacobiRun, SimError> {
    assert_ne!(policy, Resilience::None, "use variants::cpufree");
    let dom = Arc::new(Domain::new(base));
    dom.machine.set_fault_plan(plan.clone());
    let (n, iters) = (base.n_gpus, base.iterations);
    let quorum = alive_at(plan, n, iters);
    let (kernel, group, sweep) = match policy {
        Resilience::Quorum => ("cpufree_degraded", "degraded", "degraded.sweep"),
        _ => ("cpufree_ft", "ft", "ft.sweep"),
    };
    let ws = (policy == Resilience::Quorum).then(|| AllreduceWs::new_ring(&dom.world));
    let plane = ControlPlane::new(&dom.machine, &dom.world, policy, group);
    let agreed = Arc::new(Mutex::new(vec![None; n]));

    let (dom_l, plane_l, agreed_l) = (Arc::clone(&dom), plane.clone(), Arc::clone(&agreed));
    let threads = base.threads_per_block;
    let end = launch_cpu_free(&dom.machine.clone(), kernel, threads, move |pe| {
        let mut jac = JacobiPe {
            w: dom_l.workload(pe),
            dom: Arc::clone(&dom_l),
            pe,
            sweep,
        };
        let (plane, quorum, agreed) = (plane_l.clone(), quorum.clone(), Arc::clone(&agreed_l));
        let mut ws = ws.clone();
        vec![BlockGroup::new(group, 1, move |k| {
            let mut g = plane.guard(k);
            g.run(k, &mut jac, iters);
            if let Some(ws) = ws.as_mut().filter(|_| quorum.contains(&pe)) {
                let value = local_field_sum(&jac.dom, pe);
                let sum = g.allreduce(k, ws, value, Some(&quorum)).continue_value();
                agreed.lock()[pe] = Some((sum.expect("quorum runs never roll back"), quorum));
            }
            g.finish(k);
        })]
    })?;
    let agreed = agreed.lock().clone();
    Ok(JacobiRun {
        dom,
        end,
        counts: plane.counts(),
        agreed,
    })
}

/// Deterministic sum of `pe`'s owned interior (ascending element order) —
/// the value each survivor contributes to the final quorum allreduce.
fn local_field_sum(dom: &Domain, pe: usize) -> f64 {
    if dom.cfg.exec != ExecMode::Full || dom.cfg.no_compute {
        return 0.0;
    }
    let le = dom.layer_elems();
    let mut owned = vec![0.0; dom.layers(pe) * le];
    dom.final_gen().local(pe).read_slice(le, &mut owned);
    owned.iter().fold(0.0, |acc, v| acc + v)
}

/// One PE's Jacobi kernel state.
struct JacobiPe {
    dom: Arc<Domain>,
    w: Workload,
    pe: usize,
    sweep: &'static str,
}

impl Resilient for JacobiPe {
    /// Both ping-pong generations, halos and global boundary rows included.
    type Snapshot = [Vec<f64>; 2];

    fn step(&mut self, k: &mut KernelCtx<'_>, g: &mut Guard, t: u64) -> ControlFlow<Rollback> {
        let (dom, pe, n) = (&*self.dom, self.pe, self.dom.cfg.n_gpus);
        let le = dom.layer_elems();
        // ① Halo waits for generation t-1, clamped at a dead neighbor's
        // last commit.
        if pe > 0 {
            g.wait(k, &dom.sig_from_low, g.halo_target(pe - 1, t - 1), pe - 1)?;
        }
        if pe + 1 < n {
            g.wait(k, &dom.sig_from_high, g.halo_target(pe + 1, t - 1), pe + 1)?;
        }
        // ② Freeze a neighbor dying now: its newest halo (generation d-1,
        // just waited for in this iteration's read generation) is copied
        // into the other generation, so both ping-pong halves carry the
        // final boundary forever after.
        if k.exec_mode() == ExecMode::Full {
            let freeze = |peer: usize, off: usize| {
                if g.death(peer) == Some(t) {
                    let mut row = vec![0.0; le];
                    dom.read_gen(t).local(pe).read_slice(off, &mut row);
                    dom.write_gen(t).local(pe).write_slice(off, &row);
                }
            };
            if pe > 0 {
                freeze(pe - 1, dom.low_halo_off());
            }
            if pe + 1 < n {
                freeze(pe + 1, dom.high_halo_off(pe));
            }
        }
        // ③ One full sweep, stretched by straggler windows.
        let straggle = g.stretch(k);
        let geo = Arc::clone(&dom.geo);
        let read = dom.read_gen(t).local(pe).clone();
        let write = dom.write_gen(t).local(pe).clone();
        let layers = dom.layers(pe);
        let (w, points) = (&self.w, self.w.total_points());
        compute_phase(k, w, points, 1.0, 1.0, straggle, self.sweep, || {
            geo.sweep(&read, &write, (1, layers))
        });
        // ④ Commit boundary layers to *living* neighbors' halos.
        // (Transfers over a killed link reroute inside the transport.)
        let wg = dom.write_gen(t);
        if pe > 0 && g.alive(pe - 1, t) {
            let offs = (dom.first_layer_off(), dom.high_halo_off(pe - 1));
            g.put(k, wg, offs, le, &dom.sig_from_high, t, pe - 1);
        }
        if pe + 1 < n && g.alive(pe + 1, t) {
            let offs = (dom.last_layer_off(pe), dom.low_halo_off());
            g.put(k, wg, offs, le, &dom.sig_from_low, t, pe + 1);
        }
        k.grid_sync();
        ControlFlow::Continue(())
    }

    fn state_bytes(&self) -> u64 {
        2 * (self.dom.gen[0].local(self.pe).len() * 8) as u64
    }

    fn snapshot(&self) -> Self::Snapshot {
        self.dom.gen.each_ref().map(|g| g.local(self.pe).to_vec())
    }

    fn restore(&mut self, snap: &Self::Snapshot) {
        for (g, saved) in self.dom.gen.iter().zip(snap) {
            g.local(self.pe).write_slice(0, saved);
        }
    }

    /// The snapshot already holds the neighbors' iteration-`k0` halos; a
    /// later (stale) halo signal must not satisfy a post-rollback wait.
    fn rewind(&mut self, k: &mut KernelCtx<'_>, k0: u64) {
        for sig in [&self.dom.sig_from_low, &self.dom.sig_from_high] {
            k.agent_mut().signal(sig.flag(self.pe), SignalOp::Set, k0);
        }
    }

    /// Nobody may read a crashed or dead slab: the boundary values the
    /// neighbors need already live in their halos.
    fn scrub(&self) {
        for g in &self.dom.gen {
            g.local(self.pe).fill(f64::NAN);
        }
    }
}
