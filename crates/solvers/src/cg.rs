//! The two distributed CG implementations: CPU-Free (one persistent kernel
//! per PE, device-side halo exchange and allreduce) and CPU-controlled
//! (discrete kernels, host-staged reductions, host barriers) — the solver
//! counterpart of the paper's stencil comparison, and the application class
//! (PERKS' CG) the paper cites as benefiting from persistent execution.

use crate::kernels::{axpy_xr, dot_local, matvec, update_p, vec_op, vec_op_scaled};
use crate::problem::{PoissonProblem, ReduceOrder};
use cpufree_core::{
    launch_cpu_free, ControlPlane, Counts, Guard, Resilience, Resilient, Rollback, RunStats,
};
use gpu_sim::{BlockGroup, Buf, CostModel, DevId, ExecMode, FaultPlan, KernelCtx, Machine};
use nvshmem_sim::{AllreduceWs, ShmemWorld, SymArray, SymSignal};
use sim_des::lock::Mutex;
use sim_des::{Category, SignalOp, SimDur, SimError, SimTime};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Result of one distributed CG run.
#[derive(Debug)]
pub struct CgResult {
    /// End-to-end virtual time.
    pub total: SimDur,
    /// Trace-derived measurements.
    pub stats: RunStats,
    /// Each PE's owned rows of the solution x (layers × nx).
    pub x_owned: Vec<Vec<f64>>,
    /// Final residual norm squared (as computed by the run's own reduction).
    pub final_rho: f64,
    /// The reduction order this run used (for reference matching).
    pub order: ReduceOrder,
    /// Checker report (`None` unless the problem enabled `check`).
    pub check: Option<gpu_sim::CheckReport>,
}

impl CgResult {
    /// Assemble the global x grid (boundary zeros).
    pub fn gather(&self, prob: &PoissonProblem) -> Vec<f64> {
        let nx = prob.nx;
        let slab = prob.slab();
        let mut full = vec![0.0; nx * prob.ny];
        for (pe, owned) in self.x_owned.iter().enumerate() {
            let start = slab.start(pe);
            full[(start + 1) * nx..(start + 1 + slab.layers(pe)) * nx].copy_from_slice(owned);
        }
        full
    }

    /// Max abs deviation from the order-matched sequential reference.
    pub fn verify(&self, prob: &PoissonProblem) -> f64 {
        let (xref, rho_ref) = prob.reference_cg(self.order);
        let mine = self.gather(prob);
        let x_err = mine
            .iter()
            .zip(&xref)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let rho_err = (self.final_rho - rho_ref).abs();
        x_err.max(rho_err)
    }
}

/// Per-PE workload description shared by both variants.
pub(crate) struct PeState {
    x: Buf,
    r: Buf,
    q: Buf,
    nx: usize,
    layers: usize,
}

impl PeState {
    /// Owned grid points.
    fn points(&self) -> u64 {
        (self.layers * self.nx) as u64
    }
}

fn alloc_state(machine: &Machine, prob: &PoissonProblem, pe: usize) -> PeState {
    let slab = prob.slab();
    let layers = slab.layers(pe);
    let len = (slab.max_layers() + 2) * prob.nx;
    let mk = |n: &str| machine.alloc(DevId(pe), format!("{n}@{pe}"), len);
    let st = PeState {
        x: mk("x"),
        r: mk("r"),
        q: mk("q"),
        nx: prob.nx,
        layers,
    };
    if machine.exec_mode() == ExecMode::Full {
        let b = prob.local_b(pe);
        st.r.write_slice(0, &b); // r0 = b (x0 = 0)
    }
    st
}

/// Per-iteration p-halo exchange offsets (same layout as the stencil).
struct HaloGeom {
    first_row: usize,
    low_halo: usize,
    high_halo_of: Vec<usize>,
}

fn halo_geom(prob: &PoissonProblem) -> HaloGeom {
    let slab = prob.slab();
    HaloGeom {
        first_row: prob.nx,
        low_halo: 0,
        high_halo_of: (0..prob.n_pes)
            .map(|pe| (slab.layers(pe) + 1) * prob.nx)
            .collect(),
    }
}

/// Run distributed CG in the **CPU-Free model**: a single persistent
/// cooperative kernel per PE performs the halo exchange, the matvec and
/// vector updates, and the device-side allreduces. The host launches once.
pub fn run_cpu_free(prob: &PoissonProblem, exec: ExecMode) -> CgResult {
    run_resilient(prob, &FaultPlan::new(), Resilience::None, exec)
        .expect("cpu-free CG run failed")
        .result(prob, ReduceOrder::Doubling)
}

/// Configuration of a fault-tolerant CG run.
#[derive(Clone)]
pub struct CgFtConfig {
    /// The underlying Poisson problem.
    pub prob: PoissonProblem,
    /// The deterministic fault schedule (empty plan = fault-free).
    pub plan: FaultPlan,
}

impl CgFtConfig {
    /// A checkpointed run of `prob` under `plan`.
    pub fn new(prob: PoissonProblem, plan: FaultPlan) -> CgFtConfig {
        CgFtConfig { prob, plan }
    }
}

/// Outcome of a fault-tolerant CG run.
#[derive(Debug)]
pub struct CgFtResult {
    /// The usual solver result (total time, stats, solution, rho).
    pub result: CgResult,
    /// Rollback rounds performed (summed over PEs / number of PEs).
    pub rollbacks: u64,
    /// Extra put attempts spent on dropped deliveries (all PEs).
    pub retries: u64,
    /// Checkpoints taken (per PE).
    pub checkpoints: u64,
}

/// Run fault-tolerant CPU-Free CG under `cfg.plan`: the CPU-Free kernel
/// under [`Resilience::Checkpoint`] — checkpoint/restart, retrying puts,
/// interruptible waits and allreduces, and a watchdog.
///
/// Returns `Err` only for unrecoverable outcomes — a watchdog-diagnosed
/// stall surfaces as [`SimError::Timeout`] naming the stuck PE and the
/// wait-for cycle. All faults covered by the plan classes are recovered
/// bit-identically, with the overhead visible in `result.total`.
pub fn run_cpu_free_ft(cfg: &CgFtConfig, exec: ExecMode) -> Result<CgFtResult, SimError> {
    let prob = &cfg.prob;
    let run = run_resilient(prob, &cfg.plan, Resilience::Checkpoint, exec)?;
    Ok(CgFtResult {
        result: run.result(prob, ReduceOrder::Doubling),
        rollbacks: run.counts.rollbacks,
        retries: run.counts.retries,
        checkpoints: run.counts.checkpoints,
    })
}

/// What one run of the CPU-Free CG kernel leaves behind.
pub(crate) struct CgRun {
    pub(crate) machine: Machine,
    pub(crate) states: Vec<Arc<PeState>>,
    pub(crate) end: SimTime,
    /// Each surviving PE's final rho.
    pub(crate) rhos: Vec<f64>,
    /// Each surviving PE's last quorum (quorum runs only).
    pub(crate) reports: Vec<Vec<usize>>,
    pub(crate) counts: Counts,
}

/// The one CPU-Free CG kernel: run `prob` under `plan` with `policy`. The
/// numerical schedule is the same under every policy (p-halo exchange →
/// matvec → pq-allreduce → axpy → rho-allreduce → p-update).
pub(crate) fn run_resilient(
    prob: &PoissonProblem,
    plan: &FaultPlan,
    policy: Resilience,
    exec: ExecMode,
) -> Result<CgRun, SimError> {
    let n = prob.n_pes;
    let machine = Machine::with_topology(n, CostModel::a100_hgx(), prob.topology, exec);
    if policy != Resilience::None {
        machine.set_fault_plan(plan.clone());
    }
    // Checkpointed CG runs unchecked and unjittered, whatever `prob` asks:
    // the checker would flag each rollback as an iteration divergence.
    if policy != Resilience::Checkpoint {
        if prob.check {
            machine.enable_checker();
        }
        if let Some(seed) = prob.jitter {
            machine.set_wake_jitter(seed);
        }
    }
    let world = ShmemWorld::init(&machine);
    let len = (prob.slab().max_layers() + 2) * prob.nx;
    // p lives on the symmetric heap (its halos are written remotely).
    let p = world.malloc("p", len);
    let sigs = [world.signal(0), world.signal(0)];
    // A quorum ring over any member subset needs n - 1 round slots.
    let ws = match policy {
        Resilience::Quorum => AllreduceWs::new_ring(&world),
        _ => AllreduceWs::new(&world),
    };
    let states: Vec<Arc<PeState>> = (0..n)
        .map(|pe| {
            let st = alloc_state(&machine, prob, pe);
            if exec == ExecMode::Full {
                // p0 = r0 = b.
                p.local(pe).write_slice(0, &prob.local_b(pe));
            }
            Arc::new(st)
        })
        .collect();
    let geom = Arc::new(halo_geom(prob));
    let rhos = Arc::new(Mutex::new(vec![0.0f64; n]));
    let reports = Arc::new(Mutex::new(vec![Vec::new(); n]));
    let (kernel, group) = match policy {
        Resilience::None => ("cg", "cg"),
        Resilience::Checkpoint => ("cg_ft", "cgft"),
        Resilience::Quorum => ("cg_degraded", "cg"),
    };
    let plane = ControlPlane::new(&machine, &world, policy, group);

    let iters = prob.iterations;
    let (states_l, plane_l) = (states.clone(), plane.clone());
    let (rhos_l, reports_l) = (Arc::clone(&rhos), Arc::clone(&reports));
    let end = launch_cpu_free(&machine, kernel, 1024, move |pe| {
        let mut cg = CgPe {
            st: Arc::clone(&states_l[pe]),
            p: p.clone(),
            sigs: sigs.clone(),
            ws: ws.clone(),
            geom: Arc::clone(&geom),
            pe,
            rho: 0.0,
            report: Vec::new(),
        };
        let (plane, rhos, reports) = (plane_l.clone(), Arc::clone(&rhos_l), Arc::clone(&reports_l));
        vec![BlockGroup::new(group, 108, move |k| {
            let mut g = plane.guard(k);
            let st = Arc::clone(&cg.st);
            // rho0 = <r, r>.
            let mut partial = 0.0;
            vec_op_scaled(k, st.points(), 16, 2, op_stretch(&g, k), "dot(r,r)", || {
                partial = dot_local(&st.r, &st.r, st.nx, st.layers);
            });
            let members = g.members(0);
            // The first rollback needs every PE past the first checkpoint,
            // which comes after rho0.
            cg.rho = g
                .allreduce(k, &mut cg.ws, partial, members.as_deref())
                .continue_value()
                .expect("rho0 allreduce is never interrupted");
            cg.report = members.unwrap_or_default();
            if g.run(k, &mut cg, iters) {
                rhos.lock()[pe] = cg.rho;
                reports.lock()[pe] = std::mem::take(&mut cg.report);
            }
            g.finish(k);
        })]
    })?;
    let (rhos, reports) = (rhos.lock().clone(), reports.lock().clone());
    Ok(CgRun {
        machine,
        states,
        end,
        rhos,
        reports,
        counts: plane.counts(),
    })
}

/// The straggler stretch of the vector ops other than the matvec:
/// checkpointed runs stretch every op, the others only the matvec.
fn op_stretch(g: &Guard, k: &KernelCtx<'_>) -> f64 {
    match g.policy() {
        Resilience::Checkpoint => g.stretch(k),
        _ => 1.0,
    }
}

/// One PE's CG kernel state.
struct CgPe {
    st: Arc<PeState>,
    p: SymArray,
    /// The signals set by the low and the high neighbor.
    sigs: [SymSignal; 2],
    ws: AllreduceWs,
    geom: Arc<HaloGeom>,
    pe: usize,
    rho: f64,
    report: Vec<usize>,
}

/// A checkpoint: `x`, `r`, `q`, the full local `p` slab (owned rows *and*
/// halos) and rho. The allreduce epoch needs no snapshot: it is a pure
/// function of the checkpoint iteration.
type CgSnap = ([Vec<f64>; 4], f64);

impl Resilient for CgPe {
    type Snapshot = CgSnap;

    fn step(&mut self, k: &mut KernelCtx<'_>, g: &mut Guard, t: u64) -> ControlFlow<Rollback> {
        let (pe, n) = (self.pe, self.geom.high_halo_of.len());
        let (st, p, geom) = (&self.st, &self.p, &self.geom);
        let (nx, layers, points) = (st.nx, st.layers, st.points());
        let members = g.members(t);
        if let Some(chk) = k.machine().checker() {
            chk.iteration(pe, t, &k.agent().name(), k.now());
        }
        // ① p-halo exchange with living neighbors (flag semaphore).
        if pe > 0 && g.alive(pe - 1, t) {
            let offs = (geom.first_row, geom.high_halo_of[pe - 1]);
            g.put(k, p, offs, nx, &self.sigs[1], t, pe - 1);
        }
        if pe + 1 < n && g.alive(pe + 1, t) {
            let offs = (layers * nx, geom.low_halo);
            g.put(k, p, offs, nx, &self.sigs[0], t, pe + 1);
        }
        if pe > 0 {
            g.wait(k, &self.sigs[0], g.halo_target(pe - 1, t), pe - 1)?;
        }
        if pe + 1 < n {
            g.wait(k, &self.sigs[1], g.halo_target(pe + 1, t), pe + 1)?;
        }
        // ② q = A p (straggler windows stretch the kernel).
        let straggle = g.stretch(k);
        k.check_read(p.local(pe), 0, (layers + 2) * nx, "matvec p read");
        k.check_write(&st.q, nx, (layers + 1) * nx, "matvec q write");
        vec_op_scaled(k, points, 16, 9, straggle, "matvec", || {
            matvec(p.local(pe), &st.q, nx, layers);
        });
        // ③ alpha = rho / <p, q>.
        let mut pq_part = 0.0;
        vec_op_scaled(k, points, 16, 2, op_stretch(g, k), "dot(p,q)", || {
            pq_part = dot_local(p.local(pe), &st.q, nx, layers);
        });
        let pq = g.allreduce(k, &mut self.ws, pq_part, members.as_deref())?;
        let alpha = self.rho / pq;
        // ④ x += alpha p; r -= alpha q.
        vec_op_scaled(k, points, 32, 4, op_stretch(g, k), "axpy(x,r)", || {
            axpy_xr(&st.x, &st.r, p.local(pe), &st.q, alpha, nx, layers);
        });
        // ⑤ rho' = <r, r>; beta.
        let mut rr_part = 0.0;
        vec_op_scaled(k, points, 16, 2, op_stretch(g, k), "dot(r,r)", || {
            rr_part = dot_local(&st.r, &st.r, nx, layers);
        });
        let rho_new = g.allreduce(k, &mut self.ws, rr_part, members.as_deref())?;
        let beta = rho_new / self.rho;
        self.rho = rho_new;
        self.report = members.unwrap_or_default();
        // ⑥ p = r + beta p.
        k.check_write(p.local(pe), nx, (layers + 1) * nx, "update p write");
        vec_op_scaled(k, points, 24, 2, op_stretch(g, k), "update p", || {
            update_p(p.local(pe), &st.r, beta, nx, layers);
        });
        ControlFlow::Continue(())
    }

    fn state_bytes(&self) -> u64 {
        4 * (self.p.local(self.pe).len() * 8) as u64
    }

    fn snapshot(&self) -> CgSnap {
        let st = &self.st;
        let p = self.p.local(self.pe);
        ([&st.x, &st.r, &st.q, p].map(Buf::to_vec), self.rho)
    }

    fn restore(&mut self, (bufs, rho): &CgSnap) {
        let st = &self.st;
        for (buf, saved) in [&st.x, &st.r, &st.q, self.p.local(self.pe)]
            .iter()
            .zip(bufs)
        {
            buf.write_slice(0, saved);
        }
        self.rho = *rho;
    }

    /// Rewind the allreduce epoch to its fault-free value after `k0`
    /// iterations (rho0 plus two calls per iteration) and reset the local
    /// collective and halo flags to exactly that state.
    fn rewind(&mut self, k: &mut KernelCtx<'_>, k0: u64) {
        let seq0 = 1 + 2 * k0;
        self.ws.set_seq(seq0);
        self.ws.reset_local(k, self.pe, seq0);
        for sig in &self.sigs {
            k.agent_mut().signal(sig.flag(self.pe), SignalOp::Set, k0);
        }
    }

    fn scrub(&self) {
        let st = &self.st;
        for buf in [&st.x, &st.r, &st.q, self.p.local(self.pe)] {
            buf.fill(f64::NAN);
        }
    }
}

/// Run distributed CG **CPU-controlled**: discrete kernels per vector op,
/// host-staged dot reductions (device partial → D2H copy → host barrier →
/// linear combine), host-driven halo exchange — the launch/sync-heavy
/// structure persistent execution eliminates.
pub fn run_baseline(prob: &PoissonProblem, exec: ExecMode) -> CgResult {
    let machine = Machine::with_topology(prob.n_pes, CostModel::a100_hgx(), prob.topology, exec);
    if prob.check {
        machine.enable_checker();
    }
    if let Some(seed) = prob.jitter {
        machine.set_wake_jitter(seed);
    }
    let slab = prob.slab();
    let len = (slab.max_layers() + 2) * prob.nx;
    // p in plain device memory; halos exchanged with host memcpys.
    let ps: Vec<Buf> = (0..prob.n_pes)
        .map(|pe| machine.alloc(DevId(pe), format!("p@{pe}"), len))
        .collect();
    let states: Vec<Arc<PeState>> = (0..prob.n_pes)
        .map(|pe| {
            let st = alloc_state(&machine, prob, pe);
            if exec == ExecMode::Full {
                ps[pe].write_slice(0, &prob.local_b(pe));
            }
            Arc::new(st)
        })
        .collect();
    // Host-visible slots for the staged allreduce (one per rank).
    let slots = machine.alloc_host("dot.slots", prob.n_pes);
    let geom = Arc::new(halo_geom(prob));
    let bar = machine.barrier(prob.n_pes);
    let rhos = Arc::new(Mutex::new(vec![0.0f64; prob.n_pes]));

    let n = prob.n_pes;
    let iters = prob.iterations;
    for pe in 0..n {
        let st = Arc::clone(&states[pe]);
        let p_mine = ps[pe].clone();
        let p_low = (pe > 0).then(|| ps[pe - 1].clone());
        let p_high = (pe + 1 < n).then(|| ps[pe + 1].clone());
        let slots = slots.clone();
        let geom = Arc::clone(&geom);
        let rhos = Arc::clone(&rhos);
        let hl = prob.nx;
        let machine_c = machine.clone();
        machine.spawn_host(format!("rank{pe}"), move |host| {
            let dev = DevId(pe);
            let stream = host.create_stream(dev, "comp");
            let partial_dev = machine_c.alloc(dev, "partial", 1);
            let (nx, layers) = (st.nx, st.layers);
            let points = (layers * nx) as u64;
            // Host-staged allreduce of a device partial.
            macro_rules! host_allreduce {
                ($label:expr) => {{
                    // D2H copy of the partial into my slot.
                    host.memcpy_async(&stream, &slots, pe, &partial_dev, 0, 1);
                    host.sync_stream(&stream);
                    host.host_barrier(bar, n);
                    // Linear combine on the host (every rank computes it).
                    let mut acc = slots.get(0);
                    for r in 1..n {
                        acc += slots.get(r);
                    }
                    host.agent_mut()
                        .busy(Category::Api, $label, machine_c.cost().api_call());
                    host.host_barrier(bar, n); // slots free for reuse
                    acc
                }};
            }
            // rho0.
            {
                let (st, pd) = (Arc::clone(&st), partial_dev.clone());
                host.launch(&stream, "dot_rr", move |k| {
                    vec_op(k, points, 16, 2, "dot(r,r)", || {
                        pd.set(0, dot_local(&st.r, &st.r, nx, layers));
                    });
                });
            }
            let mut rho = host_allreduce!("combine rho0");
            for _it in 1..=iters {
                // ① host-driven p-halo exchange.
                if let Some(low) = &p_low {
                    host.memcpy_async(
                        &stream,
                        low,
                        geom.high_halo_of[pe - 1],
                        &p_mine,
                        geom.first_row,
                        hl,
                    );
                }
                if let Some(high) = &p_high {
                    host.memcpy_async(&stream, high, geom.low_halo, &p_mine, layers * nx, hl);
                }
                host.sync_stream(&stream);
                host.host_barrier(bar, n);
                // ② matvec.
                {
                    let (st, p) = (Arc::clone(&st), p_mine.clone());
                    host.launch(&stream, "matvec", move |k| {
                        vec_op(k, points, 16, 9, "matvec", || {
                            matvec(&p, &st.q, nx, layers);
                        });
                    });
                }
                // ③ alpha.
                {
                    let (st, p, pd) = (Arc::clone(&st), p_mine.clone(), partial_dev.clone());
                    host.launch(&stream, "dot_pq", move |k| {
                        vec_op(k, points, 16, 2, "dot(p,q)", || {
                            pd.set(0, dot_local(&p, &st.q, nx, layers));
                        });
                    });
                }
                let pq = host_allreduce!("combine pq");
                let alpha = rho / pq;
                // ④ axpy.
                {
                    let (st, p) = (Arc::clone(&st), p_mine.clone());
                    host.launch(&stream, "axpy_xr", move |k| {
                        vec_op(k, points, 32, 4, "axpy(x,r)", || {
                            axpy_xr(&st.x, &st.r, &p, &st.q, alpha, nx, layers);
                        });
                    });
                }
                // ⑤ rho'.
                {
                    let (st, pd) = (Arc::clone(&st), partial_dev.clone());
                    host.launch(&stream, "dot_rr", move |k| {
                        vec_op(k, points, 16, 2, "dot(r,r)", || {
                            pd.set(0, dot_local(&st.r, &st.r, nx, layers));
                        });
                    });
                }
                let rho_new = host_allreduce!("combine rho");
                let beta = rho_new / rho;
                rho = rho_new;
                // ⑥ p update.
                {
                    let (st, p) = (Arc::clone(&st), p_mine.clone());
                    host.launch(&stream, "update_p", move |k| {
                        vec_op(k, points, 24, 2, "update p", || {
                            update_p(&p, &st.r, beta, nx, layers);
                        });
                    });
                }
                host.sync_stream(&stream);
            }
            rhos.lock()[pe] = rho;
        });
    }
    let end = machine.run().expect("baseline CG run failed");
    let rhos = rhos.lock().clone();
    let (reports, counts) = (Vec::new(), Counts::default());
    let run = CgRun {
        machine,
        states,
        end,
        rhos,
        reports,
        counts,
    };
    run.result(prob, ReduceOrder::Linear)
}

impl CgRun {
    /// The solver result, with rho as PE 0 reduced it.
    pub(crate) fn result(&self, prob: &PoissonProblem, order: ReduceOrder) -> CgResult {
        let total = self.end.since(SimTime::ZERO);
        CgResult {
            total,
            stats: RunStats::from_trace(&self.machine.trace(), total, prob.iterations),
            x_owned: owned_x(&self.states),
            final_rho: self.rhos[0],
            order,
            check: self.machine.checker().map(|c| c.report()),
        }
    }
}

/// Each PE's owned rows of x.
pub(crate) fn owned_x(states: &[Arc<PeState>]) -> Vec<Vec<f64>> {
    states
        .iter()
        .map(|st| {
            let mut out = vec![0.0; st.layers * st.nx];
            st.x.read_slice(st.nx, &mut out);
            out
        })
        .collect()
}
