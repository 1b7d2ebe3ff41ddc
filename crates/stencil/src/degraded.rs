//! Degraded-mode CPU-Free Jacobi: the resilient Jacobi kernel of
//! [`crate::ft`] under [`Resilience::Quorum`]. Instead of rolling back to a
//! checkpoint, the surviving quorum **keeps going** when a PE crashes or a
//! link dies — the chaos engine's graceful-degradation path.
//!
//! # Model
//!
//! * A [`sim_des::CrashFault`] is a *permanent* death at the start of
//!   iteration `d`: the PE completed iterations `1..d` and pushed its
//!   iteration-`d-1` halos, then stops forever. Membership is
//!   plan-derived ([`gpu_sim::alive_at`] — "oracle membership"): every
//!   survivor independently computes the same death schedule from the
//!   shared fault plan, so no failure detector or agreement protocol is
//!   simulated, and runs stay bit-deterministic.
//! * Survivors **freeze the halo** a dead neighbor last committed: at the
//!   neighbor's death iteration the newest halo layer is copied into the
//!   other ping-pong generation, so every later sweep reads the
//!   iteration-`d-1` boundary values. The dead PE's slab stays at its
//!   last completed state; the global problem degrades into independent
//!   sub-problems separated by frozen internal boundaries.
//! * A **killed link** ([`sim_des::LinkFault::kill`]) between survivors
//!   needs no protocol change at all: the transport reroutes every
//!   delivery over surviving pairs (see [`gpu_sim::HealedRoutes`]), so
//!   results are bit-identical to the fault-free run — only virtual time
//!   changes. An unroutable partition surfaces as an attributed panic.
//! * After the sweep loop the quorum proves the healed collectives work:
//!   every survivor joins an [`nvshmem_sim::allreduce_scalar_quorum`] of
//!   its local field sum and receives the identical total plus the
//!   deterministic contribution report.
//!
//! The oracle for all of this is [`degraded_reference`]: a sequential
//! full-grid sweep in which a dead PE's layers simply stop updating.
//! Survivor slabs must match it **bit for bit** on every topology preset.

use crate::config::StencilConfig;
use crate::domain::Domain;
use crate::ft::{run_resilient, Agreement};
use crate::geometry::geometry_of;
use cpufree_core::Resilience;
use gpu_sim::{alive_at, Buf, ExecMode, FaultPlan, Place};
use sim_des::{SimDur, SimError, SimTime};

/// Configuration of a degraded-mode run.
#[derive(Clone)]
pub struct DegradedConfig {
    /// The underlying stencil problem.
    pub base: StencilConfig,
    /// The deterministic fault schedule (empty plan = fault-free).
    pub plan: FaultPlan,
}

impl DegradedConfig {
    /// Degraded run of `base` under `plan`.
    pub fn new(base: StencilConfig, plan: FaultPlan) -> DegradedConfig {
        DegradedConfig { base, plan }
    }
}

/// Outcome of a degraded-mode run.
#[derive(Debug, Clone)]
pub struct DegradedExecuted {
    /// End-to-end virtual time.
    pub total: SimDur,
    /// The surviving quorum (ascending PE ids) — the PEs whose results
    /// are verified and checksummed.
    pub quorum: Vec<usize>,
    /// Max abs deviation of the survivors' slabs from the sequential
    /// [`degraded_reference`] (`None` in timing-only / no-compute runs).
    /// Bit-identical degradation means exactly `0.0`.
    pub max_err: Option<f64>,
    /// Order-sensitive checksum over the survivors' final slabs.
    pub checksum: u64,
    /// The healed quorum allreduce of the survivors' local field sums:
    /// the reduced value plus the contribution report, identical on every
    /// member (`None` in timing-only / no-compute runs).
    pub agreed: Option<Agreement>,
    /// Extra put attempts spent on dropped deliveries (all PEs).
    pub retries: u64,
    /// Link pairs dead by the end of the run (transfers between them were
    /// rerouted).
    pub dead_pairs: Vec<(usize, usize)>,
}

/// Run the CPU-Free stencil in degraded mode under `cfg.plan`.
///
/// Crashed PEs drop out permanently; survivors complete all iterations
/// with frozen halos at the death boundaries and verify against
/// [`degraded_reference`]. Killed links are rerouted transparently.
pub fn run_cpu_free_degraded(cfg: &DegradedConfig) -> Result<DegradedExecuted, SimError> {
    let run = run_resilient(&cfg.base, &cfg.plan, Resilience::Quorum)?;
    let dom = &run.dom;
    let quorum = alive_at(&cfg.plan, cfg.base.n_gpus, cfg.base.iterations);
    let functional = cfg.base.exec == ExecMode::Full && !cfg.base.no_compute;
    let max_err = functional.then(|| verify_degraded(dom, &cfg.plan, &quorum));
    let mut checksum = 0u64;
    for &pe in &quorum {
        checksum = checksum
            .wrapping_mul(1_000_003)
            .wrapping_add(dom.final_gen().local(pe).checksum());
    }
    let agreed = quorum.first().and_then(|&pe| run.agreed[pe].clone());
    // Every member must have received the *bitwise* identical reduction
    // and report (compared through the bit pattern — exactness, not ≈).
    let bits = |r: &Option<Agreement>| r.as_ref().map(|(v, m)| (v.to_bits(), m.clone()));
    for &pe in &quorum {
        assert_eq!(
            bits(&run.agreed[pe]),
            bits(&agreed),
            "quorum allreduce diverged on pe{pe}"
        );
    }
    Ok(DegradedExecuted {
        total: run.end.since(SimTime::ZERO),
        quorum,
        max_err,
        checksum,
        agreed: if functional { agreed } else { None },
        retries: run.counts.retries,
        dead_pairs: dom.machine.faults().dead_pairs(run.end),
    })
}

/// The sequential oracle for degraded runs: a full-grid ping-pong sweep in
/// which layers owned by a PE dead at iteration `t` (per [`alive_at`])
/// simply stop updating — frozen at their last completed generation, just
/// like the distributed frozen halos. Returns the final full grid.
pub fn degraded_reference(cfg: &StencilConfig, plan: &FaultPlan) -> Vec<f64> {
    let geo = geometry_of(cfg);
    let slab = cfg.slab();
    let n = cfg.n_gpus;
    let mut cur = geo.init();
    let len = cur.len();
    for t in 1..=cfg.iterations {
        let a = Buf::new(Place::Host, "degraded.ref.a", len);
        let b = Buf::new(Place::Host, "degraded.ref.b", len);
        a.write_slice(0, &cur);
        b.write_slice(0, &cur); // dead + boundary layers carry forward
        for pe in alive_at(plan, n, t) {
            let start = slab.start(pe);
            geo.sweep(&a, &b, (start + 1, start + slab.layers(pe)));
        }
        cur = b.to_vec();
    }
    cur
}

/// Max abs deviation of the survivors' owned slabs from
/// [`degraded_reference`] — `0.0` when degradation is bit-exact.
fn verify_degraded(dom: &Domain, plan: &FaultPlan, quorum: &[usize]) -> f64 {
    let reference = degraded_reference(&dom.cfg, plan);
    let le = dom.layer_elems();
    let mut max = 0.0f64;
    for &pe in quorum {
        let layers = dom.layers(pe);
        let start = dom.slab.start(pe);
        let mut owned = vec![0.0; layers * le];
        dom.final_gen().local(pe).read_slice(le, &mut owned);
        let want = &reference[(start + 1) * le..(start + 1 + layers) * le];
        for (got, want) in owned.iter().zip(want) {
            max = max.max((got - want).abs());
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::TopologyKind;
    use sim_des::{CrashFault, LinkFault, StragglerFault};

    fn base(kind: TopologyKind) -> StencilConfig {
        StencilConfig::square2d(32, 8, 4).with_topology(kind)
    }

    #[test]
    fn fault_free_degraded_matches_plain_reference() {
        let cfg = DegradedConfig::new(base(TopologyKind::NvlinkAllToAll), FaultPlan::new());
        let out = run_cpu_free_degraded(&cfg).unwrap();
        assert_eq!(out.quorum, vec![0, 1, 2, 3]);
        assert_eq!(out.max_err, Some(0.0));
        // With nobody dead the degraded reference IS the plain reference.
        let geo = geometry_of(&cfg.base);
        assert_eq!(
            degraded_reference(&cfg.base, &cfg.plan),
            geo.reference(cfg.base.iterations)
        );
        let (sum, report) = out.agreed.unwrap();
        assert_eq!(report, vec![0, 1, 2, 3]);
        assert!(sum.is_finite());
    }

    #[test]
    fn single_pe_crash_survivors_match_degraded_reference_on_all_presets() {
        let plan = FaultPlan::new().with_crash(CrashFault {
            node: 2,
            at_iteration: 4,
        });
        let mut checksums = Vec::new();
        for kind in TopologyKind::presets() {
            let cfg = DegradedConfig::new(base(kind), plan.clone());
            let out = run_cpu_free_degraded(&cfg).unwrap();
            assert_eq!(out.quorum, vec![0, 1, 3], "{}", kind.name());
            assert_eq!(out.max_err, Some(0.0), "{}", kind.name());
            let (_, report) = out.agreed.clone().unwrap();
            assert_eq!(report, vec![0, 1, 3], "{}", kind.name());
            checksums.push(out.checksum);
        }
        // Survivor results are topology-invariant (bit-identical).
        assert!(checksums.windows(2).all(|w| w[0] == w[1]), "{checksums:?}");
    }

    #[test]
    fn single_link_kill_is_bit_identical_to_fault_free() {
        for kind in TopologyKind::presets() {
            let clean =
                run_cpu_free_degraded(&DegradedConfig::new(base(kind), FaultPlan::new())).unwrap();
            // Kill the link between the two middle neighbors mid-run.
            let plan = FaultPlan::new().with_link(LinkFault::kill(
                1,
                2,
                SimTime::ZERO + sim_des::us(10.0),
            ));
            let out = run_cpu_free_degraded(&DegradedConfig::new(base(kind), plan)).unwrap();
            assert_eq!(out.quorum, vec![0, 1, 2, 3], "{}", kind.name());
            assert_eq!(out.max_err, Some(0.0), "{}", kind.name());
            assert_eq!(out.checksum, clean.checksum, "{}", kind.name());
            assert_eq!(out.dead_pairs, vec![(1, 2)], "{}", kind.name());
            // Rerouting costs time, never correctness.
            assert!(out.total >= clean.total, "{}", kind.name());
        }
    }

    #[test]
    fn crash_plus_straggler_still_verifies() {
        let plan = FaultPlan::new()
            .with_crash(CrashFault {
                node: 0,
                at_iteration: 3,
            })
            .with_straggler(StragglerFault {
                node: 1,
                from: SimTime(0),
                until: SimTime(u64::MAX),
                compute_mult: 3.0,
            });
        let cfg = DegradedConfig::new(base(TopologyKind::PcieTree), plan);
        let out = run_cpu_free_degraded(&cfg).unwrap();
        assert_eq!(out.quorum, vec![1, 2, 3]);
        assert_eq!(out.max_err, Some(0.0));
    }

    #[test]
    fn degraded_run_is_deterministic() {
        let plan = FaultPlan::new().with_crash(CrashFault {
            node: 1,
            at_iteration: 2,
        });
        let run = || {
            let cfg = DegradedConfig::new(base(TopologyKind::NvlinkRing), plan.clone());
            let out = run_cpu_free_degraded(&cfg).unwrap();
            (out.total, out.checksum, out.agreed.clone())
        };
        assert_eq!(run(), run());
    }
}
