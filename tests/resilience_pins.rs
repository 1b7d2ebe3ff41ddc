//! Behaviour pins for every resilient runner: Jacobi under checkpoint and
//! quorum resilience, CG under none, checkpoint and quorum, on two node
//! presets and under every fault class. Each case pins the exact virtual
//! total, the result fingerprint (Jacobi checksum, CG `final_rho` bits),
//! the recovery counters and the checker's diagnostic count.
//!
//! `fault_recovery.rs` checks replay and bit-identity, but nothing there
//! pins *time*: a refactor of the recovery protocol that shifts one
//! barrier or one wait slice would pass it. These pins were recorded from
//! the hand-written runners before they were folded into one kernel body
//! per workload, and the folded runners must reproduce them exactly.

use cpufree::nvshmem_sim::BackoffPolicy;
use cpufree::prelude::*;
use cpufree::sim_des::SimError;
use cpufree::{cpufree_solvers, stencil_lab};
use cpufree_solvers::{CgDegradedResult, CgFtConfig, PoissonProblem};
use stencil_lab::DegradedConfig;

const TOPOLOGIES: [TopologyKind; 2] = [TopologyKind::NvlinkAllToAll, TopologyKind::PcieTree];

/// One fault plan per fault class, by name.
fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("fault-free", FaultPlan::new()),
        (
            "crash",
            FaultPlan::new().with_crash(CrashFault {
                node: 2,
                at_iteration: 6,
            }),
        ),
        (
            "drop",
            FaultPlan::new().with_drop(DropFault {
                from: 1,
                to: 2,
                first_attempt: 3,
                count: 2,
            }),
        ),
        (
            "straggler",
            FaultPlan::new().with_straggler(StragglerFault {
                node: 1,
                from: SimTime::ZERO,
                until: SimTime::ZERO + us(200.0),
                compute_mult: 3.0,
            }),
        ),
        (
            "link-degrade",
            FaultPlan::new().with_link(LinkFault {
                a: 0,
                b: 1,
                from: SimTime::ZERO,
                until: SimTime::ZERO + us(400.0),
                latency_mult: 5.0,
                bandwidth_mult: 0.25,
            }),
        ),
        (
            "link-kill",
            FaultPlan::new().with_link(LinkFault::kill(1, 2, SimTime::ZERO + us(10.0))),
        ),
    ]
}

/// The chaos sweep's Jacobi problem: 64×62, 10 iterations, 4 PEs, checker on.
fn jacobi(topo: TopologyKind) -> StencilConfig {
    let mut cfg = StencilConfig::square2d(64, 10, 4)
        .with_topology(topo)
        .with_check();
    cfg.ny = 62;
    cfg
}

/// The chaos sweep's CG problem, checker requested.
fn cg(topo: TopologyKind) -> PoissonProblem {
    PoissonProblem::new(64, 62, 10, 4)
        .with_topology(topo)
        .with_check()
}

/// Accepts the degraded CG runner with or without a trailing backoff
/// argument (`None` is the default policy either way).
trait DegradedCg<Args> {
    fn run(&self, prob: &PoissonProblem, plan: &FaultPlan) -> Result<CgDegradedResult, SimError>;
}

impl<F> DegradedCg<(ExecMode,)> for F
where
    F: Fn(&PoissonProblem, &FaultPlan, ExecMode) -> Result<CgDegradedResult, SimError>,
{
    fn run(&self, prob: &PoissonProblem, plan: &FaultPlan) -> Result<CgDegradedResult, SimError> {
        self(prob, plan, ExecMode::Full)
    }
}

impl<F> DegradedCg<(ExecMode, Option<BackoffPolicy>)> for F
where
    F: Fn(
        &PoissonProblem,
        &FaultPlan,
        ExecMode,
        Option<BackoffPolicy>,
    ) -> Result<CgDegradedResult, SimError>,
{
    fn run(&self, prob: &PoissonProblem, plan: &FaultPlan) -> Result<CgDegradedResult, SimError> {
        self(prob, plan, ExecMode::Full, None)
    }
}

fn run_degraded_cg<A>(
    runner: impl DegradedCg<A>,
    prob: &PoissonProblem,
    plan: &FaultPlan,
) -> Result<CgDegradedResult, SimError> {
    runner.run(prob, plan)
}

fn diags(report: Option<&CheckReport>) -> String {
    report.map_or("off".to_string(), |r| r.diagnostics.len().to_string())
}

/// One pin line: `case total_ns fingerprint retries rollbacks checkpoints diags`.
fn line(case: &str, total: SimDur, fp: u64, counters: [u64; 3], diags: String) -> String {
    let [retries, rollbacks, checkpoints] = counters;
    format!(
        "{case} total={} fp={fp:#018x} retries={retries} rollbacks={rollbacks} \
         checkpoints={checkpoints} diags={diags}",
        total.as_nanos()
    )
}

fn err_line(case: &str, e: &SimError) -> String {
    format!("{case} error={e}")
}

fn observed() -> Vec<String> {
    let mut out = Vec::new();
    for topo in TOPOLOGIES {
        let t = topo.name();
        let prob = cg(topo);
        let plain = cpufree_solvers::run_cpu_free(&prob, ExecMode::Full);
        out.push(line(
            &format!("cg/none/{t}/fault-free"),
            plain.total,
            plain.final_rho.to_bits(),
            [0, 0, 0],
            diags(plain.check.as_ref()),
        ));
        for (name, plan) in plans() {
            let case = format!("jacobi/checkpoint/{t}/{name}");
            out.push(
                match stencil_lab::run_cpu_free_ft(&FtConfig::new(jacobi(topo), plan.clone())) {
                    Ok(ex) => line(
                        &case,
                        ex.exec.total,
                        ex.exec.checksum,
                        [ex.retries, ex.rollbacks, ex.checkpoints],
                        diags(ex.exec.check.as_ref()),
                    ),
                    Err(e) => err_line(&case, &e),
                },
            );
            let case = format!("jacobi/quorum/{t}/{name}");
            out.push(
                match stencil_lab::run_cpu_free_degraded(&DegradedConfig::new(
                    jacobi(topo),
                    plan.clone(),
                )) {
                    Ok(ex) => line(
                        &case,
                        ex.total,
                        ex.checksum,
                        [ex.retries, 0, 0],
                        format!("n/a quorum={:?}", ex.quorum),
                    ),
                    Err(e) => err_line(&case, &e),
                },
            );
            let case = format!("cg/checkpoint/{t}/{name}");
            out.push(
                match cpufree_solvers::run_cpu_free_ft(
                    &CgFtConfig::new(prob.clone(), plan.clone()),
                    ExecMode::Full,
                ) {
                    Ok(ex) => line(
                        &case,
                        ex.result.total,
                        ex.result.final_rho.to_bits(),
                        [ex.retries, ex.rollbacks, ex.checkpoints],
                        diags(ex.result.check.as_ref()),
                    ),
                    Err(e) => err_line(&case, &e),
                },
            );
            let case = format!("cg/quorum/{t}/{name}");
            out.push(
                match run_degraded_cg(cpufree_solvers::run_cpu_free_degraded, &prob, &plan) {
                    Ok(ex) => line(
                        &case,
                        ex.total,
                        ex.final_rho.to_bits(),
                        [ex.retries, 0, 0],
                        format!("{} quorum={:?}", diags(ex.check.as_ref()), ex.quorum),
                    ),
                    Err(e) => err_line(&case, &e),
                },
            );
        }
    }
    out
}

const PINNED: &str = "\
cg/none/nvlink-all-to-all/fault-free total=385503 fp=0x3f7bb70390eba3a6 retries=0 rollbacks=0 checkpoints=0 diags=0
jacobi/checkpoint/nvlink-all-to-all/fault-free total=115688 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=3 diags=0
jacobi/quorum/nvlink-all-to-all/fault-free total=119213 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=0 diags=n/a quorum=[0, 1, 2, 3]
cg/checkpoint/nvlink-all-to-all/fault-free total=408356 fp=0x3f7bb70390eba3a6 retries=0 rollbacks=0 checkpoints=3 diags=off
cg/quorum/nvlink-all-to-all/fault-free total=533821 fp=0x3f7bb70390eba3e4 retries=0 rollbacks=0 checkpoints=0 diags=0 quorum=[0, 1, 2, 3]
jacobi/checkpoint/nvlink-all-to-all/crash total=684039 fp=0x15757909f1ff66cb retries=0 rollbacks=1 checkpoints=3 diags=0
jacobi/quorum/nvlink-all-to-all/crash total=105512 fp=0x12702be0a95ffb62 retries=0 rollbacks=0 checkpoints=0 diags=n/a quorum=[0, 1, 3]
cg/checkpoint/nvlink-all-to-all/crash total=1003688 fp=0x3f7bb70390eba3a6 retries=0 rollbacks=1 checkpoints=3 diags=off
cg/quorum/nvlink-all-to-all/crash total=456512 fp=0x3fa2b127b9bebd90 retries=0 rollbacks=0 checkpoints=0 diags=8 quorum=[0, 1, 3]
jacobi/checkpoint/nvlink-all-to-all/drop total=133888 fp=0x15757909f1ff66cb retries=2 rollbacks=0 checkpoints=3 diags=0
jacobi/quorum/nvlink-all-to-all/drop total=137413 fp=0x15757909f1ff66cb retries=2 rollbacks=0 checkpoints=0 diags=n/a quorum=[0, 1, 2, 3]
cg/checkpoint/nvlink-all-to-all/drop total=426556 fp=0x3f7bb70390eba3a6 retries=2 rollbacks=0 checkpoints=3 diags=off
cg/quorum/nvlink-all-to-all/drop total=551822 fp=0x3f7bb70390eba3e4 retries=2 rollbacks=0 checkpoints=0 diags=0 quorum=[0, 1, 2, 3]
jacobi/checkpoint/nvlink-all-to-all/straggler total=115908 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=3 diags=0
jacobi/quorum/nvlink-all-to-all/straggler total=119433 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=0 diags=n/a quorum=[0, 1, 2, 3]
cg/checkpoint/nvlink-all-to-all/straggler total=408588 fp=0x3f7bb70390eba3a6 retries=0 rollbacks=0 checkpoints=3 diags=off
cg/quorum/nvlink-all-to-all/straggler total=533843 fp=0x3f7bb70390eba3e4 retries=0 rollbacks=0 checkpoints=0 diags=0 quorum=[0, 1, 2, 3]
jacobi/checkpoint/nvlink-all-to-all/link-degrade total=200696 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=3 diags=0
jacobi/quorum/nvlink-all-to-all/link-degrade total=214724 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=0 diags=n/a quorum=[0, 1, 2, 3]
cg/checkpoint/nvlink-all-to-all/link-degrade total=595837 fp=0x3f7bb70390eba3a6 retries=0 rollbacks=0 checkpoints=3 diags=off
cg/quorum/nvlink-all-to-all/link-degrade total=697794 fp=0x3f7bb70390eba3e4 retries=0 rollbacks=0 checkpoints=0 diags=0 quorum=[0, 1, 2, 3]
jacobi/checkpoint/nvlink-all-to-all/link-kill total=121615 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=3 diags=0
jacobi/quorum/nvlink-all-to-all/link-kill total=123137 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=0 diags=n/a quorum=[0, 1, 2, 3]
cg/checkpoint/nvlink-all-to-all/link-kill total=423462 fp=0x3f7bb70390eba3a6 retries=0 rollbacks=0 checkpoints=3 diags=off
cg/quorum/nvlink-all-to-all/link-kill total=567421 fp=0x3f7bb70390eba3e4 retries=0 rollbacks=0 checkpoints=0 diags=0 quorum=[0, 1, 2, 3]
cg/none/pcie-tree/fault-free total=619058 fp=0x3f7bb70390eba3a6 retries=0 rollbacks=0 checkpoints=0 diags=0
jacobi/checkpoint/pcie-tree/fault-free total=144554 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=3 diags=0
jacobi/quorum/pcie-tree/fault-free total=159499 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=0 diags=n/a quorum=[0, 1, 2, 3]
cg/checkpoint/pcie-tree/fault-free total=661769 fp=0x3f7bb70390eba3a6 retries=0 rollbacks=0 checkpoints=3 diags=off
cg/quorum/pcie-tree/fault-free total=859512 fp=0x3f7bb70390eba3e4 retries=0 rollbacks=0 checkpoints=0 diags=0 quorum=[0, 1, 2, 3]
jacobi/checkpoint/pcie-tree/crash total=719512 fp=0x15757909f1ff66cb retries=0 rollbacks=1 checkpoints=3 diags=0
jacobi/quorum/pcie-tree/crash total=135337 fp=0x12702be0a95ffb62 retries=0 rollbacks=0 checkpoints=0 diags=n/a quorum=[0, 1, 3]
cg/checkpoint/pcie-tree/crash total=1283747 fp=0x3f7bb70390eba3a6 retries=0 rollbacks=1 checkpoints=3 diags=off
cg/quorum/pcie-tree/crash total=771190 fp=0x3fa2b127b9bebd90 retries=0 rollbacks=0 checkpoints=0 diags=8 quorum=[0, 1, 3]
jacobi/checkpoint/pcie-tree/drop total=158838 fp=0x15757909f1ff66cb retries=2 rollbacks=0 checkpoints=3 diags=0
jacobi/quorum/pcie-tree/drop total=175643 fp=0x15757909f1ff66cb retries=2 rollbacks=0 checkpoints=0 diags=n/a quorum=[0, 1, 2, 3]
cg/checkpoint/pcie-tree/drop total=674283 fp=0x3f7bb70390eba3a6 retries=2 rollbacks=0 checkpoints=3 diags=off
cg/quorum/pcie-tree/drop total=881593 fp=0x3f7bb70390eba3e4 retries=2 rollbacks=0 checkpoints=0 diags=0 quorum=[0, 1, 2, 3]
jacobi/checkpoint/pcie-tree/straggler total=143474 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=3 diags=0
jacobi/quorum/pcie-tree/straggler total=160929 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=0 diags=n/a quorum=[0, 1, 2, 3]
cg/checkpoint/pcie-tree/straggler total=667225 fp=0x3f7bb70390eba3a6 retries=0 rollbacks=0 checkpoints=3 diags=off
cg/quorum/pcie-tree/straggler total=859512 fp=0x3f7bb70390eba3e4 retries=0 rollbacks=0 checkpoints=0 diags=0 quorum=[0, 1, 2, 3]
jacobi/checkpoint/pcie-tree/link-degrade total=232094 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=3 diags=0
jacobi/quorum/pcie-tree/link-degrade total=251496 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=0 diags=n/a quorum=[0, 1, 2, 3]
cg/checkpoint/pcie-tree/link-degrade total=788586 fp=0x3f7bb70390eba3a6 retries=0 rollbacks=0 checkpoints=3 diags=off
cg/quorum/pcie-tree/link-degrade total=973339 fp=0x3f7bb70390eba3e4 retries=0 rollbacks=0 checkpoints=0 diags=0 quorum=[0, 1, 2, 3]
jacobi/checkpoint/pcie-tree/link-kill total=191998 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=3 diags=0
jacobi/quorum/pcie-tree/link-kill total=216920 fp=0x15757909f1ff66cb retries=0 rollbacks=0 checkpoints=0 diags=n/a quorum=[0, 1, 2, 3]
cg/checkpoint/pcie-tree/link-kill total=739230 fp=0x3f7bb70390eba3a6 retries=0 rollbacks=0 checkpoints=3 diags=off
cg/quorum/pcie-tree/link-kill total=1150404 fp=0x3f7bb70390eba3e4 retries=0 rollbacks=0 checkpoints=0 diags=0 quorum=[0, 1, 2, 3]
";

#[test]
fn resilient_runners_reproduce_pinned_behaviour() {
    let got = observed();
    let want: Vec<&str> = PINNED.lines().collect();
    let first_diff = got
        .iter()
        .map(String::as_str)
        .zip(want.iter().copied())
        .position(|(g, w)| g != w);
    assert!(
        first_diff.is_none() && got.len() == want.len(),
        "pins differ{}\nobserved:\n{}\n",
        first_diff.map_or(String::new(), |i| format!(
            " at line {}:\n  pinned:   {}\n  observed: {}",
            i + 1,
            want[i],
            got[i]
        )),
        got.join("\n")
    );
}
