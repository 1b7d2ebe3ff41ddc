//! Pins the static verifier's complete report text: every hand-built
//! fixture at 2, 8 and 64 PEs, both shipped programs at every pipeline
//! stage at 8 and 64 PEs, and three 64-PE mutants of the CPU-Free
//! Jacobi-1D (two nbi source overwrites, one of them behind a wait with two
//! satisfying producers, and a wait cycle). A change to the verifier's data
//! structures must leave every report byte-identical.

mod fixtures;

use dace_sim::expr::Expr;
use dace_sim::ir::{Cf, GuardedOp, LibNode, MapOp, Op, Schedule, Sdfg, TaskletKind};
use dace_sim::programs::{Jacobi1dSetup, Jacobi2dSetup};
use dace_sim::transform::{
    gpu_persistent_kernel, gpu_transform, mpi_to_nvshmem_with, nvshmem_array, to_cpu_free,
    PutGranularity,
};
use dace_sim::verify::verify_sdfg;
use dace_sim::Bindings;

/// `frontend` run through one pipeline of the `figures verify` corpus.
fn staged(frontend: &Sdfg, stage: &str) -> Sdfg {
    let mut sdfg = frontend.clone();
    match stage {
        "frontend" => {}
        "gpu" => gpu_transform(&mut sdfg),
        "cpu_free" => to_cpu_free(&mut sdfg).expect("pipeline"),
        "cpu_free_block" => {
            gpu_transform(&mut sdfg);
            mpi_to_nvshmem_with(&mut sdfg, PutGranularity::Block).expect("mpi_to_nvshmem");
            nvshmem_array(&mut sdfg);
            gpu_persistent_kernel(&mut sdfg).expect("gpu_persistent_kernel");
        }
        other => panic!("unknown stage {other}"),
    }
    sdfg
}

/// Mutant: pe31 overwrites `A[1]` in the state after the `A` halo puts,
/// before the `B` exchange acknowledges them.
fn early_overwrite_on_pe31(sdfg: &mut Sdfg) {
    let Some(Cf::Loop { body, .. }) = sdfg.body.first_mut() else {
        panic!("persistent time loop");
    };
    let Cf::State(update_b) = &mut body[1] else {
        panic!("update_B state");
    };
    update_b.ops.push(GuardedOp::when(
        fixtures::on_rank(31),
        Op::Map(MapOp {
            name: "early_overwrite".into(),
            schedule: Schedule::GpuPersistent,
            range: vec![("i".into(), Expr::c(1), Expr::c(1))],
            tasklet: TaskletKind::Jacobi1d {
                src: "B".into(),
                dst: "A".into(),
            },
        }),
    ));
}

/// Mutant: pe30 also sets pe31's `B` halo flag before it has waited on
/// pe31's `A` halo, so that wait has two satisfying producers and only one
/// of them acknowledges pe31's `A[1]` put: the later overwrite of `A[1]` is
/// unordered.
fn early_signal_to_pe31(sdfg: &mut Sdfg) {
    let Some(Cf::Loop { body, .. }) = sdfg.body.first_mut() else {
        panic!("persistent time loop");
    };
    let Cf::State(exchange_a) = &mut body[0] else {
        panic!("exchange_A state");
    };
    exchange_a.ops.insert(
        0,
        GuardedOp::when(
            fixtures::on_rank(30),
            Op::Lib(LibNode::SignalOp {
                sig: 3,
                val: Expr::s("t"),
                pe: Expr::c(31),
            }),
        ),
    );
}

/// Mutant: every state issues its waits before its puts, so each PE blocks
/// on a neighbour that blocks on it.
fn waits_first(sdfg: &mut Sdfg) {
    sdfg.visit_states_mut(&mut |s| {
        s.ops
            .sort_by_key(|op| !matches!(op.op, Op::Lib(LibNode::SignalWait { .. })));
    });
}

/// Every pinned case: `(name, report text)`.
fn reports() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let fixtures = [
        ("unmatched_wait", fixtures::unmatched_wait as fn() -> Sdfg),
        ("nbi_reuse", fixtures::nbi_reuse),
        ("halo_gap", fixtures::halo_gap),
        ("bad_storage", fixtures::bad_storage),
        ("one_sided_throttle", fixtures::one_sided_throttle),
    ];
    for n_pes in [2, 8, 64] {
        for (name, fixture) in fixtures {
            let report = verify_sdfg(&fixture(), n_pes, &Bindings::default());
            out.push((format!("{name} @{n_pes}"), report.to_string()));
        }
    }
    for n_pes in [8, 64] {
        let j1 = Jacobi1dSetup::new(64, 5, n_pes);
        let j2 = Jacobi2dSetup::new(8, 8, 5, n_pes);
        for (program, frontend, user) in [
            ("jacobi1d", &j1.sdfg, j1.user_bindings()),
            ("jacobi2d", &j2.sdfg, j2.user_bindings()),
        ] {
            for stage in ["frontend", "gpu", "cpu_free", "cpu_free_block"] {
                let report = verify_sdfg(&staged(frontend, stage), n_pes, &user);
                out.push((format!("{program}/{stage} @{n_pes}"), report.to_string()));
            }
        }
    }
    let j1 = Jacobi1dSetup::new(64, 5, 64);
    for (name, mutate) in [
        (
            "early_overwrite_on_pe31",
            early_overwrite_on_pe31 as fn(&mut Sdfg),
        ),
        ("early_signal_to_pe31", early_signal_to_pe31),
        ("waits_first", waits_first),
    ] {
        let mut sdfg = staged(&j1.sdfg, "cpu_free");
        mutate(&mut sdfg);
        let report = verify_sdfg(&sdfg, 64, &j1.user_bindings());
        out.push((format!("{name} @64"), report.to_string()));
    }
    out
}

#[test]
fn every_report_matches_its_pinned_text() {
    let got = reports();
    let names: Vec<&str> = got.iter().map(|(name, _)| name.as_str()).collect();
    let pinned: Vec<&str> = PINS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned, "pinned case list");
    for ((name, text), (_, lines)) in got.iter().zip(PINS) {
        let expected: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert_eq!(*text, expected, "{name}: report text changed");
    }
}

/// The expected report of every case, one entry per line of text.
const PINS: &[(&str, &[&str])] = &[
    (
        "unmatched_wait @2",
        &[
            "static verification of `unmatched_wait` over 2 PEs: 2 diagnostic(s)",
            "  [unmatched signal wait] signal_wait on flag #7 (>= 1) at pe0 has no producing put-with-signal or signal_op targeting pe0",
            "  [lost signal] unsatisfied signal_wait: pe0 blocks forever on flag #7 >= 1 — no peer ever sets that flag",
        ],
    ),
    (
        "nbi_reuse @2",
        &[
            "static verification of `nbi_reuse` over 2 PEs: 1 diagnostic(s)",
            "  [nbi source reuse] `overwrite` at pe0 overwrites cells [1..2) of `A` while a non-blocking put to pe1 may still be reading them — no quiet or acknowledging signal round trip orders the reuse",
        ],
    ),
    (
        "halo_gap @2",
        &[
            "static verification of `halo_gap` over 2 PEs: 1 diagnostic(s)",
            "  [halo coverage gap] halo coverage gap on `A`: pe1 reads 1 remote-fed cell(s) (first: index 1) that the put from pe0 does not cover — they would hold stale data on every schedule",
        ],
    ),
    (
        "bad_storage @2",
        &[
            "static verification of `bad_storage` over 2 PEs: 1 diagnostic(s)",
            "  [storage class violation] putmem_signal from pe0 targets `G` on pe1, whose storage class is Gpu — the remote side has no symmetric allocation",
        ],
    ),
    (
        "one_sided_throttle @2",
        &[
            "static verification of `one_sided_throttle` over 2 PEs: 1 diagnostic(s)",
            "  [iteration divergence] iteration counters can diverge without bound: pe0 exchanges data with pe1 but never waits on pe1's per-iteration signal — nothing throttles pe0's progress",
        ],
    ),
    (
        "unmatched_wait @8",
        &[
            "static verification of `unmatched_wait` over 8 PEs: 2 diagnostic(s)",
            "  [unmatched signal wait] signal_wait on flag #7 (>= 1) at pe0 has no producing put-with-signal or signal_op targeting pe0",
            "  [lost signal] unsatisfied signal_wait: pe0 blocks forever on flag #7 >= 1 — no peer ever sets that flag",
        ],
    ),
    (
        "nbi_reuse @8",
        &[
            "static verification of `nbi_reuse` over 8 PEs: 1 diagnostic(s)",
            "  [nbi source reuse] `overwrite` at pe0 overwrites cells [1..2) of `A` while a non-blocking put to pe1 may still be reading them — no quiet or acknowledging signal round trip orders the reuse",
        ],
    ),
    (
        "halo_gap @8",
        &[
            "static verification of `halo_gap` over 8 PEs: 1 diagnostic(s)",
            "  [halo coverage gap] halo coverage gap on `A`: pe1 reads 1 remote-fed cell(s) (first: index 1) that the put from pe0 does not cover — they would hold stale data on every schedule",
        ],
    ),
    (
        "bad_storage @8",
        &[
            "static verification of `bad_storage` over 8 PEs: 1 diagnostic(s)",
            "  [storage class violation] putmem_signal from pe0 targets `G` on pe1, whose storage class is Gpu — the remote side has no symmetric allocation",
        ],
    ),
    (
        "one_sided_throttle @8",
        &[
            "static verification of `one_sided_throttle` over 8 PEs: 1 diagnostic(s)",
            "  [iteration divergence] iteration counters can diverge without bound: pe0 exchanges data with pe1 but never waits on pe1's per-iteration signal — nothing throttles pe0's progress",
        ],
    ),
    (
        "unmatched_wait @64",
        &[
            "static verification of `unmatched_wait` over 64 PEs: 2 diagnostic(s)",
            "  [unmatched signal wait] signal_wait on flag #7 (>= 1) at pe0 has no producing put-with-signal or signal_op targeting pe0",
            "  [lost signal] unsatisfied signal_wait: pe0 blocks forever on flag #7 >= 1 — no peer ever sets that flag",
        ],
    ),
    (
        "nbi_reuse @64",
        &[
            "static verification of `nbi_reuse` over 64 PEs: 1 diagnostic(s)",
            "  [nbi source reuse] `overwrite` at pe0 overwrites cells [1..2) of `A` while a non-blocking put to pe1 may still be reading them — no quiet or acknowledging signal round trip orders the reuse",
        ],
    ),
    (
        "halo_gap @64",
        &[
            "static verification of `halo_gap` over 64 PEs: 1 diagnostic(s)",
            "  [halo coverage gap] halo coverage gap on `A`: pe1 reads 1 remote-fed cell(s) (first: index 1) that the put from pe0 does not cover — they would hold stale data on every schedule",
        ],
    ),
    (
        "bad_storage @64",
        &[
            "static verification of `bad_storage` over 64 PEs: 1 diagnostic(s)",
            "  [storage class violation] putmem_signal from pe0 targets `G` on pe1, whose storage class is Gpu — the remote side has no symmetric allocation",
        ],
    ),
    (
        "one_sided_throttle @64",
        &[
            "static verification of `one_sided_throttle` over 64 PEs: 1 diagnostic(s)",
            "  [iteration divergence] iteration counters can diverge without bound: pe0 exchanges data with pe1 but never waits on pe1's per-iteration signal — nothing throttles pe0's progress",
        ],
    ),
    (
        "jacobi1d/frontend @8",
        &[
            "static verification of `jacobi_1d` over 8 PEs: clean",
        ],
    ),
    (
        "jacobi1d/gpu @8",
        &[
            "static verification of `jacobi_1d` over 8 PEs: clean",
        ],
    ),
    (
        "jacobi1d/cpu_free @8",
        &[
            "static verification of `jacobi_1d` over 8 PEs: clean",
        ],
    ),
    (
        "jacobi1d/cpu_free_block @8",
        &[
            "static verification of `jacobi_1d` over 8 PEs: clean",
        ],
    ),
    (
        "jacobi2d/frontend @8",
        &[
            "static verification of `jacobi_2d` over 8 PEs: clean",
        ],
    ),
    (
        "jacobi2d/gpu @8",
        &[
            "static verification of `jacobi_2d` over 8 PEs: clean",
        ],
    ),
    (
        "jacobi2d/cpu_free @8",
        &[
            "static verification of `jacobi_2d` over 8 PEs: clean",
        ],
    ),
    (
        "jacobi2d/cpu_free_block @8",
        &[
            "static verification of `jacobi_2d` over 8 PEs: clean",
        ],
    ),
    (
        "jacobi1d/frontend @64",
        &[
            "static verification of `jacobi_1d` over 64 PEs: clean",
        ],
    ),
    (
        "jacobi1d/gpu @64",
        &[
            "static verification of `jacobi_1d` over 64 PEs: clean",
        ],
    ),
    (
        "jacobi1d/cpu_free @64",
        &[
            "static verification of `jacobi_1d` over 64 PEs: clean",
        ],
    ),
    (
        "jacobi1d/cpu_free_block @64",
        &[
            "static verification of `jacobi_1d` over 64 PEs: clean",
        ],
    ),
    (
        "jacobi2d/frontend @64",
        &[
            "static verification of `jacobi_2d` over 64 PEs: clean",
        ],
    ),
    (
        "jacobi2d/gpu @64",
        &[
            "static verification of `jacobi_2d` over 64 PEs: clean",
        ],
    ),
    (
        "jacobi2d/cpu_free @64",
        &[
            "static verification of `jacobi_2d` over 64 PEs: clean",
        ],
    ),
    (
        "jacobi2d/cpu_free_block @64",
        &[
            "static verification of `jacobi_2d` over 64 PEs: clean",
        ],
    ),
    (
        "early_overwrite_on_pe31 @64",
        &[
            "static verification of `jacobi_1d` over 64 PEs: 1 diagnostic(s)",
            "  [nbi source reuse] `early_overwrite` at pe31 overwrites cells [1..2) of `A` while a non-blocking put to pe30 may still be reading them — no quiet or acknowledging signal round trip orders the reuse",
        ],
    ),
    (
        "early_signal_to_pe31 @64",
        &[
            "static verification of `jacobi_1d` over 64 PEs: 2 diagnostic(s)",
            "  [nbi source reuse] `sweep_B` at pe30 overwrites cells [1..65) of `B` while a non-blocking put to pe31 may still be reading them — no quiet or acknowledging signal round trip orders the reuse",
            "  [nbi source reuse] `sweep_A` at pe31 overwrites cells [1..65) of `A` while a non-blocking put to pe30 may still be reading them — no quiet or acknowledging signal round trip orders the reuse",
        ],
    ),
    (
        "waits_first @64",
        &[
            "static verification of `jacobi_1d` over 64 PEs: 5 diagnostic(s)",
            "  [wait cycle] cyclic signal_wait dependency across pe0, pe1 in iteration phase 1: every wait's sole producer sits behind the next wait — guaranteed deadlock on all schedules",
            "  [lost signal] unsatisfied signal_wait: pe0 blocks on flag #0 >= 1 inside a cross-PE wait cycle",
            "  [lost signal] unsatisfied signal_wait: pe1 blocks on flag #1 >= 1 inside a cross-PE wait cycle",
            "  [wait cycle] cyclic signal_wait dependency across pe0, pe1 in iteration phase 2: every wait's sole producer sits behind the next wait — guaranteed deadlock on all schedules",
            "  [wait cycle] cyclic signal_wait dependency across pe0, pe1 in iteration phase 3: every wait's sole producer sits behind the next wait — guaranteed deadlock on all schedules",
        ],
    ),
];
