//! Negative-path and property tests for the static protocol verifier:
//! each hand-built non-conforming SDFG must produce exactly the expected
//! `DiagKind` naming both endpoints, and the transform pipeline's outputs
//! must always verify clean.

mod fixtures;

use dace_sim::expr::{Cond, CondOp, Expr};
use dace_sim::ir::{
    ArrayDecl, Cf, DataRef, DimRange, GuardedOp, LibNode, MapOp, Op, Schedule, Sdfg, State,
    Storage, TaskletKind,
};
use dace_sim::programs::{Jacobi1dSetup, Jacobi2dSetup};
use dace_sim::transform::{
    gpu_persistent_kernel, gpu_transform, map_fusion, mpi_to_nvshmem_with, nvshmem_array,
    to_cpu_free, PutGranularity,
};
use dace_sim::verify::verify_sdfg;
use dace_sim::Bindings;
use sim_des::DiagKind;

// ---------------------------------------------------------------------------
// Negative paths: one fixture per check family
// ---------------------------------------------------------------------------

#[test]
fn unmatched_wait_yields_unmatched_and_lost() {
    let sdfg = fixtures::unmatched_wait();
    let report = verify_sdfg(&sdfg, 2, &Bindings::default());
    let mut kinds: Vec<DiagKind> = report.diags.iter().map(|d| d.kind).collect();
    kinds.sort_by_key(|k| format!("{k}"));
    assert_eq!(
        kinds,
        vec![DiagKind::LostSignal, DiagKind::UnmatchedSignalWait],
        "unexpected diagnostic set:\n{report}"
    );
    for d in &report.diags {
        assert_eq!(d.pe, Some(0), "waiter endpoint: {d}");
        assert_eq!(d.subject, "flag #7", "subject: {d}");
        assert!(d.message.contains("pe0"), "message names the waiter: {d}");
    }
}

#[test]
fn nbi_source_overwrite_before_ack_is_flagged() {
    let sdfg = fixtures::nbi_reuse();
    let report = verify_sdfg(&sdfg, 2, &Bindings::default());
    assert_eq!(
        report.diags.len(),
        1,
        "expected exactly one diag:\n{report}"
    );
    let d = &report.diags[0];
    assert_eq!(d.kind, DiagKind::NbiSourceReuse);
    assert_eq!(d.pe, Some(0), "writer endpoint: {d}");
    assert_eq!(d.peer, Some(1), "put target endpoint: {d}");
    assert_eq!(d.subject, "A");
    assert!(
        d.message.contains("pe0") && d.message.contains("pe1") && d.message.contains("`A`"),
        "message names both endpoints and the array: {d}"
    );
}

#[test]
fn nbi_reuse_fixture_is_clean_with_quiet_before_write() {
    // Moving the ack wait in front of the overwrite (swap the last two
    // states) makes the same program conforming — the diagnostic really is
    // about ordering, not about the put itself.
    let mut sdfg = fixtures::nbi_reuse();
    if let Some(Cf::Loop { body, .. }) = sdfg.body.first_mut() {
        body.swap(1, 2);
    }
    let report = verify_sdfg(&sdfg, 2, &Bindings::default());
    assert!(report.clean(), "reordered fixture should verify:\n{report}");
}

#[test]
fn halo_put_undercovering_reads_is_flagged() {
    let sdfg = fixtures::halo_gap();
    let report = verify_sdfg(&sdfg, 2, &Bindings::default());
    assert_eq!(
        report.diags.len(),
        1,
        "expected exactly one diag:\n{report}"
    );
    let d = &report.diags[0];
    assert_eq!(d.kind, DiagKind::HaloCoverageGap);
    assert_eq!(d.pe, Some(1), "consumer endpoint: {d}");
    assert_eq!(d.peer, Some(0), "producer endpoint: {d}");
    assert_eq!(d.subject, "A");
    assert!(
        d.message.contains("pe1") && d.message.contains("pe0") && d.message.contains("`A`"),
        "message names both endpoints and the array: {d}"
    );
}

#[test]
fn put_to_non_symmetric_array_is_flagged() {
    let sdfg = fixtures::bad_storage();
    let report = verify_sdfg(&sdfg, 2, &Bindings::default());
    assert_eq!(
        report.diags.len(),
        1,
        "expected exactly one diag:\n{report}"
    );
    let d = &report.diags[0];
    assert_eq!(d.kind, DiagKind::StorageClassViolation);
    assert_eq!(d.pe, Some(0), "issuer endpoint: {d}");
    assert_eq!(d.peer, Some(1), "target endpoint: {d}");
    assert_eq!(d.subject, "G");
    assert!(
        d.message.contains("pe0") && d.message.contains("pe1") && d.message.contains("`G`"),
        "message names both endpoints and the array: {d}"
    );
}

#[test]
fn unthrottled_producer_is_flagged() {
    let sdfg = fixtures::one_sided_throttle();
    let report = verify_sdfg(&sdfg, 2, &Bindings::default());
    assert_eq!(
        report.diags.len(),
        1,
        "expected exactly one diag:\n{report}"
    );
    let d = &report.diags[0];
    assert_eq!(d.kind, DiagKind::IterationDivergence);
    assert_eq!(d.pe, Some(0));
    assert_eq!(d.peer, Some(1));
    assert!(
        d.message.contains("pe0") && d.message.contains("pe1"),
        "message names the pair: {d}"
    );
}

/// pe0 puts `A[1]` to the last PE, which relays an acknowledgement down
/// the ranks one PE at a time (flag 1, each PE waits then signals its left
/// neighbour); pe0 overwrites `A[1]` only after the relay reaches it.
fn relayed_ack(n_pes: i64) -> Sdfg {
    let rank = Expr::s("rank");
    let last = n_pes - 1;
    let ops = vec![
        GuardedOp::when(
            fixtures::on_rank(0),
            Op::Lib(LibNode::PutmemSignal {
                dst: DataRef::new("A", vec![DimRange::idx(Expr::c(0))]),
                src: DataRef::new("A", vec![DimRange::idx(Expr::c(1))]),
                sig: 0,
                val: Expr::s("t"),
                pe: Expr::c(last),
            }),
        ),
        GuardedOp::when(
            fixtures::on_rank(last),
            Op::Lib(LibNode::SignalWait {
                sig: 0,
                val: Expr::s("t"),
            }),
        ),
        GuardedOp::when(
            Cond::new(rank.clone(), CondOp::Lt, Expr::c(last)),
            Op::Lib(LibNode::SignalWait {
                sig: 1,
                val: Expr::s("t"),
            }),
        ),
        GuardedOp::when(
            Cond::new(rank.clone(), CondOp::Gt, Expr::c(0)),
            Op::Lib(LibNode::SignalOp {
                sig: 1,
                val: Expr::s("t"),
                pe: rank.sub(Expr::c(1)),
            }),
        ),
        GuardedOp::when(
            fixtures::on_rank(0),
            Op::Map(MapOp {
                name: "overwrite".into(),
                schedule: Schedule::GpuPersistent,
                range: vec![("i".into(), Expr::c(1), Expr::c(1))],
                tasklet: TaskletKind::Jacobi1d {
                    src: "B".into(),
                    dst: "A".into(),
                },
            }),
        ),
    ];
    Sdfg {
        name: "relayed_ack".into(),
        symbols: vec![],
        derived: vec![],
        arrays: ["A", "B"]
            .iter()
            .map(|n| ArrayDecl {
                name: (*n).into(),
                shape: vec![Expr::c(4)],
                storage: Storage::GpuNvshmem,
            })
            .collect(),
        body: vec![Cf::Loop {
            var: "t".into(),
            start: Expr::c(1),
            end: Expr::c(1),
            body: vec![Cf::State(State {
                name: "relay".into(),
                ops,
            })],
            persistent: true,
        }],
    }
}

#[test]
fn nbi_ack_relayed_across_every_pe_is_clean() {
    // The token moves one PE against the walk order per fixpoint pass, so
    // this needs about `n_pes` passes to converge.
    for n_pes in [2, 3, 16, 40] {
        let report = verify_sdfg(&relayed_ack(n_pes as i64), n_pes, &Bindings::default());
        assert!(report.clean(), "n_pes={n_pes}:\n{report}");
    }
    // Without the relay's last hop nothing orders the overwrite.
    let mut sdfg = relayed_ack(16);
    if let Some(Cf::Loop { body, .. }) = sdfg.body.first_mut() {
        if let Cf::State(state) = &mut body[0] {
            state.ops[3].guard = Some(Cond::new(Expr::s("rank"), CondOp::Gt, Expr::c(1)));
        }
    }
    let report = verify_sdfg(&sdfg, 16, &Bindings::default());
    assert_eq!(
        report.of_kind(DiagKind::NbiSourceReuse).len(),
        1,
        "unexpected report:\n{report}"
    );
}

// ---------------------------------------------------------------------------
// Property: map_fusion is idempotent
// ---------------------------------------------------------------------------

/// A state with two adjacent fusable maps: independent (disjoint arrays),
/// same range, same schedule, no guards. The shipped programs keep their
/// sweeps in separate states, so exercise the fusion path explicitly.
fn two_sweep_sdfg(points: i64) -> Sdfg {
    let sweep = |name: &str, src: &str, dst: &str| {
        GuardedOp::new(Op::Map(MapOp {
            name: name.into(),
            schedule: Schedule::GpuDevice,
            range: vec![("i".into(), Expr::c(1), Expr::c(points))],
            tasklet: TaskletKind::Jacobi1d {
                src: src.into(),
                dst: dst.into(),
            },
        }))
    };
    Sdfg {
        name: "two_sweeps".into(),
        symbols: vec![],
        derived: vec![],
        arrays: ["A", "B", "C", "D"]
            .iter()
            .map(|n| ArrayDecl {
                name: (*n).into(),
                shape: vec![Expr::c(points + 2)],
                storage: Storage::Gpu,
            })
            .collect(),
        body: vec![Cf::State(State {
            name: "sweeps".into(),
            ops: vec![sweep("first", "A", "B"), sweep("second", "C", "D")],
        })],
    }
}

#[test]
fn map_fusion_is_idempotent() {
    for points in [2, 8, 33] {
        let mut sdfg = two_sweep_sdfg(points);
        let first = map_fusion(&mut sdfg);
        assert_eq!(first, 1, "points={points}: two fusable maps fuse once");
        let after_first = format!("{sdfg:?}");
        let second = map_fusion(&mut sdfg);
        assert_eq!(second, 0, "points={points}: second pass finds nothing");
        assert_eq!(
            format!("{sdfg:?}"),
            after_first,
            "points={points}: second pass must not change the SDFG"
        );
    }
    // Also on the shipped programs, transformed or not.
    for n_pes in [1, 4] {
        let mut sdfg = Jacobi1dSetup::new(8, 3, n_pes).sdfg;
        gpu_transform(&mut sdfg);
        let first = map_fusion(&mut sdfg);
        let snapshot = format!("{sdfg:?}");
        assert_eq!(map_fusion(&mut sdfg), 0, "first pass fused {first}");
        assert_eq!(format!("{sdfg:?}"), snapshot);
    }
}

// ---------------------------------------------------------------------------
// Property: transform outputs always pass the static verifier
// ---------------------------------------------------------------------------

#[test]
fn to_cpu_free_outputs_verify_clean_on_seeded_1d_variants() {
    for chunk in [4, 8, 16] {
        for tsteps in [1, 2, 5] {
            for n_pes in [1, 2, 3, 4] {
                let setup = Jacobi1dSetup::new(chunk, tsteps, n_pes);
                let user = setup.user_bindings();
                let mut sdfg = setup.sdfg;
                to_cpu_free(&mut sdfg).unwrap();
                let report = verify_sdfg(&sdfg, n_pes, &user);
                assert!(
                    report.clean(),
                    "chunk={chunk} T={tsteps} n_pes={n_pes}:\n{report}"
                );
            }
        }
    }
}

#[test]
fn to_cpu_free_outputs_verify_clean_on_seeded_2d_variants() {
    for (rows, cols) in [(4, 4), (2, 6), (8, 4)] {
        for n_pes in [1, 2, 4, 8] {
            let setup = Jacobi2dSetup::new(rows, cols, 3, n_pes);
            let user = setup.user_bindings();
            let mut sdfg = setup.sdfg;
            to_cpu_free(&mut sdfg).unwrap();
            let report = verify_sdfg(&sdfg, n_pes, &user);
            assert!(
                report.clean(),
                "rows={rows} cols={cols} n_pes={n_pes}:\n{report}"
            );
        }
    }
}

#[test]
fn block_granularity_pipeline_verifies_clean() {
    for n_pes in [2, 4] {
        let setup = Jacobi1dSetup::new(8, 3, n_pes);
        let user = setup.user_bindings();
        let mut sdfg = setup.sdfg;
        gpu_transform(&mut sdfg);
        mpi_to_nvshmem_with(&mut sdfg, PutGranularity::Block).unwrap();
        nvshmem_array(&mut sdfg);
        gpu_persistent_kernel(&mut sdfg).unwrap();
        let report = verify_sdfg(&sdfg, n_pes, &user);
        assert!(report.clean(), "n_pes={n_pes}:\n{report}");
    }
}

#[test]
fn shipped_persistent_pipelines_verify_clean_at_scale() {
    for n_pes in [128, 256] {
        let j1 = Jacobi1dSetup::new(64, 5, n_pes);
        let j2 = Jacobi2dSetup::new(8, 8, 5, n_pes);
        for (program, frontend, user) in [
            ("jacobi1d", &j1.sdfg, j1.user_bindings()),
            ("jacobi2d", &j2.sdfg, j2.user_bindings()),
        ] {
            let mut free = frontend.clone();
            to_cpu_free(&mut free).unwrap();
            let report = verify_sdfg(&free, n_pes, &user);
            assert!(report.clean(), "{program}/cpu_free @{n_pes}:\n{report}");

            let mut block = frontend.clone();
            gpu_transform(&mut block);
            mpi_to_nvshmem_with(&mut block, PutGranularity::Block).unwrap();
            nvshmem_array(&mut block);
            gpu_persistent_kernel(&mut block).unwrap();
            let report = verify_sdfg(&block, n_pes, &user);
            assert!(
                report.clean(),
                "{program}/cpu_free_block @{n_pes}:\n{report}"
            );
        }
    }
}
