//! `cluster-jacobi`: one CPU-Free 2D Jacobi run, timing-only, on a
//! 1024-GPU fat-tree.
//!
//! Host time goes to the engine's per-event handoff, to spawning one agent
//! per GPU, to `Transport` charging on a large fabric and to building its
//! routes. No checker, no numerics, no compiler. The inputs do not depend
//! on the seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cpufree_core::RunStats;
use gpu_sim::TopologyKind;
use stencil_lab::{Domain, Executed, StencilConfig, Variant};

use crate::calib::Calib;
use crate::recorded;
use crate::spans::Tracer;
use crate::stats::{median, Metrics};
use crate::{Pass, Workload};

/// GPUs of the fat-tree (the ROADMAP item 1 acceptance scale).
pub const GPUS: usize = 1024;
/// Switch radix of the fat-tree.
pub const RADIX: usize = 16;
/// Grid side: four interior rows per GPU.
pub const SIDE: usize = 4096;
/// Jacobi iterations.
pub const ITERS: u64 = 4;

/// The run's configuration.
pub fn config() -> StencilConfig {
    StencilConfig::square2d(SIDE, ITERS, GPUS)
        .timing_only()
        .with_topology(TopologyKind::FatTree {
            gpus: GPUS,
            radix: RADIX,
        })
}

/// The workload; keeps the last traced run for the per-layer metrics.
#[derive(Default)]
pub struct Cluster {
    traced: Option<Executed>,
}

impl Workload for Cluster {
    type Inputs = StencilConfig;

    /// Builds the 1024-GPU `Domain` (machine, fabric, symmetric heap) and
    /// drops it: `Variant::run` builds its own, so this times the set-up
    /// share of a run on its own.
    fn setup(&mut self, tr: &mut Tracer) -> StencilConfig {
        let cfg = config();
        tr.span("stencil.domain_new", |_| drop(Domain::new(&cfg)));
        cfg
    }

    fn pass(&mut self, cfg: &StencilConfig, tr: &mut Tracer, cal: &mut Calib) -> Pass {
        let t0 = Instant::now();
        let run = tr.span("stencil.run", |_| {
            catch_unwind(AssertUnwindSafe(|| Variant::CpuFree.run(cfg)))
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        cal.after(ms / 1e3);
        let failure = match &run {
            Err(_) => Some("cluster run panicked".to_string()),
            Ok(ex) => check(ex).err(),
        };
        if tr.enabled() {
            if let Ok(ex) = run {
                let total = ex.total;
                tr.span("core.runstats", |_| {
                    RunStats::from_trace(&ex.trace, total, ITERS)
                });
                self.traced = Some(ex);
            }
        }
        Pass::new(vec![ms], failure.into_iter().collect())
    }

    fn layer_metrics(&self, tr: &Tracer, since: u64, m: &mut Metrics) {
        let ex = self
            .traced
            .as_ref()
            .expect("a traced cluster run completed");
        let spans = ex.trace.len() as f64;
        let run_ms = median(&tr.durations_ms("stencil.run", since)).expect("traced run");
        m.set("des.spans", spans);
        m.set("des.host_ns_per_span", run_ms * 1e6 / spans);
        m.set(
            "core.runstats_ms",
            median(&tr.durations_ms("core.runstats", since)).expect("traced runstats"),
        );
        m.set("core.total_ns", ex.stats.total.as_nanos() as f64);
        m.set("core.comm_busy_ns", ex.stats.comm_busy.as_nanos() as f64);
        m.set("core.sync_busy_ns", ex.stats.sync_busy.as_nanos() as f64);
        m.set(
            "core.compute_busy_ns",
            ex.stats.compute_busy.as_nanos() as f64,
        );
    }
}

/// The run's oracle: virtual total and span count equal the recorded ones.
fn check(ex: &Executed) -> Result<(), String> {
    let (total, spans) = (ex.total.as_nanos(), ex.trace.len() as u64);
    if (total, spans) == (recorded::CLUSTER_TOTAL_NS, recorded::CLUSTER_SPANS) {
        Ok(())
    } else {
        Err(format!(
            "cluster run: total {total} ns / {spans} spans, recorded {} ns / {} spans",
            recorded::CLUSTER_TOTAL_NS,
            recorded::CLUSTER_SPANS
        ))
    }
}

/// `(virtual total ns, span count)` of one run, for `--record`.
pub fn record() -> (u64, u64) {
    let ex = Variant::CpuFree.run(&config());
    (ex.total.as_nanos(), ex.trace.len() as u64)
}
