//! Per-layer probes: single public functions of the `des`, `gpu` and
//! `shmem` layers called in isolation, each repeated and reported as the
//! median per-operation host time.

use std::hint::black_box;
use std::time::Instant;

use cpufree_bench::chaos::jacobi_config;
use gpu_sim::{CostModel, ExecMode, Machine, Topology, TopologyKind, Transport};
use nvshmem_sim::ShmemWorld;
use sim_des::{
    ns, AgentId, Category, Cmp, Engine, FaultPlan, Resource, SignalOp, SimTime, Trace, TraceSpan,
};
use stencil_lab::{run_cpu_free_ft, FtConfig};

use crate::cluster;
use crate::spans::Tracer;
use crate::stats::{median, Metrics};

/// Repetitions of every probe; the median is reported.
const REPS: usize = 5;

/// Run every probe and record its metric.
pub fn run(tr: &mut Tracer, m: &mut Metrics) {
    m.set("des.handoff_ns", per_op(tr, "des.handoff", handoff));
    m.set("des.barrier_ns", per_op(tr, "des.barrier", barrier));
    m.set("des.spawn_us", per_op(tr, "des.spawn", spawn) / 1e3);
    m.set(
        "des.trace_push_ns",
        per_op(tr, "des.trace_push", trace_push),
    );
    m.set(
        "des.resource_reserve_ns",
        per_op(tr, "des.resource_reserve", reserve),
    );

    let cost = cluster_cost();
    let kind = cost.topology;
    m.set(
        "gpu.topology_build_ms",
        per_op(tr, "gpu.topology_build", |_| {
            drop(black_box(Topology::build(kind, cluster::GPUS, &cost)));
            1
        }) / 1e6,
    );
    let topo = Topology::build(kind, cluster::GPUS, &cost);
    let routes = routes();
    m.set(
        "gpu.transport_charge_ns",
        per_op(tr, "gpu.transport_charge", |_| {
            let t = Transport::new(topo.clone(), cost.clone());
            for &(s, d) in &routes {
                black_box(t.shmem_put(s, d, 4096, SimTime::ZERO));
            }
            routes.len() as u64
        }),
    );
    m.set(
        "gpu.linkclocks_charge_ns",
        per_op(tr, "gpu.linkclocks_charge", |_| {
            let mut clocks = topo.clocks();
            for &(s, d) in &routes {
                black_box(clocks.charge_dev(&topo, s, d, 4096, SimTime::ZERO, 1.0));
            }
            routes.len() as u64
        }),
    );
    m.set("gpu.check_overhead_ratio", check_overhead(tr));
    m.set("shmem.world_init_ms", world_init(tr));
}

/// Median over [`REPS`] runs of `f`'s host time divided by the operation
/// count it returns, in nanoseconds. Each run is a span named `name`.
fn per_op(tr: &mut Tracer, name: &'static str, mut f: impl FnMut(&mut Tracer) -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let ops = tr.span(name, &mut f);
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples).expect("REPS > 0")
}

/// `ShmemWorld::init` plus the two grid allocations of the cluster run,
/// on a fresh 1024-GPU machine (whose construction is not timed); ms.
fn world_init(tr: &mut Tracer) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let machine = Machine::new(cluster::GPUS, cluster_cost(), ExecMode::TimingOnly);
            let t0 = Instant::now();
            tr.span("shmem.world_init", |_| {
                let world = ShmemWorld::init(&machine);
                let len = (cluster::SIDE / cluster::GPUS + 2) * cluster::SIDE;
                black_box((world.malloc("grid.a", len), world.malloc("grid.b", len)));
            });
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples).expect("REPS > 0")
}

fn cluster_cost() -> CostModel {
    let mut cost = CostModel::a100_hgx();
    cost.topology = TopologyKind::FatTree {
        gpus: cluster::GPUS,
        radix: cluster::RADIX,
    };
    cost
}

/// The halo routes of the cluster run (each GPU to both ring neighbours)
/// plus a cross-fabric route per GPU.
fn routes() -> Vec<(usize, usize)> {
    let n = cluster::GPUS;
    (0..n)
        .flat_map(|i| [(i, (i + 1) % n), (i, (i + n - 1) % n), (i, (i + n / 2) % n)])
        .collect()
}

/// Two agents exchanging signals; per engine event.
fn handoff(_: &mut Tracer) -> u64 {
    let engine = Engine::new();
    engine.set_trace_enabled(false);
    let (f1, f2) = (engine.flag(0), engine.flag(0));
    engine.spawn("ping", move |ctx| {
        for i in 1..=2000u64 {
            ctx.signal(f1, SignalOp::Set, i);
            ctx.wait_flag(f2, Cmp::Ge, i);
        }
    });
    engine.spawn("pong", move |ctx| {
        for i in 1..=2000u64 {
            ctx.wait_flag(f1, Cmp::Ge, i);
            ctx.signal(f2, SignalOp::Set, i);
        }
    });
    engine.run().expect("ping-pong completes");
    engine.events_processed()
}

/// 64 agents meeting at a barrier 20 times; per agent-round.
fn barrier(_: &mut Tracer) -> u64 {
    const AGENTS: u64 = 64;
    const ROUNDS: u64 = 20;
    let engine = Engine::new();
    engine.set_trace_enabled(false);
    let bar = engine.barrier(AGENTS as usize);
    for a in 0..AGENTS {
        engine.spawn(format!("w{a}"), move |ctx| {
            for _ in 0..ROUNDS {
                ctx.advance(ns(50));
                ctx.barrier(bar);
            }
        });
    }
    engine.run().expect("barrier rounds complete");
    AGENTS * ROUNDS
}

/// Spawn and join 256 agents that do nothing; per agent.
fn spawn(_: &mut Tracer) -> u64 {
    const AGENTS: u64 = 256;
    let engine = Engine::new();
    for a in 0..AGENTS {
        engine.spawn(format!("a{a}"), |_| {});
    }
    engine.run().expect("empty agents complete");
    AGENTS
}

/// `Trace::push` of 200k spans; per span.
fn trace_push(_: &mut Tracer) -> u64 {
    const SPANS: u64 = 200_000;
    let mut trace = Trace::new();
    let (agent, label) = (trace.intern("agent"), trace.intern("busy"));
    for i in 0..SPANS {
        trace.push(TraceSpan {
            agent: AgentId(0),
            agent_name: agent,
            start: SimTime::ZERO + ns(i),
            end: SimTime::ZERO + ns(i + 1),
            category: Category::Compute,
            label,
        });
    }
    black_box(trace.len() as u64)
}

/// `Resource::reserve` 1M times; per call.
fn reserve(_: &mut Tracer) -> u64 {
    const CALLS: u64 = 1_000_000;
    let r = Resource::new();
    for i in 0..CALLS {
        black_box(r.reserve(SimTime::ZERO + ns(i), ns(3)));
    }
    CALLS
}

/// Host time of the fault-free fault-tolerant Jacobi run every chaos
/// schedule makes, checker on over checker off; median over [`REPS`]
/// alternating pairs.
fn check_overhead(tr: &mut Tracer) -> f64 {
    let on = jacobi_config(TopologyKind::NvlinkAllToAll);
    let mut off = on.clone();
    off.check = false;
    let mut ratios = Vec::new();
    for _ in 0..REPS {
        let mut time = |cfg: &stencil_lab::StencilConfig, name| {
            let t0 = Instant::now();
            tr.span(name, |_| {
                run_cpu_free_ft(&FtConfig::new(cfg.clone(), FaultPlan::new()))
            })
            .expect("fault-free run completes");
            t0.elapsed().as_secs_f64()
        };
        let t_on = time(&on, "gpu.check_on");
        let t_off = time(&off, "gpu.check_off");
        ratios.push(t_on / t_off);
    }
    median(&ratios).expect("REPS > 0")
}
