//! Intra-run sharded-engine workloads: the measurement and identity
//! harness for [`sim_des::ShardedEngine`].
//!
//! Two workloads live here:
//!
//! * **Topology-partitioned ring allreduce** ([`ring_allreduce`]): `n`
//!   agents on a GPU interconnect preset run the classic `n-1`-round ring
//!   reduction with flow control, one agent per device, partitioned into
//!   shards by [`gpu_sim::Topology::partition_hints`] with the conservative
//!   lookahead from [`gpu_sim::Transport::shard_lookahead`]. Every message
//!   delay is derived from the *topology* (signal overhead + route
//!   forwarding latency), never from the partition, so the virtual
//!   schedule — end time, event count, and the allreduce checksum — is
//!   identical at every shard count and identical to the same protocol run
//!   on a single serial [`sim_des::Engine`] ([`ring_allreduce_plain`], the
//!   differential oracle).
//! * **Hierarchical barrier storm** ([`sharded_barrier`]): fixed groups of
//!   agents combine through group-local barriers plus cross-shard
//!   release/combine messages with constant delays — the pure
//!   synchronization-rate stressor for the windowed coordinator.
//!
//! The property suite (`tests/shard_identity.rs`) and `figures -- des_core`
//! both consume these; identity is always asserted on virtual quantities,
//! never on wall clock.

use gpu_sim::{CostModel, Topology, TopologyKind};
use sim_des::{mix64, ns, Cmp, Engine, ShardedEngine, SignalOp, SimDur};

/// Identity signature of one ring-allreduce run: every field is a pure
/// function of `(kind, agents, seed)` — independent of shard count and of
/// which engine (serial or sharded) executed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingRun {
    /// Virtual end time, nanoseconds.
    pub end_ns: u64,
    /// Engine events processed (queue pops, summed over shards).
    pub events: u64,
    /// The reduced total — wrapping sum of all seeded inputs, verified
    /// identical on every agent before this struct is built.
    pub checksum: u64,
}

impl RingRun {
    /// Canonical one-line report, byte-comparable across engines and
    /// shard counts.
    pub fn report(&self) -> String {
        format!(
            "end_ns={} events={} checksum={:#018x}",
            self.end_ns, self.events, self.checksum
        )
    }
}

/// Host-side counters of one ring run. Unlike [`RingRun`], they depend on
/// the engine that ran it and on its shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingCounters {
    /// Cross-shard messages delivered (0 on the serial engine).
    pub cross_messages: u64,
    /// Execution-token passes between stacks, summed over shards.
    pub handoffs: u64,
}

/// Seeded input value of agent `i`.
fn input(seed: u64, i: usize) -> u64 {
    mix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1_000_003
}

/// Per-round compute jitter of agent `i` in round `r` — deterministic in
/// `(seed, i, r)` so perturbation comes from data, not the host.
fn jitter(seed: u64, i: usize, r: u64) -> SimDur {
    ns(200 + mix64(seed ^ ((i as u64) << 32) ^ r) % 800)
}

/// Message delays of agent `i` on `topo`: software signal overhead plus the
/// forwarding latency of the route actually crossed. Purely topological —
/// the same at every shard count.
fn delays(topo: &Topology, cost: &CostModel, i: usize, n: usize) -> (SimDur, SimDur) {
    let succ = (i + 1) % n;
    let pred = (i + n - 1) % n;
    let to_succ = cost.shmem_signal() + topo.route_forward_latency(i, succ);
    let to_pred = cost.shmem_signal() + topo.route_forward_latency(i, pred);
    (to_succ, to_pred)
}

/// Run the `n-1`-round ring allreduce on a [`ShardedEngine`] partitioned by
/// the topology's hints. Returns the identity signature plus the number of
/// cross-shard messages delivered (diagnostic; varies with the partition).
///
/// Panics if any agent's reduced total disagrees with the host-computed
/// expectation — the numeric oracle for the conservative protocol.
pub fn ring_allreduce(
    kind: TopologyKind,
    agents: usize,
    seed: u64,
    shards: usize,
) -> (RingRun, u64) {
    let (run, counters) = ring_allreduce_counted(kind, agents, seed, shards);
    (run, counters.cross_messages)
}

/// [`ring_allreduce`] with every host-side counter of the run.
pub fn ring_allreduce_counted(
    kind: TopologyKind,
    agents: usize,
    seed: u64,
    shards: usize,
) -> (RingRun, RingCounters) {
    assert!(agents >= 2, "ring needs at least two agents");
    let cost = CostModel::a100_hgx();
    let topo = Topology::build(kind, agents, &cost);
    let plan = topo.partition_hints(shards);
    let look = topo.partition_lookahead(&plan, cost.shmem_signal());

    let mut eng = ShardedEngine::new(shards, look);
    eng.set_trace_enabled(false);
    // Global allocation order fixed by agent index: data, seq, ack, result.
    let mut data = Vec::with_capacity(agents);
    let mut seq = Vec::with_capacity(agents);
    let mut ack = Vec::with_capacity(agents);
    let mut result = Vec::with_capacity(agents);
    for &shard in plan.iter().take(agents) {
        data.push(eng.flag_on(shard, 0));
        seq.push(eng.flag_on(shard, 0));
        ack.push(eng.flag_on(shard, 0));
        result.push(eng.flag_on(shard, 0));
    }
    for i in 0..agents {
        let succ = (i + 1) % agents;
        let pred = (i + agents - 1) % agents;
        let (d_succ, d_pred) = delays(&topo, &cost, i, agents);
        let (my_data, my_seq, my_ack, my_result) = (data[i], seq[i], ack[i], result[i]);
        let (succ_data, succ_seq) = (data[succ], seq[succ]);
        let pred_ack = ack[pred];
        eng.spawn_on(plan[i], format!("pe{i}"), move |ctx, port| {
            let mut carry = input(seed, i);
            let mut sum = carry;
            let rounds = (agents - 1) as u64;
            for r in 1..=rounds {
                // Flow control: successor consumed our previous payload.
                ctx.wait_flag(my_ack.local(), Cmp::Ge, r - 1);
                ctx.advance(jitter(seed, i, r));
                // Payload then sequence bump, same arrival time: the
                // per-sender send order keeps Set-before-Add on delivery.
                port.send(ctx, succ_data, SignalOp::Set, carry, d_succ);
                port.send(ctx, succ_seq, SignalOp::Add, 1, d_succ);
                ctx.wait_flag(my_seq.local(), Cmp::Ge, r);
                let got = ctx.flag_value(my_data.local());
                sum = sum.wrapping_add(got);
                carry = got;
                port.send(ctx, pred_ack, SignalOp::Add, 1, d_pred);
            }
            ctx.signal(my_result.local(), SignalOp::Set, sum);
        });
    }
    let end = eng.run().expect("sharded ring allreduce");
    let expected = (0..agents).fold(0u64, |acc, i| acc.wrapping_add(input(seed, i)));
    for (i, &r) in result.iter().enumerate() {
        assert_eq!(
            eng.flag_value(r),
            expected,
            "agent {i} reduced a different total (shards={shards})"
        );
    }
    (
        RingRun {
            end_ns: end.as_nanos(),
            events: eng.events_processed(),
            checksum: expected,
        },
        RingCounters {
            cross_messages: eng.cross_messages(),
            handoffs: eng.handoffs(),
        },
    )
}

/// The identical protocol on a single serial [`Engine`]: the differential
/// oracle every sharded run must match bit-for-bit.
pub fn ring_allreduce_plain(kind: TopologyKind, agents: usize, seed: u64) -> RingRun {
    ring_allreduce_plain_counted(kind, agents, seed).0
}

/// [`ring_allreduce_plain`] with the serial engine's host-side counters.
pub fn ring_allreduce_plain_counted(
    kind: TopologyKind,
    agents: usize,
    seed: u64,
) -> (RingRun, RingCounters) {
    assert!(agents >= 2, "ring needs at least two agents");
    let cost = CostModel::a100_hgx();
    let topo = Topology::build(kind, agents, &cost);

    let eng = Engine::new();
    eng.set_trace_enabled(false);
    let mut data = Vec::with_capacity(agents);
    let mut seq = Vec::with_capacity(agents);
    let mut ack = Vec::with_capacity(agents);
    let mut result = Vec::with_capacity(agents);
    for _ in 0..agents {
        data.push(eng.flag(0));
        seq.push(eng.flag(0));
        ack.push(eng.flag(0));
        result.push(eng.flag(0));
    }
    for i in 0..agents {
        let succ = (i + 1) % agents;
        let pred = (i + agents - 1) % agents;
        let (d_succ, d_pred) = delays(&topo, &cost, i, agents);
        let (my_data, my_seq, my_ack, my_result) = (data[i], seq[i], ack[i], result[i]);
        let (succ_data, succ_seq) = (data[succ], seq[succ]);
        let pred_ack = ack[pred];
        eng.spawn(format!("pe{i}"), move |ctx| {
            let mut carry = input(seed, i);
            let mut sum = carry;
            let rounds = (agents - 1) as u64;
            for r in 1..=rounds {
                ctx.wait_flag(my_ack, Cmp::Ge, r - 1);
                ctx.advance(jitter(seed, i, r));
                ctx.schedule_signal(succ_data, SignalOp::Set, carry, d_succ);
                ctx.schedule_signal(succ_seq, SignalOp::Add, 1, d_succ);
                ctx.wait_flag(my_seq, Cmp::Ge, r);
                let got = ctx.flag_value(my_data);
                sum = sum.wrapping_add(got);
                carry = got;
                ctx.schedule_signal(pred_ack, SignalOp::Add, 1, d_pred);
            }
            ctx.signal(my_result, SignalOp::Set, sum);
        });
    }
    let end = eng.run().expect("serial ring allreduce");
    let expected = (0..agents).fold(0u64, |acc, i| acc.wrapping_add(input(seed, i)));
    for (i, &r) in result.iter().enumerate() {
        assert_eq!(eng.flag_value(r), expected, "agent {i} (serial) diverged");
    }
    (
        RingRun {
            end_ns: end.as_nanos(),
            events: eng.events_processed(),
            checksum: expected,
        },
        RingCounters {
            cross_messages: 0,
            handoffs: eng.handoffs(),
        },
    )
}

/// Hierarchical barrier storm: `agents` agents in fixed groups of
/// `group_size`, `rounds` rounds of group-local barrier → leader combine on
/// a central flag → root broadcast release, all cross-group messages at a
/// constant 500 ns delay. Groups are placed whole onto shards (contiguous
/// chunks), so the virtual schedule is a pure function of
/// `(agents, group_size, rounds)` — identical at every shard count that
/// keeps groups intact (`shards * group_size <= agents`, shards a divisor
/// of the group count).
///
/// Returns `(end_ns, events)`.
pub fn sharded_barrier(agents: usize, group_size: usize, rounds: u64, shards: usize) -> (u64, u64) {
    assert!(
        agents.is_multiple_of(group_size),
        "groups must tile the agents"
    );
    let groups = agents / group_size;
    assert!(
        groups.is_multiple_of(shards),
        "shards must evenly split the {groups} groups"
    );
    let hop = ns(500);
    let mut eng = ShardedEngine::new(shards, hop);
    eng.set_trace_enabled(false);
    let shard_of_group = |g: usize| g * shards / groups;

    let central = eng.flag_on(0, 0);
    let bars: Vec<_> = (0..groups)
        .map(|g| eng.barrier_on(shard_of_group(g), group_size))
        .collect();
    let releases: Vec<_> = (0..groups)
        .map(|g| eng.flag_on(shard_of_group(g), 0))
        .collect();

    for i in 0..agents {
        let g = i / group_size;
        let (bar, release) = (bars[g], releases[g]);
        let leader = i % group_size == 0;
        eng.spawn_on(shard_of_group(g), format!("w{i}"), move |ctx, port| {
            for r in 1..=rounds {
                ctx.advance(ns(50 + ((i as u64) * 7) % 90));
                ctx.barrier(bar);
                if leader {
                    port.send(ctx, central, SignalOp::Add, 1, hop);
                }
                ctx.wait_flag(release.local(), Cmp::Ge, r);
            }
        });
    }
    eng.spawn_on(0, "root", move |ctx, port| {
        for r in 1..=rounds {
            ctx.wait_flag(central.local(), Cmp::Ge, groups as u64 * r);
            for &rel in &releases {
                port.send(ctx, rel, SignalOp::Set, r, hop);
            }
        }
    });
    let end = eng.run().expect("sharded barrier storm");
    (end.as_nanos(), eng.events_processed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_allreduce_matches_serial_at_every_shard_count() {
        let serial = ring_allreduce_plain(TopologyKind::NvlinkRing, 8, 42);
        for shards in [1, 2, 4, 8] {
            let (sharded, _) = ring_allreduce(TopologyKind::NvlinkRing, 8, 42, shards);
            assert_eq!(serial, sharded, "shards={shards}");
        }
    }

    #[test]
    fn ring_checksum_is_the_seeded_total() {
        let run = ring_allreduce_plain(TopologyKind::NvlinkAllToAll, 4, 7);
        let expected = (0..4).fold(0u64, |acc, i| acc.wrapping_add(input(7, i)));
        assert_eq!(run.checksum, expected);
    }

    #[test]
    fn barrier_storm_is_shard_count_invariant() {
        let base = sharded_barrier(32, 4, 5, 1);
        for shards in [2, 4, 8] {
            assert_eq!(base, sharded_barrier(32, 4, 5, shards), "shards={shards}");
        }
    }
}
