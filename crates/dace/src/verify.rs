//! The static protocol verifier: compile-time CPU-Free conformance checks
//! over an [`Sdfg`], sharing diagnostic vocabulary with the dynamic
//! happens-before checker (`sim_des::DiagKind`).
//!
//! Where the dynamic checker (PR 3) reports only the races and lost signals
//! the *chosen* schedule happens to expose, [`verify_sdfg`] reasons over the
//! symbolic communication graph of [`crate::analysis::CommGraph`] and proves
//! conformance for **all** schedules:
//!
//! * **Signal ↔ wait balance** — every `signal_wait` must have a producer
//!   targeting its PE whose counter value reaches the waited threshold in
//!   the same or an earlier iteration phase ([`DiagKind::UnmatchedSignalWait`],
//!   with [`DiagKind::LostSignal`] when no schedule can satisfy the wait).
//! * **Nbi source reuse** — a write to the source cells of a non-blocking
//!   put is only safe after a `quiet` or an acknowledging signal round trip
//!   proves remote completion ([`DiagKind::NbiSourceReuse`]). Tracked by a
//!   token-propagation fixpoint mirroring the dynamic checker's vector
//!   clocks: each nbi put mints a token, waits absorb the intersection of
//!   their satisfying producers' stamps, and `quiet` absorbs the issuing
//!   PE's own outstanding tokens.
//! * **Halo coverage** — incoming puts must cover the remote-fed cells each
//!   consumer tasklet reads; a put whose aligned run only partially covers
//!   a contiguous halo region is flagged ([`DiagKind::HaloCoverageGap`]).
//! * **Storage classes** — puts must target `GpuNvshmem` (symmetric-heap)
//!   arrays ([`DiagKind::StorageClassViolation`]).
//! * **Wait cycles** — a cross-PE cycle of sole-producer waits deadlocks on
//!   every schedule ([`DiagKind::WaitCycle`]).
//! * **Iteration throttling** — rank-adjacent partners must mutually bound
//!   each other's iteration counters ([`DiagKind::IterationDivergence`]).
//!
//! # Cost
//!
//! The checks stay close to linear in the number of PEs:
//!
//! * Nbi tokens are numbered `0..T` in trace order, so a token set (a
//!   producer's stamp, or what a PE has absorbed so far) is a dense
//!   bitset of `T` bits: union, intersection and equality are word loops.
//! * The token fixpoint runs until no stamp changes, with no pass cap.
//!   Stamps only grow, so each changing pass adds a token to some stamp:
//!   with `P` producers it ends within `P × T + 1` passes (shipped
//!   programs take 2–7).
//! * Producers are bucketed by `(target PE, flag)`, so a wait's satisfying
//!   producers come from its bucket instead of a scan of every producer.
//!   Waits are kept per PE, per phase and per `(PE, phase)` for the
//!   throttle and wait-cycle checks, the orphan check looks a producer's
//!   `(target, flag)` up in the set of waited flags, and the partner sets
//!   of all PEs come from one pass over the traces.

use crate::analysis::{CommGraph, Ev, IntervalSet};
use crate::expr::Bindings;
use crate::ir::{LibNode, Op, Sdfg, Storage};
use sim_des::DiagKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One structured static diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticDiag {
    /// Shared vocabulary with the dynamic checker.
    pub kind: DiagKind,
    /// Primary PE (waiter / writer / consumer / issuer), when rank-specific.
    pub pe: Option<usize>,
    /// The other endpoint (producer / target), when known.
    pub peer: Option<usize>,
    /// The array or flag the diagnostic is about (e.g. `A` or `flag #3`).
    pub subject: String,
    /// Human-readable description naming both endpoints.
    pub message: String,
}

impl fmt::Display for StaticDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.message)
    }
}

/// The result of statically verifying one SDFG instantiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Name of the verified program.
    pub program: String,
    /// Number of rank instantiations checked.
    pub n_pes: usize,
    /// All diagnostics, in check order.
    pub diags: Vec<StaticDiag>,
}

impl VerifyReport {
    /// `true` when no diagnostic was produced.
    pub fn clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// The diagnostics of one kind.
    pub fn of_kind(&self, kind: DiagKind) -> Vec<&StaticDiag> {
        self.diags.iter().filter(|d| d.kind == kind).collect()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "static verification of `{}` over {} PEs: {}",
            self.program,
            self.n_pes,
            if self.clean() {
                "clean".to_string()
            } else {
                format!("{} diagnostic(s)", self.diags.len())
            }
        )?;
        for d in &self.diags {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// A failed verification, embeddable in error chains ([`std::error::Error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The full report that caused the failure.
    pub report: VerifyReport,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "static protocol verification failed for `{}` ({} diagnostic(s)); first: {}",
            self.report.program,
            self.report.diags.len(),
            self.report
                .diags
                .first()
                .map(|d| d.to_string())
                .unwrap_or_default()
        )
    }
}

impl std::error::Error for VerifyError {}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Statically verify `sdfg` instantiated over `n_pes` ranks under the given
/// user symbol bindings. Runs every check family and returns the combined
/// report; [`VerifyReport::clean`] gates lowering.
pub fn verify_sdfg(sdfg: &Sdfg, n_pes: usize, user: &Bindings) -> VerifyReport {
    let graph = CommGraph::build(sdfg, n_pes, user);
    let mut v = Verifier::new(sdfg, &graph);
    v.check_storage_classes();
    v.check_signal_balance();
    v.check_mpi_pairing();
    v.check_wait_cycles();
    v.check_nbi_source_reuse();
    v.check_halo_coverage();
    v.check_iteration_throttle();
    VerifyReport {
        program: sdfg.name.clone(),
        n_pes,
        diags: v.diags,
    }
}

/// Rank-independent structural conformance, used as the post-transform gate
/// where no concrete PE count is available: every waited signal must have a
/// producing node, every produced signal a wait, and (when
/// `require_symmetric`) every put must target a `GpuNvshmem` array.
pub fn verify_structure(sdfg: &Sdfg, require_symmetric: bool) -> VerifyReport {
    let mut waited: BTreeSet<u32> = BTreeSet::new();
    let mut produced: BTreeSet<u32> = BTreeSet::new();
    let mut put_targets: Vec<(u32, String)> = Vec::new();
    sdfg.visit_states(&mut |s| {
        for gop in &s.ops {
            if let Op::Lib(lib) = &gop.op {
                match lib {
                    LibNode::PutmemSignal { dst, sig, .. }
                    | LibNode::PutmemSignalBlock { dst, sig, .. } => {
                        produced.insert(*sig);
                        put_targets.push((*sig, dst.array.clone()));
                    }
                    LibNode::SignalOp { sig, .. } => {
                        produced.insert(*sig);
                    }
                    LibNode::SignalWait { sig, .. } => {
                        waited.insert(*sig);
                    }
                    LibNode::Iput { dst, .. }
                    | LibNode::PutSingle { dst, .. }
                    | LibNode::PutMapped { dst, .. } => {
                        put_targets.push((u32::MAX, dst.array.clone()));
                    }
                    _ => {}
                }
            }
        }
    });
    let mut diags = Vec::new();
    for sig in waited.difference(&produced) {
        diags.push(StaticDiag {
            kind: DiagKind::UnmatchedSignalWait,
            pe: None,
            peer: None,
            subject: format!("flag #{sig}"),
            message: format!(
                "signal_wait on flag #{sig} has no producing put-with-signal or signal_op \
                 anywhere in `{}`",
                sdfg.name
            ),
        });
    }
    for sig in produced.difference(&waited) {
        diags.push(StaticDiag {
            kind: DiagKind::UnmatchedSignalWait,
            pe: None,
            peer: None,
            subject: format!("flag #{sig}"),
            message: format!(
                "flag #{sig} is set by a put or signal_op but no PE ever waits on it in `{}`",
                sdfg.name
            ),
        });
    }
    if require_symmetric {
        let mut seen = BTreeSet::new();
        for (_, array) in &put_targets {
            if sdfg.array(array).storage != Storage::GpuNvshmem && seen.insert(array.clone()) {
                diags.push(StaticDiag {
                    kind: DiagKind::StorageClassViolation,
                    pe: None,
                    peer: None,
                    subject: array.clone(),
                    message: format!(
                        "put targets `{array}` whose storage class is {:?}, not the GpuNvshmem \
                         symmetric heap",
                        sdfg.array(array).storage
                    ),
                });
            }
        }
    }
    VerifyReport {
        program: sdfg.name.clone(),
        n_pes: 0,
        diags,
    }
}

// ---------------------------------------------------------------------------
// Internal: flattened producer / wait views over the comm graph
// ---------------------------------------------------------------------------

/// A signal producer: a put-with-signal or a bare `signal_op`.
struct Prod {
    pe: usize,
    idx: usize,
    phase: usize,
    target: usize,
    sig: u32,
    val: i64,
    /// Token of the carrying nbi put, if this producer is a put.
    token: Option<usize>,
}

struct WaitInfo {
    pe: usize,
    idx: usize,
    phase: usize,
    sig: u32,
    val: i64,
    /// Indices into `prods` of the producers that satisfy this wait, in
    /// ascending order.
    sat: Vec<usize>,
}

/// A set of nbi tokens. Tokens are numbered `0..T` in trace order, so the
/// set is a dense bitset over that universe; every set of one verifier
/// run has the same length, which makes `==` set equality.
#[derive(Clone, PartialEq, Eq)]
struct TokenSet(Vec<u64>);

impl TokenSet {
    fn new(universe: usize) -> TokenSet {
        TokenSet(vec![0; universe.div_ceil(64)])
    }

    fn insert(&mut self, token: usize) {
        self.0[token / 64] |= 1 << (token % 64);
    }

    fn contains(&self, token: usize) -> bool {
        self.0[token / 64] & (1 << (token % 64)) != 0
    }

    fn union_with(&mut self, other: &TokenSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }

    fn intersect_with(&mut self, other: &TokenSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= b;
        }
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }
}

/// An outstanding (un-quiesced) nbi put issued by the PE being walked.
struct Outstanding<'g> {
    token: usize,
    dst_pe: usize,
    src_array: &'g str,
    src_cells: &'g IntervalSet,
}

struct Verifier<'a> {
    sdfg: &'a Sdfg,
    g: &'a CommGraph,
    /// Signal producers, in trace order (PE-major, then trace index).
    prods: Vec<Prod>,
    /// Waits, in trace order (PE-major, then trace index).
    waits: Vec<WaitInfo>,
    /// Per PE: the range of its waits in `waits`.
    pe_waits: Vec<std::ops::Range<usize>>,
    /// `(target PE, flag)` → the producers setting it, in ascending index.
    by_flag: BTreeMap<(usize, u32), Vec<usize>>,
    /// Number of nbi puts, hence of tokens.
    n_tokens: usize,
    diags: Vec<StaticDiag>,
    dedup: BTreeSet<String>,
}

impl<'a> Verifier<'a> {
    fn new(sdfg: &'a Sdfg, g: &'a CommGraph) -> Verifier<'a> {
        let mut prods = Vec::new();
        let mut waits = Vec::new();
        let mut pe_waits = Vec::with_capacity(g.traces.len());
        let mut n_tokens = 0usize;
        for (pe, trace) in g.traces.iter().enumerate() {
            let first_wait = waits.len();
            for (idx, tev) in trace.evs.iter().enumerate() {
                match &tev.ev {
                    Ev::Put {
                        dst_pe, sig, nbi, ..
                    } => {
                        let token = nbi.then(|| {
                            n_tokens += 1;
                            n_tokens - 1
                        });
                        if let Some((s, v)) = sig {
                            prods.push(Prod {
                                pe,
                                idx,
                                phase: tev.phase,
                                target: *dst_pe,
                                sig: *s,
                                val: *v,
                                token,
                            });
                        }
                    }
                    Ev::Signal { dst_pe, sig, val } => prods.push(Prod {
                        pe,
                        idx,
                        phase: tev.phase,
                        target: *dst_pe,
                        sig: *sig,
                        val: *val,
                        token: None,
                    }),
                    Ev::Wait { sig, val } => waits.push(WaitInfo {
                        pe,
                        idx,
                        phase: tev.phase,
                        sig: *sig,
                        val: *val,
                        sat: Vec::new(),
                    }),
                    _ => {}
                }
            }
            pe_waits.push(first_wait..waits.len());
        }
        let mut by_flag: BTreeMap<(usize, u32), Vec<usize>> = BTreeMap::new();
        for (i, p) in prods.iter().enumerate() {
            by_flag.entry((p.target, p.sig)).or_default().push(i);
        }
        for w in &mut waits {
            if let Some(bucket) = by_flag.get(&(w.pe, w.sig)) {
                w.sat = bucket
                    .iter()
                    .copied()
                    .filter(|&i| prods[i].phase <= w.phase && prods[i].val >= w.val)
                    .collect();
            }
        }
        Verifier {
            sdfg,
            g,
            prods,
            waits,
            pe_waits,
            by_flag,
            n_tokens,
            diags: Vec::new(),
            dedup: BTreeSet::new(),
        }
    }

    fn diag(
        &mut self,
        key: String,
        kind: DiagKind,
        pe: Option<usize>,
        peer: Option<usize>,
        subject: String,
        message: String,
    ) {
        if self.dedup.insert(key) {
            self.diags.push(StaticDiag {
                kind,
                pe,
                peer,
                subject,
                message,
            });
        }
    }

    // -- check 1: storage classes ------------------------------------------

    fn check_storage_classes(&mut self) {
        let mut found = Vec::new();
        for (pe, trace) in self.g.traces.iter().enumerate() {
            for tev in &trace.evs {
                if let Ev::Put {
                    dst_pe,
                    array,
                    label,
                    ..
                } = &tev.ev
                {
                    let storage = self.sdfg.array(array).storage;
                    if storage != Storage::GpuNvshmem {
                        found.push((pe, *dst_pe, array.clone(), *label, storage));
                    }
                }
            }
        }
        for (pe, dst_pe, array, label, storage) in found {
            self.diag(
                format!("storage:{pe}:{dst_pe}:{array}"),
                DiagKind::StorageClassViolation,
                Some(pe),
                Some(dst_pe),
                array.clone(),
                format!(
                    "{label} from pe{pe} targets `{array}` on pe{dst_pe}, whose storage class \
                     is {storage:?} — the remote side has no symmetric allocation"
                ),
            );
        }
    }

    // -- check 2 + 3: signal ↔ wait balance --------------------------------

    fn check_signal_balance(&mut self) {
        // Waits without a satisfying producer.
        for wi in 0..self.waits.len() {
            let w = &self.waits[wi];
            if !w.sat.is_empty() {
                continue;
            }
            let (pe, phase, sig, val) = (w.pe, w.phase, w.sig, w.val);
            let Some(all_to) = self.by_flag.get(&(pe, sig)) else {
                let subject = format!("flag #{sig}");
                self.diag(
                    format!("wait-none:{pe}:{sig}"),
                    DiagKind::UnmatchedSignalWait,
                    Some(pe),
                    None,
                    subject.clone(),
                    format!(
                        "signal_wait on flag #{sig} (>= {val}) at pe{pe} has no producing \
                         put-with-signal or signal_op targeting pe{pe}"
                    ),
                );
                self.diag(
                    format!("wait-none-lost:{pe}:{sig}"),
                    DiagKind::LostSignal,
                    Some(pe),
                    None,
                    subject,
                    format!(
                        "unsatisfied signal_wait: pe{pe} blocks forever on flag #{sig} >= {val} \
                         — no peer ever sets that flag"
                    ),
                );
                continue;
            };
            let top = all_to
                .iter()
                .map(|&i| &self.prods[i])
                .max_by_key(|p| p.val)
                .expect("buckets are non-empty");
            let (max_val, peer) = (top.val, top.pe);
            if max_val < val {
                let subject = format!("flag #{sig}");
                self.diag(
                    format!("wait-low:{pe}:{sig}"),
                    DiagKind::UnmatchedSignalWait,
                    Some(pe),
                    Some(peer),
                    subject.clone(),
                    format!(
                        "signal_wait on flag #{sig} >= {val} at pe{pe} can never be satisfied: \
                         producers (e.g. from pe{peer}) only ever reach value {max_val}"
                    ),
                );
                self.diag(
                    format!("wait-low-lost:{pe}:{sig}"),
                    DiagKind::LostSignal,
                    Some(pe),
                    Some(peer),
                    subject,
                    format!(
                        "unsatisfied signal_wait: pe{pe} blocks forever on flag #{sig} >= {val} \
                         — expected matching put-with-signal from pe{peer} never reaches it"
                    ),
                );
            } else {
                self.diag(
                    format!("wait-skew:{pe}:{sig}"),
                    DiagKind::UnmatchedSignalWait,
                    Some(pe),
                    Some(peer),
                    format!("flag #{sig}"),
                    format!(
                        "signal_wait on flag #{sig} >= {val} at pe{pe} in iteration phase \
                         {phase} is only satisfied by producers from pe{peer} in later \
                         iterations — signal counter skew between put and wait"
                    ),
                );
            }
        }
        // Producers whose target never waits on the flag.
        let waited: BTreeSet<(usize, u32)> = self.waits.iter().map(|w| (w.pe, w.sig)).collect();
        let orphans: Vec<(usize, usize, u32)> = self
            .prods
            .iter()
            .filter(|p| !waited.contains(&(p.target, p.sig)))
            .map(|p| (p.pe, p.target, p.sig))
            .collect();
        for (from, to, sig) in orphans {
            self.diag(
                format!("orphan:{from}:{to}:{sig}"),
                DiagKind::UnmatchedSignalWait,
                Some(to),
                Some(from),
                format!("flag #{sig}"),
                format!(
                    "put-with-signal from pe{from} sets flag #{sig} on pe{to}, but pe{to} \
                     never waits on that flag"
                ),
            );
        }
    }

    // -- check 4: MPI two-sided pairing ------------------------------------

    fn check_mpi_pairing(&mut self) {
        let mut sends: Vec<(usize, usize, u32, usize, usize)> = Vec::new(); // from,to,tag,count,phase
        let mut recvs: Vec<(usize, usize, u32, usize, usize)> = Vec::new(); // at,from,tag,count,phase
        for (pe, trace) in self.g.traces.iter().enumerate() {
            for tev in &trace.evs {
                match &tev.ev {
                    Ev::Send { dst_pe, tag, count } => {
                        sends.push((pe, *dst_pe, *tag, *count, tev.phase));
                    }
                    Ev::Recv { src_pe, tag, count } => {
                        recvs.push((pe, *src_pe, *tag, *count, tev.phase));
                    }
                    _ => {}
                }
            }
        }
        for &(at, from, tag, rcount, phase) in &recvs {
            let same_phase: Vec<_> = sends
                .iter()
                .filter(|&&(f, t, g, _, p)| f == from && t == at && g == tag && p == phase)
                .collect();
            if let Some(&&(_, _, _, scount, _)) = same_phase.first() {
                if scount != rcount {
                    self.diag(
                        format!("mpi-count:{from}:{at}:{tag}"),
                        DiagKind::HaloCoverageGap,
                        Some(at),
                        Some(from),
                        format!("tag {tag}"),
                        format!(
                            "message size mismatch on tag {tag}: Isend from pe{from} carries \
                             {scount} cells but the Irecv at pe{at} expects {rcount}"
                        ),
                    );
                }
            } else if sends
                .iter()
                .any(|&(f, t, g, _, _)| f == from && t == at && g == tag)
            {
                self.diag(
                    format!("mpi-skew:{from}:{at}:{tag}"),
                    DiagKind::UnmatchedSignalWait,
                    Some(at),
                    Some(from),
                    format!("tag {tag}"),
                    format!(
                        "Irecv at pe{at} on tag {tag} only matches Isends from pe{from} in \
                         other iteration phases — message skew"
                    ),
                );
            } else {
                self.diag(
                    format!("mpi-none:{from}:{at}:{tag}"),
                    DiagKind::UnmatchedSignalWait,
                    Some(at),
                    Some(from),
                    format!("tag {tag}"),
                    format!(
                        "Irecv at pe{at} expects a message from pe{from} on tag {tag}, but \
                         pe{from} never sends one"
                    ),
                );
                self.diag(
                    format!("mpi-none-lost:{from}:{at}:{tag}"),
                    DiagKind::LostSignal,
                    Some(at),
                    Some(from),
                    format!("tag {tag}"),
                    format!(
                        "unsatisfied receive: pe{at} blocks forever waiting for tag {tag} from \
                         pe{from}"
                    ),
                );
            }
        }
        for &(from, to, tag, _, _) in &sends {
            if !recvs
                .iter()
                .any(|&(at, f, g, _, _)| at == to && f == from && g == tag)
            {
                self.diag(
                    format!("mpi-orphan:{from}:{to}:{tag}"),
                    DiagKind::UnmatchedSignalWait,
                    Some(to),
                    Some(from),
                    format!("tag {tag}"),
                    format!(
                        "Isend from pe{from} to pe{to} on tag {tag} has no matching Irecv at \
                         pe{to}"
                    ),
                );
            }
        }
    }

    // -- check 5: cross-PE wait cycles -------------------------------------

    fn check_wait_cycles(&mut self) {
        let n_phases = self.g.loop_value.len();
        // Wait indices per phase, and per `(pe, phase)`, both ascending.
        let mut phase_waits: Vec<Vec<usize>> = vec![Vec::new(); n_phases];
        let mut pe_phase_waits: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for (wi, w) in self.waits.iter().enumerate() {
            if let Some(in_phase) = phase_waits.get_mut(w.phase) {
                in_phase.push(wi);
                pe_phase_waits.entry((w.pe, w.phase)).or_default().push(wi);
            }
        }
        for (phase, in_phase) in phase_waits.iter().enumerate() {
            // Nodes: waits in this phase whose satisfying producers are all
            // in this phase (cross-phase satisfaction breaks any cycle).
            // Edges: W depends on every wait that sits *before* W's sole
            // producer in the producer PE's trace.
            let mut edges: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &wi in in_phase {
                let s = &self.waits[wi].sat;
                if s.len() != 1 || self.prods[s[0]].phase != phase {
                    continue;
                }
                let p = &self.prods[s[0]];
                let deps = pe_phase_waits.get(&(p.pe, phase)).map_or(&[][..], |ws| {
                    let before = ws.partition_point(|&oi| self.waits[oi].idx < p.idx);
                    &ws[..before]
                });
                edges.insert(wi, deps.to_vec());
            }
            if let Some(cycle) = find_cycle(&edges) {
                let pes: BTreeSet<usize> = cycle.iter().map(|&wi| self.waits[wi].pe).collect();
                let pe_list = pes
                    .iter()
                    .map(|p| format!("pe{p}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let first = cycle[0];
                let (first_pe, first_sig) = (self.waits[first].pe, self.waits[first].sig);
                self.diag(
                    format!("cycle:{phase}:{pes:?}"),
                    DiagKind::WaitCycle,
                    Some(first_pe),
                    pes.iter().find(|&&p| p != first_pe).copied(),
                    format!("flag #{first_sig}"),
                    format!(
                        "cyclic signal_wait dependency across {pe_list} in iteration phase \
                         {phase}: every wait's sole producer sits behind the next wait — \
                         guaranteed deadlock on all schedules"
                    ),
                );
                for &wi in &cycle {
                    let (wpe, wsig, wval) = {
                        let w = &self.waits[wi];
                        (w.pe, w.sig, w.val)
                    };
                    self.diag(
                        format!("cycle-lost:{wpe}:{wsig}"),
                        DiagKind::LostSignal,
                        Some(wpe),
                        None,
                        format!("flag #{wsig}"),
                        format!(
                            "unsatisfied signal_wait: pe{wpe} blocks on flag #{wsig} >= {wval} \
                             inside a cross-PE wait cycle"
                        ),
                    );
                }
            }
        }
    }

    // -- check 6: nbi source reuse (token-propagation fixpoint) ------------

    fn check_nbi_source_reuse(&mut self) {
        let n_prods = self.prods.len();
        let mut stamps = vec![TokenSet::new(self.n_tokens); n_prods];
        let mut absorbed = TokenSet::new(self.n_tokens);
        let mut scratch = TokenSet::new(self.n_tokens);
        // Tokens of the nbi puts issued since the last `quiet`.
        let mut outstanding: Vec<usize> = Vec::new();
        // Iterate to the fixpoint. Stamps only grow: a stamp is the set
        // absorbed so far on its PE, built from other stamps by union and
        // intersection only, so a pass that changes anything adds at least
        // one token to one stamp. With P producers and T tokens that bounds
        // the loop at P × T changing passes plus the final quiet one.
        let mut passes = 0;
        loop {
            passes += 1;
            debug_assert!(
                passes <= n_prods * self.n_tokens + 1,
                "nbi fixpoint exceeded its termination bound"
            );
            let mut changed = false;
            // Producers, waits and tokens are numbered in trace order, so
            // walking the traces in that order meets them by counter.
            let (mut pid, mut wi, mut token) = (0, 0, 0);
            for trace in &self.g.traces {
                absorbed.clear();
                outstanding.clear();
                for tev in &trace.evs {
                    match &tev.ev {
                        Ev::Put { nbi, sig, .. } => {
                            if sig.is_some() {
                                if stamps[pid] != absorbed {
                                    stamps[pid].clone_from(&absorbed);
                                    changed = true;
                                }
                                pid += 1;
                            }
                            if *nbi {
                                outstanding.push(token);
                                token += 1;
                            }
                        }
                        Ev::Signal { .. } => {
                            if stamps[pid] != absorbed {
                                stamps[pid].clone_from(&absorbed);
                                changed = true;
                            }
                            pid += 1;
                        }
                        Ev::Quiet => {
                            for t in outstanding.drain(..) {
                                absorbed.insert(t);
                            }
                        }
                        Ev::Wait { .. } => {
                            self.absorb_at_wait(wi, &stamps, &mut absorbed, &mut scratch);
                            wi += 1;
                        }
                        _ => {}
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Final pass: report writes overlapping un-acknowledged put sources.
        let mut found = Vec::new();
        let (mut wi, mut token) = (0, 0);
        for (pe, trace) in self.g.traces.iter().enumerate() {
            absorbed.clear();
            let mut outstanding: Vec<Outstanding> = Vec::new();
            for tev in &trace.evs {
                match &tev.ev {
                    Ev::Put {
                        dst_pe,
                        src_array,
                        src_cells,
                        nbi: true,
                        ..
                    } => {
                        outstanding.push(Outstanding {
                            token,
                            dst_pe: *dst_pe,
                            src_array,
                            src_cells,
                        });
                        token += 1;
                    }
                    Ev::Quiet => {
                        for o in outstanding.drain(..) {
                            absorbed.insert(o.token);
                        }
                    }
                    Ev::Wait { .. } => {
                        self.absorb_at_wait(wi, &stamps, &mut absorbed, &mut scratch);
                        wi += 1;
                    }
                    Ev::Write {
                        array,
                        cells,
                        label,
                    } => {
                        for o in &outstanding {
                            if o.src_array == array
                                && !absorbed.contains(o.token)
                                && cells.overlaps(o.src_cells)
                            {
                                found.push((
                                    pe,
                                    o.dst_pe,
                                    array.clone(),
                                    label.clone(),
                                    cells.intervals().first().copied().unwrap_or((0, 0)),
                                ));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        for (pe, dst_pe, array, label, (lo, hi)) in found {
            self.diag(
                format!("nbi:{pe}:{dst_pe}:{array}"),
                DiagKind::NbiSourceReuse,
                Some(pe),
                Some(dst_pe),
                array.clone(),
                format!(
                    "`{label}` at pe{pe} overwrites cells [{lo}..{hi}) of `{array}` while a \
                     non-blocking put to pe{dst_pe} may still be reading them — no quiet or \
                     acknowledging signal round trip orders the reuse"
                ),
            );
        }
    }

    /// Absorb the intersection of the satisfying producers' stamps (plus
    /// their carrying tokens) at wait `wi`, mirroring the dynamic checker's
    /// clock-join on `signal_wait` completion. `acc` is scratch space.
    fn absorb_at_wait(
        &self,
        wi: usize,
        stamps: &[TokenSet],
        absorbed: &mut TokenSet,
        acc: &mut TokenSet,
    ) {
        let Some((&first, rest)) = self.waits[wi].sat.split_first() else {
            return;
        };
        acc.clone_from(&stamps[first]);
        if let Some(t) = self.prods[first].token {
            acc.insert(t);
        }
        for &pid in rest {
            // acc ∩ (stamp ∪ {token}) = (acc ∩ stamp) ∪ ({token} ∩ acc).
            let keep = self.prods[pid].token.filter(|&t| acc.contains(t));
            acc.intersect_with(&stamps[pid]);
            if let Some(t) = keep {
                acc.insert(t);
            }
        }
        absorbed.union_with(acc);
    }

    // -- check 7: halo coverage --------------------------------------------

    fn check_halo_coverage(&mut self) {
        // Per (consumer pe, array): union of reads and of local writes.
        let mut reads: BTreeMap<(usize, String), IntervalSet> = BTreeMap::new();
        let mut writes: BTreeMap<(usize, String), IntervalSet> = BTreeMap::new();
        // Incoming puts per (dst pe, array), deduped across phases.
        type PutKey = (usize, usize, usize, usize); // src, offset, count, stride
        let mut puts: BTreeMap<(usize, String), BTreeSet<PutKey>> = BTreeMap::new();
        for (pe, trace) in self.g.traces.iter().enumerate() {
            for tev in &trace.evs {
                match &tev.ev {
                    Ev::Read { array, cells, .. } => reads
                        .entry((pe, array.clone()))
                        .or_default()
                        .union_with(cells),
                    Ev::Write { array, cells, .. } => writes
                        .entry((pe, array.clone()))
                        .or_default()
                        .union_with(cells),
                    Ev::Put {
                        dst_pe, array, dst, ..
                    } => {
                        puts.entry((*dst_pe, array.clone())).or_default().insert((
                            pe,
                            dst.offset,
                            dst.count,
                            dst.stride.max(1),
                        ));
                    }
                    _ => {}
                }
            }
        }
        let mut found = Vec::new();
        for ((pe, array), rd) in &reads {
            let halo = match writes.get(&(*pe, array.clone())) {
                Some(w) => rd.minus(w),
                None => rd.clone(),
            };
            if halo.is_empty() {
                continue;
            }
            let Some(incoming) = puts.get(&(*pe, array.clone())) else {
                // No puts feed this array: all halo cells are domain
                // boundary (initial condition), nothing to check.
                continue;
            };
            // First: which halo cells does some put fully cover?
            let mut covered = IntervalSet::new();
            for &(_, off, count, stride) in incoming {
                let hit: Vec<(usize, usize)> = halo
                    .cells()
                    .filter_map(|c| {
                        let d = c as i64 - off as i64;
                        (d % stride as i64 == 0 && (0..count as i64).contains(&(d / stride as i64)))
                            .then_some((c, c + 1))
                    })
                    .collect();
                covered.union_with(&IntervalSet::from_intervals(hit));
            }
            // Second: flag puts whose aligned run straddles the put window —
            // a contiguous halo region only partially covered. Runs that do
            // not meet any window are boundary cells, not gaps.
            for &(src, off, count, stride) in incoming {
                let mut ks: Vec<(i64, usize)> = halo
                    .cells()
                    .filter_map(|c| {
                        let d = c as i64 - off as i64;
                        (d % stride as i64 == 0).then(|| (d / stride as i64, c))
                    })
                    .collect();
                ks.sort_unstable();
                let mut run: Vec<(i64, usize)> = Vec::new();
                let flush = |run: &mut Vec<(i64, usize)>, found: &mut Vec<_>| {
                    if run.is_empty() {
                        return;
                    }
                    let (klo, khi) = (run[0].0, run[run.len() - 1].0);
                    let meets = klo < count as i64 && khi >= 0;
                    let inside = klo >= 0 && khi < count as i64;
                    if meets && !inside {
                        let miss: Vec<usize> = run
                            .iter()
                            .filter(|(k, c)| {
                                !(0..count as i64).contains(k) && !covered.contains(*c)
                            })
                            .map(|&(_, c)| c)
                            .collect();
                        if !miss.is_empty() {
                            found.push((*pe, src, array.clone(), miss[0], miss.len()));
                        }
                    }
                    run.clear();
                };
                for (k, c) in ks {
                    if let Some(&(prev, _)) = run.last() {
                        if k != prev + 1 {
                            flush(&mut run, &mut found);
                        }
                    }
                    run.push((k, c));
                }
                flush(&mut run, &mut found);
            }
        }
        for (pe, src, array, first_cell, n_miss) in found {
            self.diag(
                format!("halo:{pe}:{src}:{array}"),
                DiagKind::HaloCoverageGap,
                Some(pe),
                Some(src),
                array.clone(),
                format!(
                    "halo coverage gap on `{array}`: pe{pe} reads {n_miss} remote-fed cell(s) \
                     (first: index {first_cell}) that the put from pe{src} does not cover — \
                     they would hold stale data on every schedule"
                ),
            );
        }
    }

    // -- check 8: iteration throttling -------------------------------------

    fn check_iteration_throttle(&mut self) {
        // A loop with fewer than two iterations cannot diverge, and without
        // a loop there is no iteration counter at all.
        let distinct: BTreeSet<i64> = self.g.loop_value.iter().flatten().copied().collect();
        if distinct.len() < 2 {
            return;
        }
        let partner_sets = self.g.partner_sets();
        for (p, partners) in partner_sets.iter().enumerate() {
            let q = p + 1;
            if !partners.contains(&q) {
                // The dynamic monitor skips non-communicating rank neighbors
                // for the same reason (see `CommGraph::iteration_eligible`).
                continue;
            }
            for (a, b) in [(p, q), (q, p)] {
                let mut leads: Vec<i64> = Vec::new();
                for w in &self.waits[self.pe_waits[a].clone()] {
                    let Some(wv) = self.g.loop_value[w.phase] else {
                        continue;
                    };
                    let sat = &w.sat;
                    if sat.is_empty() || !sat.iter().all(|&pi| self.prods[pi].pe == b) {
                        continue;
                    }
                    let earliest = sat
                        .iter()
                        .filter_map(|&pi| self.g.loop_value[self.prods[pi].phase])
                        .min();
                    if let Some(pv) = earliest {
                        leads.push(wv - pv);
                    }
                }
                // Two-sided MPI throttles both ways: a receive blocks until
                // the same-iteration send arrives (lead 0), and the
                // rendezvous ack stalls the sender one message behind the
                // receiver (lead 1).
                for tev in &self.g.traces[a].evs {
                    if self.g.loop_value[tev.phase].is_none() {
                        continue;
                    }
                    match &tev.ev {
                        Ev::Recv { src_pe, .. } if *src_pe == b => leads.push(0),
                        Ev::Send { dst_pe, .. } if *dst_pe == b => leads.push(1),
                        _ => {}
                    }
                }
                if leads.is_empty() {
                    self.diag(
                        format!("iter:{p}:{q}"),
                        DiagKind::IterationDivergence,
                        Some(a),
                        Some(b),
                        format!("pe{a}/pe{b}"),
                        format!(
                            "iteration counters can diverge without bound: pe{a} exchanges \
                             data with pe{b} but never waits on pe{b}'s per-iteration signal \
                             — nothing throttles pe{a}'s progress"
                        ),
                    );
                    break;
                }
                let min_lead = *leads.iter().min().unwrap();
                if min_lead >= 2 {
                    self.diag(
                        format!("iter:{p}:{q}"),
                        DiagKind::IterationDivergence,
                        Some(a),
                        Some(b),
                        format!("pe{a}/pe{b}"),
                        format!(
                            "iteration counters can diverge by {min_lead}: the tightest wait \
                             at pe{a} only requires pe{b} to be {min_lead} iterations behind"
                        ),
                    );
                    break;
                }
            }
        }
    }
}

/// Find one cycle in a dependency graph, returned as the list of nodes on
/// it, or `None` when the graph is acyclic.
fn find_cycle(edges: &BTreeMap<usize, Vec<usize>>) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: BTreeMap<usize, Color> = BTreeMap::new();
    let mut stack: Vec<usize> = Vec::new();

    fn dfs(
        u: usize,
        edges: &BTreeMap<usize, Vec<usize>>,
        color: &mut BTreeMap<usize, Color>,
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        color.insert(u, Color::Grey);
        stack.push(u);
        for &v in edges.get(&u).map(|d| d.as_slice()).unwrap_or(&[]) {
            match color.get(&v).copied().unwrap_or(Color::White) {
                Color::Grey => {
                    let pos = stack.iter().position(|&x| x == v).unwrap();
                    return Some(stack[pos..].to_vec());
                }
                Color::White => {
                    if let Some(c) = dfs(v, edges, color, stack) {
                        return Some(c);
                    }
                }
                Color::Black => {}
            }
        }
        stack.pop();
        color.insert(u, Color::Black);
        None
    }

    for &u in edges.keys() {
        if color.get(&u).copied().unwrap_or(Color::White) == Color::White {
            if let Some(c) = dfs(u, edges, &mut color, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{Jacobi1dSetup, Jacobi2dSetup};
    use crate::transform::to_cpu_free;

    #[test]
    fn shipped_jacobi1d_mpi_verifies_clean() {
        let setup = Jacobi1dSetup::new(8, 4, 4);
        let report = verify_sdfg(&setup.sdfg, 4, &setup.user_bindings());
        assert!(report.clean(), "unexpected diagnostics:\n{report}");
    }

    #[test]
    fn shipped_jacobi1d_cpu_free_verifies_clean() {
        for n_pes in [1, 2, 3, 4] {
            let setup = Jacobi1dSetup::new(8, 4, n_pes);
            let user = setup.user_bindings();
            let mut sdfg = setup.sdfg;
            to_cpu_free(&mut sdfg).unwrap();
            let report = verify_sdfg(&sdfg, n_pes, &user);
            assert!(
                report.clean(),
                "n_pes={n_pes}: unexpected diagnostics:\n{report}"
            );
        }
    }

    #[test]
    fn shipped_jacobi2d_cpu_free_verifies_clean() {
        for n_pes in [1, 2, 4, 8] {
            let setup = Jacobi2dSetup::new(8, 8, 3, n_pes);
            let user = setup.user_bindings();
            let mut sdfg = setup.sdfg;
            to_cpu_free(&mut sdfg).unwrap();
            let report = verify_sdfg(&sdfg, n_pes, &user);
            assert!(
                report.clean(),
                "n_pes={n_pes}: unexpected diagnostics:\n{report}"
            );
        }
    }

    #[test]
    fn structural_gate_accepts_transformed_jacobi() {
        let mut sdfg = Jacobi1dSetup::new(8, 3, 4).sdfg;
        to_cpu_free(&mut sdfg).unwrap();
        let report = verify_structure(&sdfg, true);
        assert!(report.clean(), "{report}");
    }
}
