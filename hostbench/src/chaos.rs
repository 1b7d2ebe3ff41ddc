//! `chaos-recovery`: seeded fault schedules through the fault-tolerant
//! Jacobi and CG runners on the four node presets, functional, with the
//! happens-before checker on, each classified by `chaos::run_schedule`.
//!
//! Many short machines: per-run set-up and teardown, the checker,
//! functional data writes, reliable puts and fault-tolerant collectives.
//! This is the only workload whose inputs depend on the seed.

use std::time::Instant;

use cpufree_bench::chaos::{
    baseline, run_schedule, Baseline, ChaosWorkload, CHAOS_HORIZON_US, CHAOS_ITERS, CHAOS_NODES,
};
use gpu_sim::TopologyKind;
use sim_des::{us, ChaosOutcome, FaultPlan, SimTime};

use crate::calib::Calib;
use crate::spans::Tracer;
use crate::stats::{median, Metrics};
use crate::{Pass, Workload};

/// Fault plans per benchmark seed: seed `s` drives plan seeds
/// `64 s .. 64 s + 63`, so distinct seeds never share a schedule. Plans
/// differ in cost (a crash forces a restart), and 64 of them make a
/// pass's cost nearly independent of the seed.
pub const PLANS_PER_SEED: u64 = 64;

/// Baselines and fault plans of one seed.
pub struct Inputs {
    baselines: Vec<(ChaosWorkload, TopologyKind, Baseline)>,
    plans: Vec<(u64, FaultPlan)>,
}

/// The workload; keeps the last pass's outcomes.
pub struct Chaos {
    seed: u64,
    outcomes: Vec<ChaosOutcome>,
}

impl Chaos {
    /// The workload for benchmark seed `seed`.
    pub fn new(seed: u64) -> Chaos {
        Chaos {
            seed,
            outcomes: Vec::new(),
        }
    }
}

fn span_name(w: ChaosWorkload) -> &'static str {
    match w {
        ChaosWorkload::Jacobi => "stencil.ft_cell",
        ChaosWorkload::Cg => "solvers.ft_cell",
    }
}

impl Workload for Chaos {
    type Inputs = Inputs;

    /// Runs the fault-free baselines of every (workload, node preset) cell
    /// and draws the seed's fault plans.
    fn setup(&mut self, tr: &mut Tracer) -> Inputs {
        let mut baselines = Vec::new();
        for w in ChaosWorkload::ALL {
            for topo in TopologyKind::node_presets() {
                let b = tr.span("chaos.baseline", |_| baseline(w, topo));
                baselines.push((w, topo, b));
            }
        }
        let horizon = SimTime::ZERO + us(CHAOS_HORIZON_US);
        let first = self
            .seed
            .checked_mul(PLANS_PER_SEED)
            .expect("--seed is range-checked where it is parsed");
        let plans = tr.span("des.fault_plans", |_| {
            (first..first + PLANS_PER_SEED)
                .map(|s| {
                    (
                        s,
                        FaultPlan::from_seed(s, CHAOS_NODES, horizon, CHAOS_ITERS),
                    )
                })
                .collect()
        });
        Inputs { baselines, plans }
    }

    /// A cell is one fault plan on one preset, replayed through both
    /// runners: a Jacobi schedule costs about a third of a CG one, so
    /// per-schedule times are bimodal with half the samples in each mode,
    /// and their median would sit in the gap between the modes.
    fn pass(&mut self, inputs: &Inputs, tr: &mut Tracer, cal: &mut Calib) -> Pass {
        let mut cells = Vec::new();
        let mut failures = Vec::new();
        let mut outcomes = Vec::new();
        for topo in TopologyKind::node_presets() {
            for (seed, plan) in &inputs.plans {
                let t0 = Instant::now();
                let mut violations = Vec::new();
                for (w, _, base) in inputs.baselines.iter().filter(|(_, t, _)| *t == topo) {
                    let outcome = tr.span(span_name(*w), |_| run_schedule(*w, topo, plan, base));
                    if outcome.is_violation() {
                        violations.push(format!("{}: {}", w.name(), outcome.label()));
                    }
                    outcomes.push(outcome);
                }
                let s = t0.elapsed().as_secs_f64();
                cells.push(s * 1e3);
                cal.after(s);
                if !violations.is_empty() {
                    failures.push(format!(
                        "{}_seed{seed}: {}",
                        topo.name(),
                        violations.join(", ")
                    ));
                }
            }
        }
        if !self.outcomes.is_empty() && self.outcomes != outcomes {
            failures.push("outcomes differ between passes of one seed".to_string());
        }
        self.outcomes = outcomes;
        Pass::new(cells, failures)
    }

    fn layer_metrics(&self, tr: &Tracer, since: u64, m: &mut Metrics) {
        let p50 = |name: &str| median(&tr.durations_ms(name, since)).expect("traced schedules");
        m.set("stencil.ft_cell_ms_p50", p50("stencil.ft_cell"));
        m.set("solvers.ft_cell_ms_p50", p50("solvers.ft_cell"));
        let baselines = tr.durations_ms("chaos.baseline", since);
        let per_setup = ChaosWorkload::ALL.len() * TopologyKind::node_presets().len();
        m.set("chaos.baseline_ms", baselines[..per_setup].iter().sum());
        let count =
            |f: fn(&ChaosOutcome) -> bool| self.outcomes.iter().filter(|o| f(o)).count() as f64;
        m.set("chaos.schedules", self.outcomes.len() as f64);
        m.set(
            "chaos.completed_identical",
            count(|o| *o == ChaosOutcome::CompletedIdentical),
        );
        m.set(
            "chaos.completed_degraded",
            count(|o| matches!(o, ChaosOutcome::CompletedDegraded { .. })),
        );
        m.set(
            "chaos.attributed",
            count(|o| {
                matches!(
                    o,
                    ChaosOutcome::AttributedTimeout { .. }
                        | ChaosOutcome::AttributedDiagnostic { .. }
                )
            }),
        );
        m.set("chaos.violations", count(ChaosOutcome::is_violation));
    }
}
