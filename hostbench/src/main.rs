//! Host-time benchmark of the CPU-Free simulator.
//!
//! ```text
//! hostbench --workload <cluster-jacobi|compile-predict|chaos-recovery>
//!           --seed <n> --seconds <s> --trace <0|1>
//! hostbench --record
//! ```
//!
//! `--trace 0` sets the workload up several times, then repeats timed
//! passes over it for `--seconds` and prints the end-to-end metrics.
//! `--trace 1` runs the per-layer probes and one traced pass of every
//! workload, alternates untraced and traced passes of the named one for
//! `--seconds`, and prints the per-layer metrics. The last line of
//! standard output is the JSON result. `--record` prints the recorded
//! outputs (`src/recorded.rs`) the oracles compare against.
//!
//! One thread drives every call; the simulator's own agent threads are
//! part of the program being measured.

mod calib;
mod chaos;
mod cluster;
mod compile;
mod host;
mod probes;
mod recorded;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use calib::Calib;
use spans::Tracer;
use stats::{median, middle_fifth_mean, percentile, Kind, Metrics};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["cluster-jacobi", "compile-predict", "chaos-recovery"];

/// Set-up is repeated at least this many times, and until it has taken
/// [`SETUP_MIN_S`] seconds in all, so that its median is steady.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 2.0;
const SETUP_MAX_REPS: usize = 100_000;

/// The outcome of one timed pass over a workload's cells.
pub struct Pass {
    /// Host milliseconds of each cell.
    cells_ms: Vec<f64>,
    /// One line per failed cell.
    failures: Vec<String>,
}

impl Pass {
    /// A pass of `cells_ms.len()` cells of which `failures.len()` failed.
    pub fn new(cells_ms: Vec<f64>, failures: Vec<String>) -> Pass {
        Pass { cells_ms, failures }
    }
}

/// A benchmark workload.
pub trait Workload {
    /// What set-up builds and the timed calls consume.
    type Inputs;
    /// Build the inputs (timed as `setup_s`).
    fn setup(&mut self, tr: &mut Tracer) -> Self::Inputs;
    /// One timed pass over every cell, with each cell's output checked;
    /// `cal.after` is called with each cell's host time once it returns.
    fn pass(&mut self, inputs: &Self::Inputs, tr: &mut Tracer, cal: &mut Calib) -> Pass;
    /// Per-layer metrics from the traced calls made since `since`.
    fn layer_metrics(&self, tr: &Tracer, since: u64, m: &mut Metrics);
}

/// Evaluates `$body` with `$w` bound to the workload named `$name`
/// (already validated by [`parse_args`]).
macro_rules! with_workload {
    ($name:expr, $seed:expr, |$w:ident| $body:expr) => {
        match $name {
            "cluster-jacobi" => {
                let $w = &mut cluster::Cluster::default();
                $body
            }
            "compile-predict" => {
                let $w = &mut compile::Compile::new();
                $body
            }
            _ => {
                let $w = &mut chaos::Chaos::new($seed);
                $body
            }
        }
    };
}

/// Cells attempted and failed over the whole run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn add(&mut self, pass: &Pass) {
        self.attempted += pass.cells_ms.len();
        self.failed += pass.failures.len();
        for f in &pass.failures {
            eprintln!("FAILED {f}");
        }
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or(format!("unknown workload {value}; one of {WORKLOADS:?}"))?,
                );
            }
            "--seed" => {
                let s: u64 = value.parse().map_err(|_| format!("bad --seed {value}"))?;
                // The seed's fault plans end at (s + 1) * PLANS_PER_SEED.
                s.checked_add(1)
                    .and_then(|n| n.checked_mul(chaos::PLANS_PER_SEED))
                    .ok_or(format!("--seed {value} too large"))?;
                seed = Some(s);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value} outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--record"] {
        print!("{}", recorded_source());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::label());
    let seed_note = if args.workload == "chaos-recovery" {
        format!(
            "fault plans {}..{}",
            args.seed * chaos::PLANS_PER_SEED,
            (args.seed + 1) * chaos::PLANS_PER_SEED
        )
    } else {
        "inputs do not depend on the seed".to_string()
    };
    println!(
        "workload: {} seed={} ({seed_note}) seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let kind = if args.trace {
        traced(&args, &mut tally, &mut m);
        Kind::PerLayer
    } else {
        with_workload!(args.workload, args.seed, |w| end_to_end(
            w, &args, &mut tally, &mut m
        ));
        Kind::EndToEnd
    };
    for (name, unit) in stats::catalogue(kind) {
        let v = m.get(name).expect("every catalogued metric measured");
        println!("  {name:<28} {v:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        m.to_json(kind)
    );
    ExitCode::SUCCESS
}

/// Set `w` up repeatedly, with the calibration kernel run between the
/// set-ups; the last inputs and every raw set-up time (s).
fn setups<W: Workload>(w: &mut W, tr: &mut Tracer, cal: &mut Calib) -> (W::Inputs, Vec<f64>) {
    let mut times = Vec::new();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let inputs = w.setup(tr);
        let s = t0.elapsed().as_secs_f64();
        times.push(s);
        cal.after(s);
        let enough = times.len() >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_MIN_S;
        if enough || times.len() >= SETUP_MAX_REPS {
            return (inputs, times);
        }
    }
}

/// The untraced run: end-to-end metrics of one workload. Every timing
/// is divided by the slowdown of its phase (the set-ups, or one pass),
/// which scales it to the reference host's speed; see [`calib`].
fn end_to_end<W: Workload>(w: &mut W, args: &Args, tally: &mut Tally, m: &mut Metrics) {
    let mut tr = Tracer::new(false);
    let mut cal = Calib::new();
    let (inputs, setup) = setups(w, &mut tr, &mut cal);
    let setup_phase = cal.take_phase().expect("kernel ran after the set-ups");
    let (mut walls, mut slowdowns) = (Vec::new(), Vec::new());
    let (mut raw_cells, mut cells) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let pass = w.pass(&inputs, &mut tr, &mut cal);
        let elapsed = t0.elapsed().as_secs_f64();
        let phase = cal.take_phase().expect("kernel ran after the cells");
        walls.push(elapsed - phase.kernel_s);
        slowdowns.push(phase.slowdown);
        tally.add(&pass);
        raw_cells.extend_from_slice(&pass.cells_ms);
        cells.extend(pass.cells_ms.iter().map(|ms| ms / phase.slowdown));
    }
    let setup_scaled: Vec<f64> = setup.iter().map(|s| s / setup_phase.slowdown).collect();
    let walls_scaled: Vec<f64> = walls.iter().zip(&slowdowns).map(|(x, k)| x / k).collect();
    let p50 = middle_fifth_mean(&cells).expect("at least one cell");
    let p90 = percentile(&cells, 0.9);
    println!(
        "samples: {} set-ups, {} passes, {} cells{}",
        setup.len(),
        walls.len(),
        cells.len(),
        if p90.is_none() {
            " (too few for p90: cell_ms_p90 repeats cell_ms_p50)"
        } else {
            ""
        }
    );
    let (lo, hi) = setup
        .iter()
        .fold((f64::MAX, 0.0f64), |(l, h), &x| (l.min(x), h.max(x)));
    println!(
        "set-up s (raw): min {lo:.6} median {:.6} max {hi:.6}; slowdown {:.4} over {} kernel runs",
        median(&setup).expect("at least one set-up"),
        setup_phase.slowdown,
        setup_phase.runs
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("pass wall s (raw): {}", list(&walls));
    println!("pass slowdown: {}", list(&slowdowns));
    println!("pass wall s (scaled): {}", list(&walls_scaled));
    println!(
        "cell ms (raw): p50 {:.4} p90 {}",
        middle_fifth_mean(&raw_cells).expect("at least one cell"),
        percentile(&raw_cells, 0.9).map_or("-".to_string(), |x| format!("{x:.4}"))
    );
    m.set(
        "setup_s",
        median(&setup_scaled).expect("at least one set-up"),
    );
    m.set("wall_s", median(&walls_scaled).expect("at least one pass"));
    m.set("cell_ms_p50", p50);
    m.set("cell_ms_p90", p90.unwrap_or(p50));
    // The calibration table is resident from before the first set-up on.
    m.set("peak_rss_mb", host::peak_rss_mb() - calib::table_mb());
    m.set(
        "pass_ratio",
        (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
    );
}

/// The traced run: per-layer probes, then every workload's layers.
fn traced(args: &Args, tally: &mut Tally, m: &mut Metrics) {
    let start = Instant::now();
    let mut tr = Tracer::new(true);
    probes::run(&mut tr, m);
    // The named workload runs last, so that its alternating passes fill
    // what is left of `--seconds`.
    let others = WORKLOADS.into_iter().filter(|w| *w != args.workload);
    for name in others.chain([args.workload]) {
        with_workload!(name, args.seed, |w| layers(
            w, name, args, start, &mut tr, tally, m
        ));
    }

    println!(
        "{:<28} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, count, total, own) in tr.summary() {
        println!("{name:<28} {count:>7} {total:>12.3} {own:>12.3}");
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-seed{}.jsonl", args.workload, args.seed);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_json_lines())) {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => eprintln!("note: spans not written to {path}: {e}"),
    }
}

/// Set `w` up and run traced passes over it. The selected workload
/// alternates untraced and traced passes, at least one of each and until
/// the traced run (which began at `start`) has lasted `--seconds`; this
/// gives `bench.trace_overhead_ratio`. The others run one traced pass.
fn layers<W: Workload>(
    w: &mut W,
    name: &str,
    args: &Args,
    start: Instant,
    tr: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let since = tr.mark();
    let inputs = w.setup(tr);
    let mut cal = Calib::off();
    if name != args.workload {
        tally.add(&w.pass(&inputs, tr, &mut cal));
    } else {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            for on in [false, true] {
                tr.set_enabled(on);
                let t0 = Instant::now();
                let pass = w.pass(&inputs, tr, &mut cal);
                let wall = t0.elapsed().as_secs_f64();
                if on { &mut traced } else { &mut plain }.push(wall);
                tally.add(&pass);
            }
        }
        tr.set_enabled(true);
        let ratio = median(&traced).expect("traced pass") / median(&plain).expect("plain pass");
        println!(
            "{name}: {} untraced and {} traced passes",
            plain.len(),
            traced.len()
        );
        m.set("bench.trace_overhead_ratio", ratio);
    }
    w.layer_metrics(tr, since, m);
}

/// `src/recorded.rs` as the current build computes it.
fn recorded_source() -> String {
    let (total, spans) = cluster::record();
    let mut s = String::from(
        "//! Outputs the oracles compare against, recorded from a build whose\n\
         //! virtual-time outputs match the committed `BENCH_*.json` files.\n\
         //! Regenerate with `cargo run --release -- --record > src/recorded.rs`.\n\n",
    );
    s += "/// Virtual end time of the `cluster-jacobi` run, ns.\n";
    s += &format!("pub const CLUSTER_TOTAL_NS: u64 = {total};\n");
    s += "/// Trace spans of the `cluster-jacobi` run.\n";
    s += &format!("pub const CLUSTER_SPANS: u64 = {spans};\n\n");
    s += "/// `(program, stage, gpus, fabric, predicted_ns)` of every `compile-predict` cell.\n";
    s += "pub const PREDICTED_NS: &[(&str, &str, usize, &str, u64)] = &[\n";
    for ((program, stage, gpus, fabric), ns) in compile::record() {
        s += &format!("    (\"{program}\", \"{stage}\", {gpus}, \"{fabric}\", {ns}),\n");
    }
    s + "];\n"
}
