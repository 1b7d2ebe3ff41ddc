//! Host-speed calibration of the end-to-end timings.
//!
//! The benchmark runs on shared hosts whose speed drifts with the load of
//! their neighbours, by up to a factor of two over tens of minutes, and
//! the drift slows the simulator's cells and any other code alike. A
//! fixed calibration kernel, which does not call the simulator, runs
//! after each cell of every timed phase, and for at least [`SHARE`] of
//! the phase's time. The phase's *slowdown* is the kernel's median time
//! in the phase over [`REF_KERNEL_MS`], its time on the reference host;
//! the phase's timings are divided by it. A change to the simulator moves its cells
//! and not the kernel, so it moves the scaled timings as it moves the raw
//! ones.
//!
//! The kernel does, in about equal parts, the three kinds of host work the
//! simulator does: compute on fresh collections (hashing, sorting, tree
//! look-ups, allocation); a baton passed between two threads, one context
//! switch per pass, as between the simulator's agent threads; and
//! dependent loads spread over a table larger than a core's caches. A
//! host's speed drifts differently for each kind: with the first two
//! alone, the kernel sped up by a quarter in quiet spells when the
//! simulator sped up by a tenth, and the scaled timings overshot.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats::median;

/// Kernel time is kept at least at this share of the work it is
/// interleaved with.
const SHARE: f64 = 0.05;
/// Median kernel time, in ms, on the reference host: `--seconds 25` runs
/// on 2 vCPUs of an `Intel(R) Xeon(R) Processor` at 2.0 GHz, pinned to one.
pub const REF_KERNEL_MS: f64 = 3.0;
/// Keys hashed, sorted and looked up per kernel call.
const KEYS: u64 = 4096;
/// Baton passes per kernel call.
const HANDOFFS: usize = 100;
/// Entries of the table the loads chase through: 4 MiB of `u32`.
pub const TABLE_LEN: usize = 1 << 20;
/// Dependent loads per kernel call.
const LOADS: usize = 6000;

/// Whether it is the partner's turn, and whether the partner is to stop.
struct Baton {
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

/// A timed phase's calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Median kernel time over [`REF_KERNEL_MS`].
    pub slowdown: f64,
    /// Kernel runs the median rests on.
    pub runs: usize,
    /// Host seconds the kernel took in all.
    pub kernel_s: f64,
}

/// Interleaves the calibration kernel with timed work; see the module
/// documentation.
pub struct Calib {
    share: f64,
    /// The baton and the partner thread, started at the first kernel run.
    partner: Option<(Arc<Baton>, JoinHandle<()>)>,
    /// Kernel seconds still owed to the current phase.
    debt_s: f64,
    /// Kernel times (ms) of the current phase.
    kernel_ms: Vec<f64>,
    /// One cycle through every entry: `table[i]` is the entry after `i`.
    table: Vec<u32>,
    /// The entry the loads have reached.
    at: u32,
}

impl Calib {
    /// A calibrator that runs the kernel for at least [`SHARE`] of the
    /// work. Its
    /// table is built and resident from here on, so that it adds exactly
    /// [`table_mb`] to the process's peak memory.
    pub fn new() -> Calib {
        Calib::with(SHARE, cycle(TABLE_LEN))
    }

    /// A calibrator that never runs the kernel, for passes whose timings
    /// are not scaled.
    pub fn off() -> Calib {
        Calib::with(0.0, Vec::new())
    }

    fn with(share: f64, table: Vec<u32>) -> Calib {
        Calib {
            share,
            partner: None,
            debt_s: 0.0,
            kernel_ms: Vec::new(),
            table,
            at: 0,
        }
    }

    /// Account `work_s` seconds of timed work, then run the kernel once,
    /// and on until it again makes up its share of the phase. Call it
    /// between timed sections, never inside one. Running it after every
    /// section, however short, leaves each the same cache state to start
    /// from; were it to run after some cells and not others, the cells
    /// after it would start colder, and which ones those are would vary
    /// from run to run.
    pub fn after(&mut self, work_s: f64) {
        if self.share == 0.0 {
            return;
        }
        self.debt_s += self.share * work_s;
        loop {
            let t0 = Instant::now();
            black_box(compute(self.kernel_ms.len() as u64));
            self.handoffs();
            for _ in 0..LOADS {
                self.at = self.table[self.at as usize];
            }
            black_box(self.at);
            let s = t0.elapsed().as_secs_f64();
            self.kernel_ms.push(s * 1e3);
            self.debt_s -= s;
            if self.debt_s <= 0.0 {
                return;
            }
        }
    }

    /// The calibration of the phase since the last call, or `None` if the
    /// kernel did not run in it; starts the next phase.
    pub fn take_phase(&mut self) -> Option<Phase> {
        let out = median(&self.kernel_ms).map(|ms| Phase {
            slowdown: ms / REF_KERNEL_MS,
            runs: self.kernel_ms.len(),
            kernel_s: self.kernel_ms.iter().sum::<f64>() / 1e3,
        });
        self.kernel_ms.clear();
        self.debt_s = 0.0;
        out
    }

    /// Pass the baton to the partner and back, [`HANDOFFS`] times.
    fn handoffs(&mut self) {
        let (baton, _) = self.partner.get_or_insert_with(|| {
            let baton = Arc::new(Baton {
                state: Mutex::new((false, false)),
                cv: Condvar::new(),
            });
            let b = Arc::clone(&baton);
            let partner = std::thread::spawn(move || {
                let mut g = b.state.lock().expect("baton");
                loop {
                    while !g.0 && !g.1 {
                        g = b.cv.wait(g).expect("baton");
                    }
                    if g.1 {
                        return;
                    }
                    g.0 = false;
                    b.cv.notify_one();
                }
            });
            (baton, partner)
        });
        let mut g = baton.state.lock().expect("baton");
        for _ in 0..HANDOFFS {
            g.0 = true;
            baton.cv.notify_one();
            while g.0 {
                g = baton.cv.wait(g).expect("baton");
            }
        }
    }
}

impl Drop for Calib {
    fn drop(&mut self) {
        if let Some((baton, partner)) = self.partner.take() {
            baton.state.lock().expect("baton").1 = true;
            baton.cv.notify_one();
            partner.join().expect("calibration partner thread");
        }
    }
}

/// MiB of the calibration table, which [`Calib::new`] keeps resident.
pub fn table_mb() -> f64 {
    (TABLE_LEN * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
}

/// A successor table that visits all `n` entries in one cycle, in a
/// pseudo-random order (Sattolo's shuffle), so that every load depends on
/// the one before and lands far from it.
fn cycle(n: usize) -> Vec<u32> {
    let mut t: Vec<u32> = (0..n as u32).collect();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t.swap(i, (x % i as u64) as usize);
    }
    t
}

/// Hash, sort and look up [`KEYS`] pseudo-random keys in fresh
/// collections.
fn compute(salt: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15 ^ (salt % 8);
    let mut keys = Vec::with_capacity(KEYS as usize);
    let mut map = HashMap::new();
    let mut tree = BTreeMap::new();
    for i in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys.push(x);
        *map.entry(x % 1024).or_insert(0u64) += i;
        tree.insert(x % 4096, i);
    }
    keys.sort_unstable();
    let mut acc = 0u64;
    for k in keys.iter().step_by(3) {
        acc ^= map.get(&(k % 1024)).copied().unwrap_or(0);
        acc = acc.wrapping_add(tree.range(k % 4096..).next().map_or(0, |(_, v)| *v));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs_for_its_share_of_the_work() {
        let mut cal = Calib::new();
        assert_eq!(cal.take_phase(), None);
        cal.after(0.2);
        cal.after(0.2);
        let phase = cal.take_phase().expect("kernel ran");
        assert!(phase.kernel_s >= SHARE * 0.4, "{phase:?}");
        assert!(phase.runs >= 1);
        assert!(phase.slowdown > 0.0 && phase.slowdown.is_finite());
        // A new phase starts with nothing owed and no runs.
        assert_eq!(cal.take_phase(), None);
    }

    #[test]
    fn the_table_is_one_cycle_through_every_entry() {
        let t = cycle(1000);
        let (mut at, mut seen) = (0usize, vec![false; t.len()]);
        for _ in 0..t.len() {
            assert!(!seen[at], "entry {at} visited twice");
            seen[at] = true;
            at = t[at] as usize;
        }
        assert_eq!(at, 0);
        assert_eq!(table_mb(), 4.0);
    }

    #[test]
    fn an_off_calibrator_never_runs_the_kernel() {
        let mut cal = Calib::off();
        cal.after(1.0);
        assert_eq!(cal.take_phase(), None);
        assert!(cal.partner.is_none() && cal.table.is_empty());
    }
}
