//! Sample statistics and the metric catalogue.
//!
//! Every metric the benchmark can print is declared once in
//! [`END_TO_END`] or [`PER_LAYER`]; `BENCHMARK.json` must list the same
//! names and units (checked by the tests below).

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Mean of the middle fifth of `samples`: those between the 40th and the
/// 60th percentile, and at least the median. Where the samples form
/// clusters with a gap near the middle, as the cells of a sweep over a few
/// problem sizes do, the median jumps across the gap when a few samples
/// move; this mean moves in proportion to them. `None` when there are no
/// samples.
pub fn middle_fifth_mean(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    // As many samples below the window as above it.
    let lo = 2 * n / 5;
    let hi = n - lo;
    Some(v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64)
}

/// The nearest-rank `q`-quantile of `samples`, or `None` unless at least
/// ten samples lie above it. A tail percentile read from fewer samples
/// is one or two outliers, not a distribution.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let v = sorted(samples);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    (v.len() >= rank + 10).then(|| v[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which result line a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Printed by an untraced run (`--trace 0`).
    EndToEnd,
    /// Printed by a traced run (`--trace 1`).
    PerLayer,
}

/// The end-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
];

/// The per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("des.handoff_ns", "ns"),
    ("des.barrier_ns", "ns"),
    ("des.spawn_us", "us"),
    ("des.trace_push_ns", "ns"),
    ("des.resource_reserve_ns", "ns"),
    ("des.spans", "count"),
    ("des.host_ns_per_span", "ns"),
    ("gpu.topology_build_ms", "ms"),
    ("gpu.transport_charge_ns", "ns"),
    ("gpu.linkclocks_charge_ns", "ns"),
    ("gpu.check_overhead_ratio", "ratio"),
    ("shmem.world_init_ms", "ms"),
    ("core.runstats_ms", "ms"),
    ("core.total_ns", "ns"),
    ("core.comm_busy_ns", "ns"),
    ("core.sync_busy_ns", "ns"),
    ("core.compute_busy_ns", "ns"),
    ("stencil.ft_cell_ms_p50", "ms"),
    ("solvers.ft_cell_ms_p50", "ms"),
    ("chaos.baseline_ms", "ms"),
    ("chaos.schedules", "count"),
    ("chaos.completed_identical", "count"),
    ("chaos.completed_degraded", "count"),
    ("chaos.attributed", "count"),
    ("chaos.violations", "count"),
    ("dace.cells", "count"),
    ("dace.transform_ms_p50", "ms"),
    ("dace.verify_ms_p50", "ms"),
    ("dace.predict_ms_p50", "ms"),
    ("dace.predict_ms_p90", "ms"),
    ("dace.extrapolated_ratio", "ratio"),
    ("dace.contended_cells", "count"),
    ("dace.verify_diags", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// The catalogue entries of one kind.
pub fn catalogue(kind: Kind) -> &'static [(&'static str, &'static str)] {
    match kind {
        Kind::EndToEnd => END_TO_END,
        Kind::PerLayer => PER_LAYER,
    }
}

/// Collected metric values, printed in catalogue order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Record `name`; panics on a name outside the catalogue or a
    /// non-finite value, both bugs in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The JSON `metrics` object for `kind`. Panics if a catalogued metric
    /// of that kind was never recorded.
    pub fn to_json(&self, kind: Kind) -> String {
        let fields: Vec<String> = catalogue(kind)
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name as the result line requires it: starts with a letter or
    /// digit, at most 64 letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A unit as the result line requires it: 1 to 16 letters, digits, `_`,
    /// `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn middle_fifth_mean_is_symmetric_and_smooth() {
        assert_eq!(middle_fifth_mean(&[]), None);
        assert_eq!(middle_fifth_mean(&[7.0]), Some(7.0));
        // 10 samples: the 5th and 6th, i.e. the median.
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(middle_fifth_mean(&ten), Some(5.5));
        // Two clusters of 50 with a gap at the middle. When one sample
        // crosses the gap, the median jumps by half the gap; the mean of
        // samples 41..60 moves by about a twentieth of it.
        let mut v: Vec<f64> = (0..50).map(|i| 20.0 + f64::from(i) * 0.01).collect();
        v.extend((0..50).map(|i| 30.0 + f64::from(i) * 0.01));
        let (median_before, before) = (median(&v).unwrap(), middle_fifth_mean(&v).unwrap());
        v[0] = 31.0;
        let (median_after, after) = (median(&v).unwrap(), middle_fifth_mean(&v).unwrap());
        assert!(median_after - median_before > 4.7);
        assert!(after - before < 0.6, "{before} -> {after}");
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is the 90th value with exactly ten above it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        // 99 samples: rank 90 leaves nine above, so p90 is not reported.
        assert_eq!(percentile(&hundred[..99], 0.9), None);
        // The median of 20 samples has ten above it; of 19, nine.
        assert_eq!(percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&hundred[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=120).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.9), Some(108.0));
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("des.handoff_ns"));
        assert!(valid_name("9-lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert_eq!(all.iter().filter(|n| *n == name).count(), 1, "{name} twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (key, kind) in [
            ("end_to_end", Kind::EndToEnd),
            ("per_layer", Kind::PerLayer),
        ] {
            let listed = entries(&doc, key);
            let expected: Vec<(String, String)> = catalogue(kind)
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                listed, expected,
                "BENCHMARK.json {key} differs from the catalogue"
            );
        }
    }

    /// `(name, unit)` of every object in the array under `key`, in order.
    fn entries(doc: &str, key: &str) -> Vec<(String, String)> {
        let start = doc.find(&format!("\"{key}\"")).expect("key present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn field(obj: &str, key: &str) -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    }
}
