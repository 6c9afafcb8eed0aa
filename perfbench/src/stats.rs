//! Measurement helpers shared by every workload: a latency histogram
//! with the percentile discipline, failure accounting, metric-name
//! validation and the result line the benchmark prints last.

use std::fmt::Write as _;
use std::time::Duration;

/// Fewest samples that must lie beyond a percentile before it is
/// reported; below that the "percentile" is just one of the few largest
/// samples.
pub const MIN_TAIL_SAMPLES: u64 = 10;

/// Sub-buckets per power of two: every bucket spans under 0.8% of its
/// lower bound, and quantiles interpolate inside the bucket.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A log-linear histogram of durations in nanoseconds. Constant memory,
/// so recording millions of calls does not inflate the measured
/// process's peak RSS.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    ((shift as u64 + 1) * SUB + sub) as usize
}

/// Lower bound and width of bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = i / SUB - 1;
    let sub = i % SUB;
    (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one sample given in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// The `q`-quantile in nanoseconds, or `None` when fewer than
    /// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        let rank = quantile_rank(self.count, q)?;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if below + c >= rank {
                let (lo, width) = bucket_range(i);
                // Spread the bucket's samples evenly over its width.
                let pos = (rank - below) as f64 - 0.5;
                return Some(lo + width * pos / c as f64);
            }
            below += c;
        }
        unreachable!("rank {rank} lies within {} samples", self.count)
    }
}

/// The 1-based rank of the `q`-quantile among `n` samples, or `None`
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn quantile_rank(n: u64, q: f64) -> Option<u64> {
    assert!((0.0..1.0).contains(&q), "quantile {q} outside [0, 1)");
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    (n - rank >= MIN_TAIL_SAMPLES).then_some(rank)
}

/// Failed over attempted; a run that attempted nothing failed outright.
pub fn failed_ratio(attempted: u64, failed: u64) -> f64 {
    assert!(
        failed <= attempted,
        "{failed} failures of {attempted} attempts"
    );
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Seed of campaign `index` in a run seeded with `seed` (SplitMix64
/// finalizer, so neighbouring indices get unrelated streams). Kept
/// below 2⁵³ so it crosses the JSON wire exactly.
pub fn campaign_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 11
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("unparsable {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was measured, printed on the human-readable line
    /// (sample counts live here).
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted (campaigns).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Why operations failed (the first few).
    pub failures: Vec<String>,
    /// Failed output checks; any makes the run incorrect.
    pub check_failures: Vec<String>,
}

/// Failure reasons kept for the human-readable output.
const KEPT_FAILURES: usize = 20;

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push_noted(name, value, unit, String::new());
    }

    pub fn push_noted(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Pushes a timing's percentiles (in ms) under the given names, each
    /// noting its sample count. A percentile without enough samples
    /// beyond it is left out and recorded as a check failure, because
    /// every run must report every metric.
    pub fn push_percentiles(&mut self, hist: &Histogram, names: &[(&'static str, f64)]) {
        for &(name, q) in names {
            let n = hist.count();
            match hist.quantile_ns(q) {
                Some(ns) => {
                    let beyond = n - quantile_rank(n, q).expect("quantile has a rank");
                    self.push_noted(
                        name,
                        ns / 1e6,
                        "ms",
                        format!("n={n} samples, {beyond} beyond"),
                    );
                }
                None => self.check_failures.push(format!(
                    "{name}: only {n} samples, fewer than {MIN_TAIL_SAMPLES} beyond the percentile"
                )),
            }
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(why);
        }
    }

    /// `campaign_mean_ms` and `campaign_p90_ms`. The centre is the mean,
    /// not the median: campaigns round-robin over four twins whose
    /// costs differ several-fold, so the median falls in the gap
    /// between the second and third twin and jumps with it.
    pub fn push_campaign_times(&mut self, hist: &Histogram) {
        self.push_noted(
            "campaign_mean_ms",
            hist.mean_ns() / 1e6,
            "ms",
            format!("n={} samples", hist.count()),
        );
        self.push_percentiles(hist, &[("campaign_p90_ms", 0.9)]);
    }

    /// `latency_p50_ms` and `latency_p90_ms`. The tail is p90, not p99:
    /// the p99 of HTTP calls spread 0.37 of its median over ten runs on
    /// a shared 2-vCPU VM, beyond any usable regression bound.
    pub fn push_latencies(&mut self, hist: &Histogram) {
        self.push_percentiles(hist, &[("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)]);
    }

    /// `ok_ratio` = 1 − failed/attempted.
    pub fn push_ok_ratio(&mut self) {
        let failed = failed_ratio(self.attempted, self.failed);
        self.push_noted(
            "ok_ratio",
            1.0 - failed,
            "ratio",
            format!("failed_ratio {failed}"),
        );
    }

    /// `trace.overhead_pct` from the ns/annotation of untraced and traced
    /// stretches of the same loop (medians of each).
    pub fn push_overhead(&mut self, untraced_ns: &[f64], traced_ns: &[f64]) {
        let (plain, traced) = (median(untraced_ns), median(traced_ns));
        self.push_noted(
            "trace.overhead_pct",
            (traced / plain - 1.0) * 100.0,
            "%",
            format!("median ns/annotation traced {traced:.1} vs untraced {plain:.1}"),
        );
    }

    /// Takes over `other`'s tallies and checks, and those of its metrics
    /// whose names start with one of `prefixes`.
    pub fn adopt(&mut self, other: Report, prefixes: &[&str]) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.check_failures.extend(other.check_failures);
        self.metrics.extend(
            other
                .metrics
                .into_iter()
                .filter(|m| prefixes.iter().any(|p| m.name.starts_with(p))),
        );
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The human-readable lines: one per metric, then every failed check.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{:<28} {:>16.6} {:<8}", m.name, m.value, m.unit);
            if !m.note.is_empty() {
                let _ = write!(out, " ({})", m.note);
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "attempted {} failed {} (failed_ratio {:.6})",
            self.attempted,
            self.failed,
            failed_ratio(self.attempted, self.failed)
        );
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        for f in &self.check_failures {
            let _ = writeln!(out, "CHECK FAILED: {f}");
        }
        out
    }

    /// The one-line JSON result.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Checks the report against the declared metric list: every name
    /// present once, valid, finite, with its declared unit.
    pub fn validate(&mut self, declared: &[(&str, &str)]) {
        for &(name, unit) in declared {
            let found: Vec<&Metric> = self.metrics.iter().filter(|m| m.name == name).collect();
            let problem = match found.as_slice() {
                [] => Some(format!("metric {name} missing")),
                [m] if m.unit != unit => Some(format!("metric {name} has unit {}", m.unit)),
                [m] if !m.value.is_finite() => Some(format!("metric {name} is {}", m.value)),
                [_] => None,
                _ => Some(format!("metric {name} reported twice")),
            };
            if let Some(p) = problem {
                self.check_failures.push(p);
            }
        }
        for m in &self.metrics {
            if !valid_metric_name(m.name) || !valid_unit(m.unit) {
                self.check_failures.push(format!(
                    "invalid metric name or unit {:?} {:?}",
                    m.name, m.unit
                ));
            }
            if !declared.iter().any(|&(name, _)| name == m.name) {
                self.check_failures
                    .push(format!("metric {} is not declared", m.name));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of n samples has n - ceil(0.99 n) beyond it.
        assert_eq!(quantile_rank(999, 0.99), None); // 9 beyond
        assert_eq!(quantile_rank(1000, 0.99), Some(990)); // 10 beyond
        assert_eq!(quantile_rank(1100, 0.99), Some(1089)); // 11 beyond
        assert_eq!(quantile_rank(19, 0.5), None); // 9 beyond
        assert_eq!(quantile_rank(20, 0.5), Some(10)); // 10 beyond
        assert_eq!(quantile_rank(0, 0.5), None);
    }

    #[test]
    fn histogram_quantiles_track_exact_order_statistics() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record_ns(v * 1000);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.quantile_ns(0.5).unwrap();
        let p99 = h.quantile_ns(0.99).unwrap();
        assert!((p50 / 5_000_000.0 - 1.0).abs() < 0.01, "p50 {p50}");
        assert!((p99 / 9_900_000.0 - 1.0).abs() < 0.01, "p99 {p99}");
        assert!((h.mean_ns() - 5_000_500.0).abs() < 1e-6);
        // Small values are exact buckets.
        let mut small = Histogram::default();
        for _ in 0..100 {
            small.record_ns(42);
        }
        assert_eq!(small.quantile_ns(0.5), Some(42.0 + 49.5 / 100.0));
    }

    #[test]
    fn buckets_are_contiguous_and_cover_their_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1 << 20,
            123_456_789,
            (1 << 40) + 12_345,
        ] {
            let (lo, width) = bucket_range(bucket_of(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v} not in [{lo}, +{width})"
            );
        }
        for i in 1..(BUCKETS - 1) {
            let (lo, width) = bucket_range(i);
            assert_eq!(lo + width, bucket_range(i + 1).0, "gap after bucket {i}");
        }
    }

    #[test]
    fn percentiles_without_enough_samples_are_omitted_and_fail_the_run() {
        let mut h = Histogram::default();
        for v in 0..500u64 {
            h.record_ns(v);
        }
        let mut r = Report::default();
        r.push_percentiles(&h, &[("a_p50_ms", 0.5), ("a_p99_ms", 0.99)]);
        assert_eq!(r.metrics.len(), 1);
        assert_eq!(r.metrics[0].name, "a_p50_ms");
        assert!(r.metrics[0].note.contains("n=500"));
        assert!(!r.correct());
    }

    #[test]
    fn failed_ratio_accounting() {
        assert_eq!(failed_ratio(10, 0), 0.0);
        assert_eq!(failed_ratio(10, 1), 0.1);
        assert_eq!(failed_ratio(4, 4), 1.0);
        assert_eq!(failed_ratio(0, 0), 1.0);
        let mut r = Report {
            attempted: 7,
            failed: 0,
            ..Report::default()
        };
        assert!(r
            .render_json()
            .starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {"));
        r.check(false, || "mismatch".into());
        assert!(r.render_json().starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "failures of")]
    fn more_failures_than_attempts_is_a_bug() {
        failed_ratio(1, 2);
    }

    #[test]
    fn metric_name_validity() {
        for ok in ["setup_s", "kernel.hit_ratio", "a", "9lives", "x-y.z_1"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "ä", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
        for ok in ["ms", "1/s", "%", "count", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn validation_catches_missing_extra_and_bad_metrics() {
        let mut r = Report::default();
        r.push("a", 1.0, "ms");
        r.push("b", f64::NAN, "ms");
        r.push("c", 1.0, "ms");
        r.validate(&[("a", "ms"), ("b", "ms"), ("d", "s")]);
        let text = r.check_failures.join("\n");
        assert!(text.contains("metric b is NaN"), "{text}");
        assert!(text.contains("metric d missing"), "{text}");
        assert!(text.contains("metric c is not declared"), "{text}");
        assert_eq!(r.check_failures.len(), 3);
    }

    #[test]
    fn campaign_seeds_are_deterministic_distinct_and_wire_exact() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..10_000).map(|i| campaign_seed(7, i)).collect();
        assert_eq!(seeds.len(), 10_000);
        assert!(seeds.iter().all(|&s| s < 1 << 53));
        assert_eq!(campaign_seed(7, 3), campaign_seed(7, 3));
        assert_ne!(campaign_seed(7, 3), campaign_seed(8, 3));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
