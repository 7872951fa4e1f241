//! Summary statistics, the tail rule, memory probes and the result line.

use std::fmt::Write as _;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A latency summary: median and one tail percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank value at the tail percentile.
    pub tail: f64,
    /// Samples strictly after the tail's rank.
    pub beyond: usize,
}

impl Summary {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the tail; a run
    /// whose tail rests on fewer is not correct.
    pub fn tail_ok(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Summarises `samples` (any order) with the tail at quantile `tail_q`.
/// Returns `None` for no samples.
pub fn summarize(samples: &[f64], tail_q: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let r = rank(tail_q, n);
    Some(Summary {
        count: n,
        p50: sorted[rank(0.5, n)],
        tail: sorted[r],
        beyond: n - 1 - r,
    })
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The metrics of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records one metric and prints it as a human-readable line.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?}");
        assert!(
            !self.entries.iter().any(|(n, _, _)| n == name),
            "metric {name} recorded twice"
        );
        println!("  {name:<28} {value:>14.4} {unit}");
        self.entries.push((name.to_string(), value, unit));
    }

    /// The names recorded so far, in order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// Whether every recorded value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The one-line JSON result that ends standard output.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest round-trip form with a decimal
            // point, so no digit is dropped.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Bytes in a MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Reads a `/proc/self/status` field (`VmHWM`, `VmRSS`) in MiB.
pub fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / MIB)
}

/// Resets the kernel's resident high-water mark to the current residency.
/// Returns whether the reset took effect.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_at_least_ten_samples_beyond_it() {
        // 1,000 samples: p99 has exactly 10 beyond it.
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&samples, 0.99).unwrap();
        assert_eq!((s.count, s.p50, s.tail, s.beyond), (1000, 500.0, 990.0, 10));
        assert!(s.tail_ok());
        // 999 samples: p99 leaves 9 beyond, too few.
        let s = summarize(&samples[..999], 0.99).unwrap();
        assert_eq!((s.tail, s.beyond), (990.0, 9));
        assert!(!s.tail_ok());
        // 200 samples: p95 leaves exactly 10.
        let s = summarize(&samples[..200], 0.95).unwrap();
        assert_eq!((s.tail, s.beyond), (190.0, 10));
        assert!(s.tail_ok());
        assert!(summarize(&[], 0.99).is_none());
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "setup_s",
            "core.compile_ms",
            "embed.train_peak_mib",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".dot", "has space", "slash/ms", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "MiB", "%", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit("x".repeat(17).as_str()));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("setup_s", 2.0, "s");
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
