//! Seeded randomness, order statistics, the metric list and the result line.

use std::fmt::Write as _;
use std::str::FromStr;

/// The repository's splitmix64 stream: every workload input derives from
/// `--seed` through one of these.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x7065_7266_6265_6e63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The 99th percentile, or where fewer than 1000 samples exist the highest
/// percentile that still has ten samples beyond it.
pub fn tail(samples: &[f64]) -> f64 {
    quantile(
        samples,
        (1.0 - 10.0 / samples.len() as f64).clamp(0.5, 0.99),
    )
}

pub fn geomean(samples: &[f64]) -> f64 {
    let logs: f64 = samples.iter().map(|x| x.max(1e-9).ln()).sum();
    (logs / samples.len() as f64).exp()
}

/// Share of `part` in `whole`, 0 when nothing was attempted.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Whether a count the program produced equals the pinned decimal
/// reference, compared through the count type's own parser so the check
/// is independent of the type (`f64` today, an exact integer later).
pub fn count_matches<T: FromStr + PartialEq>(got: T, reference: &str) -> bool {
    reference.parse::<T>().is_ok_and(|want| want == got)
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.0
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// The outcome of one workload run: the output checks and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Distinct failures, each named once (an op failing on every pass is
    /// one entry per pass in `failed`, one name here).
    pub failures: Vec<String>,
    pub failed: u64,
    /// Failed op executions not explained by a known defect (see
    /// [`crate::reference::KNOWN_WRONG_COUNTS`]); `correct` is their absence.
    pub unexpected: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a failed op execution.
    pub fn fail(&mut self, what: String) {
        self.unexpected += 1;
        self.record(what);
    }

    /// Records an op execution with wrong counts, given as
    /// `(figure, description)`: a failed op execution, which leaves the run
    /// correct only when every wrong figure of `op` is a known defect.
    pub fn fail_counts(&mut self, op: &str, wrong: &[(&str, String)]) {
        let what = format!(
            "{op}: {}",
            wrong
                .iter()
                .map(|(_, text)| text.as_str())
                .collect::<Vec<_>>()
                .join("; ")
        );
        if wrong
            .iter()
            .all(|(figure, _)| crate::reference::known_wrong_count(op, figure))
        {
            self.record(format!(
                "{what} [known defect: {}]",
                crate::reference::KNOWN_CAUSE
            ));
        } else {
            self.fail(what);
        }
    }

    fn record(&mut self, what: String) {
        self.failed += 1;
        if !self.failures.contains(&what) {
            self.failures.push(what);
        }
    }

    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.unexpected += other.unexpected;
        for f in other.failures {
            if !self.failures.contains(&f) {
                self.failures.push(f);
            }
        }
        self.metrics.extend(other.metrics);
    }

    /// The single JSON result line.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.unexpected == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.entries().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn only_listed_wrong_figures_leave_the_run_correct() {
        let wrong = |figure: &'static str| (figure, format!("{figure} off"));
        let mut out = Outcome::default();
        out.fail_counts(
            "reach a/sparse/phil-8",
            &[wrong("markings"), wrong("deadlocks")],
        );
        out.fail_counts("ctl sparse/dme-spec-8", &[wrong("overtaking")]);
        assert_eq!((out.failed, out.unexpected), (2, 0));
        out.fail_counts(
            "ctl sparse/dme-spec-8",
            &[wrong("overtaking"), wrong("mutex")],
        );
        out.fail_counts("reach b/sparse/phil-8", &[wrong("markings")]);
        assert_eq!((out.failed, out.unexpected), (4, 2));
    }

    #[test]
    fn counts_compare_through_the_count_type() {
        assert!(count_matches(4683382.0f64, "4683382"));
        assert!(!count_matches(4718592.0f64, "4683382"));
        assert!(count_matches(
            2f64.powi(100),
            "1267650600228229401496703205376"
        ));
        assert!(count_matches(
            1u128 << 100,
            "1267650600228229401496703205376"
        ));
    }
}
