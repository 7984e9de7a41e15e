//! The result of one benchmark run: named metrics with units, the
//! attempted and failed operation counts, and the check verdict.

use std::fmt::Write as _;

/// Metrics in the order they were set.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Sets `name` to `value` in `unit`, replacing an earlier value.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, ..)| n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.0.push((name.to_owned(), value, unit)),
        }
    }

    /// Every `(name, value, unit)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }
}

/// Operation counts and output checks of one run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Timed operations started, plus output checks made.
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed checks.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records an operation or check that passed.
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Records an operation or check that failed, with why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why.into());
    }

    /// Records `ok` as a pass, or as a failure described by `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.pass();
        } else {
            self.fail(why());
        }
    }

    /// Adds `other`'s counts and failures to these.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Failed over attempted.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Renders the last line of the benchmark's output.
#[must_use]
pub fn result_json(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    out.push_str("}}");
    out
}

/// A finite number as JSON; non-finite values (a bug upstream) become
/// `null` so the line still parses and the run reads as broken.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Restarts the process's peak resident set (`VmHWM`) from its current
/// resident set, so a later [`peak_rss_mib`] covers only what follows.
/// Where the kernel refuses, the peak keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_result_keys() {
        let mut m = Metrics::default();
        m.set("a_s", 1.5, "s");
        m.set("b", 2.0, "count");
        m.set("a_s", 1.25, "s");
        let mut t = Tally::default();
        t.pass();
        t.fail("boom");
        assert_eq!(
            result_json(&t, &m),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"a_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        assert!((t.failed_frac() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
