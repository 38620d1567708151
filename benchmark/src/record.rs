//! What a run accumulates: timing samples by name, and output checks.

use crate::trace::NOMINAL_PROBE_S;
use std::collections::BTreeMap;

/// One named series: values, and for timings the host speed each was taken
/// under (seconds per probe kernel, see `trace::Tracer::probe`).
#[derive(Debug, Clone, Default)]
struct Series {
    values: Vec<f64>,
    /// Parallel to `values`; NaN where the sample is not a timing.
    host: Vec<f64>,
}

/// Samples keyed by source name. Phases push; the metric table reduces.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    map: BTreeMap<&'static str, Series>,
}

impl Samples {
    /// Appends one exact sample (a count, a ratio, a page number).
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.push_timed(name, value, f64::NAN);
    }

    /// Appends one timing taken while the host ran at `host_speed`.
    pub fn push_timed(&mut self, name: &'static str, value: f64, host_speed: f64) {
        let series = self.map.entry(name).or_default();
        series.values.push(value);
        series.host.push(host_speed);
    }

    /// The samples recorded under `name`, as measured (empty if none).
    pub fn get(&self, name: &str) -> &[f64] {
        self.map.get(name).map_or(&[], |s| s.values.as_slice())
    }

    /// The samples recorded under `name` with every timing normalised to
    /// the reference host speed ([`NOMINAL_PROBE_S`]): a sample taken while
    /// the probe kernel needed `s` times the nominal time counts `1 / s` of
    /// its measured duration. Exact samples are returned as measured.
    pub fn normalised(&self, name: &str) -> Vec<f64> {
        self.map.get(name).map_or_else(Vec::new, |s| {
            s.values
                .iter()
                .zip(&s.host)
                .map(|(&v, &host)| {
                    if host.is_nan() {
                        v
                    } else {
                        v * NOMINAL_PROBE_S / host
                    }
                })
                .collect()
        })
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        for (name, series) in &other.map {
            let mine = self.map.entry(name).or_default();
            mine.values.extend(&series.values);
            mine.host.extend(&series.host);
        }
    }
}

/// Output checks: every verified operation is *attempted*, every mismatch
/// *failed*, with its cause kept for the report.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations whose output was verified.
    pub attempted: u64,
    /// Verifications that did not hold.
    pub failed: u64,
    /// Failure counts by cause.
    pub causes: BTreeMap<String, u64>,
}

impl Checks {
    /// Records one verification; returns `ok` for chaining.
    pub fn check(&mut self, ok: bool, cause: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            *self.causes.entry(cause.to_string()).or_default() += 1;
        }
        ok
    }

    /// Records a fallible library call: `Err` is a failure named `cause`.
    pub fn ok<T, E: std::fmt::Display>(&mut self, result: Result<T, E>, cause: &str) -> Option<T> {
        match result {
            Ok(v) => {
                self.check(true, cause);
                Some(v)
            }
            Err(e) => {
                self.check(false, &format!("{cause}: {e}"));
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_attempts_failures_and_causes() {
        let mut c = Checks::default();
        assert!(c.check(true, "fine"));
        assert!(!c.check(false, "broken"));
        assert_eq!(c.ok(Ok::<_, String>(5), "call"), Some(5));
        assert_eq!(c.ok(Err::<u8, _>("boom".to_string()), "call"), None);
        assert_eq!((c.attempted, c.failed), (4, 2));
        assert_eq!(c.causes["broken"], 1);
        assert_eq!(c.causes["call: boom"], 1);
    }

    #[test]
    fn samples_accumulate_by_name_and_normalise_to_the_nominal_host_speed() {
        let mut s = Samples::default();
        s.push("a", 1.0);
        s.push_timed("a", 2.6, 1.3 * NOMINAL_PROBE_S);
        s.push_timed("a", 1.8, 0.9 * NOMINAL_PROBE_S);
        assert_eq!(s.get("a"), &[1.0, 2.6, 1.8]);
        assert!(s.get("b").is_empty() && s.normalised("b").is_empty());
        let n = s.normalised("a");
        assert_eq!(n[0], 1.0, "exact samples are never scaled");
        assert!((n[1] - 2.0).abs() < 1e-12, "slow-host timings shrink");
        assert!((n[2] - 2.0).abs() < 1e-12, "fast-host timings grow");
        let mut t = Samples::default();
        t.push("a", 9.0);
        t.extend(&s);
        assert_eq!(t.get("a"), &[9.0, 1.0, 2.6, 1.8]);
        assert_eq!(t.normalised("a").len(), 4);
    }
}
