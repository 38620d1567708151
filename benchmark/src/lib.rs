//! The whole-loop benchmark of the `oo-index-config` stack.
//!
//! One loop — advise → readvise → deploy-plan → budget → drift epochs →
//! execute on real indexes → paged lookups — run on four size vectors
//! ([`sizes::Workload`]), timed from outside through the public API of
//! every layer ([`trace::Tracer`]), with every output checked
//! ([`record::Checks`]). See `README.md` in this directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advise;
pub mod budget;
pub mod epochs;
pub mod execdb;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod paged;
pub mod paper;
pub mod record;
pub mod report;
pub mod run;
pub mod sizes;
pub mod stats;
pub mod trace;

/// What every phase works through: the tracer, the current iteration's
/// samples, the run's checks, and whether this is the warm-up iteration
/// that also runs the once-per-run probes.
pub struct Ctx<'t> {
    /// Span recorder (and the only clock the phases use).
    pub tracer: &'t trace::Tracer,
    /// Samples of the iteration in flight.
    pub samples: record::Samples,
    /// Output checks of the whole run.
    pub checks: record::Checks,
    /// Run the once-per-run probes (warm-up iteration only).
    pub probes: bool,
}

impl Ctx<'_> {
    /// Records a timing, in the unit `value` is already in, under the host
    /// speed of the probes that bracket it.
    pub fn time(&mut self, name: &'static str, value: f64) {
        self.samples
            .push_timed(name, value, self.tracer.host_speed());
    }

    /// Records a duration in seconds.
    pub fn time_s(&mut self, name: &'static str, d: std::time::Duration) {
        self.time(name, d.as_secs_f64());
    }

    /// Records a duration in milliseconds.
    pub fn time_ms(&mut self, name: &'static str, d: std::time::Duration) {
        self.time(name, d.as_secs_f64() * 1e3);
    }

    /// Records a duration in microseconds.
    pub fn time_us(&mut self, name: &'static str, d: std::time::Duration) {
        self.time(name, d.as_secs_f64() * 1e6);
    }
}
