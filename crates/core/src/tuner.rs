//! The closed tuning loop: captured traffic → decayed rate estimates →
//! drift-triggered re-optimization (DESIGN.md §5.16).
//!
//! [`OnlineTuner`] sits between a capture source (`oic_workload::capture`)
//! and a [`WorkloadAdvisor`]. It owns a [`RateEstimator`], knows which
//! [`PathKey`]s correspond to which live [`PathId`]s, and decides — via a
//! [`TuningPolicy`] watching estimator-vs-adopted divergence — when the
//! estimates have drifted far enough from the rates the current plan was
//! priced under to justify pushing them through the advisor's mutation API
//! and firing [`WorkloadAdvisor::reoptimize`]. An observed event makes no
//! probe of its own here: the tracked gate rides on the estimator's one
//! probe per run of same-key events ([`RateEstimator::observe_if`]), and
//! reads resolve a path once ([`RateEstimator::path`]), not once per class.
//!
//! The push path is the ordinary PR-3 mutation API
//! ([`WorkloadAdvisor::update_rates`] / `update_query_rates`), so a
//! value-equal estimate is a recognized no-op and the warm-equals-cold
//! anchor of the incremental engine covers stream-driven epochs with no
//! new machinery. Combined with the estimator's stationarity contract
//! (first window adopted verbatim, stationary folds bit-stable), this
//! yields the replay-equivalence property: a stationary captured stream
//! re-tunes to **the same plan** as the exact declared rates
//! (`oic-sim/tests/online.rs`).

use crate::workload_advisor::{PathId, WorkloadAdvisor, WorkloadPlan};
use oic_schema::ClassId;
use oic_workload::capture::{
    CaptureError, EstimatorConfig, EventLog, PathKey, RateEstimator, WorkloadEvent,
};
use std::collections::BTreeMap;

/// When to fire a re-optimization: the estimate of some signal diverges
/// from the adopted rate by more than `max(relative · |adopted|, floor)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningPolicy {
    /// Relative divergence tolerated before a retune (`0.2` = 20%).
    pub relative: f64,
    /// Absolute divergence floor: changes smaller than this never trigger,
    /// however large they are relative to a near-zero adopted rate. Keeps
    /// estimation jitter on cold signals from thrashing the optimizer.
    pub floor: f64,
}

impl Default for TuningPolicy {
    fn default() -> Self {
        TuningPolicy {
            relative: 0.2,
            floor: 0.005,
        }
    }
}

impl TuningPolicy {
    /// Normalized divergence of one signal: `> 1.0` means "retune". The
    /// scalar form lets callers report *how far* past the trigger the
    /// workload has drifted, not just whether.
    ///
    /// A zero tolerance (a `floor` of 0 against a zero adopted rate) is
    /// handled explicitly: an exact match diverges by 0, any difference
    /// diverges infinitely. The naive `diff / tol` would yield `0.0/0.0 =
    /// NaN` there, and since `NaN > 1.0` is false (and `f64::max` absorbs
    /// NaN), [`OnlineTuner::drift`] would silently report no drift and
    /// [`OnlineTuner::maybe_retune`] would never fire on a cold signal
    /// coming alive.
    pub fn divergence(&self, adopted: f64, estimated: f64) -> f64 {
        let diff = (estimated - adopted).abs();
        if diff == 0.0 {
            return 0.0; // whatever the tolerance — and `drift`'s common case
        }
        let tol = (self.relative * adopted.abs()).max(self.floor);
        if tol <= 0.0 {
            return if diff > 0.0 { f64::INFINITY } else { 0.0 };
        }
        diff / tol
    }
}

/// The advisor-side tuning loop: estimator + path registry + policy.
///
/// Lifecycle: [`OnlineTuner::track`] every live path (key ↔ handle),
/// [`OnlineTuner::observe`] / [`OnlineTuner::replay`] the traffic,
/// [`OnlineTuner::seal`] the observation window, then
/// [`OnlineTuner::maybe_retune`]. Departed paths are
/// [`OnlineTuner::untrack`]ed: later events carrying their key are
/// **dropped** (counted, never panicking) — a capture pipeline may deliver
/// a little stale traffic after a removal.
#[derive(Debug)]
pub struct OnlineTuner {
    estimator: RateEstimator,
    policy: TuningPolicy,
    /// Live `PathKey → PathId`, in deterministic key order.
    tracked: BTreeMap<PathKey, PathId>,
    /// Events refused at arrival (untracked key, class past the ceiling).
    dropped_events: u64,
    /// Re-optimizations this tuner fired.
    retunes: u64,
}

impl OnlineTuner {
    /// New tuner with the given estimator and trigger configuration.
    pub fn new(cfg: EstimatorConfig, policy: TuningPolicy) -> Self {
        OnlineTuner {
            estimator: RateEstimator::new(cfg),
            policy,
            tracked: BTreeMap::new(),
            dropped_events: 0,
            retunes: 0,
        }
    }

    /// Registers a live path under its capture key. Re-tracking an already
    /// tracked key just repoints the handle (key recycling after an
    /// untrack is legal — the estimator state was dropped then).
    pub fn track(&mut self, key: PathKey, id: PathId) {
        self.tracked.insert(key, id);
    }

    /// Unregisters a departed path and drops its estimator state. Later
    /// events under `key` are dropped silently (but counted).
    pub fn untrack(&mut self, key: PathKey) {
        self.tracked.remove(&key);
        self.estimator.drop_path(key);
    }

    /// Feeds one observed event. Query events for untracked keys are
    /// dropped, like any event whose class index exceeds `MAX_CLASS_INDEX`;
    /// other insert/delete traffic is always accepted (maintenance rates are
    /// workload-wide). The registry is probed only on first sight of a key.
    #[inline]
    pub fn observe(&mut self, tick: u64, event: &WorkloadEvent, weight: f64) {
        let admit = |key| self.tracked.contains_key(&key);
        if !self.estimator.observe_if(tick, event, weight, admit) {
            self.dropped_events += 1;
        }
    }

    /// Replays a recorded log through [`OnlineTuner::observe`]. A corrupt
    /// log (rewinding ticks, non-finite or negative weights) is rejected
    /// up front — the error is returned and no event is observed.
    pub fn replay(&mut self, log: &EventLog) -> Result<(), CaptureError> {
        log.replay(|tick, event, weight| self.observe(tick, event, weight))
    }

    /// Closes the observation window: folds everything before `up_to` into
    /// the estimates (see [`RateEstimator::seal`]).
    pub fn seal(&mut self, up_to: u64) {
        self.estimator.seal(up_to);
    }

    /// The estimator (read-only; fingerprints, estimates, diagnostics).
    pub fn estimator(&self) -> &RateEstimator {
        &self.estimator
    }

    /// The trigger policy.
    pub fn policy(&self) -> TuningPolicy {
        self.policy
    }

    /// Events dropped: untracked query keys, classes past `MAX_CLASS_INDEX`.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Re-optimizations fired so far.
    pub fn retunes(&self) -> u64 {
        self.retunes
    }

    /// Maximum normalized divergence between the estimates and the rates
    /// `advisor` adopted, over every class `(β, γ)` signal and every
    /// tracked path's per-class `α` vector. `0.0` when nothing was ever
    /// observed (an empty stream is never a reason to retune). `> 1.0`
    /// trips [`OnlineTuner::maybe_retune`].
    pub fn drift(&self, advisor: &WorkloadAdvisor<'_>) -> f64 {
        if !self.estimator.has_observations() {
            return 0.0;
        }
        let mut worst = 0.0f64;
        for c in 0..advisor.class_count() {
            let class = ClassId(c as u32);
            let (bi, gi) = self.estimator.class_rates(class);
            let (ba, ga) = advisor.rates(class);
            worst = worst
                .max(self.policy.divergence(ba, bi))
                .max(self.policy.divergence(ga, gi));
        }
        for (&key, &id) in &self.tracked {
            let Some(adopted) = advisor.query_rates(id) else {
                continue; // removed behind our back; step_traffic untracks
            };
            let est = self.estimator.path(key);
            for (c, &a) in adopted.iter().enumerate() {
                let d = self.policy.divergence(a, est(ClassId(c as u32)));
                worst = if d > worst { d } else { worst }; // `max` chains NaN fix-ups
            }
        }
        worst
    }

    /// Fires [`WorkloadAdvisor::reoptimize`] iff the policy trips —
    /// [`OnlineTuner::drift`] past `1.0` — after pushing every estimate
    /// through the mutation API. `None` when the adopted rates still
    /// describe the observed traffic (including the empty-stream case:
    /// untouched rates, no spurious re-optimization).
    pub fn maybe_retune(&mut self, advisor: &mut WorkloadAdvisor<'_>) -> Option<WorkloadPlan> {
        if self.drift(advisor) <= 1.0 {
            return None;
        }
        Some(self.force_retune(advisor))
    }

    /// Unconditionally pushes the estimates into the advisor and
    /// re-optimizes. Estimates that equal the adopted rates are recognized
    /// no-ops inside the mutation API, so a stationary stream's forced
    /// retune replays the adopted plan.
    pub fn force_retune(&mut self, advisor: &mut WorkloadAdvisor<'_>) -> WorkloadPlan {
        for c in 0..advisor.class_count() {
            let class = ClassId(c as u32);
            advisor.update_rates(class, self.estimator.class_rates(class));
        }
        for (&key, &id) in &self.tracked {
            advisor.update_query_rates(id, self.estimator.path(key));
        }
        self.retunes += 1;
        advisor.reoptimize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_cost::{ClassStats, CostParams};
    use oic_schema::{fixtures, Path};

    fn advisor(schema: &oic_schema::Schema) -> (WorkloadAdvisor<'_>, PathId, Path) {
        let mut adv = WorkloadAdvisor::new(schema, CostParams::default())
            .with_stats(|_| ClassStats::new(500.0, 50.0, 2.0))
            .with_maintenance(|_| (0.05, 0.02));
        let path = fixtures::paper_path_pexa(schema);
        let id = adv.add_path(path.clone(), |_| 0.1);
        (adv, id, path)
    }

    #[test]
    fn empty_stream_never_retunes() {
        let (schema, _) = fixtures::paper_schema();
        let (mut adv, id, _) = advisor(&schema);
        adv.optimize();
        let mut tuner = OnlineTuner::new(EstimatorConfig::default(), TuningPolicy::default());
        tuner.track(PathKey(id.raw() as u64), id);
        tuner.seal(100);
        assert_eq!(tuner.drift(&adv), 0.0);
        assert!(tuner.maybe_retune(&mut adv).is_none());
        // Rates untouched: still the constructor-declared values.
        assert_eq!(adv.rates(ClassId(0)), (0.05, 0.02));
    }

    #[test]
    fn stationary_traffic_matching_adoption_never_retunes() {
        let (schema, _) = fixtures::paper_schema();
        let (mut adv, id, _path) = advisor(&schema);
        adv.optimize();
        let key = PathKey(id.raw() as u64);
        let mut tuner = OnlineTuner::new(EstimatorConfig::default(), TuningPolicy::default());
        tuner.track(key, id);
        for t in 0..4 {
            for c in schema.class_ids() {
                tuner.observe(t, &WorkloadEvent::Insert { class: c }, 0.05);
                tuner.observe(t, &WorkloadEvent::Delete { class: c }, 0.02);
                tuner.observe(
                    t,
                    &WorkloadEvent::Query {
                        path: key,
                        class: c,
                    },
                    0.1,
                );
            }
        }
        tuner.seal(4);
        assert!(tuner.drift(&adv) <= 1.0, "drift {}", tuner.drift(&adv));
        assert!(tuner.maybe_retune(&mut adv).is_none());
    }

    #[test]
    fn drifted_traffic_trips_and_pushes_estimates() {
        let (schema, _) = fixtures::paper_schema();
        let (mut adv, id, _path) = advisor(&schema);
        let before = adv.optimize().total_cost;
        let key = PathKey(id.raw() as u64);
        let mut tuner = OnlineTuner::new(EstimatorConfig::default(), TuningPolicy::default());
        tuner.track(key, id);
        // Ten times the declared update traffic, same query traffic.
        for t in 0..4 {
            for c in schema.class_ids() {
                tuner.observe(t, &WorkloadEvent::Insert { class: c }, 0.5);
                tuner.observe(t, &WorkloadEvent::Delete { class: c }, 0.2);
                tuner.observe(
                    t,
                    &WorkloadEvent::Query {
                        path: key,
                        class: c,
                    },
                    0.1,
                );
            }
        }
        tuner.seal(4);
        assert!(tuner.drift(&adv) > 1.0);
        let plan = tuner.maybe_retune(&mut adv).expect("policy tripped");
        assert_eq!(tuner.retunes(), 1);
        assert_eq!(adv.rates(ClassId(0)), (0.5, 0.2), "estimates adopted");
        assert!(
            plan.total_cost > before,
            "10× maintenance traffic must cost more: {} vs {before}",
            plan.total_cost
        );
    }

    #[test]
    fn zero_floor_divergence_never_yields_nan() {
        // Regression: with floor = 0 and a zero adopted rate the old
        // `diff / tol` was 0.0/0.0 = NaN; f64::max then absorbed it and
        // drift() reported 0 — maybe_retune could never fire on a signal
        // coming alive from zero.
        let policy = TuningPolicy {
            relative: 0.2,
            floor: 0.0,
        };
        assert_eq!(policy.divergence(0.0, 0.0), 0.0);
        assert!(policy.divergence(0.0, 0.3).is_infinite());
        assert!(!policy.divergence(0.0, 0.0).is_nan());
    }

    #[test]
    fn all_zero_rates_drift_is_zero_not_nan_and_can_still_trip() {
        let (schema, _) = fixtures::paper_schema();
        // A fully cold workload: zero maintenance, zero query rates.
        let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
            .with_stats(|_| ClassStats::new(500.0, 50.0, 2.0))
            .with_maintenance(|_| (0.0, 0.0));
        let id = adv.add_path(fixtures::paper_path_pexa(&schema), |_| 0.0);
        adv.optimize();
        let key = PathKey(id.raw() as u64);
        let policy = TuningPolicy {
            relative: 0.2,
            floor: 0.0,
        };
        let mut tuner = OnlineTuner::new(EstimatorConfig::default(), policy);
        tuner.track(key, id);

        // Zero-weight traffic: observations exist, every estimate is 0,
        // every adopted rate is 0 — the all-zero normalization case.
        for c in schema.class_ids() {
            tuner.observe(0, &WorkloadEvent::Insert { class: c }, 0.0);
        }
        tuner.seal(1);
        let drift = tuner.drift(&adv);
        assert!(!drift.is_nan(), "drift must never be NaN");
        assert_eq!(drift, 0.0, "matching zeros are zero drift");
        assert!(tuner.maybe_retune(&mut adv).is_none());

        // The signal comes alive: any positive estimate against a zero
        // adopted rate under a zero floor is infinite drift — it trips.
        for c in schema.class_ids() {
            tuner.observe(1, &WorkloadEvent::Insert { class: c }, 0.25);
        }
        tuner.seal(2);
        assert!(tuner.drift(&adv).is_infinite());
        assert!(tuner.maybe_retune(&mut adv).is_some());
        assert!(adv.rates(ClassId(0)).0 > 0.0, "estimate was adopted");
    }

    #[test]
    fn empty_tracked_set_drift_is_finite_and_nan_free() {
        let (schema, _) = fixtures::paper_schema();
        let (mut adv, _, _) = advisor(&schema);
        adv.optimize();
        // No tracked paths at all, zero floor: class-signal comparisons
        // still run, and an empty estimator reports zero drift.
        let mut tuner = OnlineTuner::new(
            EstimatorConfig::default(),
            TuningPolicy {
                relative: 0.2,
                floor: 0.0,
            },
        );
        tuner.seal(5);
        let drift = tuner.drift(&adv);
        assert_eq!(drift, 0.0);
        assert!(!drift.is_nan());
        assert!(tuner.maybe_retune(&mut adv).is_none());
    }

    #[test]
    fn replay_of_a_corrupt_log_is_an_error_not_a_panic() {
        let mut tuner = OnlineTuner::new(EstimatorConfig::default(), TuningPolicy::default());
        let mut log = EventLog::new();
        log.push(3, WorkloadEvent::Insert { class: ClassId(0) }, 1.0);
        log.push(1, WorkloadEvent::Insert { class: ClassId(0) }, 1.0);
        assert!(tuner.replay(&log).is_err());
        assert!(!tuner.estimator().has_observations(), "nothing was fed");
        let mut ok = EventLog::new();
        ok.push(0, WorkloadEvent::Insert { class: ClassId(0) }, 1.0);
        tuner.replay(&ok).expect("well-formed");
        assert!(tuner.estimator().has_observations());
    }

    #[test]
    fn the_remembered_path_is_no_way_around_the_gate() {
        let (schema, _) = fixtures::paper_schema();
        let (_, id, _) = advisor(&schema);
        let key = PathKey(id.raw() as u64);
        let query = |class| WorkloadEvent::Query {
            path: key,
            class: ClassId(class),
        };
        let mut tuner = OnlineTuner::new(EstimatorConfig::default(), TuningPolicy::default());
        tuner.track(key, id);
        for t in 0..3 {
            tuner.observe(t, &query(0), 0.8);
        }
        // `key` is the path the estimator resolved last. Untracked, its
        // very next event must still be dropped and counted.
        tuner.untrack(key);
        tuner.observe(3, &query(0), 0.8);
        assert_eq!(tuner.dropped_events(), 1);
        assert_eq!(tuner.estimator().observed_paths().count(), 0);
        assert_eq!(tuner.estimator().observed_events(), 3);
        // Re-tracked, the key starts from empty cells: the first window
        // is adopted verbatim, nothing of the old 0.8 decays into it.
        tuner.track(key, id);
        tuner.observe(3, &query(1), 0.1);
        tuner.seal(4);
        let est = tuner.estimator();
        assert_eq!(est.query_rate(key, ClassId(0)), 0.0);
        assert_eq!(est.query_rate(key, ClassId(1)).to_bits(), 0.1f64.to_bits());
        assert_eq!(tuner.dropped_events(), 1);
        // A class index past the capture ceiling is dropped and counted
        // whatever the event kind, tracked key or not.
        let hostile = ClassId(u32::MAX);
        tuner.observe(4, &WorkloadEvent::Insert { class: hostile }, 1.0);
        tuner.observe(4, &query(u32::MAX), 1.0);
        assert_eq!(tuner.dropped_events(), 3);
        assert_eq!(tuner.estimator().observed_events(), 4);
    }

    #[test]
    fn untracked_queries_are_dropped_not_panicking() {
        let (schema, _) = fixtures::paper_schema();
        let (mut adv, id, _) = advisor(&schema);
        adv.optimize();
        let key = PathKey(id.raw() as u64);
        let mut tuner = OnlineTuner::new(EstimatorConfig::default(), TuningPolicy::default());
        tuner.track(key, id);
        tuner.untrack(key);
        tuner.observe(
            0,
            &WorkloadEvent::Query {
                path: key,
                class: ClassId(0),
            },
            1.0,
        );
        assert_eq!(tuner.dropped_events(), 1);
        tuner.seal(1);
        assert!(tuner.maybe_retune(&mut adv).is_none());
    }
}
