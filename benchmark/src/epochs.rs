//! Phase 3 — the continuous loop: churn → observe → seal → drift →
//! retune → migrate, epoch after epoch, over the library's public API.
//!
//! The churn stream is `DriftSim::step_traffic`'s, draw for draw (the
//! parity test pins that), but split so the tuned side can be timed alone:
//! each epoch's churn is first drawn against an **oracle** advisor that is
//! told the true rates, recorded as [`Action`]s, and then applied — inside
//! the timed epoch — to the **tuned** advisor, which sees only structural
//! churn and must rediscover the rates from the captured stream. The oracle
//! re-optimizes outside the timed epoch and prices the tuned plan.

use crate::advise::{build, ENVELOPE};
use crate::inputs::{draw_rates, drift_stats};
use crate::Ctx;
use oic_core::{
    MigrationPlanner, OnlineTuner, PathId, TuningPolicy, WorkloadAdvisor, WorkloadPlan,
};
use oic_cost::ClassStats;
use oic_schema::{ClassId, Path};
use oic_sim::workload_gen::{random_query_rates, random_walk};
use oic_sim::{DriftSpec, EpochChurn, SynthWorkload};
use oic_workload::{EstimatorConfig, PathKey, WorkloadEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// One structural mutation the tuned side must apply. Rate and query drift
/// never reach it: they only move the ground truth the traffic is emitted
/// from.
#[derive(Debug, Clone)]
enum Action {
    Depart(PathId),
    Arrive(PathId, Path, Vec<f64>),
    Stats(ClassId, ClassStats),
}

fn key_of(id: PathId) -> PathKey {
    PathKey(u64::from(id.raw()))
}

/// The drifting workload's ground truth and churn stream.
struct Truth<'w> {
    w: &'w SynthWorkload,
    spec: DriftSpec,
    rng: StdRng,
    /// Shadow of the per-class statistics, so drifts compound.
    stats: Vec<ClassStats>,
    /// True per-class `(insert, delete)` rates.
    maint: Vec<(f64, f64)>,
    /// True dense query rates per live path, in capture-key order.
    queries: BTreeMap<u64, Vec<f64>>,
    /// Capture ticks emitted so far.
    clock: u64,
}

impl<'w> Truth<'w> {
    /// Draws one epoch of churn, applying it (true rates included) to the
    /// oracle and to the ground truth; returns what the tuned side must
    /// replay and the epoch's churn counts.
    fn churn(&mut self, oracle: &mut WorkloadAdvisor<'_>) -> (Vec<Action>, EpochChurn) {
        let w = self.w;
        let classes = w.schema.class_count();
        let mut actions = Vec::new();
        let mut churn = EpochChurn::default();
        for _ in 0..self.spec.departures {
            let ids: Vec<PathId> = oracle.path_ids().collect();
            if ids.len() <= 1 {
                break;
            }
            let victim = ids[self.rng.gen_range(0..ids.len())];
            oracle.remove_path(victim).expect("live handle");
            self.queries.remove(&key_of(victim).0);
            actions.push(Action::Depart(victim));
            churn.departed += 1;
        }
        for _ in 0..self.spec.arrivals {
            let path = random_walk(&w.schema, w.root, &w.children, &mut self.rng);
            let alphas = random_query_rates(classes, &mut self.rng);
            let id = oracle.add_path_dense(path.clone(), alphas.clone());
            self.queries.insert(key_of(id).0, alphas.clone());
            actions.push(Action::Arrive(id, path, alphas));
            churn.arrived += 1;
        }
        for _ in 0..self.spec.stat_drifts {
            let class = ClassId(self.rng.gen_range(0..classes) as u32);
            let new = drift_stats(self.stats[class.index()], &mut self.rng);
            self.stats[class.index()] = new;
            if oracle.update_stats(class, new) {
                churn.stats_changed += 1;
            }
            actions.push(Action::Stats(class, new));
        }
        for _ in 0..self.spec.rate_drifts {
            let class = ClassId(self.rng.gen_range(0..classes) as u32);
            let rates = draw_rates(&mut self.rng);
            oracle.update_rates(class, rates);
            let slot = &mut self.maint[class.index()];
            if *slot != rates {
                *slot = rates;
                churn.rates_changed += 1;
            }
        }
        for _ in 0..self.spec.query_drifts {
            let ids: Vec<PathId> = oracle.path_ids().collect();
            if ids.is_empty() {
                break;
            }
            let target = ids[self.rng.gen_range(0..ids.len())];
            let alphas = random_query_rates(classes, &mut self.rng);
            oracle.update_query_rates(target, |c| alphas[c.index()]);
            let slot = self
                .queries
                .get_mut(&key_of(target).0)
                .expect("live path has a ground truth");
            if *slot != alphas {
                *slot = alphas;
                churn.queries_changed += 1;
            }
        }
        (actions, churn)
    }

    /// Emits one stationary capture window of the ground truth into the
    /// tuner: one weighted event per live signal. Returns the event count.
    fn emit(&self, tuner: &mut OnlineTuner, tick: u64) -> u64 {
        let mut events = 0;
        for (c, &(beta, gamma)) in self.maint.iter().enumerate() {
            let class = ClassId(c as u32);
            if beta > 0.0 {
                tuner.observe(tick, &WorkloadEvent::Insert { class }, beta);
                events += 1;
            }
            if gamma > 0.0 {
                tuner.observe(tick, &WorkloadEvent::Delete { class }, gamma);
                events += 1;
            }
        }
        for (&key, alphas) in &self.queries {
            for (c, &alpha) in alphas.iter().enumerate() {
                if alpha > 0.0 {
                    let event = WorkloadEvent::Query {
                        path: PathKey(key),
                        class: ClassId(c as u32),
                    };
                    tuner.observe(tick, &event, alpha);
                    events += 1;
                }
            }
        }
        events
    }
}

/// What one epoch did, for the samples, the checks and the parity test.
#[derive(Debug, Clone, Copy)]
pub struct EpochOutcome {
    /// The churn applied (all zero on a quiet epoch).
    pub churn: EpochChurn,
    /// Cost of the plan the epoch produced, if it produced one.
    pub plan_cost: Option<f64>,
    /// Whether the tuner's drift policy fired.
    pub retuned: bool,
}

/// The closed loop's state: tuned advisor + tuner + long-lived planner on
/// one side, the oracle twin on the other.
pub struct DriftLoop<'w> {
    truth: Truth<'w>,
    tuned: WorkloadAdvisor<'w>,
    oracle: WorkloadAdvisor<'w>,
    tuner: OnlineTuner,
    planner: Option<MigrationPlanner>,
    tuned_plan: WorkloadPlan,
    spurious_retunes: u64,
    retunes: u64,
    drift_epochs: u64,
    steps_advanced: u64,
    migrate_errors: u64,
}

impl<'w> DriftLoop<'w> {
    /// Optimizes both advisors, registers every path with the tuner and
    /// seeds the ground truth from the adopted rates.
    pub fn new(ctx: &mut Ctx<'_>, w: &'w SynthWorkload, spec: DriftSpec) -> Self {
        let mut tuned = build(w, None, None);
        let mut oracle = build(w, None, None);
        let tuned_plan = tuned.optimize();
        oracle.optimize();
        let mut tuner = OnlineTuner::new(EstimatorConfig::default(), TuningPolicy::default());
        let mut queries = BTreeMap::new();
        for id in tuned.path_ids().collect::<Vec<_>>() {
            tuner.track(key_of(id), id);
            let alphas = tuned.query_rates(id).expect("live path").to_vec();
            queries.insert(key_of(id).0, alphas);
        }
        let maint = (0..w.schema.class_count())
            .map(|c| tuned.rates(ClassId(c as u32)))
            .collect();
        let planner = ctx.checks.ok(
            MigrationPlanner::new(&tuned, &tuned_plan, &tuned_plan),
            "MigrationError (drift loop planner)",
        );
        DriftLoop {
            truth: Truth {
                w,
                rng: StdRng::seed_from_u64(spec.seed),
                spec,
                stats: w.stats.clone(),
                maint,
                queries,
                clock: 0,
            },
            tuned,
            oracle,
            tuner,
            planner,
            tuned_plan,
            spurious_retunes: 0,
            retunes: 0,
            drift_epochs: 0,
            steps_advanced: 0,
            migrate_errors: 0,
        }
    }

    fn migration<T>(
        &mut self,
        ctx: &mut Ctx<'_>,
        result: Result<T, oic_core::MigrationError>,
    ) -> Option<T> {
        if result.is_err() {
            self.migrate_errors += 1;
        }
        ctx.checks.ok(result, "MigrationError (drift loop)")
    }

    /// Runs one epoch of `ticks` capture windows; a quiet epoch carries
    /// traffic only.
    pub fn epoch(&mut self, ctx: &mut Ctx<'_>, quiet: bool, ticks: u64) -> EpochOutcome {
        let t = ctx.tracer;
        let (actions, churn) = if quiet {
            (Vec::new(), EpochChurn::default())
        } else {
            self.truth.churn(&mut self.oracle)
        };
        let structural = churn.arrived + churn.departed + churn.stats_changed > 0;

        let mut new_plan = None;
        let mut retuned = false;
        let mut observe_ms = 0.0;
        let mut events = 0u64;
        // Layer timings inside the epoch, pushed once `measured` has taken
        // its closing probe so they carry the epoch's own bracket.
        let mut inner: Vec<(&'static str, std::time::Duration)> = Vec::new();
        let (_, d_epoch) = t.measured("e2e.epoch", || {
            if !quiet {
                let (_, d) = t.span("advisor.mutate", || {
                    for action in actions {
                        match action {
                            Action::Depart(id) => {
                                self.tuned.remove_path(id).expect("live handle");
                                self.tuner.untrack(key_of(id));
                                if let Some(p) = self.planner.as_mut() {
                                    p.remove_path(id);
                                }
                            }
                            Action::Arrive(id, path, alphas) => {
                                let got = self.tuned.add_path_dense(path, alphas);
                                assert_eq!(got, id, "tuned and oracle fell out of lockstep");
                                self.tuner.track(key_of(id), id);
                            }
                            Action::Stats(class, stats) => {
                                self.tuned.update_stats(class, stats);
                            }
                        }
                    }
                });
                inner.push(("advisor.mutate_ms", d));
            }
            for k in 0..ticks {
                let tick = self.truth.clock + k;
                let (n, d) = t.span("capture.observe", || self.truth.emit(&mut self.tuner, tick));
                events += n;
                observe_ms += d.as_secs_f64() * 1e3;
            }
            self.truth.clock += ticks;
            let clock = self.truth.clock;
            let (_, d) = t.span("capture.seal", || self.tuner.seal(clock));
            inner.push(("capture.seal_ms", d));
            let (drift, d) = t.span("tuner.drift", || self.tuner.drift(&self.tuned));
            inner.push(("tuner.drift_ms", d));
            // Estimator drift beats structural churn: a drift-triggered
            // retune ends in the same `reoptimize()` and folds it in.
            if drift > 1.0 {
                let (plan, d) = t.span("tuner.force_retune", || {
                    self.tuner.force_retune(&mut self.tuned)
                });
                inner.push(("tuner.force_retune_ms", d));
                new_plan = Some(plan);
                retuned = true;
            } else if structural {
                let (plan, _) = t.span("advisor.reoptimize_structural", || self.tuned.reoptimize());
                new_plan = Some(plan);
            }
            // The planner leaves `self` while it runs, so the migration
            // results can be checked through `&mut self`.
            if let Some(mut planner) = self.planner.take() {
                if let Some(plan) = new_plan.as_ref() {
                    let (r, d) = t.span("migrate.retarget", || planner.retarget(&self.tuned, plan));
                    inner.push(("migrate.retarget_ms", d));
                    self.migration(ctx, r);
                    let (r, d) = t.span("migrate.schedule", || planner.schedule(ENVELOPE));
                    inner.push(("migrate.schedule_ms", d));
                    self.migration(ctx, r);
                }
                let (r, d) = t.span("migrate.advance", || planner.advance(ENVELOPE));
                inner.push(("migrate.advance_ms", d));
                if let Some(Some(steps)) = self.migration(ctx, r) {
                    self.steps_advanced += steps.len() as u64;
                }
                self.planner = Some(planner);
            }
        });

        let epoch_ms = d_epoch.as_secs_f64() * 1e3;
        for (name, d) in inner {
            ctx.time_ms(name, d);
        }
        ctx.time("capture.observe_ms", observe_ms);
        ctx.samples.push("capture.events_per_epoch", events as f64);
        ctx.time(
            "capture.ns_per_event",
            observe_ms * 1e6 / events.max(1) as f64,
        );
        if quiet {
            ctx.time("quiet_epoch_ms", epoch_ms);
            if retuned {
                self.spurious_retunes += 1;
            }
            ctx.checks.check(!retuned, "retune on a quiet epoch");
        } else {
            ctx.time("epoch_ms", epoch_ms);
            self.drift_epochs += 1;
            self.retunes += u64::from(retuned);
            let (oracle_plan, d) =
                t.measured("advisor.oracle_reoptimize", || self.oracle.reoptimize());
            let oracle_ms = d.as_secs_f64() * 1e3;
            ctx.time("advisor.oracle_reoptimize_ms", oracle_ms);
            ctx.samples
                .push("tuner.overhead_vs_oracle", epoch_ms / oracle_ms);
            if let Some(plan) = new_plan.as_ref() {
                let ratio = self.oracle.price_plan(plan) / oracle_plan.total_cost;
                ctx.samples.push("tuned_cost_ratio", ratio);
                ctx.checks
                    .check(ratio <= 1.05, "tuned plan more than 5 % above the oracle's");
            }
        }
        let plan_cost = new_plan.as_ref().map(|p| p.total_cost);
        if let Some(plan) = new_plan {
            self.tuned_plan = plan;
        }
        EpochOutcome {
            churn,
            plan_cost,
            retuned,
        }
    }

    /// Pushes the loop's end-of-run counters.
    pub fn finish(self, ctx: &mut Ctx<'_>) {
        let s = &mut ctx.samples;
        s.push("capture.dropped_events", self.tuner.dropped_events() as f64);
        s.push(
            "tuner.retune_ratio",
            self.retunes as f64 / self.drift_epochs.max(1) as f64,
        );
        s.push("tuner.spurious_retunes", self.spurious_retunes as f64);
        s.push("migrate.steps_advanced", self.steps_advanced as f64);
        s.push(
            "migrate.cancelled",
            self.planner.as_ref().map_or(0, |p| p.cancelled()) as f64,
        );
        s.push("migrate.errors", self.migrate_errors as f64);
        // The deployed plan must still describe the live path set.
        ctx.checks.check(
            self.tuned_plan.paths.len() == self.tuned.path_count(),
            "tuned plan lost track of the live path set",
        );
    }
}

/// Runs the phase once: `epochs` epochs, every third one quiet.
pub fn run(ctx: &mut Ctx<'_>, w: &SynthWorkload, spec: DriftSpec, epochs: usize, ticks: u64) {
    let (mut lp, _) = ctx
        .tracer
        .span("tuner.loop_new", || DriftLoop::new(ctx, w, spec));
    let request = ctx.tracer.request();
    for e in 0..epochs {
        ctx.tracer.set_request(request + 1 + e as u32);
        lp.epoch(ctx, e % 3 == 2, ticks);
    }
    ctx.tracer.set_request(request);
    lp.finish(ctx);
}
