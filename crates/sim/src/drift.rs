//! Workload drift: epoch-batched mutations against an online
//! [`WorkloadAdvisor`], modeling the observe→re-optimize loop of
//! production index management (AIM-style) over the paper's selection
//! core.
//!
//! A [`DriftSim`] owns a deterministic RNG and, each [`DriftSim::step`],
//! applies one epoch of churn to the advisor through its mutation API
//! (never by editing the candidate space directly — that would bypass
//! invalidation):
//!
//! * **arrivals** — new random walks over the same class tree as the seed
//!   workload (shared prefixes keep candidate sharing realistic);
//! * **departures** — uniformly chosen live paths are removed;
//! * **stat drift** — class populations/distinct-counts scale by a random
//!   factor in `[0.5, 2)`, the slow demographic change of a live system;
//! * **rate drift** — per-class insert/delete rates are redrawn;
//! * **query churn** — per-path query-rate vectors are redrawn, the
//!   fastest-moving signal.
//!
//! The simulator is pure policy: all state lives in the advisor, so a
//! `advisor.rebuild().optimize()` after any number of steps is the
//! from-scratch baseline the warm `reoptimize()` is compared against (see
//! `tests/evolving.rs`).

use crate::workload_gen::{random_query_rates, random_walk};
use crate::SynthWorkload;
use oic_core::{OnlineTuner, WorkloadAdvisor, WorkloadPlan};
use oic_cost::ClassStats;
use oic_schema::ClassId;
use oic_workload::{PathKey, WorkloadEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Per-epoch churn volumes for a [`DriftSim`].
#[derive(Debug, Clone)]
pub struct DriftSpec {
    /// New paths arriving per epoch.
    pub arrivals: usize,
    /// Live paths departing per epoch (capped by the live count; the
    /// simulator never empties the workload below one path).
    pub departures: usize,
    /// Classes whose statistics drift per epoch.
    pub stat_drifts: usize,
    /// Classes whose `(insert, delete)` rates are redrawn per epoch.
    pub rate_drifts: usize,
    /// Paths whose per-class query rates are redrawn per epoch.
    pub query_drifts: usize,
    /// RNG seed; the mutation stream is fully deterministic per seed.
    pub seed: u64,
}

impl Default for DriftSpec {
    fn default() -> Self {
        DriftSpec {
            arrivals: 3,
            departures: 3,
            stat_drifts: 2,
            rate_drifts: 2,
            query_drifts: 4,
            seed: 7,
        }
    }
}

/// What one epoch actually applied. Redrawn values that happen to equal
/// the old ones are recognized by the advisor as no-ops and are **not**
/// counted.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochChurn {
    /// Paths added.
    pub arrived: usize,
    /// Paths removed.
    pub departed: usize,
    /// Classes whose statistics changed.
    pub stats_changed: usize,
    /// Classes whose maintenance rates changed.
    pub rates_changed: usize,
    /// Paths whose query rates changed.
    pub queries_changed: usize,
}

impl EpochChurn {
    /// Total mutations applied.
    pub fn total(&self) -> usize {
        self.arrived
            + self.departed
            + self.stats_changed
            + self.rates_changed
            + self.queries_changed
    }
}

/// Shadow ground truth for traffic mode ([`DriftSim::step_traffic`]): the
/// *true* rates of the drifting workload, which the advisor only ever
/// learns about through the captured event stream.
#[derive(Debug, Clone)]
struct TrafficState {
    /// True per-class `(insert, delete)` rates.
    true_maint: Vec<(f64, f64)>,
    /// True per-path dense query-rate vectors, keyed by the raw capture
    /// key (deterministic iteration order).
    true_queries: BTreeMap<u64, Vec<f64>>,
    /// The capture clock: ticks emitted so far.
    clock: u64,
}

/// Deterministic workload-drift generator bound to a seed workload's class
/// tree. Mutates an advisor in place, one epoch per [`DriftSim::step`] —
/// or, in traffic mode ([`DriftSim::enable_traffic`] +
/// [`DriftSim::step_traffic`]), keeps rate drift *hidden* from the advisor
/// and emits it as a captured event stream for an [`OnlineTuner`] to
/// rediscover.
pub struct DriftSim<'a> {
    workload: &'a SynthWorkload,
    spec: DriftSpec,
    rng: StdRng,
    /// Shadow of the advisor's per-class stats, so drifts compound.
    stats: Vec<ClassStats>,
    traffic: Option<TrafficState>,
}

impl<'a> DriftSim<'a> {
    /// Binds the simulator to the seed workload and churn spec.
    pub fn new(workload: &'a SynthWorkload, spec: DriftSpec) -> Self {
        let rng = StdRng::seed_from_u64(spec.seed);
        DriftSim {
            stats: workload.stats.clone(),
            workload,
            spec,
            rng,
            traffic: None,
        }
    }

    /// Switches this simulator into traffic mode: seeds the shadow ground
    /// truth from the rates `advisor` currently adopts and registers every
    /// live path with `tuner` (capture key = raw path id). From here on,
    /// drive epochs with [`DriftSim::step_traffic`] instead of
    /// [`DriftSim::step`].
    pub fn enable_traffic(&mut self, advisor: &WorkloadAdvisor<'_>, tuner: &mut OnlineTuner) {
        let class_count = self.workload.schema.class_count();
        let true_maint = (0..class_count)
            .map(|c| advisor.rates(ClassId(c as u32)))
            .collect();
        let mut true_queries = BTreeMap::new();
        for id in advisor.path_ids().collect::<Vec<_>>() {
            let key = id.raw() as u64;
            tuner.track(PathKey(key), id);
            let alphas = advisor.query_rates(id).expect("live path").to_vec();
            true_queries.insert(key, alphas);
        }
        self.traffic = Some(TrafficState {
            true_maint,
            true_queries,
            clock: 0,
        });
    }

    /// One traffic-mode epoch: the churn stream of [`DriftSim::step`] —
    /// the same routine, so a same-seed oracle run stays in lockstep —
    /// except that **rate and query drift never touch the advisor**: they
    /// update the shadow ground truth, which is then emitted as `ticks`
    /// stationary capture windows into `tuner`. Structural churn
    /// (arrivals, departures, statistics drift) still goes through the
    /// advisor's mutation API: a real system knows its schema and path
    /// registry, it is the *rates* that must be estimated.
    ///
    /// Returns the epoch's churn and the re-optimized plan, if any: the
    /// tuner's (if its policy tripped), else a structural `reoptimize()`
    /// (if paths or statistics changed), else `None`.
    pub fn step_traffic(
        &mut self,
        advisor: &mut WorkloadAdvisor<'_>,
        tuner: &mut OnlineTuner,
        ticks: u64,
    ) -> (EpochChurn, Option<WorkloadPlan>) {
        assert!(self.traffic.is_some(), "call enable_traffic first");
        assert!(ticks > 0, "an epoch must emit at least one window");
        // Phase 1: churn.
        let churn = self.churn(advisor, Some(&mut *tuner));

        // Phase 2: emit `ticks` stationary windows of the (new) ground
        // truth. One weighted event per live signal per tick — the fluid
        // expected-mass model the estimator's stationarity contract is
        // stated over (DESIGN.md §5.16).
        let traffic = self.traffic.as_mut().expect("traffic mode");
        for t in 0..ticks {
            let tick = traffic.clock + t;
            for (c, &(beta, gamma)) in traffic.true_maint.iter().enumerate() {
                let class = ClassId(c as u32);
                if beta > 0.0 {
                    tuner.observe(tick, &WorkloadEvent::Insert { class }, beta);
                }
                if gamma > 0.0 {
                    tuner.observe(tick, &WorkloadEvent::Delete { class }, gamma);
                }
            }
            for (&key, alphas) in &traffic.true_queries {
                for (c, &alpha) in alphas.iter().enumerate() {
                    if alpha > 0.0 {
                        let event = WorkloadEvent::Query {
                            path: PathKey(key),
                            class: ClassId(c as u32),
                        };
                        tuner.observe(tick, &event, alpha);
                    }
                }
            }
        }
        traffic.clock += ticks;
        let clock = traffic.clock;
        tuner.seal(clock);

        // Phase 3: retune. Estimator drift beats structural churn (a
        // drift-triggered retune folds the structural changes in anyway,
        // because it ends in the same `reoptimize()`).
        let plan = if let Some(plan) = tuner.maybe_retune(advisor) {
            Some(plan)
        } else if churn.arrived + churn.departed + churn.stats_changed > 0 {
            Some(advisor.reoptimize())
        } else {
            None
        };
        (churn, plan)
    }

    /// Applies one epoch of churn to `advisor` through its mutation API.
    /// The advisor must be bound to `self`'s workload schema.
    pub fn step(&mut self, advisor: &mut WorkloadAdvisor<'_>) -> EpochChurn {
        self.churn(advisor, None)
    }

    /// The one churn stream: departures, arrivals, statistics, rate and
    /// query drift, drawn in that order. With a `tuner` (traffic mode),
    /// the tuner tracks every arrival and departure, and rate and query
    /// drift go to the shadow ground truth instead of the advisor.
    fn churn(
        &mut self,
        advisor: &mut WorkloadAdvisor<'_>,
        tuner: Option<&mut OnlineTuner>,
    ) -> EpochChurn {
        let w = self.workload;
        let class_count = w.schema.class_count();
        let mut shadow = tuner.map(|tuner| (self.traffic.as_mut().expect("traffic mode"), tuner));
        let mut churn = EpochChurn::default();

        // Departures first (a production queue drains before it refills —
        // and this exercises candidate freeing before re-interning).
        for _ in 0..self.spec.departures {
            let ids: Vec<_> = advisor.path_ids().collect();
            if ids.len() <= 1 {
                break;
            }
            let victim = ids[self.rng.gen_range(0..ids.len())];
            advisor.remove_path(victim).expect("live handle");
            if let Some((traffic, tuner)) = &mut shadow {
                let key = victim.raw() as u64;
                tuner.untrack(PathKey(key));
                traffic.true_queries.remove(&key);
            }
            churn.departed += 1;
        }
        for _ in 0..self.spec.arrivals {
            let path = random_walk(&w.schema, w.root, &w.children, &mut self.rng);
            let alphas = random_query_rates(class_count, &mut self.rng);
            let id = advisor.add_path_dense(path, alphas);
            if let Some((traffic, tuner)) = &mut shadow {
                let key = id.raw() as u64;
                tuner.track(PathKey(key), id);
                let alphas = advisor.query_rates(id).expect("live path").to_vec();
                traffic.true_queries.insert(key, alphas);
            }
            churn.arrived += 1;
        }
        for _ in 0..self.spec.stat_drifts {
            let class = ClassId(self.rng.gen_range(0..class_count) as u32);
            let old = self.stats[class.index()];
            let scale = self.rng.gen_range(500..2000) as f64 / 1000.0;
            let new = ClassStats::new(
                (old.n * scale).max(1.0).round(),
                (old.d * scale).max(1.0).round(),
                old.nin,
            );
            self.stats[class.index()] = new;
            if advisor.update_stats(class, new) {
                churn.stats_changed += 1;
            }
        }
        for _ in 0..self.spec.rate_drifts {
            let class = ClassId(self.rng.gen_range(0..class_count) as u32);
            let rates = (
                self.rng.gen_range(0..200) as f64 / 1000.0,
                self.rng.gen_range(0..200) as f64 / 1000.0,
            );
            let moved = match &mut shadow {
                Some((traffic, _)) => overwrite(&mut traffic.true_maint[class.index()], rates),
                None => advisor.update_rates(class, rates),
            };
            churn.rates_changed += usize::from(moved);
        }
        for _ in 0..self.spec.query_drifts {
            let ids: Vec<_> = advisor.path_ids().collect();
            if ids.is_empty() {
                break;
            }
            let target = ids[self.rng.gen_range(0..ids.len())];
            let alphas = random_query_rates(class_count, &mut self.rng);
            let moved = match &mut shadow {
                Some((traffic, _)) => {
                    let key = target.raw() as u64;
                    let slot = traffic.true_queries.get_mut(&key);
                    overwrite(slot.expect("live path has a shadow"), alphas)
                }
                None => advisor.update_query_rates(target, move |c| alphas[c.index()]),
            };
            churn.queries_changed += usize::from(moved);
        }
        churn
    }
}

/// Writes `new` over `slot` unless the two are equal, as the advisor's
/// mutators do; returns whether it moved.
fn overwrite<T: PartialEq>(slot: &mut T, new: T) -> bool {
    let moved = *slot != new;
    if moved {
        *slot = new;
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synth_workload, WorkloadSpec};
    use oic_cost::CostParams;

    #[test]
    fn drift_is_deterministic_per_seed() {
        let w = synth_workload(&WorkloadSpec {
            paths: 10,
            depth: 4,
            fanout: 2,
            seed: 3,
        });
        let run = |seed| {
            let mut adv = w.advisor(CostParams::default());
            adv.optimize();
            let mut sim = DriftSim::new(
                &w,
                DriftSpec {
                    seed,
                    ..DriftSpec::default()
                },
            );
            let mut costs = Vec::new();
            for _ in 0..3 {
                sim.step(&mut adv);
                costs.push(adv.reoptimize().total_cost);
            }
            costs
        };
        assert_eq!(run(11), run(11), "same seed, same trajectory");
        assert_ne!(run(11), run(12), "different seed, different churn");
    }

    #[test]
    fn churn_respects_the_floor_of_one_path() {
        let w = synth_workload(&WorkloadSpec {
            paths: 2,
            depth: 3,
            fanout: 2,
            seed: 5,
        });
        let mut adv = w.advisor(CostParams::default());
        adv.optimize();
        let mut sim = DriftSim::new(
            &w,
            DriftSpec {
                arrivals: 0,
                departures: 10,
                stat_drifts: 0,
                rate_drifts: 0,
                query_drifts: 0,
                seed: 1,
            },
        );
        let churn = sim.step(&mut adv);
        assert_eq!(churn.departed, 1, "never drains below one path");
        assert_eq!(adv.path_count(), 1);
        assert!(adv.reoptimize().total_cost > 0.0);
    }
}
