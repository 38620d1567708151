//! Frequent-subpath mining: admission of index candidates from the
//! observed query stream, *before* the optimizer prices anything
//! (DESIGN.md §5.17).
//!
//! Aouiche & Darmont mine frequent itemsets from the query log to shrink
//! an index advisor's candidate set; CoPhy's scalability hinges on the
//! same candidate-space reduction. Here the itemset lattice is the
//! **interval lattice** of a path's subpaths: an item is a path position,
//! an itemset is the contiguous span `(s..=e)` a candidate subpath
//! indexes, and a query *contains* a span when its traversal visits every
//! position of it. A query entering at position `l` (a query on the
//! ending attribute w.r.t. the class at `l` — Section 2 of the paper)
//! traverses positions `l..=n`, so the traversal mass at position `p` is
//! the summed `α` of every position at or above `p`
//! ([`position_mass`]), and the support of a span — the rate of queries
//! that traverse *all* of it — is the minimum traversal mass over its
//! positions (its start, masses being non-decreasing along the path).
//! That minimum is **anti-monotone** over span inclusion
//! (`support(s,e) = min(support(s,e-1), support(s+1,e))`), which is
//! exactly the downward-closure property Apriori exploits: a span is
//! generated as a level-`k` candidate only when both of its `(k-1)`-
//! sub-spans are frequent, so infrequent regions of the lattice are never
//! expanded. Mining therefore drops precisely the spans that start in a
//! path's rarely-traversed prefix — the chains a kept span can still
//! extend are never severed in the middle, which is why admission stays
//! cheap in plan quality (the bound the advisor reports).
//!
//! [`mine`] runs the level-wise pass over per-position masses (from
//! declared rates via [`position_mass`], from a live decayed
//! [`RateEstimator`] via [`position_mass_from_estimator`], or straight
//! from a captured [`EventLog`] via [`mine_log`]); the resulting
//! [`MiningOutcome`] tells the advisor which subpath ranks to intern at
//! all. Support `0` admits everything — the unmined candidate space, and
//! therefore the unmined plan, bitwise.
//!
//! **Coverability is structural.** A selection must tile the whole path,
//! so every position needs at least one admitted span. Because support is
//! an interval minimum, an infrequent singleton poisons every span
//! containing it — if position `l`'s own mass is below the threshold, *no*
//! span covering `l` is frequent. The outcome therefore always admits a
//! covering set: with [`MiningPolicy::always_admit_owned`] (the default)
//! every position's own singleton rank bypasses the support test; without
//! it, singletons compete like any span and the positions left uncovered
//! get their singleton force-admitted (counted in
//! [`MiningOutcome::forced`] — by the poisoning argument this recovers
//! exactly the infrequent singletons, so the two modes admit the same
//! set and differ only in how they account for it). The apex
//! (whole-path) rank is kept unconditionally as well: the workload
//! selection layer has no no-index arm, so the coarsest one-index
//! tiling must survive for paths whose traffic never clears the
//! threshold.

use crate::capture::{EstimatorConfig, EventLog, PathKey, RateEstimator};
use oic_schema::{ClassId, Path, Schema, SubpathId};

/// When a mined support admits a candidate subpath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiningPolicy {
    /// Minimum support (traversal mass, see [`mine`]) below which a
    /// candidate span is dropped. `0.0` — the default — drops nothing:
    /// masses are sums of non-negative rates, so every span passes and the
    /// candidate space is reproduced bitwise.
    pub min_support: f64,
    /// Admit every position's own singleton rank regardless of support
    /// (the default). Off, singletons compete too — but a position left
    /// uncovered still force-admits its singleton (selections must tile
    /// the path), so this flag moves singletons between the `admitted`
    /// and `forced` ledgers rather than changing the admitted set.
    pub always_admit_owned: bool,
}

impl Default for MiningPolicy {
    fn default() -> Self {
        MiningPolicy {
            min_support: 0.0,
            always_admit_owned: true,
        }
    }
}

impl MiningPolicy {
    /// Whether this policy can drop anything at all. Supports are
    /// non-negative, so a non-positive threshold admits every span and
    /// the miner can be skipped wholesale.
    pub fn is_gating(&self) -> bool {
        self.min_support > 0.0
    }
}

/// The miner's verdict for one path: per-rank supports and admissions, in
/// [`SubpathId`] rank order.
#[derive(Debug, Clone)]
pub struct MiningOutcome {
    /// Exact support of every subpath rank (the interval minimum of the
    /// per-position masses), including Apriori-pruned ranks — the
    /// recurrence fills the whole table as a by-product of the join.
    pub supports: Vec<f64>,
    /// Whether each rank is admitted into the candidate space.
    pub admitted: Vec<bool>,
    /// Ranks dropped (`admitted` false) — what the optimizer will never
    /// price.
    pub mined_out: usize,
    /// Ranks admitted *despite* failing the support test: singletons
    /// whose position would otherwise be uncoverable, plus the apex
    /// (whole-path) rank when infrequent — the coarsest cover is always
    /// kept so a cold path can still be tiled by a single index.
    pub forced: usize,
    /// Deepest lattice level (span length) holding a frequent span — how
    /// far the level-wise expansion got before dying out.
    pub levels: usize,
}

/// Traversal mass of each path position under per-class query rates: a
/// query entering at position `l` traverses every position `l..=n` on its
/// way to the ending attribute, so position `p` carries the *cumulative*
/// `α` of the classes native to positions `1..=p`
/// (`Path::scope_by_position`) — the rate of query traffic that flows
/// through `p`, and therefore through any candidate span containing `p`.
/// Non-decreasing along the path; returned dense, `masses[l - 1]` for
/// position `l`.
pub fn position_mass(
    schema: &Schema,
    path: &Path,
    mut alpha: impl FnMut(ClassId) -> f64,
) -> Vec<f64> {
    let mut entering = 0.0;
    path.scope_by_position(schema)
        .iter()
        .map(|classes| {
            entering += classes.iter().map(|&c| alpha(c)).sum::<f64>();
            entering
        })
        .collect()
}

/// [`position_mass`] read from a live decayed estimator — what an online
/// retune mines from: the same per-path, per-class query-rate estimates
/// the tuner pushes through the advisor's mutation API.
pub fn position_mass_from_estimator(
    schema: &Schema,
    path: &Path,
    estimator: &RateEstimator,
    key: PathKey,
) -> Vec<f64> {
    position_mass(schema, path, estimator.path(key))
}

/// The level-wise frequent-span miner. `masses[l - 1]` is position `l`'s
/// query mass; the path has `masses.len()` positions.
///
/// Level 1 scores every singleton; level `k` *generates* a span only when
/// both of its `(k-1)`-sub-spans are frequent (the Apriori join — an
/// infrequent sub-span certifies, by anti-monotonicity, that every
/// extension is infrequent without evaluating it) and admits it when its
/// support clears [`MiningPolicy::min_support`]. The support table itself
/// is filled for every rank via the same `min` recurrence the join
/// evaluates, so reporting is total even where the expansion was pruned.
pub fn mine(policy: &MiningPolicy, masses: &[f64]) -> MiningOutcome {
    let n = masses.len();
    let ranks = SubpathId::count(n);
    let mut supports = vec![0.0; ranks];
    let mut admitted = vec![false; ranks];
    let mut frequent = vec![false; ranks];
    let mut levels = 0;
    let rank = |s: usize, e: usize| SubpathId { start: s, end: e }.rank(n);
    // Level 1: singletons carry their own position mass.
    for (l, &mass) in masses.iter().enumerate() {
        let r = rank(l + 1, l + 1);
        supports[r] = mass;
        frequent[r] = mass >= policy.min_support;
        if frequent[r] {
            levels = 1;
        }
    }
    // Levels 2..=n: the Apriori join. A span is a candidate iff both
    // maximal proper sub-spans are frequent; its support is their minimum
    // (== the span's interval minimum). The recurrence still fills the
    // support table for pruned spans — one `min` each, free — but only
    // generated candidates are ever *evaluated* for admission.
    for k in 2..=n {
        let mut alive = false;
        for s in 1..=(n - k + 1) {
            let e = s + k - 1;
            let (left, right) = (rank(s, e - 1), rank(s + 1, e));
            let r = rank(s, e);
            supports[r] = supports[left].min(supports[right]);
            if frequent[left] && frequent[right] && supports[r] >= policy.min_support {
                frequent[r] = true;
                alive = true;
            }
        }
        if alive {
            levels = k;
        }
    }
    // Admission: frequent spans, plus the owned-singleton guarantee.
    for r in 0..ranks {
        let sub = SubpathId::from_rank(n, r);
        admitted[r] = frequent[r] || (sub.start == sub.end && policy.always_admit_owned);
    }
    // Coverability: force-admit the singleton of any position no admitted
    // span covers (an infrequent singleton poisons every span containing
    // it, so the force lands exactly on the infrequent singletons).
    let mut forced = 0;
    for l in 1..=n {
        let covered = (0..ranks).any(|r| {
            let sub = SubpathId::from_rank(n, r);
            admitted[r] && sub.start <= l && l <= sub.end
        });
        if !covered {
            admitted[rank(l, l)] = true;
            forced += 1;
        }
    }
    // The apex (whole-path) rank is always admitted: the selection layer
    // has no no-index arm at workload scale, so a path whose traversal
    // mass never clears the threshold must still be tileable by ONE
    // index — the paper's baseline configuration — rather than a forced
    // singleton tiling whose maintenance multiplies with path length.
    // Mining thus prunes the middle of the interval lattice and always
    // keeps its two extremes, the coarsest and finest partitions.
    if n > 1 && !admitted[rank(1, n)] {
        admitted[rank(1, n)] = true;
        forced += 1;
    }
    let mined_out = admitted.iter().filter(|&&a| !a).count();
    MiningOutcome {
        supports,
        admitted,
        mined_out,
        forced,
        levels,
    }
}

/// [`mine`] straight from a captured [`EventLog`]: replay the log into a
/// fresh decayed estimator, seal past the last recorded tick, and score
/// `path`'s spans from the resulting per-class estimates under `key`.
/// A corrupt log (rewinding ticks, non-finite or negative weights) is
/// reported instead of panicking mid-replay.
pub fn mine_log(
    schema: &Schema,
    path: &Path,
    key: PathKey,
    log: &EventLog,
    cfg: EstimatorConfig,
    policy: &MiningPolicy,
) -> Result<MiningOutcome, crate::capture::CaptureError> {
    let mut estimator = RateEstimator::new(cfg);
    let mut last_tick = 0u64;
    log.replay(|tick, event, weight| {
        last_tick = last_tick.max(tick);
        estimator.observe(tick, event, weight);
    })?;
    estimator.seal(last_tick + 1);
    Ok(mine(
        policy,
        &position_mass_from_estimator(schema, path, &estimator, key),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::WorkloadEvent;
    use oic_schema::fixtures;

    fn pexa_masses(alpha: impl FnMut(ClassId) -> f64) -> Vec<f64> {
        let (schema, _) = fixtures::paper_schema();
        let path = fixtures::paper_path_pexa(&schema);
        position_mass(&schema, &path, alpha)
    }

    #[test]
    fn support_zero_admits_everything() {
        let masses = pexa_masses(|_| 0.0);
        let out = mine(&MiningPolicy::default(), &masses);
        assert!(out.admitted.iter().all(|&a| a));
        assert_eq!(out.mined_out, 0);
        assert_eq!(out.forced, 0);
        assert_eq!(out.levels, masses.len());
    }

    #[test]
    fn supports_are_interval_minima_and_anti_monotone() {
        let masses = [0.4, 0.1, 0.3, 0.2];
        let out = mine(&MiningPolicy::default(), &masses);
        let n = masses.len();
        for r in 0..SubpathId::count(n) {
            let sub = SubpathId::from_rank(n, r);
            let expect = (sub.start..=sub.end)
                .map(|l| masses[l - 1])
                .fold(f64::INFINITY, f64::min);
            assert_eq!(out.supports[r], expect, "rank {r}");
            // Anti-monotone: any containing span supports no more.
            for r2 in 0..SubpathId::count(n) {
                let sup = SubpathId::from_rank(n, r2);
                if sup.start <= sub.start && sub.end <= sup.end {
                    assert!(out.supports[r2] <= out.supports[r]);
                }
            }
        }
    }

    #[test]
    fn cold_position_poisons_every_containing_span() {
        // Position 2 is cold: every span containing it is mined out, the
        // rest are frequent. Singletons stay admitted (owned).
        let masses = [0.4, 0.01, 0.3, 0.2];
        let policy = MiningPolicy {
            min_support: 0.1,
            always_admit_owned: true,
        };
        let out = mine(&policy, &masses);
        let n = masses.len();
        for r in 0..SubpathId::count(n) {
            let sub = SubpathId::from_rank(n, r);
            let contains_cold = sub.start <= 2 && 2 <= sub.end;
            let singleton = sub.start == sub.end; // owned: always admitted
            let apex = sub.start == 1 && sub.end == n; // coarsest cover: kept
            assert_eq!(
                out.admitted[r],
                singleton || apex || !contains_cold,
                "rank {r} ({sub:?})"
            );
        }
        assert!(out.mined_out > 0);
        assert_eq!(out.forced, 1, "only the infrequent apex is forced");
    }

    #[test]
    fn unowned_singletons_are_forced_back_for_coverability() {
        let masses = [0.4, 0.01, 0.3, 0.2];
        let strict = MiningPolicy {
            min_support: 0.1,
            always_admit_owned: false,
        };
        let lenient = MiningPolicy {
            min_support: 0.1,
            always_admit_owned: true,
        };
        let a = mine(&strict, &masses);
        let b = mine(&lenient, &masses);
        // Same admitted set either way (the poisoning argument) — the
        // strict policy just books the cold singleton as forced. Both
        // force the infrequent apex (the coarsest cover is always kept).
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.forced, 2);
        assert_eq!(b.forced, 1);
        // Every position is covered by some admitted span.
        let n = masses.len();
        for l in 1..=n {
            assert!((0..SubpathId::count(n)).any(|r| {
                let sub = SubpathId::from_rank(n, r);
                a.admitted[r] && sub.start <= l && l <= sub.end
            }));
        }
    }

    #[test]
    fn mine_log_scores_from_replayed_traffic() {
        let (schema, _) = fixtures::paper_schema();
        let path = fixtures::paper_path_pexa(&schema);
        let key = PathKey(7);
        let mut log = EventLog::new();
        for t in 0..4 {
            for c in schema.class_ids() {
                log.push(
                    t,
                    WorkloadEvent::Query {
                        path: key,
                        class: c,
                    },
                    0.25,
                );
            }
        }
        let out = mine_log(
            &schema,
            &path,
            key,
            &log,
            EstimatorConfig::default(),
            &MiningPolicy {
                min_support: 0.1,
                always_admit_owned: true,
            },
        )
        .expect("well-formed log");
        // Uniform stationary traffic: every position is warm, nothing is
        // mined out.
        assert_eq!(out.mined_out, 0);
        assert!(out.levels >= 1);
    }
}
