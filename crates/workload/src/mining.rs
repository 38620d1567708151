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
//! positions.
//!
//! **Apriori collapses to a closed form on intervals.** A span's support
//! is an interval minimum, so a span is frequent exactly when every one
//! of its positions is: the level-wise join (generate a span only when
//! both maximal sub-spans are frequent) admits precisely the spans lying
//! inside one run of frequent positions. [`mine`] therefore scans each
//! start forward until its first infrequent position, `O(n²)` over the
//! `n(n+1)/2` ranks. Mining drops precisely the spans that reach into a
//! rarely-traversed position — the chains a kept span can still extend
//! are never severed in the middle, which is why admission stays cheap in
//! plan quality (the bound the advisor reports). Support `0` admits
//! everything — the unmined candidate space, and therefore the unmined
//! plan, bitwise.
//!
//! **Coverability is structural.** A selection must tile the whole path,
//! so every position needs at least one admitted span. An infrequent
//! position poisons every span containing it, so the outcome always
//! admits every singleton: with [`MiningPolicy::always_admit_owned`] (the
//! default) as owned ranks, without it as forced ones (counted in
//! [`MiningOutcome::forced`]) — the two modes admit the same set and
//! differ only in how they account for it. The apex (whole-path) rank is
//! kept unconditionally as well: the workload selection layer has no
//! no-index arm, so the coarsest one-index tiling must survive for paths
//! whose traffic never clears the threshold.

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

/// The miner's verdict for one path: per-rank admissions, in [`SubpathId`]
/// rank order.
#[derive(Debug, Clone)]
pub struct MiningOutcome {
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

/// The frequent-span miner. `masses[l - 1]` is position `l`'s query
/// mass; the path has `masses.len()` positions.
///
/// A position is frequent when its mass clears
/// [`MiningPolicy::min_support`] (a NaN mass or threshold never does). A
/// span is admitted when every position in it is frequent, when it is a
/// singleton, or when it is the apex — what the Apriori join computes on
/// the interval lattice, read off in closed form.
pub fn mine(policy: &MiningPolicy, masses: &[f64]) -> MiningOutcome {
    let n = masses.len();
    let mut admitted = vec![false; SubpathId::count(n)];
    for s in 1..=n {
        // Spans from `s` stay frequent up to the first infrequent position.
        let mut frequent = true;
        for e in s..=n {
            frequent &= masses[e - 1] >= policy.min_support;
            let apex = s == 1 && e == n;
            admitted[SubpathId { start: s, end: e }.rank(n)] = frequent || s == e || apex;
        }
    }
    let cold = n - masses.iter().filter(|&&m| m >= policy.min_support).count();
    let forced_singletons = if policy.always_admit_owned { 0 } else { cold };
    let forced_apex = usize::from(n > 1 && cold > 0);
    let mined_out = admitted.iter().filter(|&&a| !a).count();
    MiningOutcome {
        admitted,
        mined_out,
        forced: forced_singletons + forced_apex,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_schema::fixtures;
    use proptest::prelude::*;

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

    /// Masses and thresholds from a small alphabet, so ties, NaN, ±∞
    /// and negatives all come up.
    fn hostile() -> impl Strategy<Value = f64> {
        prop::sample::select(vec![
            f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            0.0,
            0.1,
            0.25,
            1.0,
            f64::INFINITY,
        ])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// `mine` against the definition it implements: a span is admitted
        /// when every position in it clears the threshold, when it is a
        /// singleton, or when it is the apex; `forced` books the infrequent
        /// singletons (unless owned) plus an infrequent apex.
        #[test]
        fn mine_matches_the_brute_force_definition(
            masses in prop::collection::vec(hostile(), 0..=10),
            min_support in hostile(),
        ) {
            let n = masses.len();
            let frequent = |l: usize| masses[l - 1] >= min_support;
            let cold = (1..=n).filter(|&l| !frequent(l)).count();
            let want: Vec<bool> = (0..SubpathId::count(n))
                .map(|r| {
                    let sub = SubpathId::from_rank(n, r);
                    (sub.start..=sub.end).all(frequent)
                        || sub.start == sub.end
                        || (sub.start == 1 && sub.end == n)
                })
                .collect();
            let apex_forced = usize::from(n > 1 && (1..=n).any(|l| !frequent(l)));
            for always_admit_owned in [true, false] {
                let policy = MiningPolicy { min_support, always_admit_owned };
                let out = mine(&policy, &masses);
                prop_assert_eq!(&out.admitted, &want, "{:?} at {}", masses, min_support);
                prop_assert_eq!(out.mined_out, want.iter().filter(|&&a| !a).count());
                let singletons = if always_admit_owned { 0 } else { cold };
                prop_assert_eq!(out.forced, singletons + apex_forced, "{:?}", policy);
            }
        }
    }
}
