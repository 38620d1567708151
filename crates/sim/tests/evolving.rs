//! The evolving-workload correctness anchor: for random mutation sequences
//! over small workloads (n ≤ 12 paths), an incremental `reoptimize()` must
//! produce a plan whose cost equals a cold `optimize()` on a freshly
//! rebuilt advisor over the mutated workload (up to cost ties / float
//! summation noise) — epoch after epoch.
//!
//! The warm path reuses interned candidates, memoized maintenance prices,
//! cached query shares, cached standalone optima and memoized sweep
//! responses; the cold path recomputes everything. Equality here is what
//! licenses every cache in the engine.

use oic_core::Choice;
use oic_cost::CostParams;
use oic_sim::{synth_forest, synth_workload, DriftSim, DriftSpec, ForestSpec, WorkloadSpec};
use proptest::prelude::*;

fn assert_plans_match(warm: &oic_core::WorkloadPlan, cold: &oic_core::WorkloadPlan, ctx: &str) {
    let tol = 1e-9 * warm.total_cost.abs().max(1.0);
    assert!(
        (warm.total_cost - cold.total_cost).abs() < tol,
        "{ctx}: warm {} vs cold {}",
        warm.total_cost,
        cold.total_cost
    );
    let tol = 1e-9 * warm.independent_cost.abs().max(1.0);
    assert!(
        (warm.independent_cost - cold.independent_cost).abs() < tol,
        "{ctx}: warm independent {} vs cold {}",
        warm.independent_cost,
        cold.independent_cost
    );
    assert_eq!(
        warm.physical_indexes, cold.physical_indexes,
        "{ctx}: physical designs diverged"
    );
    assert_eq!(warm.paths.len(), cold.paths.len(), "{ctx}");
    for (w, c) in warm.paths.iter().zip(&cold.paths) {
        assert_eq!(
            w.selection.pairs(),
            c.selection.pairs(),
            "{ctx}: path selections diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random drifting workloads over 1–5 class trees: every epoch's warm
    /// plan equals the cold rebuild, and all cached plumbing stays
    /// consistent — the incremental machinery (components rebuilt as
    /// paths split and merge them, basis eviction, prune-mask refresh)
    /// never lets a stale artifact leak into a plan.
    #[test]
    fn warm_reoptimize_equals_cold_rebuild(
        base_seed in 0u64..1_000,
        drift_seed in 0u64..1_000,
        roots in 1usize..=5,
        paths in 2usize..=12,
        epochs in 1usize..=4,
    ) {
        let w = synth_forest(&ForestSpec {
            roots,
            paths,
            depth: 4,
            fanout: 2,
            seed: base_seed,
        });
        let mut adv = w.advisor(CostParams::default());
        // Epoch 1 is itself the cold path (everything dirty).
        let first = adv.optimize();
        prop_assert!(first.total_cost.is_finite() && first.total_cost > 0.0);
        let mut sim = DriftSim::new(&w, DriftSpec {
            arrivals: 2,
            departures: 2,
            stat_drifts: 2,
            rate_drifts: 2,
            query_drifts: 3,
            seed: drift_seed,
        });
        for epoch in 0..epochs {
            let churn = sim.step(&mut adv);
            let warm = adv.reoptimize();
            let cold = adv.rebuild().optimize();
            assert_plans_match(&warm, &cold, &format!("epoch {epoch} ({churn:?})"));
            // The warm run only repriced dirty paths; the cold run repriced
            // everything. Same plan, less work.
            prop_assert!(warm.repriced_paths <= warm.paths.len());
            prop_assert_eq!(cold.repriced_paths, cold.paths.len());
            // Plans never cite a dead candidate, and every cited price is
            // live in the memo.
            let space = adv.candidate_space();
            for s in &warm.shared {
                prop_assert!(space.is_live(s.candidate));
                let priced = space.priced(s.candidate, s.org);
                prop_assert_eq!(priced.map(|(m, _)| m), Some(s.maintenance));
            }
            for p in &warm.paths {
                for &(_, choice) in p.selection.pairs() {
                    prop_assert!(matches!(choice, Choice::Index(_)));
                }
            }
        }
    }

    /// Churn dominated by departures and re-arrivals: candidate freeing,
    /// id recycling and re-pricing keep the space consistent with a cold
    /// interning of the survivors.
    ///
    /// (The long-horizon variant of this anchor — 200 epochs under the
    /// *parallel* engine — is the non-proptest stress test below.)
    #[test]
    fn departure_heavy_churn_keeps_space_live(
        base_seed in 0u64..500,
        drift_seed in 0u64..500,
    ) {
        let w = synth_workload(&WorkloadSpec {
            paths: 8,
            depth: 4,
            fanout: 2,
            seed: base_seed,
        });
        let mut adv = w.advisor(CostParams::default());
        adv.optimize();
        let mut sim = DriftSim::new(&w, DriftSpec {
            arrivals: 1,
            departures: 5,
            stat_drifts: 0,
            rate_drifts: 0,
            query_drifts: 0,
            seed: drift_seed,
        });
        for _ in 0..3 {
            sim.step(&mut adv);
            let warm = adv.reoptimize();
            let cold = adv.rebuild().optimize();
            assert_plans_match(&warm, &cold, "departure-heavy epoch");
            // The live candidate count matches a cold interning of the
            // surviving paths exactly — nothing leaks, nothing dangles.
            prop_assert_eq!(warm.candidates, cold.candidates);
        }
    }
}

/// 200 epochs of drift under the **parallel engine**: the warm
/// `reoptimize()` still equals a cold `rebuild().optimize()` after long
/// cache-churn horizons — id recycling, memo invalidation and
/// best-response memos never drift, and the parallel fan-out (buffered
/// pricing merges, per-component descents) never perturbs the anchor. The
/// cold baseline inherits the advisor's executor via `rebuild()`, so
/// both sides of every comparison run the same engine.
#[test]
fn two_hundred_epoch_parallel_churn_keeps_the_warm_cold_anchor() {
    let w = synth_workload(&WorkloadSpec {
        paths: 12,
        depth: 4,
        fanout: 2,
        seed: 1994,
    });
    let mut adv = w.advisor(CostParams::default()).with_threads(4);
    assert!(adv.executor().is_parallel());
    let first = adv.optimize();
    assert!(first.total_cost.is_finite() && first.total_cost > 0.0);
    let mut sim = DriftSim::new(
        &w,
        DriftSpec {
            arrivals: 2,
            departures: 2,
            stat_drifts: 1,
            rate_drifts: 1,
            query_drifts: 2,
            seed: 77,
        },
    );
    let mut total_mutations = 0usize;
    for epoch in 0..200 {
        let churn = sim.step(&mut adv);
        total_mutations += churn.total();
        let warm = adv.reoptimize();
        let cold = adv.rebuild().optimize();
        assert_plans_match(&warm, &cold, &format!("stress epoch {epoch} ({churn:?})"));
        assert_eq!(
            warm.candidates, cold.candidates,
            "stress epoch {epoch}: candidate space leaked or dangled"
        );
        // The warm engine must keep doing *less* pricing work than the
        // cold rebuild, epoch after epoch — caches that silently died
        // would still pass the cost check above.
        assert!(
            warm.epoch_pricings <= cold.epoch_pricings,
            "stress epoch {epoch}: warm priced {} cells, cold {}",
            warm.epoch_pricings,
            cold.epoch_pricings
        );
    }
    assert!(
        total_mutations >= 200,
        "the drift spec must actually churn: {total_mutations} mutations"
    );
}
