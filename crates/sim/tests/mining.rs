//! The candidate-mining anchors (DESIGN.md §5.17).
//!
//! Three contracts pin the admission layer:
//!
//! * **Support 0 is the identity.** A `MiningPolicy` with `min_support`
//!   0 admits every candidate, so the mined advisor's plan is *bitwise*
//!   the unmined advisor's plan — same cost bits, same selections, same
//!   work counters — under 1 and 8 lanes, each chosen with the builder
//!   knob.
//! * **Budgeted solves price under the λ-aware mask.** Every λ sweep
//!   runs under the size-aware dominance mask, in the full space and in
//!   a mined one, for random budgets — including infeasible ones — and a
//!   plan reported feasible fits its budget. (That the mask never changes
//!   *which* plan wins is the exhaustive oracle's job, `budgeted.rs`.)
//! * **Mining is boundedly suboptimal.** Coverability keeps every mined
//!   space feasible, and [`WorkloadAdvisor::mining_cost_bound`] converts
//!   the dropped candidates into a provable price cap: the mined plan
//!   never exceeds the unmined plan by more than the bound.

use oic_cost::CostParams;
use oic_sim::{synth_workload, WorkloadSpec};
use oic_workload::MiningPolicy;
use proptest::prelude::*;

/// The lane counts the support-0 identity must hold on.
const LANES: [usize; 2] = [1, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Support-0 mining reproduces the unmined candidate space — and
    /// therefore the unmined plan — bitwise, sequential and parallel.
    #[test]
    fn support_zero_is_the_unmined_advisor_bitwise(
        seed in 0u64..1_000,
        paths in 2usize..=12,
        always_admit_owned in any::<bool>(),
    ) {
        let w = synth_workload(&WorkloadSpec {
            paths,
            depth: 4,
            fanout: 2,
            seed,
        });
        for threads in LANES {
            let mut unmined = w.advisor(CostParams::default()).with_threads(threads);
            let mut mined = w
                .advisor(CostParams::default())
                .with_threads(threads)
                .with_mining(MiningPolicy {
                    min_support: 0.0,
                    always_admit_owned,
                });
            let base = unmined.optimize();
            let plan = mined.optimize();
            plan.assert_bit_identical_to(&base, &format!("support 0, threads={threads}"));
            prop_assert_eq!(plan.candidates_mined_out, 0);
        }
    }

    /// Budgeted solves price λ sweeps under the size-aware mask — for
    /// random budgets, infeasible included, in the full space *and* in a
    /// mined space (where struck-but-covered cells that lose their sharer
    /// mid-search once tripped the repair pass's improvement guard) — and
    /// a feasible verdict means the plan fits. Debug builds re-derive
    /// every eviction trial of these solves through `selection_totals`.
    /// (The name dates from the mask-free engine this was compared
    /// against; the plan-level check is now `budgeted.rs`'s oracle.)
    #[test]
    fn masked_budgeted_plans_match_the_unpruned_engine(
        seed in 0u64..1_000,
        paths in 2usize..=64,
        fraction in 0.01f64..1.2,
        min_support in 0.0f64..0.8,
    ) {
        let w = synth_workload(&WorkloadSpec {
            paths,
            depth: 4,
            fanout: 2,
            seed,
        });
        for mined in [false, true] {
            let policy = MiningPolicy {
                min_support: if mined { min_support } else { 0.0 },
                always_admit_owned: true,
            };
            let mut adv = w.advisor(CostParams::default()).with_mining(policy);
            let unconstrained = adv.optimize();
            let budget = unconstrained.size_pages * fraction;
            let b = adv.optimize_with_budget(budget);
            prop_assert!(
                !b.feasible || b.plan.size_pages <= budget,
                "budget {} ({:.2}×, mined={}): feasible plan takes {} pages",
                budget, fraction, mined, b.plan.size_pages
            );
            // When the Lagrangian search engaged, it must have run masked
            // (the mask can only be empty when dominance found nothing —
            // tracked via the unconstrained pruning counter).
            if b.lambda_sweeps > 0 && unconstrained.candidates_pruned > 0 {
                prop_assert!(b.plan.lambda_pruned > 0, "λ sweeps ran unmasked");
            }
        }
    }

    /// Positive-support mining may drop candidates, but never costs more
    /// than the miner's own replacement bound: coverability guarantees a
    /// mined-feasible repair of the unmined optimum whose surcharge is
    /// at most the summed full price of the replacement singletons.
    #[test]
    fn mined_cost_stays_within_the_dropped_support_bound(
        seed in 0u64..1_000,
        paths in 2usize..=16,
        min_support in 0.0f64..1.5,
    ) {
        let w = synth_workload(&WorkloadSpec {
            paths,
            depth: 5,
            fanout: 2,
            seed,
        });
        let mut unmined = w.advisor(CostParams::default());
        let mut mined = w.advisor(CostParams::default()).with_mining(MiningPolicy {
            min_support,
            always_admit_owned: true,
        });
        let base = unmined.optimize();
        let plan = mined.optimize();
        let bound = mined.mining_cost_bound();
        let slack = 1e-9 * (1.0 + base.total_cost.abs() + bound);
        prop_assert!(
            plan.total_cost <= base.total_cost + bound + slack,
            "mined {} > unmined {} + bound {} ({} ranks mined out)",
            plan.total_cost,
            base.total_cost,
            bound,
            plan.candidates_mined_out,
        );
        // The bound is exactly 0 ⇔ nothing was mined out, and an empty
        // admission change keeps the plan bitwise.
        if plan.candidates_mined_out == 0 {
            prop_assert_eq!(bound, 0.0);
            plan.assert_bit_identical_to(&base, "nothing mined out");
        } else {
            prop_assert!(bound > 0.0);
        }
    }
}

/// The miner's verdict is a pure function of (policy, path, rates), so a
/// retune that lands on new rates re-mines: warm admission equals what a
/// cold advisor built from the same rates would admit — same selections,
/// same costs, same mined-out count. (Candidate *ids* may differ — the
/// warm interner recycles slots — so the comparison follows the
/// `evolving.rs` warm-vs-cold idiom rather than `assert_same_plan`.)
#[test]
fn remining_after_rate_updates_matches_a_cold_advisor() {
    let w = synth_workload(&WorkloadSpec {
        paths: 8,
        depth: 5,
        fanout: 2,
        seed: 517,
    });
    let policy = MiningPolicy {
        min_support: 0.4,
        always_admit_owned: true,
    };
    let mut warm = w.advisor(CostParams::default()).with_mining(policy);
    warm.optimize();
    // Shift every path's query mass — some positions cross the support
    // threshold in each direction.
    let ids: Vec<_> = warm.path_ids().collect();
    for (k, id) in ids.iter().enumerate() {
        warm.update_query_rates(*id, |c| {
            if (c.index() + k) % 2 == 0 {
                0.05
            } else {
                0.45 + 0.01 * c.index() as f64
            }
        });
    }
    let warm_plan = warm.reoptimize();
    let mut cold = warm.rebuild();
    let cold_plan = cold.optimize();
    let tol = 1e-9 * warm_plan.total_cost.abs().max(1.0);
    assert!(
        (warm_plan.total_cost - cold_plan.total_cost).abs() < tol,
        "warm {} vs cold {}",
        warm_plan.total_cost,
        cold_plan.total_cost
    );
    assert_eq!(warm_plan.physical_indexes, cold_plan.physical_indexes);
    assert_eq!(warm_plan.paths.len(), cold_plan.paths.len());
    for (w, c) in warm_plan.paths.iter().zip(&cold_plan.paths) {
        assert_eq!(
            w.selection.pairs(),
            c.selection.pairs(),
            "selections diverged"
        );
    }
    assert_eq!(
        warm_plan.candidates_mined_out, cold_plan.candidates_mined_out,
        "admission is a pure function of (policy, path, rates)"
    );
    assert!(
        warm_plan.candidates_mined_out > 0,
        "support 0.4 against rates in [0.05, 0.5) must mine something out"
    );
}
