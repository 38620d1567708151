//! The parallel-engine determinism harness: for any thread count, the
//! advisor's plan must be **bit-identical** to the sequential engine's —
//! selections, every float (compared via `to_bits`), and the work-audit
//! telemetry (pricings, DP runs, memo hits, sweeps) alike, as spelled by
//! `WorkloadPlan::assert_bit_identical_to`.
//!
//! This is deliberately stronger than the warm-vs-cold anchor in
//! `evolving.rs` (which tolerates float-summation noise): the parallel
//! engine runs the *same* trajectory as the sequential one — buffered
//! memo merges in path-id order, speculation committed only on
//! context match, value-sorted float reductions — so nothing may move by
//! even one ulp (DESIGN.md §5.13).

use oic_core::{BudgetedWorkloadPlan, WorkloadPlan};
use oic_cost::CostParams;
use oic_sim::{synth_forest, synth_workload, DriftSim, DriftSpec, ForestSpec, WorkloadSpec};
use proptest::prelude::*;

/// Thread counts under test: the sequential engine and two pool shapes.
const LANES: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `optimize()` and post-churn `reoptimize()` are bit-identical across
    /// thread counts {1, 2, 8} on random workloads of up to 64 paths.
    #[test]
    fn parallel_optimize_and_reoptimize_match_sequential(
        seed in 0u64..1_000,
        drift_seed in 0u64..1_000,
        paths in 2usize..=64,
    ) {
        let w = synth_workload(&WorkloadSpec {
            paths,
            depth: 4,
            fanout: 2,
            seed,
        });
        // One advisor per engine over the identical workload; each gets
        // its own drift simulator with the same seed, so the advisors see
        // the same mutation stream.
        let mut advisors: Vec<_> = LANES
            .iter()
            .map(|&lanes| w.advisor(CostParams::default()).with_threads(lanes))
            .collect();
        let mut sims: Vec<_> = LANES
            .iter()
            .map(|_| DriftSim::new(&w, DriftSpec { seed: drift_seed, ..DriftSpec::default() }))
            .collect();

        let plans: Vec<WorkloadPlan> = advisors.iter_mut().map(|a| a.optimize()).collect();
        for (plan, &lanes) in plans.iter().zip(&LANES).skip(1) {
            plans[0].assert_bit_identical_to(plan, &format!("cold optimize, {lanes} lanes"));
        }

        for epoch in 0..2 {
            let plans: Vec<WorkloadPlan> = advisors
                .iter_mut()
                .zip(&mut sims)
                .map(|(adv, sim)| {
                    sim.step(adv);
                    adv.reoptimize()
                })
                .collect();
            for (plan, &lanes) in plans.iter().zip(&LANES).skip(1) {
                plans[0].assert_bit_identical_to(
                    plan,
                    &format!("epoch {epoch} reoptimize, {lanes} lanes"),
                );
            }
        }
    }

    /// The budgeted search — λ sweeps, eviction descent, frontier repair —
    /// is bit-identical across thread counts, feasible or not.
    #[test]
    fn parallel_budgeted_selection_matches_sequential(
        seed in 0u64..1_000,
        paths in 2usize..=12,
        tightness in 0usize..=2,
    ) {
        let w = synth_workload(&WorkloadSpec {
            paths,
            depth: 4,
            fanout: 2,
            seed,
        });
        let unconstrained = w
            .advisor(CostParams::default())
            .with_threads(1)
            .optimize();
        // Slack, binding, and infeasibility-prone budgets.
        let budget = unconstrained.size_pages * [1.0, 0.6, 0.05][tightness];
        let budgeted: Vec<BudgetedWorkloadPlan> = LANES
            .iter()
            .map(|&lanes| {
                w.advisor(CostParams::default())
                    .with_threads(lanes)
                    .optimize_with_budget(budget)
            })
            .collect();
        for (plan, &lanes) in budgeted.iter().zip(&LANES).skip(1) {
            budgeted[0].assert_bit_identical_to(
                plan,
                &format!("budget {budget:.0}, {lanes} lanes"),
            );
        }
    }

    /// Warm ≡ cold for the recorded eviction descent (DESIGN.md §5.12):
    /// budgets served in shuffled order by one advisor — extending the
    /// trail (0.9 → 0.25 → 0.1), landing inside it (0.5, 0.75) — equal,
    /// bit for bit, each budget solved on a fresh `rebuild()`, under
    /// every lane count and both engines; and the warm runs agree with
    /// each other across lanes (work counters included) and engines.
    #[test]
    fn warm_budget_sweeps_match_cold_rebuilds(
        seed in 0u64..1_000,
        roots in 1usize..=3,
        paths in 8usize..=16,
    ) {
        const FRACTIONS: [f64; 5] = [0.9, 0.25, 0.5, 0.1, 0.75];
        let w = synth_forest(&ForestSpec { roots, paths, depth: 4, fanout: 2, seed });
        let mut runs: Vec<Vec<BudgetedWorkloadPlan>> = Vec::new();
        for &lanes in &LANES {
            for sharding in [true, false] {
                let mut adv = w
                    .advisor(CostParams::default())
                    .with_threads(lanes)
                    .with_sharding(sharding);
                let size = adv.optimize().size_pages;
                let warm: Vec<BudgetedWorkloadPlan> = FRACTIONS
                    .iter()
                    .map(|f| {
                        let warm = adv.optimize_with_budget(f * size);
                        let cold = adv.rebuild().optimize_with_budget(f * size);
                        warm.assert_same_plan(
                            &cold,
                            &format!("{lanes} lanes, sharding {sharding}, budget {f}·size"),
                        );
                        warm
                    })
                    .collect();
                runs.push(warm);
            }
        }
        for (k, &lanes) in LANES.iter().enumerate() {
            for (i, f) in FRACTIONS.iter().enumerate() {
                let ctx = format!("{lanes} lanes, budget {f}·size");
                let (sharded, unsharded) = (&runs[2 * k][i], &runs[2 * k + 1][i]);
                sharded.assert_same_plan(unsharded, &ctx);
                runs[0][i].assert_bit_identical_to(sharded, &ctx);
                runs[1][i].assert_bit_identical_to(unsharded, &ctx);
                // Which trials a call runs depends on the trail it found,
                // never on the lanes or the engine.
                prop_assert_eq!(runs[0][i].eviction_trials, sharded.eviction_trials);
                prop_assert_eq!(runs[0][i].eviction_trials, unsharded.eviction_trials);
            }
        }
    }

    /// Cross-**engine** determinism (DESIGN.md §5.15): the sharded engine
    /// (component descent, dominance pruning, per-signature query bases)
    /// selects the same plan — cost bits, selections, shared outcomes —
    /// as the legacy global engine, across thread counts {1, 2, 8}, cold
    /// and after churn. Forest workloads guarantee several components
    /// (including singletons), so the decomposition actually engages.
    #[test]
    fn sharded_engine_plans_match_unsharded(
        seed in 0u64..1_000,
        drift_seed in 0u64..1_000,
        roots in 1usize..=6,
        paths in 2usize..=48,
    ) {
        let w = synth_forest(&ForestSpec { roots, paths, depth: 4, fanout: 2, seed });
        // Per lane one advisor per engine; every advisor gets its own
        // same-seeded drift simulator, so all see one mutation stream.
        let mut advisors: Vec<_> = LANES
            .iter()
            .flat_map(|&lanes| {
                [true, false].map(|sharding| {
                    w.advisor(CostParams::default())
                        .with_threads(lanes)
                        .with_sharding(sharding)
                })
            })
            .collect();
        let mut sims: Vec<_> = advisors
            .iter()
            .map(|_| DriftSim::new(&w, DriftSpec { seed: drift_seed, ..DriftSpec::default() }))
            .collect();

        let check = |plans: &[WorkloadPlan], when: &str| {
            for (k, &lanes) in LANES.iter().enumerate() {
                let (sharded, unsharded) = (&plans[2 * k], &plans[2 * k + 1]);
                sharded.assert_same_plan(unsharded, &format!("{when}, {lanes} lanes"));
                // Within each engine, lanes are bit-identical.
                plans[0].assert_bit_identical_to(sharded, &format!("{when}, sharded {lanes}"));
                plans[1]
                    .assert_bit_identical_to(unsharded, &format!("{when}, unsharded {lanes}"));
                // The unsharded engine never prunes or skips.
                prop_assert_eq!(unsharded.candidates_pruned, 0);
                prop_assert_eq!(unsharded.speculation_skips, 0);
            }
            Ok(())
        };
        let plans: Vec<WorkloadPlan> = advisors.iter_mut().map(|a| a.optimize()).collect();
        check(&plans, "cold optimize")?;
        // Disjoint trees never merge: cold, every populated tree is at
        // least one component. (Churn may empty a tree, so this bound is
        // cold-only.)
        prop_assert!(plans[0].components >= roots.min(paths));
        for epoch in 0..2 {
            let plans: Vec<WorkloadPlan> = advisors
                .iter_mut()
                .zip(&mut sims)
                .map(|(adv, sim)| {
                    sim.step(adv);
                    adv.reoptimize()
                })
                .collect();
            check(&plans, &format!("epoch {epoch} reoptimize"))?;
        }
    }

    /// The budgeted search over both engines: λ sweeps, eviction and
    /// repair run pruning-free, so the budgeted plan is the same plan
    /// whichever engine produced the unconstrained seed.
    #[test]
    fn sharded_budgeted_selection_matches_unsharded(
        seed in 0u64..1_000,
        paths in 2usize..=12,
        tightness in 0usize..=2,
    ) {
        let w = synth_forest(&ForestSpec { roots: 3, paths, depth: 4, fanout: 2, seed });
        let unconstrained = w
            .advisor(CostParams::default())
            .with_threads(1)
            .optimize();
        let budget = unconstrained.size_pages * [1.0, 0.6, 0.05][tightness];
        for &lanes in &LANES {
            let plans: Vec<BudgetedWorkloadPlan> = [true, false]
                .iter()
                .map(|&sharding| {
                    w.advisor(CostParams::default())
                        .with_threads(lanes)
                        .with_sharding(sharding)
                        .optimize_with_budget(budget)
                })
                .collect();
            plans[0].assert_same_plan(
                &plans[1],
                &format!("budget {budget:.0}, {lanes} lanes"),
            );
        }
    }
}
