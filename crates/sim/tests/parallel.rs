//! The parallel-engine determinism harness: for any thread count, the
//! advisor's plan must be **bit-identical** to the sequential engine's —
//! selections, every float (compared via `to_bits`), and the work-audit
//! telemetry (pricings, DP runs, memo hits, sweeps) alike, as spelled by
//! `WorkloadPlan::assert_bit_identical_to`.
//!
//! This is deliberately stronger than the warm-vs-cold anchor in
//! `evolving.rs` (which tolerates float-summation noise): the parallel
//! engine runs the *same* trajectory as the sequential one — buffered
//! memo merges in path-id order, per-component descents merged in
//! component order, value-sorted float reductions — so nothing may move by
//! even one ulp (DESIGN.md §5.13).

use oic_core::{BudgetedWorkloadPlan, CandidateId, WorkloadAdvisor, WorkloadPlan};
use oic_cost::{CostParams, Org};
use oic_schema::SubpathId;
use oic_sim::{synth_forest, DriftSim, DriftSpec, ForestSpec};
use proptest::prelude::*;

/// Thread counts under test: the sequential engine and two pool shapes.
const LANES: [usize; 3] = [1, 2, 8];

/// One memo cell: candidate, organization column, and the bits of its
/// maintenance and footprint (`None` = unpriced).
type MemoCell = (CandidateId, usize, Option<(u64, u64)>);

/// Every `(candidate, organization)` memo cell the advisor's live paths
/// expose, each once, in candidate order.
fn memo_cells(adv: &WorkloadAdvisor<'_>) -> Vec<MemoCell> {
    let space = adv.candidate_space();
    let mut cells = Vec::new();
    for id in adv.path_ids() {
        let path = adv.path(id).expect("live path");
        for r in 0..SubpathId::count(path.len()) {
            let sub = SubpathId::from_rank(path.len(), r);
            let cand = space
                .find(&path.step_keys(sub), sub.end < path.len())
                .expect("default mining admits every subpath");
            for org in Org::ALL {
                cells.push((
                    cand,
                    org.index(),
                    space
                        .priced(cand, org)
                        .map(|(m, s)| (m.to_bits(), s.to_bits())),
                ));
            }
        }
    }
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// Quote ≡ re-price (DESIGN.md §5.12): the advisor that quoted `plan`
/// re-derives its `total_cost` bitwise — one ledger folds both.
fn assert_reprices(adv: &WorkloadAdvisor<'_>, plan: &WorkloadPlan, ctx: &str) {
    let quote = plan.total_cost.to_bits();
    assert_eq!(quote, adv.price_plan(plan).to_bits(), "{ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `optimize()` and post-churn `reoptimize()` are bit-identical across
    /// thread counts {1, 2, 8} on random workloads of up to 64 paths over
    /// 1–6 class trees: one tree is a few large components, a forest many
    /// (singletons included), so the component fan-out runs on both shapes.
    #[test]
    fn parallel_optimize_and_reoptimize_match_sequential(
        seed in 0u64..1_000,
        drift_seed in 0u64..1_000,
        roots in 1usize..=6,
        paths in 2usize..=64,
    ) {
        let w = synth_forest(&ForestSpec { roots, paths, depth: 4, fanout: 2, seed });
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
        for ((plan, adv), &lanes) in plans.iter().zip(&advisors).zip(&LANES) {
            plans[0].assert_bit_identical_to(plan, &format!("cold optimize, {lanes} lanes"));
            assert_reprices(adv, plan, &format!("cold quote, {lanes} lanes"));
        }
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
            for ((plan, adv), &lanes) in plans.iter().zip(&advisors).zip(&LANES) {
                plans[0].assert_bit_identical_to(
                    plan,
                    &format!("epoch {epoch} reoptimize, {lanes} lanes"),
                );
                assert_reprices(adv, plan, &format!("epoch {epoch} quote, {lanes} lanes"));
            }
        }
    }

    /// Pricing is exactly-once where paths share candidates (DESIGN.md
    /// §5.13): cold and after churn, an epoch prices precisely the cells
    /// that were unpriced when it began — never one per dirty owner — and
    /// the counters and every memo bit agree across thread counts. (Debug
    /// builds also assert, inside the merge, that no installed cell was
    /// already priced.)
    #[test]
    fn shared_cells_are_priced_exactly_once_on_any_lane_count(
        seed in 0u64..1_000,
        drift_seed in 0u64..1_000,
        roots in 2usize..=4,
        paths in 24usize..=64,
    ) {
        let w = synth_forest(&ForestSpec { roots, paths, depth: 4, fanout: 2, seed });
        let mut epochs: Vec<Vec<(WorkloadPlan, Vec<MemoCell>)>> = Vec::new();
        for &lanes in &LANES {
            let mut adv = w.advisor(CostParams::default()).with_threads(lanes);
            let mut sim = DriftSim::new(&w, DriftSpec { seed: drift_seed, ..DriftSpec::default() });
            prop_assert!(
                w.subpath_instances() > adv.candidate_space().len(),
                "the workload shares candidates"
            );
            let mut run = Vec::new();
            for epoch in 0..3 {
                if epoch > 0 {
                    sim.step(&mut adv);
                }
                let unpriced = memo_cells(&adv).iter().filter(|c| c.2.is_none()).count() as u64;
                let before = adv.candidate_space().maintenance_pricings();
                let plan = adv.reoptimize();
                prop_assert_eq!(plan.epoch_pricings, unpriced, "epoch {}, {} lanes", epoch, lanes);
                prop_assert_eq!(plan.maintenance_pricings, before + unpriced);
                prop_assert_eq!(adv.candidate_space().maintenance_pricings(), plan.maintenance_pricings);
                let cells = memo_cells(&adv);
                prop_assert!(cells.iter().all(|c| c.2.is_some()));
                run.push((plan, cells));
            }
            // Cold, every live cell is priced; churn re-prices some.
            prop_assert_eq!(run[0].0.epoch_pricings, run[0].1.len() as u64);
            prop_assert!(run[1].0.epoch_pricings + run[2].0.epoch_pricings > 0);
            epochs.push(run);
        }
        for (run, &lanes) in epochs.iter().zip(&LANES).skip(1) {
            for (epoch, ((plan, cells), (plan1, cells1))) in run.iter().zip(&epochs[0]).enumerate() {
                prop_assert_eq!(plan.epoch_pricings, plan1.epoch_pricings);
                prop_assert_eq!(plan.maintenance_pricings, plan1.maintenance_pricings);
                prop_assert!(cells == cells1, "memo bits, epoch {}, {} lanes", epoch, lanes);
            }
        }
    }

    /// The budgeted search — λ sweeps, eviction descent, frontier repair —
    /// is bit-identical across thread counts, feasible or not: on one
    /// class tree, and on a three-tree forest, whose several multi-path
    /// components make the per-component λ fan-out run on several jobs.
    #[test]
    fn parallel_budgeted_selection_matches_sequential(
        seed in 0u64..1_000,
        paths in 2usize..=12,
        tightness in 0usize..=2,
    ) {
        for roots in [1usize, 3] {
            let w = synth_forest(&ForestSpec { roots, paths, depth: 4, fanout: 2, seed });
            let unconstrained = w
                .advisor(CostParams::default())
                .with_threads(1)
                .optimize();
            // Slack, binding, and infeasibility-prone budgets.
            let budget = unconstrained.size_pages * [1.0, 0.6, 0.05][tightness];
            let budgeted: Vec<BudgetedWorkloadPlan> = LANES
                .iter()
                .map(|&lanes| {
                    let mut adv = w.advisor(CostParams::default()).with_threads(lanes);
                    let budgeted = adv.optimize_with_budget(budget);
                    assert_reprices(&adv, &budgeted.plan, &format!("budgeted quote, {lanes} lanes"));
                    budgeted
                })
                .collect();
            for (plan, &lanes) in budgeted.iter().zip(&LANES).skip(1) {
                budgeted[0].assert_bit_identical_to(
                    plan,
                    &format!("{roots} trees, budget {budget:.0}, {lanes} lanes"),
                );
            }
        }
    }

    /// Warm ≡ cold for the recorded eviction descent (DESIGN.md §5.12):
    /// budgets served in shuffled order by one advisor — extending the
    /// trail (0.9 → 0.25 → 0.1), landing inside it (0.5, 0.75) — equal,
    /// bit for bit, each budget solved on a fresh `rebuild()`, under
    /// every lane count; and the warm runs agree with each other across
    /// lanes (work counters included).
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
            let mut adv = w.advisor(CostParams::default()).with_threads(lanes);
            let size = adv.optimize().size_pages;
            let warm: Vec<BudgetedWorkloadPlan> = FRACTIONS
                .iter()
                .map(|f| {
                    let warm = adv.optimize_with_budget(f * size);
                    let cold = adv.rebuild().optimize_with_budget(f * size);
                    warm.assert_same_plan(&cold, &format!("{lanes} lanes, budget {f}·size"));
                    warm
                })
                .collect();
            runs.push(warm);
        }
        for (run, &lanes) in runs.iter().zip(&LANES).skip(1) {
            for (i, f) in FRACTIONS.iter().enumerate() {
                runs[0][i].assert_bit_identical_to(&run[i], &format!("{lanes} lanes, budget {f}·size"));
                // Which trials a call runs depends on the trail it found,
                // never on the lanes.
                prop_assert_eq!(runs[0][i].eviction_trials, run[i].eviction_trials);
            }
        }
    }
}
