//! The advisor's unit tests: sharing, budgets, the evolving-workload engine.

use super::*;
use crate::{pc, Choice, CostMatrix};
use oic_cost::{CostModel, PathCharacteristics};
use oic_schema::fixtures;
use oic_workload::{LoadDistribution, Triplet};
use std::collections::HashSet;

fn fig7_stats(schema: &Schema) -> impl FnMut(ClassId) -> ClassStats + '_ {
    |c| match schema.class_name(c) {
        "Person" => ClassStats::new(200_000.0, 20_000.0, 1.0),
        "Vehicle" => ClassStats::new(10_000.0, 5_000.0, 3.0),
        "Bus" | "Truck" => ClassStats::new(5_000.0, 2_500.0, 2.0),
        "Company" => ClassStats::new(1_000.0, 250.0, 4.0),
        "Division" => ClassStats::new(1_000.0, 1_000.0, 1.0),
        _ => ClassStats::new(1.0, 1.0, 1.0),
    }
}

fn two_path_advisor(schema: &Schema) -> WorkloadAdvisor<'_> {
    let pexa = fixtures::paper_path_pexa(schema);
    let pe = fixtures::paper_path_pe(schema);
    let mut adv = WorkloadAdvisor::new(schema, CostParams::default())
        .with_stats(fig7_stats(schema))
        .with_maintenance(|_| (0.1, 0.1));
    adv.add_path(pexa, |_| 0.2);
    adv.add_path(pe, |_| 0.3);
    adv
}

fn assert_costs_match(a: &WorkloadPlan, b: &WorkloadPlan) {
    assert!(
        (a.total_cost - b.total_cost).abs() < 1e-9 * a.total_cost.abs().max(1.0),
        "warm {} vs cold {}",
        a.total_cost,
        b.total_cost
    );
    assert!(
        (a.independent_cost - b.independent_cost).abs() < 1e-9 * a.independent_cost.abs().max(1.0),
        "warm independent {} vs cold {}",
        a.independent_cost,
        b.independent_cost
    );
}

#[test]
fn single_path_matches_the_standalone_advisor() {
    let (schema, _) = fixtures::paper_schema();
    let pexa = fixtures::paper_path_pexa(&schema);
    let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
        .with_stats(fig7_stats(&schema))
        .with_maintenance(|_| (0.1, 0.1));
    adv.add_path(pexa.clone(), |_| 0.25);
    let plan = adv.optimize();
    // Cross-check against the single-path pipeline on the same inputs.
    let chars = PathCharacteristics::build(&schema, &pexa, |c| fig7_stats(&schema)(c));
    let ld = LoadDistribution::build(&schema, &pexa, |c| {
        let _ = c;
        Triplet::new(0.25, 0.1, 0.1)
    });
    let model = CostModel::new(&schema, &pexa, &chars, CostParams::default());
    let single = crate::select::opt_ind_con(&CostMatrix::build(&model, &ld));
    assert!((plan.total_cost - single.cost).abs() < 1e-6);
    assert_eq!(plan.paths[0].selection.pairs(), single.best.pairs());
    assert!(plan.shared.is_empty());
}

#[test]
fn shared_prefix_is_priced_once() {
    let (schema, _) = fixtures::paper_schema();
    let plan = two_path_advisor(&schema).optimize();
    assert_eq!(plan.paths.len(), 2);
    // 10 Pexa subpaths + 3 Pe-only ones; priced at most once per org.
    assert_eq!(plan.candidates, 13);
    assert!(plan.maintenance_pricings <= 3 * plan.candidates as u64);
    assert_eq!(plan.maintenance_pricings, plan.epoch_pricings);
    assert!(plan.total_cost <= plan.independent_cost + 1e-9);
}

#[test]
fn identical_paths_collapse_to_one_physical_design() {
    let (schema, _) = fixtures::paper_schema();
    let pexa = fixtures::paper_path_pexa(&schema);
    let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
        .with_stats(fig7_stats(&schema))
        .with_maintenance(|_| (0.1, 0.1));
    for _ in 0..5 {
        adv.add_path(pexa.clone(), |_| 0.2);
    }
    let plan = adv.optimize();
    // Five copies of the path expose exactly one path's candidates, and
    // pricing them never repeats per (candidate, org).
    assert_eq!(plan.candidates, SubpathId::count(4));
    assert_eq!(plan.maintenance_pricings, 3 * SubpathId::count(4) as u64);
    // All five paths select the same configuration; its indexes are
    // shared by all of them and maintenance is paid once.
    let first = plan.paths[0].selection.pairs().to_vec();
    for p in &plan.paths {
        assert_eq!(p.selection.pairs(), &first[..]);
    }
    for s in &plan.shared {
        assert_eq!(s.owners.len(), 5);
    }
    let expected: f64 = plan.paths.iter().map(|p| p.query_cost).sum::<f64>()
        + plan.shared.iter().map(|s| s.maintenance).sum::<f64>();
    assert!((plan.total_cost - expected).abs() < 1e-9);
    // Sharing 4 extra copies of the maintenance is a strict win.
    assert!(plan.total_cost < plan.independent_cost - 1e-9);
}

#[test]
fn terminal_and_embedded_spellings_do_not_cross_contaminate() {
    // Person.owns as a complete path spells the same steps as the
    // first subpath of Pexa, but the embedded role pays the Vehicle
    // boundary-CMD and must be priced separately — whichever the
    // advisor prices first must not leak into the other. Verify the
    // workload totals re-derive from independently computed shares.
    let (schema, _) = fixtures::paper_schema();
    let owns = Path::parse(&schema, "Person", &["owns"]).unwrap();
    let pexa = fixtures::paper_path_pexa(&schema);
    let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
        .with_stats(fig7_stats(&schema))
        .with_maintenance(|_| (0.1, 0.1));
    adv.add_path(owns.clone(), |_| 0.4);
    adv.add_path(pexa.clone(), |_| 0.2);
    let plan = adv.optimize();
    // The len-1 path optimizing alone must cost exactly its standalone
    // single-path optimum — no contamination from Pexa's embedded
    // Person.owns pricing (and vice versa).
    for (path, alpha, outcome) in [(&owns, 0.4, &plan.paths[0]), (&pexa, 0.2, &plan.paths[1])] {
        let chars = PathCharacteristics::build(&schema, path, |c| fig7_stats(&schema)(c));
        let ld = LoadDistribution::build(&schema, path, |_| Triplet::new(alpha, 0.1, 0.1));
        let model = CostModel::new(&schema, path, &chars, CostParams::default());
        let single = crate::select::opt_ind_con(&CostMatrix::build(&model, &ld));
        assert!(
            (outcome.standalone_cost - single.cost).abs() < 1e-9 * single.cost.max(1.0),
            "standalone {} vs single-path optimum {}",
            outcome.standalone_cost,
            single.cost
        );
    }
    // The two spellings are distinct candidates; nothing is shared, so
    // the workload total equals the independent total.
    assert!(plan.shared.is_empty());
    assert!((plan.total_cost - plan.independent_cost).abs() < 1e-9);
}

#[test]
fn maintenance_price_is_owner_independent() {
    // The decomposition hinges on M(candidate, org) being the same
    // through any owner's model; verify it directly for the shared
    // Per.owns.man prefix of Pexa and Pe.
    let (schema, _) = fixtures::paper_schema();
    let pexa = fixtures::paper_path_pexa(&schema);
    let pe = fixtures::paper_path_pe(&schema);
    let mut stats = fig7_stats(&schema);
    let chars_a = PathCharacteristics::build(&schema, &pexa, &mut stats);
    let chars_b = PathCharacteristics::build(&schema, &pe, &mut stats);
    let maint = |_: ClassId| Triplet::new(0.0, 0.1, 0.1);
    let ld_a = LoadDistribution::build(&schema, &pexa, maint);
    let ld_b = LoadDistribution::build(&schema, &pe, maint);
    let model_a = CostModel::new(&schema, &pexa, &chars_a, CostParams::default());
    let model_b = CostModel::new(&schema, &pe, &chars_b, CostParams::default());
    let sub = SubpathId { start: 1, end: 2 };
    for org in Org::ALL {
        let via_a = pc::processing_cost(&model_a, &ld_a, sub, Choice::Index(org));
        let via_b = pc::processing_cost(&model_b, &ld_b, sub, Choice::Index(org));
        assert!(
            (via_a - via_b).abs() < 1e-9 * via_a.abs().max(1.0),
            "{org}: {via_a} vs {via_b}"
        );
    }
}

// ---- budgeted selection tests -----------------------------------------

#[test]
fn infinite_budget_is_bit_identical_to_optimize() {
    let (schema, _) = fixtures::paper_schema();
    let plan = two_path_advisor(&schema).optimize();
    let budgeted = two_path_advisor(&schema).optimize_with_budget(f64::INFINITY);
    assert!(budgeted.feasible);
    assert_eq!(budgeted.lambda, 0.0);
    assert_eq!(budgeted.lambda_sweeps, 0);
    assert_eq!(
        budgeted.plan.total_cost.to_bits(),
        plan.total_cost.to_bits()
    );
    assert_eq!(
        budgeted.plan.size_pages.to_bits(),
        plan.size_pages.to_bits()
    );
    for (a, b) in budgeted.plan.paths.iter().zip(&plan.paths) {
        assert_eq!(a.selection.pairs(), b.selection.pairs());
    }
    // Any budget at or above the unconstrained footprint behaves the
    // same way (the constraint is slack).
    let relaxed = two_path_advisor(&schema).optimize_with_budget(plan.size_pages);
    assert_eq!(relaxed.plan.total_cost.to_bits(), plan.total_cost.to_bits());
}

#[test]
fn plans_report_the_count_once_footprint() {
    let (schema, _) = fixtures::paper_schema();
    let pexa = fixtures::paper_path_pexa(&schema);
    let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
        .with_stats(fig7_stats(&schema))
        .with_maintenance(|_| (0.1, 0.1));
    for _ in 0..5 {
        adv.add_path(pexa.clone(), |_| 0.2);
    }
    let plan = adv.optimize();
    // Five copies select identically; the plan stores each physical
    // index once, so the footprint equals one path's configuration
    // size under the same model.
    let chars = PathCharacteristics::build(&schema, &pexa, |c| fig7_stats(&schema)(c));
    let model = CostModel::new(&schema, &pexa, &chars, CostParams::default());
    let expected: f64 = plan.paths[0]
        .selection
        .pairs()
        .iter()
        .map(|&(sub, choice)| match choice {
            Choice::Index(org) => model.size_pages(org, sub),
            Choice::NoIndex => 0.0,
        })
        .sum();
    assert!(
        (plan.size_pages - expected).abs() < 1e-9 * expected.max(1.0),
        "plan footprint {} vs one copy's {}",
        plan.size_pages,
        expected
    );
}

#[test]
fn tight_budget_trades_cost_for_pages() {
    let (schema, _) = fixtures::paper_schema();
    let unconstrained = two_path_advisor(&schema).optimize();
    assert!(unconstrained.size_pages > 0.0);
    let budget = unconstrained.size_pages * 0.5;
    let budgeted = two_path_advisor(&schema).optimize_with_budget(budget);
    assert!(budgeted.feasible, "half the footprint should be reachable");
    assert!(
        budgeted.plan.size_pages <= budget + 1e-9,
        "{} > {budget}",
        budgeted.plan.size_pages
    );
    assert!(
        budgeted.plan.total_cost >= unconstrained.total_cost - 1e-9,
        "a constrained plan cannot beat the unconstrained optimum"
    );
    assert!(budgeted.cost_ratio() >= 1.0 - 1e-12);
    // λ is the multiplier of the winning sweep — 0 when the eviction
    // descent produced the plan instead.
    assert!(budgeted.lambda >= 0.0);
    assert!(budgeted.lambda_sweeps > 0);
}

/// `cost_ratio` is 1 when both costs are zero: on an empty advisor (both
/// are `-0.0`, the empty fold) and on a workload whose rates are all
/// zero, under a slack and a binding budget alike — never `0 / 0`.
#[test]
fn cost_ratio_of_two_zero_costs_is_one() {
    let (schema, _) = fixtures::paper_schema();
    let mut empty = WorkloadAdvisor::new(&schema, CostParams::default());
    for budget in [f64::INFINITY, 0.0] {
        let b = empty.optimize_with_budget(budget);
        assert_eq!(b.plan.total_cost, 0.0);
        assert_eq!(b.cost_ratio(), 1.0, "empty advisor, budget {budget}");
    }
    let mut idle =
        WorkloadAdvisor::new(&schema, CostParams::default()).with_stats(fig7_stats(&schema));
    idle.add_path(fixtures::paper_path_pexa(&schema), |_| 0.0);
    idle.add_path(fixtures::paper_path_pe(&schema), |_| 0.0);
    let size = idle.optimize().size_pages;
    assert!(size > 0.0, "an idle workload still selects indexes");
    for budget in [f64::INFINITY, 0.5 * size] {
        let b = idle.optimize_with_budget(budget);
        assert_eq!(b.unconstrained_cost, 0.0, "all rates are zero");
        assert_eq!(b.plan.total_cost, 0.0);
        assert_eq!(b.cost_ratio(), 1.0, "idle workload, budget {budget}");
    }
    // A non-zero cost keeps the plain ratio.
    let b = two_path_advisor(&schema).optimize_with_budget(f64::INFINITY);
    assert_eq!(b.cost_ratio(), 1.0);
}

/// The in-place kernels against the brute-force oracles, on matrices
/// built cell by cell from the cell rule ([`pricing::Cells`]): random
/// sharing contexts, prune masks, mined-out ranks, bans (none, some,
/// every index of the path) and λ ∈ {0, small, huge}. The scalar best
/// response has `exhaustive`'s optimal cost bits and `opt_ind_con_dp`'s
/// configuration (the DP's tie-break: longer last piece, first
/// organization). The trial response — the frontier's first point — has
/// `exhaustive_frontier`'s first `(cost, size)` bits and `frontier_dp`'s
/// configuration, and is `None` exactly when nothing covers the path —
/// where both public frontiers hold their `+∞` stand-in alone; at a
/// finite budget it is `within_budget`'s point. The kernels' tables
/// are reused across every case.
///
/// Every ban-free case also folds the paths' rows ([`pricing::FoldedRows`])
/// and runs both kernels over them at λ ∈ {0, 1e-3, 1e6, +∞}: each piece
/// is the cell rule's bit for bit (a mined-out rank's `∞` reads NaN at
/// λ = +∞, non-finite either way), and each response's cost and size bits
/// and selection are the cell rule's.
#[test]
fn in_place_kernels_match_the_oracles_on_their_cells() {
    use crate::select::{exhaustive, exhaustive_frontier, frontier_dp, opt_ind_con_dp, ScalarDp};
    use ledger::Pair;
    use pricing::{
        best_response, frontier_response, Bans, Cells, FoldedRows, FrontierTables, Pieces, Pricing,
        RowCells, Source,
    };

    let (schema, _) = fixtures::paper_schema();
    let mut adv = two_path_advisor(&schema);
    adv.optimize();
    let admitted: Vec<Vec<Option<CandidateId>>> =
        adv.paths.iter().map(|st| st.cands.clone()).collect();
    let mut seed = 0x5EED_CE11_u64;
    let mut rng = move |below: usize| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % below as u64) as usize
    };
    let bits = |(cost, size): (f64, f64)| (cost.to_bits(), size.to_bits());
    let pieces = |sel: &Selection| -> Vec<(SubpathId, Choice)> {
        sel.iter()
            .map(|&(sub, org)| (sub, Choice::Index(org)))
            .collect()
    };
    let (mut dp, mut tables, mut sel) = (ScalarDp::default(), FrontierTables::default(), vec![]);
    let (mut banned_cases, mut uncoverable, mut struck) = (0, 0, 0);
    let (mut row_sel, mut row_responses) = (vec![], 0);
    for case in 0..800 {
        let i = case % adv.paths.len();
        let n = adv.paths[i].path.len();
        // Mined-out non-singleton ranks, and prune masks that never
        // strike a whole singleton rank (the pruner cannot).
        let st = &mut adv.paths[i];
        st.cands.clone_from(&admitted[i]);
        let mut masks = vec![0u8; st.cands.len()];
        for (r, mask) in masks.iter_mut().enumerate() {
            let singleton = r < n;
            if !singleton && rng(5) == 0 {
                st.cands[r] = None;
            }
            if rng(4) == 0 {
                *mask = rng(if singleton { 7 } else { 8 }) as u8;
            }
        }
        st.pruned = Some(masks);
        let st = &adv.paths[i];
        struck += st
            .pruned
            .as_deref()
            .unwrap()
            .iter()
            .filter(|&&m| m != 0)
            .count();
        let context: Vec<u8> = st
            .cands
            .iter()
            .map(|c| c.map_or(0, |_| [0, rng(8) as u8][rng(2)]))
            .collect();
        let lambda = [0.0, 1e-3, 1e6][rng(3)];
        let live: Vec<Pair> = st
            .cands
            .iter()
            .flatten()
            .flat_map(|&cand| Org::ALL.map(|org| (cand, org)))
            .collect();
        let mut evicted = vec![0u8; adv.space.slot_count()];
        for &(cand, org) in &live {
            if case % 4 == 3 || (case % 4 != 0 && rng(4) == 0) {
                evicted[cand.index()] |= 1 << org.index();
            }
        }
        let bans = Bans {
            evicted: &evicted,
            trial: live[rng(live.len())],
        };
        let banning = case % 4 != 0;
        banned_cases += usize::from(banning);
        let pricing = Pricing {
            context: Some(&context),
            lambda,
            bans: banning.then_some(&bans),
        };
        let mut masks = Vec::new();
        let cells = Cells::new(st, &adv.space, pricing, &mut masks);
        let values: Vec<_> = (0..st.cands.len())
            .map(|r| {
                let sub = SubpathId::from_rank(n, r);
                let piece = cells.piece(sub);
                (sub, piece.map(|c| c.0), piece.map(|c| c.1))
            })
            .collect();
        let m = CostMatrix::from_values_with_sizes(n, &values);
        let ctx = format!("case {case}: path {i}, λ {lambda}, bans {banning}");
        let space = Source::Space(&adv.space);
        if !banning {
            let cost = best_response(st, space, pricing, &mut dp, &mut sel);
            assert_eq!(cost.to_bits(), exhaustive(&m).cost.to_bits(), "{ctx}");
            assert_eq!(pieces(&sel), opt_ind_con_dp(&m).best.pairs(), "{ctx}");
        }
        let oracle = exhaustive_frontier(&m);
        let frontier = frontier_dp(&m);
        let first = frontier_response(st, space, pricing, f64::INFINITY, &mut tables, &mut sel);
        let covered = first.is_some();
        if covered {
            assert_eq!(first.map(bits), oracle.first().copied().map(bits), "{ctx}");
            assert_eq!(pieces(&sel), frontier.points[0].config.pairs(), "{ctx}");
        } else {
            // Both public frontiers hold their stand-in alone.
            let min = frontier.min_cost();
            assert_eq!(oracle, [(min.cost, min.size)], "{ctx}");
            assert_eq!(
                (frontier.points.len(), min.cost),
                (1, f64::INFINITY),
                "{ctx}"
            );
        }
        uncoverable += usize::from(!covered);
        let knee = oracle.get(rng(oracle.len().max(1))).map_or(0.0, |p| p.1);
        let budget = knee + [0.0, 0.5, -0.5][rng(3)];
        let fit = frontier_response(st, space, pricing, budget, &mut tables, &mut sel);
        let want = frontier.within_budget(budget).filter(|_| covered);
        assert_eq!(
            fit.map(bits),
            want.map(|p| bits((p.cost, p.size))),
            "{ctx}, budget {budget}"
        );
        if let Some(p) = want {
            assert_eq!(pieces(&sel), p.config.pairs(), "{ctx}, budget {budget}");
        }
        if banning {
            continue;
        }
        let rows = FoldedRows::new(&adv.paths, &adv.space);
        let row = rows.row(i);
        for lambda in [0.0, 1e-3, 1e6, f64::INFINITY] {
            let ctx = format!("{ctx}, folded row at λ {lambda}");
            let pricing = Pricing { lambda, ..pricing };
            let (mut no_bans, folded) = (Vec::new(), RowCells::new(row, n, pricing));
            let cells = Cells::new(st, &adv.space, pricing, &mut no_bans);
            for r in 0..st.cands.len() {
                let sub = SubpathId::from_rank(n, r);
                // A mined-out rank's `∞` reads NaN at λ = +∞.
                let absent = st.cands[r].is_none() && lambda.is_infinite();
                for (want, got) in cells.piece(sub).iter().zip(&folded.piece(sub)) {
                    let cost = want.0.to_bits() == got.0.to_bits() || absent && got.0.is_nan();
                    assert!(
                        cost && want.1.to_bits() == got.1.to_bits(),
                        "{ctx}, rank {r}"
                    );
                }
            }
            let want = best_response(st, space, pricing, &mut dp, &mut sel);
            let got = best_response(st, Source::Row(row), pricing, &mut dp, &mut row_sel);
            assert_eq!(got.to_bits(), want.to_bits(), "{ctx}");
            assert_eq!(row_sel, sel, "{ctx}");
            for budget in [f64::INFINITY, budget] {
                let want = frontier_response(st, space, pricing, budget, &mut tables, &mut sel);
                let row = Source::Row(row);
                let got = frontier_response(st, row, pricing, budget, &mut tables, &mut row_sel);
                assert_eq!(got.map(bits), want.map(bits), "{ctx}, budget {budget}");
                if want.is_some() {
                    assert_eq!(row_sel, sel, "{ctx}, budget {budget}");
                }
                row_responses += usize::from(want.is_some());
            }
        }
    }
    assert!(
        banned_cases > 0 && uncoverable > 0 && struck > 0 && row_responses > 0,
        "{banned_cases} banned, {uncoverable} uncoverable, {struck} struck, \
         {row_responses} row responses"
    );
}

#[test]
fn budget_below_minimum_footprint_is_flagged_infeasible() {
    let (schema, _) = fixtures::paper_schema();
    let budgeted = two_path_advisor(&schema).optimize_with_budget(1.0);
    assert!(!budgeted.feasible, "one page cannot hold any plan");
    assert!(budgeted.plan.size_pages > 1.0);
    // The returned plan is the leanest sweep: no feasible-side λ was
    // found, and its footprint undercuts the unconstrained one.
    assert!(budgeted.plan.size_pages <= budgeted.unconstrained_size + 1e-9);
}

#[test]
fn nan_budget_is_the_zero_budget() {
    let (schema, _) = fixtures::paper_schema();
    let nan = two_path_advisor(&schema).optimize_with_budget(f64::NAN);
    let zero = two_path_advisor(&schema).optimize_with_budget(0.0);
    assert!(!nan.feasible, "no plan fits a NaN budget");
    assert_eq!(nan.budget_pages, 0.0);
    nan.assert_same_plan(&zero, "NaN vs 0.0 budget");
}

#[test]
fn budgeted_plans_are_monotone_in_the_budget() {
    // A wider budget can only help: sweep a few budgets and check the
    // realized costs never increase with the budget.
    let (schema, _) = fixtures::paper_schema();
    let unconstrained = two_path_advisor(&schema).optimize();
    let mut last_cost = f64::INFINITY;
    for frac in [0.4, 0.6, 0.8, 1.0] {
        let b = two_path_advisor(&schema).optimize_with_budget(unconstrained.size_pages * frac);
        if !b.feasible {
            continue;
        }
        assert!(
            b.plan.total_cost <= last_cost + 1e-6 * last_cost.abs().max(1.0),
            "budget {frac}: cost {} after cheaper {last_cost}",
            b.plan.total_cost
        );
        last_cost = b.plan.total_cost;
    }
    assert!(
        (last_cost - unconstrained.total_cost).abs() < 1e-9 * unconstrained.total_cost.max(1.0),
        "the full budget recovers the unconstrained optimum"
    );
}

// ---- evolving-workload engine tests -----------------------------------

/// A no-op epoch replays the last descent from its trails: no model
/// rebuild, no pricing, no DP — at every lane count.
#[test]
fn clean_reoptimize_is_all_cache_hits() {
    let (schema, _) = fixtures::paper_schema();
    for lanes in [1, 2, 8] {
        let mut adv = two_path_advisor(&schema).with_threads(lanes);
        let first = adv.optimize();
        assert_eq!(first.epoch, 1);
        assert_eq!(first.repriced_paths, 2);
        assert!(first.dp_runs > 0);
        // No mutations: the second plan re-derives from caches alone.
        let second = adv.reoptimize();
        assert_eq!(second.epoch, 2);
        assert_eq!(second.mutations, 0);
        assert_eq!(second.repriced_paths, 0, "no model rebuilds");
        assert_eq!(second.epoch_pricings, 0, "no maintenance pricings");
        assert_eq!(
            second.dp_runs, 0,
            "{lanes} lanes: every response is a trail hit"
        );
        // Every sweep selection is a memo hit.
        assert_eq!(second.dp_memo_hits, 2 * second.sweeps as u64);
        assert_eq!(second.total_cost.to_bits(), first.total_cost.to_bits());
    }
}

/// A plan shares the advisor's paths instead of copying them, and a
/// removed path outlives the advisor's reference through the plan.
#[test]
fn plans_share_the_advisors_paths() {
    let (schema, _) = fixtures::paper_schema();
    for lanes in [1, 2, 8] {
        let mut adv = two_path_advisor(&schema).with_threads(lanes);
        let plan = adv.optimize();
        assert_eq!(plan.paths.len(), adv.paths.len());
        for (outcome, st) in plan.paths.iter().zip(&adv.paths) {
            assert_eq!(outcome.id, st.id);
            assert!(Arc::ptr_eq(&outcome.path, &st.path), "{lanes} lanes");
        }
        let budgeted = adv.optimize_with_budget(0.5 * plan.size_pages);
        for (outcome, st) in budgeted.plan.paths.iter().zip(&adv.paths) {
            assert!(Arc::ptr_eq(&outcome.path, &st.path), "{lanes} lanes");
        }
        let (id, display) = (plan.paths[0].id, plan.paths[0].path.display().to_string());
        let removed = adv.remove_path(id).expect("live handle");
        assert_eq!(removed.display().to_string(), display);
        assert_eq!(plan.paths[0].path.display().to_string(), display);
        // With no live plan the advisor holds the only reference to each
        // path, so a removal hands the path back without copying it.
        drop((plan, budgeted));
        adv.optimize();
        for st in &adv.paths {
            assert_eq!(Arc::strong_count(&st.path), 1, "{lanes} lanes");
        }
        let last = adv.path_ids().next().expect("one path left");
        assert!(adv.remove_path(last).is_some());
    }
}

/// A query-rate update that mines out a span the current plan selects,
/// then a reoptimize: the plan is a cold rebuild's and cites no mined-out
/// span. Masses grow along a path, so starving the root class drops every
/// span that starts at position 1 and is neither a singleton nor the
/// whole path — here Example 5.1's `(Person.owns.man, NIX)`.
#[test]
fn mining_out_a_selected_span_replans_as_a_cold_rebuild() {
    let (schema, _) = fixtures::paper_schema();
    let person = schema.class_by_name("Person").unwrap();
    let pexa = fixtures::paper_path_pexa(&schema);
    let n = pexa.len();
    let interior = |sub: SubpathId| sub.start == 1 && 1 < sub.end && sub.end < n;
    let cites_interior = |plan: &WorkloadPlan| {
        let pairs = plan.paths[0].selection.pairs();
        pairs.iter().any(|&(sub, _)| interior(sub))
    };
    // Example 5.1's per-class (query, insert, delete) rates.
    let rates = |c: ClassId| match schema.class_name(c) {
        "Person" => (0.3, 0.1, 0.1),
        "Vehicle" => (0.3, 0.0, 0.05),
        "Bus" => (0.05, 0.05, 0.1),
        "Truck" => (0.0, 0.1, 0.0),
        "Company" => (0.1, 0.1, 0.1),
        "Division" => (0.2, 0.2, 0.1),
        _ => (0.0, 0.0, 0.0),
    };
    let queries = |root: f64| move |c: ClassId| if c == person { root } else { rates(c).0 };
    let policy = MiningPolicy {
        min_support: 0.25,
        ..MiningPolicy::default()
    };
    let build = |root: f64, lanes: usize| {
        let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
            .with_stats(fig7_stats(&schema))
            .with_maintenance(|c| (rates(c).1, rates(c).2))
            .with_mining(policy)
            .with_threads(lanes);
        adv.add_path(pexa.clone(), queries(root));
        adv.add_path(fixtures::paper_path_pe(&schema), queries(0.3));
        adv
    };
    for lanes in [1, 2, 8] {
        let mut warm = build(0.3, lanes);
        let first = warm.optimize();
        assert!(
            cites_interior(&first),
            "{lanes} lanes: {:?}",
            first.paths[0].selection
        );
        let id = first.paths[0].id;
        assert!(warm.update_query_rates(id, queries(0.0)));
        assert!(
            warm.components.is_none(),
            "{lanes} lanes: the verdict moved"
        );
        let plan = warm.reoptimize();
        assert!(
            !cites_interior(&plan),
            "{lanes} lanes: {:?}",
            plan.paths[0].selection
        );
        let cold = build(0.0, lanes).optimize();
        assert_eq!(plan.total_cost.to_bits(), cold.total_cost.to_bits());
        for (w, c) in plan.paths.iter().zip(&cold.paths) {
            assert_eq!(w.selection.pairs(), c.selection.pairs(), "{lanes} lanes");
        }
    }
}

#[test]
fn stat_mutation_reprices_only_scoped_paths() {
    let (schema, _) = fixtures::paper_schema();
    let owns = Path::parse(&schema, "Person", &["owns"]).unwrap();
    let divs = Path::parse(&schema, "Company", &["divs", "name"]).unwrap();
    let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
        .with_stats(fig7_stats(&schema))
        .with_maintenance(|_| (0.1, 0.1));
    adv.add_path(owns, |_| 0.4);
    adv.add_path(divs, |_| 0.2);
    adv.optimize();
    // Division stats touch only the Company.divs.name path.
    let division = schema.class_by_name("Division").unwrap();
    assert!(adv.update_stats(division, ClassStats::new(2_000.0, 1_500.0, 1.0)));
    let plan = adv.reoptimize();
    assert_eq!(plan.mutations, 1);
    assert_eq!(plan.repriced_paths, 1, "Person.owns is out of scope");
    assert_costs_match(&plan, &adv.rebuild().optimize());
    // Re-applying the same value is a recognized no-op.
    assert!(!adv.update_stats(division, ClassStats::new(2_000.0, 1_500.0, 1.0)));
    let plan = adv.reoptimize();
    assert_eq!((plan.mutations, plan.repriced_paths), (0, 0));
}

#[test]
fn warm_reoptimize_matches_cold_rebuild_across_mutation_kinds() {
    let (schema, _) = fixtures::paper_schema();
    let pexa = fixtures::paper_path_pexa(&schema);
    let pe = fixtures::paper_path_pe(&schema);
    let owns = Path::parse(&schema, "Person", &["owns"]).unwrap();
    let mut adv = two_path_advisor(&schema);
    adv.optimize();

    // Arrival.
    let owns_id = adv.add_path(owns.clone(), |_| 0.4);
    assert_costs_match(&adv.reoptimize(), &adv.rebuild().optimize());
    // Stat drift.
    let vehicle = schema.class_by_name("Vehicle").unwrap();
    adv.update_stats(vehicle, ClassStats::new(40_000.0, 9_000.0, 2.0));
    assert_costs_match(&adv.reoptimize(), &adv.rebuild().optimize());
    // Rate churn.
    let person = schema.class_by_name("Person").unwrap();
    adv.update_rates(person, (0.4, 0.02));
    assert_costs_match(&adv.reoptimize(), &adv.rebuild().optimize());
    // Per-path query churn.
    let first = adv.path_ids().next().unwrap();
    adv.update_query_rates(first, |_| 0.05);
    assert_costs_match(&adv.reoptimize(), &adv.rebuild().optimize());
    // Departure + re-arrival under a fresh handle, same signature.
    let removed = adv.remove_path(owns_id).expect("live handle");
    assert_eq!(removed.signature(), owns.signature());
    assert!(adv.remove_path(owns_id).is_none(), "handles are single-use");
    let owns_id2 = adv.add_path(owns.clone(), |_| 0.1);
    assert_ne!(owns_id, owns_id2);
    assert_eq!(
        adv.path_signature(owns_id2),
        Some(&owns.signature()),
        "re-arrival carries the same physical identity"
    );
    assert_costs_match(&adv.reoptimize(), &adv.rebuild().optimize());
    // Several batched mutations at once.
    adv.update_stats(person, ClassStats::new(150_000.0, 30_000.0, 1.0));
    adv.update_rates(vehicle, (0.0, 0.3));
    adv.remove_path(owns_id2);
    adv.add_path(pe.clone(), |_| 0.15);
    adv.add_path(pexa.clone(), |_| 0.05);
    let warm = adv.reoptimize();
    let cold = adv.rebuild().optimize();
    assert_costs_match(&warm, &cold);
    assert_eq!(warm.physical_indexes, cold.physical_indexes);
    assert_eq!(warm.paths.len(), cold.paths.len());
    for (w, c) in warm.paths.iter().zip(&cold.paths) {
        assert_eq!(w.selection.pairs(), c.selection.pairs());
    }
}

#[test]
fn removing_the_last_owner_frees_candidates_and_plans_cite_live_ids() {
    let (schema, _) = fixtures::paper_schema();
    let mut adv = two_path_advisor(&schema);
    let plan = adv.optimize();
    assert_eq!(plan.candidates, 13);
    let pexa_id = adv.path_ids().next().unwrap();
    // Dropping Pexa frees its 7 exclusive candidates (3 are shared
    // with Pe).
    adv.remove_path(pexa_id);
    let plan = adv.reoptimize();
    assert_eq!(plan.paths.len(), 1);
    assert_eq!(plan.candidates, 6, "Pe's own subpaths only");
    assert_eq!(adv.candidate_space().len(), 6);
    // Every candidate the surviving plan cites is live, with a live
    // maintenance price.
    let pe_state_cands: Vec<CandidateId> = {
        let st = &adv.paths[0];
        plan.paths[0]
            .selection
            .pairs()
            .iter()
            .map(|&(sub, _)| st.cand(sub))
            .collect()
    };
    for (id, &(_, choice)) in pe_state_cands.iter().zip(plan.paths[0].selection.pairs()) {
        assert!(adv.candidate_space().is_live(*id));
        let Choice::Index(org) = choice else {
            unreachable!()
        };
        assert!(adv.candidate_space().priced(*id, org).is_some());
    }
    // Removing the last path yields an empty plan, an empty space.
    let pe_id = adv.path_ids().next().unwrap();
    adv.remove_path(pe_id);
    let plan = adv.reoptimize();
    assert!(plan.paths.is_empty());
    assert_eq!(plan.total_cost, 0.0);
    assert_eq!(plan.physical_indexes, 0);
    assert!(adv.candidate_space().is_empty());
}

#[test]
fn rate_churn_skips_query_share_recomputation() {
    let (schema, _) = fixtures::paper_schema();
    let mut adv = two_path_advisor(&schema);
    adv.optimize();
    let before: Vec<Vec<[f64; 3]>> = adv.paths.iter().map(|st| st.query_costs.clone()).collect();
    let person = schema.class_by_name("Person").unwrap();
    adv.update_rates(person, (0.9, 0.9));
    let plan = adv.reoptimize();
    assert_eq!(plan.repriced_paths, 2, "both paths scope Person");
    assert!(plan.epoch_pricings > 0, "invalidated cells repriced");
    for (st, old) in adv.paths.iter().zip(&before) {
        assert_eq!(&st.query_costs, old, "query shares are rate-blind");
    }
    assert_costs_match(&plan, &adv.rebuild().optimize());
}

/// The per-signature basis cache holds exactly the live signatures after
/// every optimize: a lone path's signature prices a basis too, and a
/// departure that leaves a signature without a live path drops it.
#[test]
fn the_basis_map_holds_exactly_the_live_signatures() {
    let (schema, _) = fixtures::paper_schema();
    let mut adv = two_path_advisor(&schema);
    let optimize_and_check = |adv: &mut WorkloadAdvisor<'_>, ctx: &str| {
        adv.optimize();
        let live: HashSet<&PathSignature> = adv.paths.iter().map(|st| &st.signature).collect();
        let cached: HashSet<&PathSignature> = adv.basis.keys().collect();
        assert_eq!(cached, live, "{ctx}");
    };
    optimize_and_check(&mut adv, "cold");
    let twin = adv.add_path(fixtures::paper_path_pe(&schema), |_| 0.1);
    optimize_and_check(&mut adv, "a second Pe");
    let pexa = adv.path_ids().next().unwrap();
    adv.remove_path(pexa);
    optimize_and_check(&mut adv, "Pexa departed");
    adv.remove_path(twin);
    optimize_and_check(&mut adv, "the Pe twin departed");
    let person = schema.class_by_name("Person").unwrap();
    adv.update_stats(person, ClassStats::new(150_000.0, 30_000.0, 1.0));
    optimize_and_check(&mut adv, "stat drift");
}

/// `price_plan` pairs a plan's paths with the live ones in id order: it
/// prices the advisor's own plan at its quote, bit for bit, and refuses
/// another path set, a plan missing a live path and a changed identity.
#[test]
fn price_plan_pairs_paths_by_id() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let (schema, _) = fixtures::paper_schema();
    let mut adv = two_path_advisor(&schema);
    let plan = adv.optimize();
    assert_eq!(adv.price_plan(&plan).to_bits(), plan.total_cost.to_bits());
    let refusal = |edit: &dyn Fn(&mut WorkloadPlan)| {
        let mut foreign = two_path_advisor(&schema).optimize();
        edit(&mut foreign);
        let err = catch_unwind(AssertUnwindSafe(|| adv.price_plan(&foreign)));
        let err = err.expect_err("a foreign plan is refused");
        err.downcast_ref::<String>()
            .expect("a formatted message")
            .clone()
    };
    let fewer = refusal(&|p| drop(p.paths.pop()));
    assert!(
        fewer.contains("plan and advisor hold different path sets"),
        "{fewer}"
    );
    let missing = refusal(&|p| p.paths[1].id = PathId(7));
    assert!(
        missing.contains("plan misses live path PathId(1)"),
        "{missing}"
    );
    let renamed = refusal(&|p| p.paths[0].path = p.paths[1].path.clone());
    assert!(
        renamed.contains("path PathId(0) changed identity"),
        "{renamed}"
    );
}

/// Eviction trials on the prune masks `refresh_masks` really produces
/// respond exactly as on unmasked cells: under the same bans, every
/// owner's [`pricing::frontier_response`] — its first point, or `None`
/// when the bans leave it uncoverable — is bit-equal with `pruned =
/// None`. The trials ban indexes of the adopted plan on top of random
/// earlier evictions, so bans land on the singleton replacements a
/// whole-rank (`0b111`) strike leans on: the cell rule must ignore that
/// strike while any rank of the path is banned.
#[test]
fn eviction_trials_respond_as_without_prune_masks() {
    use ledger::Pair;
    use pricing::{frontier_response, to_selection, Bans, FrontierTables, Pricing, Source};

    let (schema, _) = fixtures::paper_schema();
    let spellings: [(&str, &[&str]); 5] = [
        ("Person", &["owns", "man", "divs", "name"]),
        ("Person", &["owns", "man", "name"]),
        ("Vehicle", &["man", "divs", "name"]),
        ("Vehicle", &["man", "name"]),
        ("Company", &["divs", "name"]),
    ];
    let mut seed = 0xCA7E_0111_u64;
    let mut rng = move |below: usize| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % below as u64) as usize
    };
    // Per trial, per owner in order: the response's (cost, size) bits and
    // selection, or `None`; a trial stops at its first uncoverable owner.
    type Responses = Vec<Vec<Option<((u64, u64), Selection)>>>;
    let trials = |adv: &WorkloadAdvisor<'_>, sels: &[Selection], bans: &[(Vec<u8>, Pair)]| {
        let round = adv.ledger(sels);
        let owners = ledger::Holders::new(
            &adv.space,
            1,
            adv.paths.iter().zip(sels).map(|(st, sel)| st.pieces(sel)),
        );
        let (mut context, mut tables) = (Vec::new(), FrontierTables::default());
        let mut out: Responses = Vec::new();
        for (evicted, trial) in bans {
            let bans = Bans {
                evicted,
                trial: *trial,
            };
            let mut overlay = round.overlay(&adv.space);
            let mut responses = Vec::new();
            for &i in owners.of(*trial) {
                let st = &adv.paths[i];
                overlay.remove(st.pieces(&sels[i]));
                overlay.context_into(&st.cands, &mut context);
                let pricing = Pricing {
                    context: Some(&context),
                    lambda: 0.0,
                    bans: Some(&bans),
                };
                let mut sel = Selection::new();
                let inf = f64::INFINITY;
                let space = Source::Space(&adv.space);
                let point = frontier_response(st, space, pricing, inf, &mut tables, &mut sel);
                let Some((cost, size)) = point else {
                    responses.push(None);
                    break;
                };
                overlay.insert(i, st.pieces(&sel));
                responses.push(Some(((cost.to_bits(), size.to_bits()), sel)));
            }
            out.push(responses);
        }
        out
    };
    let (mut whole_rank_strikes, mut uncoverable, mut responses) = (0, 0, 0);
    for case in 0..24 {
        let rates = [(0.0, 0.0), (0.01, 0.02), (0.5, 0.2), (5.0, 3.0)];
        let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
            .with_stats(|_| {
                let n = [100.0, 10_000.0, 200_000.0][rng(3)];
                ClassStats::new(n, n / [1.0, 10.0, 1000.0][rng(3)], [1.0, 3.0][rng(2)])
            })
            .with_maintenance(|_| rates[rng(4)])
            .with_threads(1);
        for _ in 0..4 {
            let (root, steps) = spellings[rng(spellings.len())];
            let path = Path::parse(&schema, root, steps).expect("valid on Figure 1");
            adv.add_path(path, |_| [0.0, 0.01, 0.3, 4.0][rng(4)]);
        }
        let plan = adv.optimize();
        let sels: Vec<Selection> = plan
            .paths
            .iter()
            .map(|p| to_selection(&p.selection))
            .collect();
        whole_rank_strikes += adv
            .paths
            .iter()
            .flat_map(|st| st.pruned.as_deref().expect("refreshed"))
            .filter(|&&mask| mask == 0b111)
            .count();
        // Every adopted index on trial, on top of random earlier evictions
        // among the live cells.
        let live: Vec<Pair> = adv
            .paths
            .iter()
            .flat_map(|st| st.live_cands.iter())
            .flat_map(|&cand| Org::ALL.map(|org| (cand, org)))
            .collect();
        let held = sels
            .iter()
            .zip(&adv.paths)
            .flat_map(|(sel, st)| st.pieces(sel));
        let bans: Vec<(Vec<u8>, Pair)> = held
            .map(|(trial, _)| {
                let mut evicted = vec![0u8; adv.space.slot_count()];
                for &(cand, org) in &live {
                    if (cand, org) != trial && rng(3) == 0 {
                        evicted[cand.index()] |= 1 << org.index();
                    }
                }
                (evicted, trial)
            })
            .collect();
        let masked = trials(&adv, &sels, &bans);
        for st in &mut adv.paths {
            st.pruned = None;
        }
        let unmasked = trials(&adv, &sels, &bans);
        assert_eq!(masked, unmasked, "case {case}");
        let all = masked.iter().flatten();
        responses += all.clone().count();
        uncoverable += all.filter(|r| r.is_none()).count();
    }
    // The sweep met whole-rank strikes, and responses of both kinds.
    assert!(
        whole_rank_strikes > 0 && uncoverable > 0,
        "{whole_rank_strikes} {uncoverable}"
    );
    assert!(responses > uncoverable, "{responses} {uncoverable}");
}

/// An epoch whose mutations only move statistics, rates or query rates
/// reuses the cached components: same `Arc`, no rebuild.
#[test]
fn an_epoch_without_membership_moves_reuses_the_components() {
    let (schema, _) = fixtures::paper_schema();
    let mut adv = two_path_advisor(&schema);
    adv.add_path(
        Path::parse(&schema, "Company", &["divs", "name"]).unwrap(),
        |_| 0.1,
    );
    adv.optimize();
    let cached = Arc::clone(adv.components.as_ref().expect("filled by optimize"));
    let vehicle = schema.class_by_name("Vehicle").unwrap();
    assert!(adv.update_stats(vehicle, ClassStats::new(40_000.0, 9_000.0, 2.0)));
    assert!(adv.update_rates(vehicle, (0.4, 0.02)));
    let first = adv.path_ids().next().unwrap();
    assert!(adv.update_query_rates(first, |_| 0.05));
    let plan = adv.reoptimize();
    assert_eq!(plan.mutations, 3);
    assert!(plan.repriced_paths > 0);
    let kept = adv.components.as_ref().expect("still cached");
    assert!(
        Arc::ptr_eq(kept, &cached),
        "no rebuild without a membership move"
    );
    // The budgeted search reads the same cache.
    adv.optimize_with_budget(0.5 * plan.size_pages);
    let kept = adv.components.as_ref().expect("still cached");
    assert!(Arc::ptr_eq(kept, &cached));
}

/// Seeded churn on the paper schema: arrivals from a fixed pool (at most
/// 12 live paths), departures, query-rate updates that re-mine under a
/// gating policy, and statistics and rate updates.
pub(super) struct Churn<'s> {
    schema: &'s Schema,
    pool: Vec<Path>,
    classes: Vec<ClassId>,
    seed: u64,
}

impl<'s> Churn<'s> {
    pub(super) fn new(schema: &'s Schema) -> Self {
        let pool = [
            ("Person", &["owns", "man", "divs", "name"][..]),
            ("Person", &["owns", "man", "name"]),
            ("Person", &["owns", "color"]),
            ("Vehicle", &["man", "divs", "name"]),
            ("Vehicle", &["man", "location"]),
            ("Company", &["divs", "name"]),
            ("Company", &["divs", "function"]),
            ("Person", &["name"]),
        ]
        .iter()
        .map(|(root, attrs)| Path::parse(schema, root, attrs).unwrap())
        .collect();
        let classes = schema.class_ids().collect();
        Churn {
            schema,
            pool,
            classes,
            seed: 0xC0_CAC4E,
        }
    }

    /// The next xorshift draw, below `below`.
    pub(super) fn next(&mut self, below: u64) -> u64 {
        self.seed ^= self.seed << 13;
        self.seed ^= self.seed >> 7;
        self.seed ^= self.seed << 17;
        self.seed % below
    }

    /// A seeded class of the schema.
    fn class(&mut self) -> ClassId {
        let k = self.next(self.classes.len() as u64) as usize;
        self.classes[k]
    }

    /// An empty advisor under a policy that mines some ranks out.
    pub(super) fn advisor(&self) -> WorkloadAdvisor<'s> {
        let policy = MiningPolicy {
            min_support: 0.9,
            ..MiningPolicy::default()
        };
        WorkloadAdvisor::new(self.schema, CostParams::default())
            .with_stats(fig7_stats(self.schema))
            .with_maintenance(|_| (0.1, 0.1))
            .with_mining(policy)
    }

    /// Applies one seeded mutation to `adv`.
    pub(super) fn step(&mut self, adv: &mut WorkloadAdvisor<'_>) {
        let ids: Vec<PathId> = adv.path_ids().collect();
        let alphas: Vec<f64> = (0..self.classes.len())
            .map(|_| self.next(11) as f64 / 10.0)
            .collect();
        let pick = |k: u64| ids[k as usize % ids.len().max(1)];
        match self.next(6) {
            0..=1 if ids.len() < 12 => {
                let k = self.next(self.pool.len() as u64) as usize;
                adv.add_path(self.pool[k].clone(), |c| alphas[c.index()]);
            }
            0..=2 if !ids.is_empty() => {
                adv.remove_path(pick(self.next(64)));
            }
            3 if !ids.is_empty() => {
                adv.update_query_rates(pick(self.next(64)), |c| alphas[c.index()]);
            }
            4 => {
                let class = self.class();
                let n = 1_000.0 * (1 + self.next(50)) as f64;
                adv.update_stats(class, ClassStats::new(n, n / 4.0, 1.0));
            }
            _ => {
                let class = self.class();
                let rates = (self.next(5) as f64 / 10.0, self.next(5) as f64 / 10.0);
                adv.update_rates(class, rates);
            }
        }
    }
}

/// Through seeded arrivals, departures, re-minings and price churn, the
/// cached components, and their members' cells numbered for the descent,
/// always equal a fresh `shard::components` build over the live
/// candidates, and the cache is dropped exactly when some path arrived,
/// departed or changed its admitted candidates.
#[test]
fn the_component_cache_equals_a_fresh_build_through_churn() {
    let (schema, _) = fixtures::paper_schema();
    let mut churn = Churn::new(&schema);
    let mut adv = churn.advisor();
    let live = |adv: &WorkloadAdvisor<'_>| -> Vec<(PathId, Vec<CandidateId>)> {
        let live = adv.paths.iter();
        live.map(|st| (st.id, st.live_cands.clone())).collect()
    };
    let (mut kept, mut dropped, mut remined) = (0, 0, 0);
    for step in 0..300 {
        let before = (live(&adv), adv.components.clone());
        churn.step(&mut adv);
        let after = live(&adv);
        let same_paths = before.0.iter().map(|p| p.0).eq(after.iter().map(|p| p.0));
        if before.0 == after {
            let same = match (&before.1, &adv.components) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (a, b) => a.is_none() && b.is_none(),
            };
            assert!(same, "step {step}: membership held, the cache must stay");
            kept += usize::from(before.1.is_some());
        } else {
            assert!(adv.components.is_none(), "step {step}: membership moved");
            dropped += 1;
            remined += usize::from(same_paths);
        }
        if churn.next(3) == 0 {
            adv.reoptimize();
        } else {
            adv.components();
        }
        let cands: Vec<&[CandidateId]> = adv.paths.iter().map(|st| &st.live_cands[..]).collect();
        let fresh = shard::components(&cands, adv.space.slot_count());
        let cached = adv.components.as_deref().expect("filled above");
        let fresh = Shards::new(&adv.paths, fresh, adv.executor());
        assert_eq!(*cached, fresh, "step {step}");
    }
    // Every door was exercised: kept caches, arrivals and departures, and
    // re-minings that moved an admitted set.
    assert!(
        kept > 50 && dropped > 50 && remined > 0,
        "{kept} {dropped} {remined}"
    );
}

/// Through the same seeded churn, the running count of struck cells that
/// `candidates_pruned` reports equals a from-scratch popcount of the live
/// paths' masks after every epoch, and each path's kept count equals its
/// own mask's — so the total is only ever corrected, never re-summed.
#[test]
fn the_struck_cell_total_equals_a_fresh_popcount_through_churn() {
    let (schema, _) = fixtures::paper_schema();
    let mut churn = Churn::new(&schema);
    let mut adv = churn.advisor();
    let (mut last, mut rose, mut fell) = (0, 0, 0);
    for step in 0..300 {
        churn.step(&mut adv);
        if churn.next(3) != 0 {
            continue;
        }
        let plan = adv.reoptimize();
        let mut fresh = 0;
        for st in &adv.paths {
            let mask = st.pruned.as_deref().expect("every live path has a mask");
            let count: u64 = mask.iter().map(|b| u64::from(b.count_ones())).sum();
            assert_eq!(st.struck, count, "step {step}: path {:?}", st.id);
            fresh += count;
        }
        assert_eq!(plan.candidates_pruned, fresh, "step {step}");
        rose += usize::from(fresh > last);
        fell += usize::from(fresh < last);
        last = fresh;
    }
    assert!(rose > 10 && fell > 10, "{rose} rises, {fell} falls");
}

/// An infinite or overflowing rate or statistic leaves no tiling of
/// Example 5.1's path with a finite cost. Every door it can come through
/// still yields a plan, and a budgeted solve on the same advisor returns
/// too — for the path alone, and beside a second path sharing its prefix
/// (a component the descent runs on). So do NaN, negative, −∞ and zero
/// values through the same doors, and their budgeted solves fit.
#[test]
fn infinite_or_overflowing_inputs_still_plan() {
    let (schema, _) = fixtures::paper_schema();
    let pexa = fixtures::paper_path_pexa(&schema);
    let first = pexa.steps()[0].class;
    let doors = [
        "update_rates",
        "update_query_rates",
        "update_stats",
        "with_maintenance",
    ];
    let (overflowing, other) = (
        [f64::INFINITY, 1e308],
        [f64::NAN, -1.0, f64::NEG_INFINITY, 0.0],
    );
    for shared in [false, true] {
        for hostile in overflowing.into_iter().chain(other) {
            for door in doors {
                let ctx = format!("{door}({hostile:e}), shared prefix: {shared}");
                let at = |c| door == "with_maintenance" && c == first;
                let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
                    .with_stats(|_| ClassStats::new(10_000.0, 1_000.0, 1.0))
                    .with_maintenance(|c| if at(c) { (hostile, 0.1) } else { (0.1, 0.1) });
                let id = adv.add_path(pexa.clone(), |_| 0.2);
                if shared {
                    adv.add_path(fixtures::paper_path_pe(&schema), |_| 0.2);
                }
                let pages = adv.optimize().size_pages;
                let mutated = match door {
                    "update_rates" => adv.update_rates(first, (hostile, 0.1)),
                    "update_query_rates" => adv.update_query_rates(id, |_| hostile),
                    "update_stats" => adv.update_stats(first, ClassStats::new(hostile, 1.0, 1.0)),
                    _ => true, // hostile from the first solve on
                };
                assert!(mutated, "{ctx}");
                let paths = 1 + usize::from(shared);
                assert_eq!(adv.reoptimize().paths.len(), paths, "{ctx}");
                let budgeted = adv.optimize_with_budget(pages / 2.0);
                assert_eq!(budgeted.plan.paths.len(), paths, "{ctx}");
                if !overflowing.contains(&hostile) {
                    assert!(budgeted.feasible, "{ctx}");
                }
            }
        }
    }
}
