//! Tests of the selection procedures: branch and bound, the interval DP,
//! the frontier DP and its one-point form, and the dominance pruner.

use super::*;
use oic_cost::Org;

fn sid(s: usize, e: usize) -> SubpathId {
    SubpathId { start: s, end: e }
}

/// A 3-position matrix where splitting wins.
fn split_wins() -> CostMatrix {
    CostMatrix::from_values(
        3,
        &[
            (sid(1, 1), [1.0, 5.0, 5.0]),
            (sid(2, 2), [5.0, 1.0, 5.0]),
            (sid(3, 3), [5.0, 5.0, 1.0]),
            (sid(1, 2), [9.0, 9.0, 9.0]),
            (sid(2, 3), [9.0, 9.0, 9.0]),
            (sid(1, 3), [9.0, 9.0, 8.0]),
        ],
    )
}

/// A matrix where the whole path wins.
fn whole_wins() -> CostMatrix {
    CostMatrix::from_values(
        3,
        &[
            (sid(1, 1), [4.0, 5.0, 5.0]),
            (sid(2, 2), [4.0, 5.0, 5.0]),
            (sid(3, 3), [4.0, 5.0, 5.0]),
            (sid(1, 2), [7.0, 9.0, 9.0]),
            (sid(2, 3), [7.0, 9.0, 9.0]),
            (sid(1, 3), [9.0, 9.0, 2.0]),
        ],
    )
}

#[test]
fn bb_finds_three_way_split() {
    let r = opt_ind_con(&split_wins());
    assert_eq!(r.cost, 3.0);
    assert_eq!(r.best.degree(), 3);
    assert_eq!(r.best.pairs()[0], (sid(1, 1), Choice::Index(Org::Mx)));
    assert_eq!(r.best.pairs()[1], (sid(2, 2), Choice::Index(Org::Mix)));
    assert_eq!(r.best.pairs()[2], (sid(3, 3), Choice::Index(Org::Nix)));
}

#[test]
fn bb_keeps_whole_path_when_best() {
    let r = opt_ind_con(&whole_wins());
    assert_eq!(r.cost, 2.0);
    assert_eq!(r.best.degree(), 1);
    // With PC_min = 2 after the first candidate, every proper prefix
    // (cost ≥ 4) is pruned immediately: only 1 evaluation.
    assert_eq!(r.evaluated, 1);
    assert_eq!(r.pruned, 2, "prefixes S1,2 and S1,1");
}

#[test]
fn bb_matches_exhaustive() {
    for m in [split_wins(), whole_wins()] {
        let a = opt_ind_con(&m);
        let b = exhaustive(&m);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.best.pairs(), b.best.pairs());
        assert!(a.evaluated <= b.evaluated);
    }
}

#[test]
fn exhaustive_candidate_count() {
    let r = exhaustive(&split_wins());
    assert_eq!(r.candidate_space, 4);
    assert_eq!(r.evaluated, 4);
}

#[test]
fn single_position_path() {
    let m = CostMatrix::from_values(1, &[(sid(1, 1), [2.0, 3.0, 4.0])]);
    let r = opt_ind_con(&m);
    assert_eq!(r.cost, 2.0);
    assert_eq!(r.best.degree(), 1);
    assert_eq!(r.candidate_space, 1);
}

#[test]
fn dp_matches_exhaustive_on_fixtures() {
    for m in [split_wins(), whole_wins(), crate::fig6::fig6_matrix()] {
        let dp = opt_ind_con_dp(&m);
        let ex = exhaustive(&m);
        assert!((dp.cost - ex.cost).abs() < 1e-9);
        assert_eq!(dp.best.pairs(), ex.best.pairs());
        // The configuration's cost re-derives from the matrix cells.
        let derived: f64 = dp
            .best
            .pairs()
            .iter()
            .map(|&(sub, choice)| match choice {
                Choice::Index(org) => m.cost(sub, org),
                Choice::NoIndex => unreachable!("no-index column not built"),
            })
            .sum();
        assert!((derived - dp.cost).abs() < 1e-9);
    }
}

#[test]
fn dp_transition_count_is_polynomial() {
    let m = split_wins();
    let dp = opt_ind_con_dp(&m);
    // n(n+1)/2 pieces × 3 organizations.
    assert_eq!(dp.evaluated, 6 * 3);
    assert_eq!(dp.pruned, 0);
    assert_eq!(dp.candidate_space, 4);
}

#[test]
fn dp_single_position_path() {
    let m = CostMatrix::from_values(1, &[(sid(1, 1), [2.0, 3.0, 4.0])]);
    let r = opt_ind_con_dp(&m);
    assert_eq!(r.cost, 2.0);
    assert_eq!(r.best.pairs(), &[(sid(1, 1), Choice::Index(Org::Mx))]);
}

/// A 3-position matrix with a real cost-vs-size tension: the cheap
/// whole-path NIX is fat, the per-position MX split is lean but slower.
fn tension() -> CostMatrix {
    CostMatrix::from_values_with_sizes(
        3,
        &[
            (sid(1, 1), [4.0, 5.0, 6.0], [10.0, 12.0, 20.0]),
            (sid(2, 2), [4.0, 5.0, 6.0], [10.0, 12.0, 20.0]),
            (sid(3, 3), [4.0, 5.0, 6.0], [10.0, 12.0, 20.0]),
            (sid(1, 2), [9.0, 8.0, 7.0], [25.0, 30.0, 60.0]),
            (sid(2, 3), [9.0, 8.0, 7.0], [25.0, 30.0, 60.0]),
            (sid(1, 3), [9.0, 9.0, 2.0], [40.0, 50.0, 100.0]),
        ],
    )
}

#[test]
fn frontier_matches_exhaustive_on_fixtures() {
    for m in [
        split_wins(),
        whole_wins(),
        tension(),
        crate::fig6::fig6_matrix(),
    ] {
        let f = frontier_dp(&m);
        let ex = exhaustive_frontier(&m);
        assert_eq!(f.points.len(), ex.len(), "frontier cardinality");
        for (p, &(c, s)) in f.points.iter().zip(&ex) {
            assert!((p.cost - c).abs() < 1e-9, "{} vs {c}", p.cost);
            assert!((p.size - s).abs() < 1e-9, "{} vs {s}", p.size);
            // Each point's (cost, size) re-derives from its config.
            let derived_cost: f64 = p
                .config
                .pairs()
                .iter()
                .map(|&(sub, ch)| m.choice_cost(sub, ch))
                .sum();
            let derived_size = m.configuration_size(&p.config);
            assert!((derived_cost - p.cost).abs() < 1e-9);
            assert!((derived_size - p.size).abs() < 1e-9);
        }
        // Frontier shape: cost strictly ascending, size strictly
        // descending.
        for w in f.points.windows(2) {
            assert!(w[0].cost < w[1].cost);
            assert!(w[0].size > w[1].size);
        }
    }
}

#[test]
fn frontier_min_cost_equals_scalar_dp() {
    for m in [
        split_wins(),
        whole_wins(),
        tension(),
        crate::fig6::fig6_matrix(),
    ] {
        let f = frontier_dp(&m);
        let dp = opt_ind_con_dp(&m);
        assert_eq!(f.min_cost().cost.to_bits(), dp.cost.to_bits());
        assert_eq!(f.min_cost().config.pairs(), dp.best.pairs());
        assert_eq!(f.evaluated, dp.evaluated);
    }
}

#[test]
fn frontier_collapses_to_singletons_without_sizes() {
    // Size-free matrices: every label set is the scalar optimum, so the
    // frontier has exactly one point and no extra label work beyond one
    // extension per priced piece.
    let m = split_wins();
    let f = frontier_dp(&m);
    assert_eq!(f.points.len(), 1);
    assert_eq!(f.labels, f.evaluated);
}

#[test]
fn within_budget_picks_the_cheapest_fitting_point() {
    let m = tension();
    let f = frontier_dp(&m);
    // Unconstrained: whole-path NIX, cost 2, 100 pages.
    assert_eq!(f.min_cost().cost, 2.0);
    assert_eq!(f.min_cost().size, 100.0);
    // 100+ pages: the optimum fits.
    assert_eq!(f.within_budget(120.0).unwrap().cost, 2.0);
    // Under 100: forced off the whole-path; the three-way MX split
    // (cost 12, 30 pages) is the only lean alternative on this matrix.
    let p = f.within_budget(99.0).unwrap();
    assert!(p.cost > 2.0 && p.size <= 99.0);
    assert_eq!(f.within_budget(30.0).unwrap().size, 30.0);
    // Below the leanest configuration: infeasible.
    assert!(f.within_budget(29.0).is_none());
    // The budgeted answer always matches a brute-force scan.
    for budget in [29.0, 30.0, 45.0, 99.0, 100.0, 1e9] {
        let ex_best = exhaustive_frontier(&m)
            .into_iter()
            .filter(|&(_, s)| s <= budget)
            .map(|(c, _)| c)
            .fold(f64::INFINITY, f64::min);
        match f.within_budget(budget) {
            Some(p) => assert!((p.cost - ex_best).abs() < 1e-9, "budget {budget}"),
            None => assert!(ex_best.is_infinite(), "budget {budget}"),
        }
    }
}

#[test]
fn frontier_handles_no_index_column() {
    // A no-index choice is free in pages: with the column built the
    // all-no-index configuration (size 0) anchors the frontier's lean
    // end.
    let m = fixtures_matrix();
    let f = frontier_dp(&m);
    let last = f.points.last().unwrap();
    assert_eq!(last.size, 0.0);
    assert!(last
        .config
        .pairs()
        .iter()
        .all(|&(_, c)| c == Choice::NoIndex));
    let ex = exhaustive_frontier(&m);
    assert_eq!(f.points.len(), ex.len());
}

/// A sized matrix with a no-index column, via the real model.
fn fixtures_matrix() -> CostMatrix {
    use oic_cost::characteristics::example51;
    use oic_cost::{CostModel, CostParams};
    use oic_schema::fixtures;
    use oic_workload::example51_load;
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = example51(&schema);
    let ld = example51_load(&schema, &path);
    let model = CostModel::new(&schema, &path, &chars, CostParams::default());
    CostMatrix::build_with_no_index(&model, &ld)
}

#[test]
fn frontier_single_position_path() {
    // n = 1: the only cover is S1,1 with one of the three
    // organizations; the frontier is the Pareto set of those three
    // (cost, size) cells.
    let m =
        CostMatrix::from_values_with_sizes(1, &[(sid(1, 1), [5.0, 4.0, 3.0], [10.0, 20.0, 30.0])]);
    let f = frontier_dp(&m);
    // All three cells are Pareto-optimal here (cost descends as size
    // ascends across Mx→Mix→Nix).
    assert_eq!(f.points.len(), 3);
    assert_eq!(f.min_cost().cost, 3.0);
    assert_eq!(f.min_cost().size, 30.0);
    assert_eq!(f.points.last().unwrap().size, 10.0);
    let ex = exhaustive_frontier(&m);
    assert_eq!(f.points.len(), ex.len());
    for (p, (c, s)) in f.points.iter().zip(ex) {
        assert_eq!((p.cost, p.size), (c, s));
        assert_eq!(p.config.degree(), 1);
    }
    // The scalar DP agrees bit-for-bit on the cost optimum.
    let dp = opt_ind_con_dp(&m);
    assert_eq!(f.min_cost().cost.to_bits(), dp.cost.to_bits());
    assert_eq!(f.min_cost().config.pairs(), dp.best.pairs());
    // A dominated cell never surfaces: make Mix worse in both axes.
    let m =
        CostMatrix::from_values_with_sizes(1, &[(sid(1, 1), [5.0, 9.0, 3.0], [10.0, 99.0, 30.0])]);
    let f = frontier_dp(&m);
    assert_eq!(f.points.len(), 2, "Mix is dominated by both neighbours");
}

#[test]
fn frontier_with_all_zero_query_rates_is_maintenance_only() {
    // α = 0 everywhere: the load is pure maintenance. The matrix still
    // prices every cell (insert/delete traffic), the frontier still
    // has its full shape, and it matches the exhaustive baseline.
    use oic_cost::characteristics::example51;
    use oic_cost::{CostModel, CostParams};
    use oic_schema::fixtures;
    use oic_workload::{LoadDistribution, Triplet};
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = example51(&schema);
    let ld = LoadDistribution::build(&schema, &path, |_| Triplet::new(0.0, 0.1, 0.1));
    let model = CostModel::new(&schema, &path, &chars, CostParams::default());
    let m = CostMatrix::build(&model, &ld);
    let f = frontier_dp(&m);
    assert!(!f.points.is_empty());
    assert!(f.min_cost().cost > 0.0, "maintenance is not free");
    let ex = exhaustive_frontier(&m);
    assert_eq!(f.points.len(), ex.len());
    for (p, (c, s)) in f.points.iter().zip(ex) {
        assert!((p.cost - c).abs() < 1e-9 && (p.size - s).abs() < 1e-9);
    }
    // With the no-index column built, zero queries make "index
    // nothing" free — the frontier's lean anchor at (0 cost, 0 pages),
    // which is also the scalar optimum. One point: it dominates all.
    let m = CostMatrix::build_with_no_index(&model, &ld);
    let f = frontier_dp(&m);
    assert_eq!(f.points.len(), 1);
    let only = &f.points[0];
    assert_eq!((only.cost, only.size), (0.0, 0.0));
    assert!(only
        .config
        .pairs()
        .iter()
        .all(|&(_, c)| c == Choice::NoIndex));
    let dp = opt_ind_con_dp(&m);
    assert_eq!(dp.cost, 0.0);
    assert_eq!(only.config.pairs(), dp.best.pairs());
}

#[test]
fn frontier_breaks_exact_cost_ties_toward_the_leaner_organization() {
    // Every organization of every subpath costs the same; only sizes
    // differ. Dominance must collapse each label set to the leanest
    // spelling, and the single frontier point is the min-size cover.
    let m = CostMatrix::from_values_with_sizes(
        2,
        &[
            (sid(1, 1), [4.0, 4.0, 4.0], [12.0, 10.0, 11.0]),
            (sid(2, 2), [4.0, 4.0, 4.0], [7.0, 9.0, 8.0]),
            (sid(1, 2), [8.0, 8.0, 8.0], [20.0, 16.0, 18.0]),
        ],
    );
    let f = frontier_dp(&m);
    assert_eq!(f.points.len(), 1, "equal costs: one Pareto point");
    let p = &f.points[0];
    assert_eq!(p.cost, 8.0);
    assert_eq!(p.size, 16.0, "whole-path Mix is the leanest 8.0 cover");
    assert_eq!(
        p.config.pairs(),
        &[(sid(1, 2), Choice::Index(Org::Mix))],
        "tie broken toward the leaner organization"
    );
    let ex = exhaustive_frontier(&m);
    assert_eq!(ex, vec![(8.0, 16.0)]);
    // Fully degenerate ties — equal cost *and* equal size — keep the
    // scalar DP's tie-breaking: longest last piece, first organization
    // column (Mx).
    let m = CostMatrix::from_values_with_sizes(
        2,
        &[
            (sid(1, 1), [4.0, 4.0, 4.0], [5.0, 5.0, 5.0]),
            (sid(2, 2), [4.0, 4.0, 4.0], [5.0, 5.0, 5.0]),
            (sid(1, 2), [8.0, 8.0, 8.0], [10.0, 10.0, 10.0]),
        ],
    );
    let f = frontier_dp(&m);
    let dp = opt_ind_con_dp(&m);
    assert_eq!(f.points.len(), 1);
    assert_eq!(f.points[0].config.pairs(), dp.best.pairs());
    assert_eq!(
        f.points[0].config.pairs(),
        &[(sid(1, 2), Choice::Index(Org::Mx))]
    );
}

#[test]
fn budget_exactly_on_a_frontier_knee_takes_the_knee() {
    let m = tension();
    let f = frontier_dp(&m);
    assert!(f.points.len() >= 2, "the fixture has a real trade-off");
    for (k, p) in f.points.iter().enumerate() {
        // A budget exactly equal to a knee's footprint admits that
        // knee (≤, not <): no page of slack is required.
        let hit = f.within_budget(p.size).expect("the knee itself fits");
        assert_eq!(hit.cost.to_bits(), p.cost.to_bits(), "knee {k}");
        assert_eq!(hit.size.to_bits(), p.size.to_bits(), "knee {k}");
        // One ulp under the knee falls through to the next point (or
        // to infeasibility after the leanest knee).
        let under = f.within_budget(p.size - p.size.abs() * 1e-15 - f64::MIN_POSITIVE);
        match f.points.get(k + 1) {
            Some(next) => {
                let under = under.expect("a leaner point exists");
                assert_eq!(under.cost.to_bits(), next.cost.to_bits(), "below knee {k}");
            }
            None => assert!(under.is_none(), "below the leanest point: infeasible"),
        }
    }
}

/// `pareto_insert` keeps what sorting a position's labels by `(cost,
/// size)` (`total_cmp`, earliest generated first) and keeping each one
/// strictly leaner than all before it keeps — the same labels, in the same
/// order — on random streams with few distinct values: exact duplicates,
/// cost ties, both signed zeros, and infinite sizes.
#[test]
fn pareto_insert_equals_sort_and_sweep() {
    let mut seed = 0xBADC_0FFE_u64;
    let mut rng = move |below: u64| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed % below
    };
    let sizes = [-0.0, 0.0, 1.0, 2.0, 3.0, f64::INFINITY];
    const EARLIER: Label = Label {
        cost: 0.0,
        size: 0.0,
        start: 0,
        choice: 0,
        parent: usize::MAX,
    };
    for _ in 0..500 {
        let raw: Vec<Label> = (0..rng(24))
            .map(|gen| Label {
                cost: rng(5) as f64,
                size: sizes[rng(6) as usize],
                start: 1,
                choice: 0,
                parent: gen as usize,
            })
            .collect();
        let mut order: Vec<&Label> = raw.iter().collect();
        order.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.size.total_cmp(&b.size)));
        let mut want = Vec::new();
        let mut min_size = f64::INFINITY;
        for l in order {
            if l.size < min_size {
                min_size = l.size;
                want.push((l.cost.to_bits(), l.size.to_bits(), l.parent));
            }
        }
        // An earlier position's label sits before the set.
        let mut labels = vec![EARLIER];
        for &l in &raw {
            pareto_insert(&mut labels, 1, l);
        }
        let got: Vec<_> = labels[1..]
            .iter()
            .map(|l| (l.cost.to_bits(), l.size.to_bits(), l.parent))
            .collect();
        assert_eq!(got, want, "{raw:?}");
    }
}

/// The one-point reconstruction is the full frontier's answer: on
/// random sized matrices — some with banned cells or a whole banned
/// column, some with no cover at all — `frontier_point` over the
/// matrix's cells at ∞ is the first point, and at every other budget
/// (each knee, between knees, below the leanest point) it is
/// `within_budget`'s: the same `Option`, cost and size bits, and
/// configuration. Where nothing covers the path it is `None`, and the
/// full frontier is its `+∞` stand-in alone. One label table serves
/// every matrix, so a run that read stale labels of a longer earlier path
/// would show.
#[test]
fn one_point_frontier_equals_the_full_frontier() {
    let mut seed = 0xF00D_u64;
    let mut rng = move |below: u64| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed % below
    };
    let bits = |p: Option<&FrontierPoint>| {
        p.map(|p| {
            (
                p.cost.to_bits(),
                p.size.to_bits(),
                p.config.pairs().to_vec(),
            )
        })
    };
    let (mut banned, mut uncoverable) = (0, 0);
    let mut labels = Labels::default();
    for n in (1..=6).rev() {
        for trial in 0..12 {
            let column = (trial % 4 == 1).then(|| rng(3) as usize);
            let values: Vec<_> = (0..SubpathId::count(n))
                .map(|r| {
                    let (mut cost, mut size) = ([f64::INFINITY; 3], [0.0; 3]);
                    for o in 0..3 {
                        // A ban prices as the advisor's: ∞, no pages.
                        if column != Some(o) && rng(6) != 0 && trial != 11 {
                            (cost[o], size[o]) = (rng(40) as f64 / 4.0, rng(30) as f64);
                        }
                    }
                    (SubpathId::from_rank(n, r), cost, size)
                })
                .collect();
            let m = CostMatrix::from_values_with_sizes(n, &values);
            let f = frontier_dp(&m);
            banned += usize::from(column.is_some());
            let ctx = format!("n={n} trial={trial}");
            let mut one = |budget: f64| {
                let label = frontier_point(&mut labels, n, matrix_cells(&m, INDEXES), budget);
                label.map(|label| labels.point(&label))
            };
            let Some(first) = one(f64::INFINITY) else {
                // Nothing covers the path: the public frontier is the
                // singletons under the first column at `+∞`, alone.
                uncoverable += 1;
                let singletons = IndexConfiguration::singletons(CHOICES[0], n);
                assert_eq!(f.points.len(), 1, "{ctx}");
                assert_eq!(f.min_cost().cost, f64::INFINITY, "{ctx}");
                assert_eq!(f.min_cost().config.pairs(), singletons.pairs(), "{ctx}");
                continue;
            };
            assert_eq!(bits(f.points.first()), bits(Some(&first)), "{ctx}");
            let leanest = f.points.last().map_or(0.0, |p| p.size);
            let knees = f.points.iter().flat_map(|p| [p.size, p.size + 0.5]);
            for b in knees.chain([leanest - 1.0, 0.0, f64::INFINITY]) {
                assert_eq!(bits(f.within_budget(b)), bits(one(b).as_ref()), "{ctx} {b}");
            }
        }
    }
    assert!(
        banned > 0 && uncoverable > 0,
        "{banned} banned, {uncoverable} uncoverable"
    );
}

#[test]
fn candidate_space_saturates() {
    assert_eq!(candidate_space_size(1), 1);
    assert_eq!(candidate_space_size(4), 8);
    assert_eq!(candidate_space_size(64), 1u64 << 63);
    assert_eq!(candidate_space_size(65), u64::MAX);
    assert_eq!(candidate_space_size(200), u64::MAX);
}

#[test]
fn dp_equals_bb_on_random_matrices() {
    let mut seed = 0xC0FFEE_u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % 1000) as f64 / 100.0 + 0.1
    };
    for n in 2..=10 {
        let mut values = Vec::new();
        for len in 1..=n {
            for start in 1..=(n - len + 1) {
                values.push((sid(start, start + len - 1), [next(), next(), next()]));
            }
        }
        let m = CostMatrix::from_values(n, &values);
        let dp = opt_ind_con_dp(&m);
        let bb = opt_ind_con(&m);
        assert!(
            (dp.cost - bb.cost).abs() < 1e-9,
            "n={n}: dp {} vs bb {}",
            dp.cost,
            bb.cost
        );
    }
}

#[test]
fn prune_dominated_strikes_dominated_orgs_and_keeps_argmins() {
    // Rank (1,1): Mx full price 2.0; Mix query 5.0 > 2.0 (pruned),
    // Nix query 1.5 ≤ 2.0 (kept). Argmin Mx always survives.
    let query = vec![
        [1.0, 5.0, 1.5],  // (1,1)
        [1.0, 1.0, 1.0],  // (2,2)
        [0.5, 0.6, 20.0], // (1,2): Nix query 20 > Mx full 1.5
    ];
    let maint = vec![
        [1.0, 1.0, 1.0], // (1,1): floor = 2.0 (Mx)
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
    ];
    let flat = vec![[1.0; 3]; 3];
    let masks = prune_dominated(&query, &maint, &flat, 2);
    assert_eq!(masks[sid(1, 1).rank(2)], 0b010, "Mix dominated at (1,1)");
    assert_eq!(masks[sid(2, 2).rank(2)], 0, "three-way tie keeps all");
    assert_eq!(masks[sid(1, 2).rank(2)], 0b100, "Nix dominated at (1,2)");
    // The λ guard: when every would-be dominator is *fatter* than the
    // dominated cell, a large enough λ could flip the comparison, so
    // the strike is withheld.
    let fat_dominators = vec![
        [9.0, 0.5, 9.0], // (1,1): Mix is the thinnest cell
        [1.0, 1.0, 1.0],
        [9.0, 9.0, 0.5], // (1,2): Nix is the thinnest cell
    ];
    let masks = prune_dominated(&query, &maint, &fat_dominators, 2);
    assert_eq!(masks[sid(1, 1).rank(2)], 0, "thin Mix survives every λ");
    assert_eq!(masks[sid(1, 2).rank(2)], 0, "thin Nix survives every λ");
}

#[test]
fn prune_dominated_eliminates_ranks_beaten_by_singleton_floors() {
    // Singleton floors: 2.0 + 2.0 = 4.0. Rank (1,2)'s cheapest query
    // share alone is 10.0 > 4.0, and the replacement pair's pages
    // (1.0 + 1.0 = 2.0) fit under the rank's thinnest cell (2.0): the
    // whole rank is eliminated for every λ ≥ 0.
    let query = vec![[1.0, 1.5, 1.2], [1.0, 1.1, 1.3], [10.0, 11.0, 12.0]];
    let maint = vec![[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]];
    let sizes = vec![[1.0; 3], [1.0; 3], [2.0; 3]];
    let masks = prune_dominated(&query, &maint, &sizes, 2);
    assert_eq!(masks[sid(1, 2).rank(2)], 0b111, "rank eliminated");
    // Singleton ranks are never rank-eliminated, whatever their price.
    assert_ne!(masks[sid(1, 1).rank(2)], 0b111);
    assert_ne!(masks[sid(2, 2).rank(2)], 0b111);
    // The λ guard: a singleton replacement fatter than the rank's
    // thinnest cell could lose at large λ, so elimination is withheld
    // (the 2.0 + 2.0 = 4.0 replacement pages exceed the rank's 1.0).
    let fat_singletons = vec![[2.0; 3], [2.0; 3], [1.0, 1.0, 1.0]];
    let masks = prune_dominated(&query, &maint, &fat_singletons, 2);
    assert_ne!(masks[sid(1, 2).rank(2)], 0b111, "fat replacement kept");
}

/// The advisor-facing contract: masking pruned cells to `INFINITY`
/// leaves the DP's cost *bits* and its tie-broken selection unchanged
/// — on the uncovered pricing, under random coverage (covered cells
/// pay query only and bypass the mask, exactly as
/// the advisor's cell rule prices them), and under every λ-priced
/// objective `q + m + λ·s` the budgeted sweeps construct.
#[test]
fn masked_dp_is_bit_identical_on_random_grids() {
    let mut seed = 0xDEC0DE_u64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for n in 2..=8 {
        for trial in 0..8 {
            let ranks = SubpathId::count(n);
            let mut query = Vec::with_capacity(ranks);
            let mut maint = Vec::with_capacity(ranks);
            let mut sizes = Vec::with_capacity(ranks);
            for _ in 0..ranks {
                let cell = |r: &mut dyn FnMut() -> u64| (r() % 1000) as f64 / 100.0;
                query.push([cell(&mut rng), cell(&mut rng), cell(&mut rng)]);
                maint.push([cell(&mut rng), cell(&mut rng), cell(&mut rng)]);
                sizes.push([cell(&mut rng), cell(&mut rng), cell(&mut rng)]);
            }
            let masks = prune_dominated(&query, &maint, &sizes, n);
            // Random coverage (none on even trials).
            let covered: Vec<u8> = (0..ranks)
                .map(|_| if trial % 2 == 0 { 0 } else { (rng() % 8) as u8 })
                .collect();
            for lambda in [0.0, 0.7, 13.0] {
                let price = |with_mask: bool| {
                    let values: Vec<(SubpathId, [f64; 3])> = (0..ranks)
                        .map(|r| {
                            let mut cell = [0.0; 3];
                            for o in 0..3 {
                                cell[o] = if covered[r] & (1 << o) != 0 {
                                    query[r][o]
                                } else if with_mask && masks[r] & (1 << o) != 0 {
                                    f64::INFINITY
                                } else {
                                    query[r][o] + maint[r][o] + lambda * sizes[r][o]
                                };
                            }
                            (SubpathId::from_rank(n, r), cell)
                        })
                        .collect();
                    opt_ind_con_dp(&CostMatrix::from_values(n, &values))
                };
                let full = price(false);
                let masked = price(true);
                assert_eq!(
                    full.cost.to_bits(),
                    masked.cost.to_bits(),
                    "n={n} trial={trial} λ={lambda}: cost {} vs {}",
                    full.cost,
                    masked.cost
                );
                assert_eq!(
                    full.best.pairs(),
                    masked.best.pairs(),
                    "n={n} trial={trial} λ={lambda}: selections diverged"
                );
            }
        }
    }
}

#[test]
fn bb_equals_exhaustive_on_random_matrices() {
    // Deterministic pseudo-random matrices across path lengths.
    let mut seed = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % 1000) as f64 / 100.0 + 0.1
    };
    for n in 2..=8 {
        let mut values = Vec::new();
        for len in 1..=n {
            for start in 1..=(n - len + 1) {
                values.push((sid(start, start + len - 1), [next(), next(), next()]));
            }
        }
        let m = CostMatrix::from_values(n, &values);
        let a = opt_ind_con(&m);
        let b = exhaustive(&m);
        assert!(
            (a.cost - b.cost).abs() < 1e-9,
            "n={n}: bb {} vs exhaustive {}",
            a.cost,
            b.cost
        );
        assert!(a.evaluated <= b.evaluated);
    }
}
