//! Integration test: Example 5.1 / Figures 7–8 — the paper's headline
//! experiment — through the public facade, with the paper parameterization.

use oo_index_config::cost::characteristics::example51;
use oo_index_config::prelude::*;
use oo_index_config::schema::fixtures;
use oo_index_config::workload::example51_load;

fn setup() -> (Schema, Path, PathCharacteristics, LoadDistribution) {
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = example51(&schema);
    let ld = example51_load(&schema, &path);
    (schema, path, chars, ld)
}

#[test]
fn optimal_configuration_matches_the_paper() {
    let (schema, path, chars, ld) = setup();
    let rec = Advisor::new(&schema, &path, &chars, &ld)
        .with_params(CostParams::paper())
        .recommend();
    let model = CostModel::new(&schema, &path, &chars, CostParams::paper());
    assert_eq!(
        exhaustive(&CostMatrix::build(&model, &ld)).cost,
        rec.selection.cost,
        "branch and bound is exact"
    );

    // “Procedure Opt_Ind_Con results into the optimal configuration
    //  {(Per.owns.man, NIX), (Comp.divs.name, MX)}.”
    assert_eq!(rec.selection.best.degree(), 2);
    let pairs = rec.selection.best.pairs();
    assert_eq!(
        pairs[0],
        (SubpathId { start: 1, end: 2 }, Choice::Index(Org::Nix))
    );
    assert_eq!(
        pairs[1],
        (SubpathId { start: 3, end: 4 }, Choice::Index(Org::Mx))
    );
    assert!(rec.config_rendering.contains("Person.owns.man"));
    assert!(rec.config_rendering.contains("Company.divs.name"));
}

#[test]
fn splitting_beats_whole_path_nix_by_a_paper_scale_factor() {
    // “The idea of optimal index configuration decreases the processing
    //  cost of a path by a factor 2.7 [over] a NIX allocated on Pexa.”
    let (schema, path, chars, ld) = setup();
    let rec = Advisor::new(&schema, &path, &chars, &ld)
        .with_params(CostParams::paper())
        .recommend();
    let nix_whole = rec
        .whole_path
        .iter()
        .find(|(o, _)| *o == Org::Nix)
        .map(|&(_, c)| c)
        .expect("NIX baseline present");
    let factor = nix_whole / rec.selection.cost;
    assert!(
        (2.0..=6.0).contains(&factor),
        "improvement factor {factor:.2} should be in the paper's 2.7 ballpark"
    );
}

#[test]
fn dp_finds_the_paper_optimum_too() {
    // The polynomial DP must land on the same Example 5.1 optimum as the
    // paper's enumeration: {(Per.owns.man, NIX), (Comp.divs.name, MX)}.
    let (schema, path, chars, ld) = setup();
    let model = CostModel::new(&schema, &path, &chars, CostParams::paper());
    let matrix = CostMatrix::build(&model, &ld);
    let dp = opt_ind_con_dp(&matrix);
    let ex = exhaustive(&matrix);
    assert!((dp.cost - ex.cost).abs() < 1e-9);
    assert_eq!(
        dp.best.pairs(),
        &[
            (SubpathId { start: 1, end: 2 }, Choice::Index(Org::Nix)),
            (SubpathId { start: 3, end: 4 }, Choice::Index(Org::Mx)),
        ]
    );
    // Polynomial transition count: 10 pieces × 3 organizations.
    assert_eq!(dp.evaluated, 30);
}

#[test]
fn branch_and_bound_prunes_like_the_paper() {
    // “The procedure found the optimal configuration by exploring 4 index
    //  configurations instead of exploring all the 8.”
    let (schema, path, chars, ld) = setup();
    let rec = Advisor::new(&schema, &path, &chars, &ld)
        .with_params(CostParams::paper())
        .recommend();
    assert_eq!(rec.selection.candidate_space, 8);
    assert!(
        rec.selection.evaluated < 8,
        "B&B must beat exhaustive enumeration (evaluated {})",
        rec.selection.evaluated
    );
    assert!(rec.selection.pruned > 0);
}

#[test]
fn whole_path_query_ordering_nix_beats_mix_beats_mx() {
    // The design rationale of the NIX: for *queries* against the ending
    // attribute, one whole-path NIX lookup beats a MIX traversal, which
    // beats the per-class MX chase — at every target position. (Total-cost
    // ordering additionally depends on the maintenance mix; the paper's
    // Figure 8 totals are not recoverable beyond its stated 42.84.)
    let (schema, path, chars, _) = setup();
    let model = CostModel::new(&schema, &path, &chars, CostParams::paper());
    let full = SubpathId { start: 1, end: 4 };
    for l in 1..=2 {
        let mx = model.retrieval(Org::Mx, full, l, 0);
        let mix = model.retrieval(Org::Mix, full, l, 0);
        let nix = model.retrieval(Org::Nix, full, l, 0);
        assert!(nix < mix, "@{l}: NIX {nix:.2} < MIX {mix:.2}");
        assert!(mix < mx, "@{l}: MIX {mix:.2} < MX {mx:.2}");
    }
    // And under a query-only workload the whole-path *total* ordering is
    // the same.
    let queries = LoadDistribution::uniform(&schema, &path, Triplet::new(1.0, 0.0, 0.0));
    let matrix = CostMatrix::build(&model, &queries);
    let mx = matrix.cost(full, Org::Mx);
    let mix = matrix.cost(full, Org::Mix);
    let nix = matrix.cost(full, Org::Nix);
    assert!(
        nix < mix && mix < mx,
        "query-only: {nix:.2} < {mix:.2} < {mx:.2}"
    );
}

#[test]
fn decisions_stable_across_page_sizes() {
    // The *structure* of the optimum (two-way split after `man`, NIX on the
    // query-heavy prefix) holds from 1 KB to 8 KB pages even though the
    // absolute costs move.
    let (schema, path, chars, ld) = setup();
    for ps in [1024.0, 2048.0, 4096.0, 8192.0] {
        let rec = Advisor::new(&schema, &path, &chars, &ld)
            .with_params(CostParams::with_page_size(ps))
            .recommend();
        let pairs = rec.selection.best.pairs();
        assert_eq!(
            pairs[0].0,
            SubpathId { start: 1, end: 2 },
            "p={ps}: prefix split point"
        );
        assert_eq!(pairs[0].1, Choice::Index(Org::Nix), "p={ps}: prefix org");
    }
}

#[test]
fn example51_cost_matrix_has_ten_rows_and_positive_cells() {
    let (schema, path, chars, ld) = setup();
    let model = CostModel::new(&schema, &path, &chars, CostParams::paper());
    let matrix = CostMatrix::build(&model, &ld);
    assert_eq!(matrix.rows().len(), 10, "n(n+1)/2 with n = 4");
    for &sub in matrix.rows() {
        for org in Org::ALL {
            assert!(matrix.cost(sub, org) > 0.0);
        }
    }
    // The rendering carries the Figure 8 layout.
    let rendering = matrix.render(&schema, &path);
    assert!(rendering.contains("Person.owns.man.divs.name"));
    assert!(rendering.lines().count() >= 11);
}

/// ROADMAP item 13's single-path door: Example 5.1's path under a uniform
/// load with one of the query, insert and delete rates hostile. An
/// infinite or overflowing rate leaves no configuration with a finite
/// cost, and every selection procedure — `Advisor::recommend`,
/// `opt_ind_con`, `opt_ind_con_dp`, `exhaustive` and `frontier_dp`'s
/// `min_cost` — answers with the path's singletons under the first column
/// at `+∞`, as the workload advisor's best response does;
/// `exhaustive_frontier`'s first point is `frontier_dp`'s, bit for bit.
/// With the no-index column, only an overflowing query rate does that:
/// the column pays no maintenance. NaN, negative, −∞ and zero rates plan
/// too, each procedure to a configuration of the whole path.
#[test]
fn hostile_rates_still_recommend_on_the_single_path_door() {
    let (schema, path, chars, _) = setup();
    let model = CostModel::new(&schema, &path, &chars, CostParams::paper());
    let n = path.len();
    let singletons: Vec<(SubpathId, Choice)> = (1..=n)
        .map(|l| (SubpathId { start: l, end: l }, Choice::Index(Org::ALL[0])))
        .collect();
    let (overflowing, other) = (
        [f64::INFINITY, 1e308],
        [f64::NAN, -1.0, f64::NEG_INFINITY, 0.0],
    );
    for hostile in overflowing.into_iter().chain(other) {
        for slot in 0..3 {
            let mut rates = [0.2, 0.1, 0.1];
            rates[slot] = hostile;
            let ctx = format!("rate {slot} = {hostile:e}");
            let t = Triplet::new(rates[0], rates[1], rates[2]);
            let ld = LoadDistribution::uniform(&schema, &path, t);
            let matrix = CostMatrix::build(&model, &ld);
            let frontier = frontier_dp(&matrix);
            let first = frontier.min_cost();
            // The brute-force frontier agrees with the DP's first point,
            // the fallback included.
            let bits = |(cost, size): (f64, f64)| (cost.to_bits(), size.to_bits());
            assert_eq!(
                exhaustive_frontier(&matrix).first().copied().map(bits),
                Some(bits((first.cost, first.size))),
                "{ctx}, frontier"
            );
            let mut results: Vec<(&[(SubpathId, Choice)], f64)> =
                vec![(first.config.pairs(), first.cost)];
            let mut selections = vec![
                opt_ind_con(&matrix),
                opt_ind_con_dp(&matrix),
                exhaustive(&matrix),
            ];
            for no_index in [false, true] {
                let rec = Advisor::new(&schema, &path, &chars, &ld)
                    .with_params(CostParams::paper())
                    .allow_no_index(no_index)
                    .recommend();
                selections.push(rec.selection);
            }
            results.extend(selections.iter().map(|r| (r.best.pairs(), r.cost)));
            for (k, &(pairs, cost)) in results.iter().enumerate() {
                assert_eq!(pairs.last().map(|p| p.0.end), Some(n), "{ctx}, #{k}");
                // The no-index column (the last result) pays no
                // maintenance, so only a hostile query rate overflows it.
                let indexed = k < 5 || slot == 0;
                if overflowing.contains(&hostile) && indexed {
                    assert_eq!(cost, f64::INFINITY, "{ctx}, #{k}");
                }
                if cost == f64::INFINITY {
                    assert_eq!(pairs, &singletons[..], "{ctx}, #{k}");
                }
            }
        }
    }
}
