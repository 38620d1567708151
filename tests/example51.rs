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
