//! Pins the README "Scaling to 100k paths" snippet so the documented
//! claims stay true: the forest decomposes into at least one component
//! per populated tree, the dominance bound actually prunes cells, and a
//! warm `reoptimize()` after a rate drift touches one tree only.

use oo_index_config::prelude::*;
use oo_index_config::sim::{synth_forest, ForestSpec};

#[test]
fn readme_scaling_snippet() {
    // Eight disjoint path families, one advisor.
    let w = synth_forest(&ForestSpec {
        roots: 8,
        paths: 400,
        depth: 6,
        fanout: 1,
        seed: 1994,
    });
    let mut advisor = w.advisor(CostParams::default());
    let plan = advisor.optimize();
    assert!(plan.components >= 8); // the decomposition engaged
    assert!(plan.candidates_pruned > 0); // so did the dominance bound
    assert!(plan.total_cost <= plan.independent_cost); // sharing only helps

    // One family's root class drifts: only its paths are repriced.
    advisor.update_rates(w.root, (0.3, 0.2));
    let warm = advisor.reoptimize();
    assert!(warm.repriced_paths <= 400 / 8);
}
