//! Large-workload quickstart: what lets the advisor take a 5000-path chain
//! forest in one go (DESIGN.md §5.15). A union-find over shared candidates
//! splits the workload into **components** that cannot interact, so the
//! coordinate descent runs per component; a strict **dominance bound**
//! strikes matrix cells no best response can use; and query pricing
//! replays per path *signature*. The tour prints that machinery's
//! footprint, times a cold `optimize()`, then drifts one class's update
//! rates and times the warm `reoptimize()` against a cold rebuild of the
//! same state — same selections, same cost.
//!
//! Run with `cargo run --release --example large_workload`.

use oo_index_config::prelude::*;
use oo_index_config::sim::{synth_forest, ForestSpec};
use std::time::Instant;

fn main() {
    let w = synth_forest(&ForestSpec {
        roots: 32,
        paths: 5_000,
        depth: 8,
        fanout: 1,
        seed: 1994,
    });
    println!(
        "workload: {} paths over {} disjoint depth-8 chain schemas",
        w.paths.len(),
        w.roots.len()
    );

    let mut advisor = w.advisor(CostParams::default());
    let t = Instant::now();
    let plan = advisor.optimize();
    let cold_elapsed = t.elapsed();
    println!(
        "cold optimize: cost {:.0}, {} physical indexes, {cold_elapsed:.2?}",
        plan.total_cost, plan.physical_indexes
    );
    println!(
        "{} components (largest {} paths, {} singletons skipped), {} cells pruned",
        plan.components, plan.largest_component, plan.speculation_skips, plan.candidates_pruned
    );
    assert!(plan.components >= w.roots.len(), "trees never merge");
    assert!(plan.candidates_pruned > 0, "the dominance bound engages");

    // One tree's root class starts churning: only the paths that scope it
    // are repriced.
    let (beta, gamma) = w.maint[w.root.index()];
    advisor.update_rates(w.root, (beta + 0.25, gamma + 0.125));
    let t = Instant::now();
    let warm = advisor.reoptimize();
    let warm_elapsed = t.elapsed();
    println!(
        "warm reoptimize: cost {:.0}, {} of {} paths repriced, {warm_elapsed:.2?}",
        warm.total_cost,
        warm.repriced_paths,
        warm.paths.len()
    );

    let cold = advisor.rebuild().optimize();
    let drift = (warm.total_cost - cold.total_cost).abs();
    assert!(drift < 1e-9 * cold.total_cost.max(1.0));
    for (a, b) in warm.paths.iter().zip(&cold.paths) {
        assert_eq!(a.selection.pairs(), b.selection.pairs());
    }
    println!(
        "warm plan == cold rebuild ({} paths, {} physical indexes), {:.1}x sooner than the cold run",
        warm.paths.len(),
        warm.physical_indexes,
        cold_elapsed.as_secs_f64() / warm_elapsed.as_secs_f64()
    );
}
