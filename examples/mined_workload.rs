//! Candidate-mining quickstart: run the advisor with a **mined
//! admission policy** (Apriori-style frequent-subpath mining over the
//! per-position query masses — DESIGN.md §5.17) against the full,
//! unmined candidate space on a chain forest, time both, and verify the
//! two headline invariants: support `0` reproduces the full plan
//! **bitwise**, and a positive support threshold skips real pricing
//! work while the plan stays within the miner's own cost bound.
//!
//! Run with `cargo run --release --example mined_workload`.

use oo_index_config::prelude::*;
use oo_index_config::sim::{synth_forest, ForestSpec};
use std::time::Instant;

fn main() {
    let spec = ForestSpec {
        roots: 32,
        paths: 2_000,
        depth: 10,
        fanout: 1,
        seed: 1994,
    };
    let w = synth_forest(&spec);
    println!(
        "workload: {} paths over {} disjoint depth-{} chain schemas",
        w.paths.len(),
        w.roots.len(),
        spec.depth,
    );

    // The full candidate space: every subpath of every path is interned
    // and priced.
    let mut full = w.advisor(CostParams::default());
    let t = Instant::now();
    let base = full.optimize();
    let full_elapsed = t.elapsed();
    println!(
        "full space:  cost {:.0}, {} candidates, {full_elapsed:.2?}",
        base.total_cost, base.candidates
    );

    // Support 0 admits everything — the identity, asserted bitwise.
    let mut identity = w.advisor(CostParams::default()).with_mining(MiningPolicy {
        min_support: 0.0,
        always_admit_owned: true,
    });
    identity
        .optimize()
        .assert_bit_identical_to(&base, "support 0 is the identity");
    println!("support 0:   mined plan == full plan (bitwise)");

    // A positive threshold drops spans that start in each path's
    // rarely-traversed prefix before the optimizer prices anything.
    let policy = MiningPolicy {
        min_support: 0.8,
        always_admit_owned: true,
    };
    let mut mined = w.advisor(CostParams::default()).with_mining(policy);
    let t = Instant::now();
    let plan = mined.optimize();
    let mined_elapsed = t.elapsed();
    let bound = mined.mining_cost_bound();
    println!(
        "support {}: cost {:.0}, {} ranks mined out, {} cells skipped, {mined_elapsed:.2?}",
        policy.min_support, plan.total_cost, plan.candidates_mined_out, plan.cells_skipped
    );
    assert!(plan.candidates_mined_out > 0, "the gate must engage");
    assert!(plan.cells_skipped > 0, "pricing must skip mined-out cells");
    assert!(
        plan.total_cost <= base.total_cost + bound,
        "mined cost {} exceeds full cost {} + bound {bound}",
        plan.total_cost,
        base.total_cost
    );
    println!(
        "mined plan within the admission cost bound: {:.0} <= {:.0} + {bound:.0}",
        plan.total_cost, base.total_cost
    );
    println!(
        "speedup {:.2}x from admission alone — fewer cells, not cheaper cells",
        full_elapsed.as_secs_f64() / mined_elapsed.as_secs_f64()
    );
}
