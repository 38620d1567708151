//! Pins the README "Candidate mining" snippet so the documented claims
//! stay true: support 0 reproduces the unmined advisor bitwise, a
//! positive threshold actually mines candidates out while the plan
//! stays within `mining_cost_bound`, and the telemetry the README
//! documents (`candidates_mined_out`, `cells_skipped`) behaves as written.

use oo_index_config::prelude::*;
use oo_index_config::sim::{synth_workload, WorkloadSpec};

#[test]
fn readme_mining_snippet() {
    let w = synth_workload(&WorkloadSpec {
        paths: 12,
        depth: 5,
        fanout: 2,
        seed: 1994,
    });
    let base = w.advisor(CostParams::default()).optimize();

    // Support 0 is the identity: the mined plan IS the unmined plan.
    let mut id = w.advisor(CostParams::default()).with_mining(MiningPolicy {
        min_support: 0.0,
        always_admit_owned: true,
    });
    let plan = id.optimize();
    plan.assert_bit_identical_to(&base, "support 0");
    assert_eq!(plan.candidates_mined_out, 0);
    assert_eq!(plan.cells_skipped, 0);

    // A positive threshold drops rarely-traversed spans before anything
    // is priced — and the plan stays within the miner's own cost bound.
    let mut mined = w.advisor(CostParams::default()).with_mining(MiningPolicy {
        min_support: 0.3,
        always_admit_owned: true,
    });
    let plan = mined.optimize();
    let bound = mined.mining_cost_bound();
    assert!(mined.mining_policy().is_gating());
    assert!(plan.candidates_mined_out > 0); // the admission gate engaged
    assert!(plan.cells_skipped > 0); // and pricing skipped its cells
    assert!(bound > 0.0);
    assert!(plan.total_cost <= base.total_cost + bound);
}
