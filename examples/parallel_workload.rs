//! Parallel-optimization quickstart: run the workload advisor over the
//! same 300-path synthetic workload with the sequential engine
//! (`with_threads(1)`) and with an 8-lane thread pool, time both, and
//! verify the headline invariant — the parallel plan is **bit-identical**
//! to the sequential one (DESIGN.md §5.13). Thread count is a wall-clock
//! knob, never an answer knob; advisors that don't choose explicitly run
//! one lane per available CPU.
//!
//! Run with `cargo run --release --example parallel_workload`.

use oo_index_config::prelude::*;
use oo_index_config::sim::{synth_workload, WorkloadSpec};
use std::time::Instant;

fn main() {
    let w = synth_workload(&WorkloadSpec {
        paths: 300,
        depth: 5,
        fanout: 3,
        seed: 1994,
    });
    println!(
        "workload: {} paths ({} subpath instances) over a depth-5 class tree",
        w.paths.len(),
        w.subpath_instances()
    );

    let mut sequential = w.advisor(CostParams::default()).with_threads(1);
    let t = Instant::now();
    let seq_plan = sequential.optimize();
    let seq_elapsed = t.elapsed();
    println!(
        "sequential engine:  cost {:.0}, {} physical indexes over {} candidates, {seq_elapsed:.2?}",
        seq_plan.total_cost, seq_plan.physical_indexes, seq_plan.candidates
    );

    let mut parallel = w.advisor(CostParams::default()).with_threads(8);
    let t = Instant::now();
    let par_plan = parallel.optimize();
    let par_elapsed = t.elapsed();
    println!(
        "8-lane thread pool: cost {:.0}, {} physical indexes over {} candidates, {par_elapsed:.2?}",
        par_plan.total_cost, par_plan.physical_indexes, par_plan.candidates
    );

    // Bit-identical, not merely close: same floats, same selections, same
    // audited work — the canonical checker the tests and benches use.
    seq_plan.assert_bit_identical_to(&par_plan, "parallel_workload example");
    println!(
        "parallel plan == sequential plan (bit-identical across {} paths, {} sweeps)",
        par_plan.paths.len(),
        par_plan.sweeps
    );
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host CPUs: {cpus} — speedup {:.2}x (thread counts change wall-clock only)",
        seq_elapsed.as_secs_f64() / par_elapsed.as_secs_f64()
    );
}
