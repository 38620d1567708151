//! **Parallel-engine scaling** — the workload advisor's wall-clock across
//! thread counts on a 1000-path workload, with the headline invariant
//! asserted in the loop: every parallel plan is **bit-identical** to the
//! `OIC_THREADS=1` sequential plan (selections, float totals via
//! `to_bits`, and the work-audit telemetry alike — DESIGN.md §5.13).
//!
//! Two timed phases per thread count:
//!
//! * `optimize_ns` — the cold path: every model built, every cell priced,
//!   every standalone DP run, full coordinate descent;
//! * `reoptimize_ns` — one drift epoch later: dirty-path re-pricing plus
//!   the per-component descents over a warm memo.
//!
//! The speedup assertion is conditional on the host actually having
//! cores: on a multi-core box (≥ 4 CPUs) the 8-lane cold optimize must
//! beat sequential by ≥ 2×; on fewer CPUs the numbers are recorded but
//! only bit-identity is enforced — a thread pool cannot manufacture
//! cycles, and a snapshot that pretended otherwise would be worthless.
//! `host_cpus` is committed in `BENCH_parallel_scaling.json` so readers
//! can tell which regime produced the numbers.

use oic_bench::{write_repo_snapshot, Json};
use oic_core::WorkloadPlan;
use oic_cost::CostParams;
use oic_sim::{synth_workload, DriftSim, DriftSpec, WorkloadSpec};
use std::time::Instant;

const LANES: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = WorkloadSpec {
        paths: 1000,
        depth: 5,
        fanout: 3,
        seed: 1994,
    };
    let w = synth_workload(&spec);
    println!(
        "parallel scaling: {} paths over a depth-{} tree, host has {host_cpus} CPU(s)\n",
        spec.paths, spec.depth
    );
    println!(
        "{:>7} {:>14} {:>14} {:>9} {:>9}",
        "lanes", "optimize", "reoptimize", "speedup", "plan"
    );

    let mut rows = Vec::new();
    let mut baseline: Option<(WorkloadPlan, WorkloadPlan, u128, u128)> = None;
    let mut speedup_8 = 0.0f64;
    for &lanes in &LANES {
        let mut adv = w.advisor(CostParams::default()).with_threads(lanes);
        let t = Instant::now();
        let cold = adv.optimize();
        let optimize_ns = t.elapsed().as_nanos();

        // One drift epoch, identical across engines (same seed, same
        // advisor state), to time the warm path too.
        let mut sim = DriftSim::new(
            &w,
            DriftSpec {
                arrivals: 20,
                departures: 20,
                stat_drifts: 6,
                rate_drifts: 6,
                query_drifts: 40,
                seed: 77,
            },
        );
        sim.step(&mut adv);
        let t = Instant::now();
        let warm = adv.reoptimize();
        let reoptimize_ns = t.elapsed().as_nanos();

        let speedup = match &baseline {
            None => {
                baseline = Some((cold, warm, optimize_ns, reoptimize_ns));
                1.0
            }
            Some((seq_cold, seq_warm, seq_opt_ns, _)) => {
                seq_cold.assert_bit_identical_to(&cold, &format!("cold optimize, {lanes} lanes"));
                seq_warm.assert_bit_identical_to(&warm, &format!("warm reoptimize, {lanes} lanes"));
                *seq_opt_ns as f64 / optimize_ns as f64
            }
        };
        if lanes == 8 {
            speedup_8 = speedup;
        }
        // A divergence would have panicked above, so a printed row IS the
        // bit-identity witness; the snapshot field records that the
        // assertion gates every committed row (CI re-checks it).
        println!(
            "{:>7} {:>14} {:>14} {:>8.2}x {:>9}",
            lanes,
            format!(
                "{:.2?}",
                std::time::Duration::from_nanos(optimize_ns as u64)
            ),
            format!(
                "{:.2?}",
                std::time::Duration::from_nanos(reoptimize_ns as u64)
            ),
            speedup,
            "identical"
        );
        let (seq_cold, _, _, _) = baseline.as_ref().expect("set on the first row");
        rows.push(Json::obj([
            ("threads", Json::from(lanes)),
            ("optimize_ns", Json::from(optimize_ns)),
            ("reoptimize_ns", Json::from(reoptimize_ns)),
            ("optimize_speedup", Json::fixed(speedup, 3)),
            ("total_cost", Json::fixed(seq_cold.total_cost, 3)),
            ("bit_identical_to_sequential", Json::from(true)),
        ]));
    }

    let (seq_cold, _, _, _) = baseline.expect("at least one lane ran");
    println!(
        "\n1000-path plan: {} candidates, {} physical indexes, total cost {:.0}",
        seq_cold.candidates, seq_cold.physical_indexes, seq_cold.total_cost
    );
    println!("8-lane cold-optimize speedup over sequential: {speedup_8:.2}x");
    if host_cpus >= 4 {
        assert!(
            speedup_8 >= 2.0,
            "thread scaling regressed: 8 lanes on this {host_cpus}-CPU host must be ≥ 2x over \
             sequential, got {speedup_8:.2}x (this gate measures the thread pool only — \
             single-core scaling is the sharded engine's claim, gated by workload_scale_100k)"
        );
    } else {
        println!(
            "(host has {host_cpus} CPU(s): the ≥ 2x gate measures thread scaling and needs \
             ≥ 4 CPUs, so it is skipped here — bit-identity is still enforced above; for the \
             scaling claim that does hold on one core, see the sharded engine's \
             BENCH_workload_scale.json / DESIGN.md §5.15)"
        );
    }

    let snapshot = Json::obj([
        ("bench", Json::from("parallel_scaling")),
        ("paths", Json::from(spec.paths)),
        ("depth", Json::from(spec.depth)),
        ("host_cpus", Json::from(host_cpus)),
        ("candidates", Json::from(seq_cold.candidates)),
        ("physical_indexes", Json::from(seq_cold.physical_indexes)),
        ("total_cost", Json::fixed(seq_cold.total_cost, 3)),
        ("threads", Json::Arr(rows)),
        ("speedup_8_threads", Json::fixed(speedup_8, 3)),
    ]);
    match write_repo_snapshot("BENCH_parallel_scaling.json", &snapshot) {
        Ok(_) => println!("snapshot written to BENCH_parallel_scaling.json"),
        Err(e) => println!("snapshot not written ({e})"),
    }
}
