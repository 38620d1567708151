//! **Candidate mining** — the admission layer's headline claim
//! (DESIGN.md §5.17): mining the candidate space from the query mass
//! shrinks every later `optimize()` walk, and the λ-aware dominance mask
//! lets budgeted sweeps price under pruning, at zero plan-quality cost.
//!
//! Two stages, one snapshot (`BENCH_candidate_mining.json`, CI-gated):
//!
//! * **10k-path pricing work.** A depth-12 chain forest (deeper than the
//!   `workload_scale_100k` shape: the lattice middle that mining prunes
//!   grows quadratically with depth, and 12-position paths are where
//!   candidate admission starts to pay) is solved unmined and
//!   mined@support: mined `optimize()` must price at most 0.6× the
//!   unmined maintenance cells (`maintenance_pricings`, a deterministic
//!   count) with a total-cost ratio ≤ 1.01 (also within the miner's own
//!   `mining_cost_bound`), and the mined run must actually skip cells
//!   (`candidates_mined_out > 0`, `cells_skipped > 0`). The wall-clock
//!   speedup is recorded for information only: with Yao's estimate in
//!   constant time (`oic_cost::yao`), a skipped pricing saves little
//!   time, and the two solves run within a few percent of each other.
//! * **Budgeted grid.** At 1k paths (a budgeted solve costs ~30 λ-priced
//!   sweeps plus an eviction descent of several hundred rounds) the
//!   unmined and the mined advisor run under a tight budget: both must
//!   report a non-empty mask (`lambda_pruned > 0`) — the λ sweeps priced
//!   under pruning. Each row records the descent's length (`evictions`)
//!   and the trials it ran (`eviction_trials`); the same arms'
//!   `budgeted_ns` before the incremental descent (commit 0a07b5f) ride
//!   along as the `baseline` row.

use oic_bench::{write_repo_snapshot, Json};
use oic_cost::CostParams;
use oic_sim::{synth_forest, ForestSpec};
use oic_workload::MiningPolicy;
use std::time::Instant;

const PATHS_SPEEDUP: usize = 10_000;
const PATHS_BUDGETED: usize = 1_000;

/// Support threshold for the mined arms. Traversal mass accumulates
/// ~0.25 per position (the generator draws α from `[0, 0.5)`), so a
/// depth-12 path carries ~3.0 at its end; 1.5 drops spans starting in
/// the rarely-traversed first half while the apex + tail spans keep the
/// plan within a 0.1% cost ratio.
const MIN_SUPPORT: f64 = 1.5;

/// Mined optimize() must price at most this share of the unmined
/// maintenance cells.
const MAX_PRICING_RATIO: f64 = 0.6;

/// …while costing at most 1% plan quality.
const MAX_COST_RATIO: f64 = 1.01;

/// Budget fraction of the unconstrained footprint — tight enough that
/// the Lagrangian search engages on every arm.
const BUDGET_FRACTION: f64 = 0.5;

/// `budgeted_ns` of the two grid arms, in grid order, at commit 0a07b5f
/// (full-clone eviction trials), measured on the 2-CPU host that recorded
/// the committed snapshot.
const BASELINE_BUDGETED_NS: [u64; 2] = [56_796_100_065, 31_189_289_848];

fn forest(paths: usize) -> ForestSpec {
    ForestSpec {
        roots: 64,
        paths,
        depth: 12,
        fanout: 1,
        seed: 1994,
    }
}

fn policy() -> MiningPolicy {
    MiningPolicy {
        min_support: MIN_SUPPORT,
        always_admit_owned: true,
    }
}

fn main() {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "candidate mining: 64 chain schemas, depth 12, support {MIN_SUPPORT}, \
         host has {host_cpus} CPU(s)\n"
    );

    // ── Stage 1: the 10k-path optimize() speedup ─────────────────────
    let w = synth_forest(&forest(PATHS_SPEEDUP));
    {
        // Warmup: the first solve pays one-off allocator/page-cache
        // costs that would otherwise inflate the unmined arm.
        w.advisor(CostParams::default()).optimize();
    }
    let mut unmined = w.advisor(CostParams::default());
    let t = Instant::now();
    let base = unmined.optimize();
    let unmined_ns = t.elapsed().as_nanos();

    let mut mined = w.advisor(CostParams::default()).with_mining(policy());
    let t = Instant::now();
    let plan = mined.optimize();
    let mined_ns = t.elapsed().as_nanos();
    let bound = mined.mining_cost_bound();

    let speedup = unmined_ns as f64 / mined_ns as f64;
    let pricing_ratio = plan.maintenance_pricings as f64 / base.maintenance_pricings as f64;
    let cost_ratio = plan.total_cost / base.total_cost;
    println!(
        "{PATHS_SPEEDUP} paths: unmined {:.2?}, mined {:.2?} — {speedup:.2}x, \
         maintenance pricings {} vs {} ({pricing_ratio:.3}), cost ratio {cost_ratio:.5}, \
         {} path-ranks mined out ({} cells skipped), {} live candidates (unmined {})",
        std::time::Duration::from_nanos(unmined_ns as u64),
        std::time::Duration::from_nanos(mined_ns as u64),
        plan.maintenance_pricings,
        base.maintenance_pricings,
        plan.candidates_mined_out,
        plan.cells_skipped,
        plan.candidates,
        base.candidates,
    );
    assert!(
        pricing_ratio <= MAX_PRICING_RATIO,
        "mined optimize at {PATHS_SPEEDUP} paths must price ≤ {MAX_PRICING_RATIO}x the \
         unmined maintenance cells, got {pricing_ratio:.3}x"
    );
    assert!(
        cost_ratio <= MAX_COST_RATIO,
        "mined plan cost ratio {cost_ratio:.5} exceeds {MAX_COST_RATIO}"
    );
    assert!(
        plan.total_cost <= base.total_cost + bound,
        "mined plan broke the miner's own cost bound"
    );
    assert!(
        plan.candidates_mined_out > 0 && plan.cells_skipped > 0,
        "the mined arm never skipped a cell"
    );

    // ── Stage 2: the budgeted grid ───────────────────────────────────
    let w = synth_forest(&forest(PATHS_BUDGETED));
    println!(
        "\n{PATHS_BUDGETED} paths, budget {BUDGET_FRACTION}× unconstrained:\n\
         {:>8} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8} {:>12}",
        "arm", "optimize", "budgeted", "sweeps", "λ-pruned", "evictions", "trials", "total"
    );
    let mut rows = Vec::new();
    for is_mined in [false, true] {
        let mut adv = w.advisor(CostParams::default());
        if is_mined {
            adv = adv.with_mining(policy());
        }
        let t = Instant::now();
        let unconstrained = adv.optimize();
        let optimize_ns = t.elapsed().as_nanos();
        let budget = unconstrained.size_pages * BUDGET_FRACTION;
        let t = Instant::now();
        let budgeted = adv.optimize_with_budget(budget);
        let budget_ns = t.elapsed().as_nanos();
        assert!(
            budgeted.lambda_sweeps > 0,
            "budget {budget} never engaged the λ search"
        );
        assert!(
            budgeted.plan.lambda_pruned > 0,
            "budgeted sweeps ran with an empty prune mask (mined={is_mined})"
        );
        let arm = if is_mined { "mined" } else { "unmined" };
        println!(
            "{arm:>8} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8} {:>12.0}",
            format!(
                "{:.2?}",
                std::time::Duration::from_nanos(optimize_ns as u64)
            ),
            format!("{:.2?}", std::time::Duration::from_nanos(budget_ns as u64)),
            budgeted.lambda_sweeps,
            budgeted.plan.lambda_pruned,
            budgeted.evictions,
            budgeted.eviction_trials,
            budgeted.plan.total_cost,
        );
        rows.push(Json::obj([
            ("mined", Json::from(is_mined)),
            ("optimize_ns", Json::from(optimize_ns)),
            ("budgeted_ns", Json::from(budget_ns)),
            ("candidates", Json::from(unconstrained.candidates)),
            (
                "candidates_mined_out",
                Json::from(unconstrained.candidates_mined_out),
            ),
            ("cells_skipped", Json::from(unconstrained.cells_skipped)),
            ("lambda_pruned", Json::from(budgeted.plan.lambda_pruned)),
            ("lambda_sweeps", Json::from(budgeted.lambda_sweeps)),
            ("evictions", Json::from(budgeted.evictions)),
            ("eviction_trials", Json::from(budgeted.eviction_trials)),
            ("feasible", Json::from(budgeted.feasible)),
            ("budgeted_cost", Json::fixed(budgeted.plan.total_cost, 3)),
        ]));
    }

    let snapshot = Json::obj([
        ("bench", Json::from("candidate_mining")),
        ("paths", Json::from(PATHS_SPEEDUP)),
        ("budgeted_paths", Json::from(PATHS_BUDGETED)),
        ("forest_roots", Json::from(64u32)),
        ("depth", Json::from(12u32)),
        ("host_cpus", Json::from(host_cpus)),
        ("min_support", Json::fixed(MIN_SUPPORT, 3)),
        ("budget_fraction", Json::fixed(BUDGET_FRACTION, 2)),
        ("max_pricing_ratio", Json::fixed(MAX_PRICING_RATIO, 2)),
        ("max_cost_ratio", Json::fixed(MAX_COST_RATIO, 3)),
        (
            "unmined_maintenance_pricings",
            Json::from(base.maintenance_pricings),
        ),
        (
            "mined_maintenance_pricings",
            Json::from(plan.maintenance_pricings),
        ),
        (
            "pricing_ratio_mined_vs_unmined",
            Json::fixed(pricing_ratio, 4),
        ),
        ("speedup_mined_vs_unmined", Json::fixed(speedup, 3)),
        ("cost_ratio_mined_vs_unmined", Json::fixed(cost_ratio, 5)),
        ("unmined_optimize_ns", Json::from(unmined_ns)),
        ("mined_optimize_ns", Json::from(mined_ns)),
        ("candidates", Json::from(base.candidates)),
        (
            "candidates_mined_out",
            Json::from(plan.candidates_mined_out),
        ),
        ("cells_skipped", Json::from(plan.cells_skipped)),
        ("mining_cost_bound", Json::fixed(bound, 3)),
        ("budgeted_grid", Json::Arr(rows)),
        (
            "baseline",
            Json::obj([
                ("commit", Json::from("0a07b5f")),
                ("host_cpus", Json::from(2usize)),
                (
                    "budgeted_ns",
                    Json::Arr(
                        BASELINE_BUDGETED_NS
                            .iter()
                            .map(|&ns| Json::from(ns))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]);
    match write_repo_snapshot("BENCH_candidate_mining.json", &snapshot) {
        Ok(_) => println!("\nsnapshot written to BENCH_candidate_mining.json"),
        Err(e) => println!("\nsnapshot not written ({e})"),
    }
}
