//! The metric tables: every name the benchmark prints, its unit, which way
//! is better, how its samples are reduced, and — for end-to-end metrics —
//! the share of the baseline median by which it may worsen before a change
//! counts as a regression. `/BENCHMARK.json` declares exactly these names
//! (a test and `check.sh` hold the two together).

use crate::stats::{median, percentile};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, page counts, overheads).
    Lower,
    /// Larger is better (throughput, hit rates, speed-ups).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric's samples become one number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reduce {
    /// Median.
    P50,
    /// 95th percentile.
    P95,
    /// Arithmetic mean.
    Mean,
    /// Maximum.
    Max,
    /// Operations per second from a median of microseconds per operation.
    PerSecondFromUs,
}

impl Reduce {
    /// Applies the reduction to a non-empty sample.
    pub fn apply(self, samples: &[f64]) -> f64 {
        match self {
            Reduce::P50 => median(samples),
            Reduce::P95 => percentile(samples, 95.0),
            Reduce::Mean => samples.iter().sum::<f64>() / samples.len() as f64,
            Reduce::Max => samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Reduce::PerSecondFromUs => 1e6 / median(samples),
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Reported name.
    pub name: &'static str,
    /// Name the phases push its samples under.
    pub source: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Sample reduction.
    pub reduce: Reduce,
    /// Whether the value repeats bit for bit per seed (a count or a quality
    /// ratio, not a timing). Exact metrics are reduced over the first cycle
    /// of traffic instances only, so they do not depend on how many
    /// iterations the time budget happened to allow.
    pub exact: bool,
}

/// An end-to-end timing: median of `source`, lower is better.
const fn e2e_time(name: &'static str, source: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        source,
        unit,
        better: Better::Lower,
        bound: Some(TIMING),
        reduce: Reduce::P50,
        exact: false,
    }
}

/// An exact end-to-end quantity (quality ratio, page count): it repeats bit
/// for bit per seed, so its `bound` only has to cover what another seed's
/// traffic moves it by.
const fn e2e_exact(
    name: &'static str,
    source: &'static str,
    unit: &'static str,
    reduce: Reduce,
    bound: f64,
) -> Metric {
    Metric {
        name,
        source,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        reduce,
        exact: true,
    }
}

/// A per-layer timing (or a ratio of timings): median of its own samples.
const fn timed(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        source: name,
        unit,
        better,
        bound: None,
        reduce: Reduce::P50,
        exact: false,
    }
}

/// A per-layer count or exact ratio: median over the traffic instances.
const fn count(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        exact: true,
        ..timed(name, unit, better)
    }
}

/// `base` fed from another sample source and reduced another way.
const fn from(base: Metric, source: &'static str, reduce: Reduce) -> Metric {
    Metric {
        source,
        reduce,
        ..base
    }
}

use Better::{Higher, Lower};
use Reduce::{Max, Mean, PerSecondFromUs, P50, P95};

/// Bound on timings. Ten runs on ten seeds spread (q3 − q1 over the
/// median) by 1–10 % on the shared two-core reference host even after
/// host-speed normalisation (README, "Measured noise"); the contract caps
/// bounds at 25 %, which leaves about twice the worst spread seen.
const TIMING: f64 = 0.25;

/// What a user of the system sees. Printed by an untraced run.
pub const END_TO_END: [Metric; 15] = [
    e2e_time("setup_s", "setup_s", "s"),
    e2e_time("advise_s_p50", "advise_s", "s"),
    e2e_time("readvise_s_p50", "readvise_s", "s"),
    e2e_time("deploy_plan_s_p50", "deploy_plan_s", "s"),
    e2e_time("epoch_ms_p50", "epoch_ms", "ms"),
    e2e_time("quiet_epoch_ms_p50", "quiet_epoch_ms", "ms"),
    // Checked against 1.05 at every retune; seeds move it by < 1 %.
    e2e_exact(
        "tuned_cost_ratio_max",
        "tuned_cost_ratio",
        "ratio",
        Max,
        0.05,
    ),
    e2e_time("frontier_s_p50", "frontier_s", "s"),
    // Four traffic draws per seed; seeds move their mean by ~7 %.
    e2e_exact(
        "budget_cost_ratio_mean",
        "budget_cost_ratio_mean",
        "ratio",
        Mean,
        0.25,
    ),
    e2e_time("index_build_s_p50", "index_build_s", "s"),
    e2e_time("query_us_p50", "query_us", "us"),
    e2e_time("insert_us_p50", "insert_us", "us"),
    e2e_time("delete_us_p50", "delete_us", "us"),
    // Seeds move it by ~1.6 %.
    e2e_exact("pages_per_op", "pages_per_op", "pages", Mean, 0.10),
    e2e_time("paged_lookup_us_p50", "paged_lookup_us", "us"),
];

/// What single layers did. Printed by a traced run.
pub const PER_LAYER: [Metric; 96] = [
    // sim — moves setup_s.
    timed("sim.gen_s", "s", Lower),
    // space, advisor, shard — move advise_s_p50.
    timed("space.add_paths_s", "s", Lower),
    count("space.candidates", "count", Lower),
    count("space.sharing_ratio", "ratio", Higher),
    timed("advisor.optimize_s", "s", Lower),
    count("advisor.dp_runs", "count", Lower),
    count("advisor.dp_memo_hit_ratio", "ratio", Higher),
    count("advisor.maintenance_pricings", "count", Lower),
    count("advisor.epoch_pricings", "count", Lower),
    count("advisor.sweeps", "count", Lower),
    count("advisor.candidates_pruned", "count", Higher),
    count("advisor.speculation_skips", "count", Higher),
    count("shard.components", "count", Higher),
    count("shard.largest_component", "count", Lower),
    count("advisor.plan_cost", "pages/op", Lower),
    count("advisor.plan_size_pages", "pages", Lower),
    count("advisor.physical_indexes", "count", Lower),
    // exec — moves advise_s_p50 and frontier_s_p50.
    count("exec.lanes", "count", Higher),
    timed("exec.fanout_speedup", "ratio", Higher),
    timed("exec.fanout_speedup.budget", "ratio", Higher),
    // mining — moves advise_s_p50.
    timed("mining.optimize_s", "s", Lower),
    count("mining.candidates_mined_out", "count", Higher),
    count("mining.cost_ratio", "ratio", Lower),
    // advisor (warm) — moves readvise_s_p50.
    timed("advisor.reoptimize_s", "s", Lower),
    count("advisor.repriced_paths", "count", Lower),
    timed("advisor.price_plan_ms", "ms", Lower),
    // migrate (planning) — moves deploy_plan_s_p50.
    timed("migrate.new_s", "s", Lower),
    timed("migrate.schedule_s", "s", Lower),
    count("migrate.builds", "count", Lower),
    count("migrate.drops", "count", Lower),
    count("migrate.waves", "count", Lower),
    count("migrate.build_pages", "pages", Lower),
    // capture, tuner — move quiet_epoch_ms_p50 and epoch_ms_p50.
    timed("capture.observe_ms", "ms", Lower),
    from(
        count("capture.events_per_epoch", "count", Lower),
        "capture.events_per_epoch",
        Mean,
    ),
    timed("capture.ns_per_event", "ns", Lower),
    timed("capture.seal_ms", "ms", Lower),
    count("capture.dropped_events", "count", Lower),
    timed("tuner.drift_ms", "ms", Lower),
    // tuner, advisor — move epoch_ms_p50.
    timed("tuner.force_retune_ms", "ms", Lower),
    timed("advisor.oracle_reoptimize_ms", "ms", Lower),
    timed("tuner.overhead_vs_oracle", "ratio", Lower),
    count("tuner.retune_ratio", "ratio", Lower),
    count("tuner.spurious_retunes", "count", Lower),
    from(timed("tuner.epoch_ms_p95", "ms", Lower), "epoch_ms", P95),
    timed("advisor.mutate_ms", "ms", Lower),
    // migrate (in the loop) — moves epoch_ms_p50.
    timed("migrate.retarget_ms", "ms", Lower),
    timed("migrate.schedule_ms", "ms", Lower),
    timed("migrate.advance_ms", "ms", Lower),
    count("migrate.steps_advanced", "count", Lower),
    count("migrate.cancelled", "count", Lower),
    count("migrate.errors", "count", Lower),
    // advisor (budgeted) — moves frontier_s_p50 and budget_cost_ratio_mean.
    timed("advisor.budget_solve_s.f25", "s", Lower),
    timed("advisor.budget_solve_s.f50", "s", Lower),
    timed("advisor.budget_solve_s.f75", "s", Lower),
    count("advisor.lambda_sweeps", "count", Lower),
    timed("advisor.sweep_ms", "ms", Lower),
    count("advisor.repairs", "count", Lower),
    count("advisor.lambda_pruned", "count", Higher),
    timed("advisor.budget_over_optimize", "ratio", Lower),
    count("advisor.budget_fill", "ratio", Higher),
    count("advisor.budget_feasible", "count", Higher),
    // cost, select — the paper pipeline; none above noise end to end.
    from(
        timed("cost.matrix_build_us_p50", "us", Lower),
        "cost.matrix_build_us",
        P50,
    ),
    from(
        timed("select.opt_ind_con_us_p50", "us", Lower),
        "select.opt_ind_con_us",
        P50,
    ),
    count("select.evaluated", "count", Lower),
    count("select.pruned", "count", Higher),
    // index — moves index_build_s_p50, query/insert/delete, pages_per_op.
    timed("index.build_s", "s", Lower),
    count("index.pages", "pages", Lower),
    timed("index.query_us_p99", "us", Lower),
    from(
        timed("index.ops_per_s", "1/s", Higher),
        "index.us_per_op",
        PerSecondFromUs,
    ),
    count("index.query_pages_per_op", "pages", Lower),
    count("index.insert_pages_per_op", "pages", Lower),
    count("index.delete_pages_per_op", "pages", Lower),
    // capture (log) — capture-on overhead of query/insert/delete.
    count("capture.log_events", "count", Lower),
    count("capture.log_bytes", "bytes", Lower),
    timed("capture.encode_ms", "ms", Lower),
    timed("capture.decode_ms", "ms", Lower),
    timed("capture.replay_ms", "ms", Lower),
    // btree, pager — move paged_lookup_us_p50.
    timed("btree.build_s", "s", Lower),
    count("btree.height", "count", Lower),
    count("btree.pages", "pages", Lower),
    timed("btree.lookup_us_p50.fit", "us", Lower),
    timed("btree.lookup_us_p99.small", "us", Lower),
    from(
        timed("btree.update_commit_ms_p50", "ms", Lower),
        "btree.update_commit_ms",
        P50,
    ),
    count("pager.hit_rate.small", "ratio", Higher),
    count("pager.hit_rate.fit", "ratio", Higher),
    count("pager.physical_reads_per_lookup.small", "pages", Lower),
    count("pager.evictions_per_lookup.small", "pages", Lower),
    count("pager.build_physical_writes", "pages", Lower),
    count("pager.journal_writes_per_commit", "pages", Lower),
    count("pager.physical_writes_per_commit", "pages", Lower),
    // trace — the tracer's own cost and reach.
    timed("trace_overhead_pct", "%", Lower),
    timed("trace.coverage_min_pct", "%", Higher),
    timed("trace.spans", "count", Lower),
    // host — the reference speed timings are scaled to, and how far the
    // host wandered from it during the run.
    timed("host.probe_ms", "ms", Lower),
    timed("host.slowdown_p50", "ratio", Lower),
    timed("host.probes", "count", Lower),
];

/// The table a run prints: end-to-end untraced, per-layer traced.
pub fn table(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn bounds_sit_on_end_to_end_metrics_only() {
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics are bounded");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "set-up has the largest bound");
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn reductions() {
        let v = [1.0, 2.0, 3.0, 10.0];
        assert_eq!(Reduce::P50.apply(&v), 2.5);
        assert_eq!(Reduce::Mean.apply(&v), 4.0);
        assert_eq!(Reduce::Max.apply(&v), 10.0);
        assert_eq!(Reduce::P95.apply(&v), 10.0);
        assert_eq!(Reduce::PerSecondFromUs.apply(&v), 400_000.0);
    }
}
