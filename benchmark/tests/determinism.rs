//! At `--quick` sizes: the same seed gives identical exact metrics and
//! counters, another seed gives other inputs, every declared metric is
//! printed, and `/BENCHMARK.json` declares exactly the built-in tables.

use oic_benchmark::json::Json;
use oic_benchmark::metrics::{END_TO_END, PER_LAYER};
use oic_benchmark::report::{verify_declaration, verify_result};
use oic_benchmark::run::{run, RunConfig, RunResult};
use oic_benchmark::sizes::Workload;
use std::path::{Path, PathBuf};

/// Each test writes under its own directory: tests run concurrently.
fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn quick(test: &str, workload: Workload, seed: u64, trace: bool) -> RunResult {
    run(&RunConfig {
        workload,
        seed,
        seconds: 0.0, // the minimum number of iterations
        trace,
        quick: true,
        out_dir: out_dir(test),
    })
}

fn values(result: &RunResult, names: &[&str]) -> Vec<u64> {
    names
        .iter()
        .map(|n| {
            result
                .value(n)
                .unwrap_or_else(|| panic!("{n} not reported"))
                .to_bits()
        })
        .collect()
}

const EXACT_END_TO_END: [&str; 3] = [
    "pages_per_op",
    "budget_cost_ratio_mean",
    "tuned_cost_ratio_max",
];
const EXACT_PER_LAYER: [&str; 10] = [
    "advisor.lambda_sweeps",
    "capture.events_per_epoch",
    "advisor.plan_cost",
    "space.candidates",
    "migrate.steps_advanced",
    "index.pages",
    "index.query_pages_per_op",
    "capture.log_bytes",
    "btree.pages",
    "pager.physical_reads_per_lookup.small",
];

fn bench_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

#[test]
fn same_seed_same_exact_metrics_other_seed_other_inputs() {
    for workload in [Workload::DriftTree, Workload::ExecFig7] {
        let a = quick("exact", workload, 11, false);
        let b = quick("exact", workload, 11, false);
        let c = quick("exact", workload, 12, false);
        assert!(
            a.correct() && b.correct() && c.correct(),
            "{:?}",
            a.checks.causes
        );
        assert_eq!(values(&a, &EXACT_END_TO_END), values(&b, &EXACT_END_TO_END));
        assert_ne!(values(&a, &EXACT_END_TO_END), values(&c, &EXACT_END_TO_END));
    }
}

#[test]
fn same_seed_same_counters_and_a_trace_that_covers_the_timed_spans() {
    let a = quick("counters", Workload::BudgetTree, 21, true);
    let b = quick("counters", Workload::BudgetTree, 21, true);
    let c = quick("counters", Workload::BudgetTree, 22, true);
    assert!(
        a.correct() && b.correct() && c.correct(),
        "{:?}",
        a.checks.causes
    );
    assert_eq!(values(&a, &EXACT_PER_LAYER), values(&b, &EXACT_PER_LAYER));
    assert_ne!(values(&a, &EXACT_PER_LAYER), values(&c, &EXACT_PER_LAYER));
    assert!(a.value("trace.coverage_min_pct").unwrap() >= 90.0);
    assert!(a.value("trace.spans").unwrap() > 0.0);
    assert!(!a.layer_times.is_empty());
    let trace = out_dir("counters").join("trace-budget_tree_250.jsonl");
    let text = std::fs::read_to_string(trace).expect("trace written");
    let first = Json::parse(text.lines().next().expect("spans")).expect("JSON lines");
    for key in ["name", "start_ns", "end_ns", "parent", "request"] {
        assert!(first.get(key).is_some(), "span lacks {key}");
    }
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let bench = bench_json();
    assert_eq!(verify_declaration(&bench), Vec::<String>::new());
    for workload in Workload::ALL {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let result = quick("declared", workload, 1994, trace);
            assert!(
                result.correct(),
                "{}: {:?}",
                workload.name(),
                result.checks.causes
            );
            assert!(result.checks.attempted > 0);
            let line = Json::parse(&result.to_json().render()).expect("result line parses");
            assert_eq!(
                verify_result(&bench, &line, trace),
                Vec::<String>::new(),
                "{} trace={trace}",
                workload.name()
            );
            assert_eq!(result.reported.len(), table.len());
            if !trace {
                for r in &result.reported {
                    assert!(r.value > 0.0, "{} must never be 0", r.metric.name);
                }
            }
        }
    }
}
