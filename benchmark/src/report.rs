//! Reports over whole suites: the one-command run of every workload, the
//! comparison of two such reports under each metric's own bound, and the
//! checks that hold `/BENCHMARK.json`, the metric tables and the printed
//! results together.

use crate::json::Json;
use crate::metrics::{Better, Metric, END_TO_END, PER_LAYER};
use crate::run::{run, Reported, RunConfig, RunResult};
use crate::sizes::{Workload, RUN_SECONDS};
use crate::stats::median;
use std::path::PathBuf;

/// The `/BENCHMARK.json` document, generated from the built-in tables so
/// the declaration cannot drift from what the benchmark prints.
pub fn declaration() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    let metric = |m: &Metric| {
        let mut row = vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            row.push(("bound", Json::Num(bound)));
        }
        Json::obj(row)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(text).collect()),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name())), ("why", text(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// The top-level keys on which a `BENCHMARK.json` differs from
/// [`declaration`] (empty = it declares exactly the built-in tables).
pub fn verify_declaration(bench: &Json) -> Vec<String> {
    let want = declaration();
    let mut problems: Vec<String> = want
        .members()
        .iter()
        .filter(|(key, value)| bench.get(key) != Some(value))
        .map(|(key, _)| format!("BENCHMARK.json: {key:?} differs from the built-in tables"))
        .collect();
    if bench.members().len() != want.members().len() {
        problems.push("BENCHMARK.json: unexpected top-level keys".to_string());
    }
    problems
}

/// Where a printed result line and `BENCHMARK.json` disagree: every metric
/// declared for the mode must be printed with its unit, and none other.
pub fn verify_result(bench: &Json, result: &Json, trace: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let key = if trace { "per_layer" } else { "end_to_end" };
    let declared = bench.get(key).map_or(&[][..], Json::elements);
    let printed = result.get("metrics").map_or(&[][..], Json::members);
    for row in declared {
        let name = row.get("name").and_then(Json::as_str).unwrap_or("?");
        let unit = row.get("unit").and_then(Json::as_str);
        match printed.iter().find(|(k, _)| k == name) {
            None => problems.push(format!("declared but not printed: {name}")),
            Some((_, m)) => {
                if m.get("unit").and_then(Json::as_str) != unit {
                    problems.push(format!("unit of {name} differs from its declaration"));
                }
                if m.get("value").and_then(Json::as_f64).is_none() {
                    problems.push(format!("{name} has no numeric value"));
                }
            }
        }
    }
    for (name, _) in printed {
        if !declared
            .iter()
            .any(|r| r.get("name").and_then(Json::as_str) == Some(name))
        {
            problems.push(format!("printed but not declared: {name}"));
        }
    }
    for key in ["correct", "attempted", "failed"] {
        if result.get(key).is_none() {
            problems.push(format!("result line lacks {key:?}"));
        }
    }
    problems
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What a suite runs.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Seed of every workload.
    pub seed: u64,
    /// Measuring time per workload and mode, split over the rounds.
    pub seconds: f64,
    /// Interleaved rounds: every workload runs once per round, so a
    /// noisy-neighbour burst cannot land on one workload only.
    pub rounds: usize,
    /// Test-sized inputs.
    pub quick: bool,
    /// Where traces and scratch files go.
    pub out_dir: PathBuf,
}

fn merge(results: &[RunResult]) -> Json {
    Json::obj(results[0].reported.iter().map(|r| {
        let rounds: Vec<&Reported> = results
            .iter()
            .filter_map(|res| res.reported.iter().find(|x| x.metric.name == r.metric.name))
            .collect();
        let of =
            |f: fn(&Reported) -> f64| median(&rounds.iter().map(|x| f(x)).collect::<Vec<f64>>());
        let n: usize = rounds.iter().map(|x| x.summary.n).sum();
        (
            r.metric.name,
            Json::obj([
                ("value", Json::Num(of(|x| x.value))),
                ("as_measured", Json::Num(of(|x| x.raw))),
                ("unit", Json::Str(r.metric.unit.to_string())),
                ("n", Json::Num(n as f64)),
                ("q1", Json::Num(of(|x| x.summary.q1))),
                ("q3", Json::Num(of(|x| x.summary.q3))),
            ]),
        )
    }))
}

/// Runs every workload untraced in interleaved rounds, then traced, and
/// returns the report (printing each run's table as it completes).
pub fn suite(cfg: &SuiteConfig) -> Json {
    let rounds = cfg.rounds.max(1);
    let mut untraced: Vec<Vec<RunResult>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    let mut traced: Vec<Vec<RunResult>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for (trace, sink) in [(false, &mut untraced), (true, &mut traced)] {
        for _ in 0..rounds {
            for (i, &workload) in Workload::ALL.iter().enumerate() {
                let result = run(&RunConfig {
                    workload,
                    seed: cfg.seed,
                    seconds: cfg.seconds / rounds as f64,
                    trace,
                    quick: cfg.quick,
                    out_dir: cfg.out_dir.clone(),
                });
                print!("{}", result.render());
                sink[i].push(result);
            }
        }
    }
    let lanes = traced[0][0].value("exec.lanes").unwrap_or(0.0);
    let host = Json::obj([
        (
            "host_cpus",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("exec.lanes", Json::Num(lanes)),
        (
            "nominal_probe_ms",
            Json::Num(crate::trace::NOMINAL_PROBE_S * 1e3),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ]);
    let workloads = Json::obj(Workload::ALL.iter().enumerate().map(|(i, w)| {
        let runs = || untraced[i].iter().chain(&traced[i]);
        let (attempted, failed) = runs().fold((0u64, 0u64), |(a, f), r| {
            (a + r.checks.attempted, f + r.checks.failed)
        });
        let causes: Vec<Json> = runs()
            .flat_map(|r| r.checks.causes.keys())
            .map(|c| Json::Str(c.clone()))
            .collect();
        (
            w.name(),
            Json::obj([
                ("attempted", Json::Num(attempted as f64)),
                ("failed", Json::Num(failed as f64)),
                ("failure_causes", Json::Arr(causes)),
                (
                    "host_probe_ms",
                    Json::Num(median(
                        &untraced[i]
                            .iter()
                            .map(|r| r.host_probe_ms)
                            .collect::<Vec<f64>>(),
                    )),
                ),
                ("end_to_end", merge(&untraced[i])),
                ("per_layer", merge(&traced[i])),
            ]),
        )
    }));
    Json::obj([
        ("host", host),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("rounds", Json::Num(rounds as f64)),
        ("quick", Json::Bool(cfg.quick)),
        ("workloads", workloads),
    ])
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub new: f64,
    /// Relative change in the *worse* direction (negative = improved).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl Comparison {
    /// Whether the candidate is worse than the baseline by more than the
    /// metric's bound.
    pub fn regressed(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// Compares the end-to-end metrics of two suite reports, workload by
/// workload, each under its own bound.
pub fn compare(base: &Json, new: &Json) -> Result<Vec<Comparison>, String> {
    let mut rows = Vec::new();
    let workloads = base
        .get("workloads")
        .ok_or("baseline lacks \"workloads\"")?;
    for (workload, b) in workloads.members() {
        let n = new
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("candidate lacks workload {workload}"))?;
        for m in &END_TO_END {
            let read = |side: &Json, which: &str| {
                side.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|e| e.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{which} lacks {workload}/{}", m.name))
            };
            let (base_v, new_v) = (read(b, "baseline")?, read(n, "candidate")?);
            let change = (new_v - base_v) / base_v.abs();
            rows.push(Comparison {
                workload: workload.clone(),
                metric: m.name,
                base: base_v,
                new: new_v,
                worse_by: match m.better {
                    Better::Lower => change,
                    Better::Higher => -change,
                },
                bound: m.bound.expect("end-to-end metrics are bounded"),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(advise: f64, pages: f64) -> Json {
        let e2e = Json::obj(END_TO_END.iter().map(|m| {
            let v = match m.name {
                "advise_s_p50" => advise,
                "pages_per_op" => pages,
                _ => 1.0,
            };
            (m.name, Json::obj([("value", Json::Num(v))]))
        }));
        Json::obj([(
            "workloads",
            Json::obj([("w", Json::obj([("end_to_end", e2e)]))]),
        )])
    }

    #[test]
    fn compare_applies_each_metrics_own_bound() {
        let rows = compare(&report(1.0, 10.0), &report(1.2, 12.0)).unwrap();
        let advise = rows.iter().find(|r| r.metric == "advise_s_p50").unwrap();
        assert!((advise.worse_by - 0.2).abs() < 1e-12 && !advise.regressed());
        let pages = rows.iter().find(|r| r.metric == "pages_per_op").unwrap();
        assert!((pages.worse_by - 0.2).abs() < 1e-12 && pages.regressed());
        let rows = compare(&report(1.0, 10.0), &report(1.3, 8.0)).unwrap();
        assert!(rows
            .iter()
            .any(|r| r.metric == "advise_s_p50" && r.regressed()));
        assert!(rows
            .iter()
            .all(|r| r.metric != "pages_per_op" || r.worse_by < 0.0));
        assert!(compare(
            &report(1.0, 1.0),
            &Json::obj([("workloads", Json::Obj(vec![]))])
        )
        .is_err());
    }

    #[test]
    fn verify_result_flags_missing_and_undeclared_metrics() {
        let bench = Json::parse(
            r#"{"end_to_end": [{"name": "a", "unit": "s"}, {"name": "b", "unit": "ms"}]}"#,
        )
        .unwrap();
        let ok = Json::parse(
            r#"{"correct": true, "attempted": 1, "failed": 0,
                "metrics": {"a": {"value": 1, "unit": "s"}, "b": {"value": 2, "unit": "ms"}}}"#,
        )
        .unwrap();
        assert!(verify_result(&bench, &ok, false).is_empty());
        let bad = Json::parse(
            r#"{"correct": true, "attempted": 1, "failed": 0,
                "metrics": {"a": {"value": 1, "unit": "ms"}, "c": {"value": 2, "unit": "s"}}}"#,
        )
        .unwrap();
        let problems = verify_result(&bench, &bad, false);
        assert_eq!(problems.len(), 3, "{problems:?}");
    }
}
