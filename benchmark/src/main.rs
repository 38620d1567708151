//! Command line of the whole-loop benchmark.
//!
//! ```text
//! oic-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//!     one run; the last line of standard output is the result object, the
//!     line before it the same metrics as measured and the host probe
//! oic-benchmark [suite] [--seed <n>] [--seconds <s>] [--rounds <r>] [--quick] [--out <file>]
//!     every workload, untraced in interleaved rounds and then traced
//! oic-benchmark compare <baseline.json> <candidate.json>
//!     two suite reports under each metric's own bound; exit 1 on regression
//! oic-benchmark verify <BENCHMARK.json> <result> <0|1>
//!     a result line against the declaration: every declared metric, no other
//! oic-benchmark declare
//!     print BENCHMARK.json as the built-in tables define it
//! ```

use oic_benchmark::json::Json;
use oic_benchmark::report::{compare, declaration, suite, verify_result, SuiteConfig};
use oic_benchmark::run::{run, RunConfig};
use oic_benchmark::sizes::Workload;
use std::process::ExitCode;

/// The seed the repository's baseline was recorded with.
const DEFAULT_SEED: u64 = 1994;

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("oic-benchmark: {msg}");
    ExitCode::from(2)
}

/// `--flag value` pairs and bare flags, in order.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {flag}: {v:?}")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // A captured run: the result object is the last line.
    let doc = if path.ends_with(".json") {
        text.as_str()
    } else {
        text.lines().last().unwrap_or("")
    };
    Json::parse(doc).map_err(|e| format!("{path}: {e}"))
}

fn one_run(flags: &Flags, workload: &str) -> Result<ExitCode, String> {
    let workload = Workload::parse(workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {workload:?}; one of {names:?}")
    })?;
    let trace = match flags.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let result = run(&RunConfig {
        workload,
        seed: flags.parsed("--seed", DEFAULT_SEED)?,
        seconds: flags.parsed("--seconds", 10.0)?,
        trace,
        quick: flags.has("--quick"),
        out_dir: RunConfig::default_out_dir(),
    });
    print!("{}", result.render());
    println!("{}", result.as_measured_json().render());
    println!("{}", result.to_json().render());
    Ok(ExitCode::SUCCESS)
}

fn run_suite(flags: &Flags) -> Result<ExitCode, String> {
    let cfg = SuiteConfig {
        seed: flags.parsed("--seed", DEFAULT_SEED)?,
        seconds: flags.parsed("--seconds", 30.0)?,
        rounds: flags.parsed("--rounds", 3)?,
        quick: flags.has("--quick"),
        out_dir: RunConfig::default_out_dir(),
    };
    let report = suite(&cfg);
    let text = report.render();
    if let Some(path) = flags.value("--out") {
        std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{text}");
    let failed: f64 = report
        .get("workloads")
        .map_or(&[][..], Json::members)
        .iter()
        .filter_map(|(_, w)| w.get("failed").and_then(Json::as_f64))
        .sum();
    Ok(if failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("compare takes <baseline.json> <candidate.json>".into());
    };
    let rows = compare(&read_json(base)?, &read_json(new)?)?;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "baseline", "candidate", "worse by", "bound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<24} {:>14.6} {:>14.6} {:>8.1}% {:>6.0}%{}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.regressed() { "  REGRESSED" } else { "" }
        );
    }
    let regressed = rows.iter().filter(|r| r.regressed()).count();
    println!("{regressed} of {} pairings beyond their bound", rows.len());
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn run_verify(args: &[String]) -> Result<ExitCode, String> {
    let [bench, result, trace] = args else {
        return Err("verify takes <BENCHMARK.json> <result> <0|1>".into());
    };
    let problems = verify_result(&read_json(bench)?, &read_json(result)?, trace == "1");
    for p in &problems {
        eprintln!("oic-benchmark: {p}");
    }
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    // The benchmark measures the library's defaults; an OIC_* switch would
    // silently measure something else.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("OIC_"))
    {
        return fail(format!(
            "{} is set; unset every OIC_* variable",
            name.to_string_lossy()
        ));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("verify") => run_verify(&args[1..]),
        Some("suite") => run_suite(&Flags(args[1..].to_vec())),
        Some("declare") => {
            print!("{}", declaration().render_pretty(2));
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let flags = Flags(args);
            match flags.value("--workload") {
                Some(w) => one_run(&flags, w),
                None => run_suite(&flags),
            }
        }
    };
    outcome.unwrap_or_else(fail)
}
