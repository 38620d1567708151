//! One benchmark run: warm up, repeat the loop until the time is up, check
//! every output, reduce the samples to the declared metrics.

use crate::inputs::{Inputs, Paper, EXACT_INSTANCES};
use crate::json::Json;
use crate::metrics::{table, Metric};
use crate::paged::PostingTree;
use crate::record::{Checks, Samples};
use crate::sizes::{Sizes, Workload, CHURN};
use crate::stats::{median, summarize, Summary};
use crate::trace::{Tracer, NOMINAL_PROBE_S};
use crate::{advise, budget, epochs, execdb, paper, Ctx};
use oic_sim::DriftSpec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Every input derives from it.
    pub seed: u64,
    /// How long to keep repeating the loop (after the warm-up).
    pub seconds: f64,
    /// Record spans and report the per-layer table.
    pub trace: bool,
    /// Test-sized inputs.
    pub quick: bool,
    /// Where traces and the posting tree's files go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// `benchmark/out`, next to this package's manifest: inside the
    /// checkout the binary was built from.
    pub fn default_out_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Reported {
    /// The metric's declaration.
    pub metric: Metric,
    /// Its reduced value.
    pub value: f64,
    /// The same reduction over the samples as measured (no host scaling).
    pub raw: f64,
    /// The summary of the samples behind it.
    pub summary: Summary,
}

/// The outcome of a run.
#[derive(Debug)]
pub struct RunResult {
    /// The workload that ran.
    pub workload: Workload,
    /// Whether a traced (per-layer) table was produced.
    pub trace: bool,
    /// Output checks.
    pub checks: Checks,
    /// Timed loop iterations (the warm-up not counted).
    pub iterations: usize,
    /// Median host probe of the run, in milliseconds: what the timings were
    /// normalised by ([`NOMINAL_PROBE_S`] is what they were normalised to).
    pub host_probe_ms: f64,
    /// Every metric of the run's table, in table order.
    pub reported: Vec<Reported>,
    /// Self time per span name (traced runs).
    pub layer_times: Vec<(&'static str, crate::trace::LayerTime)>,
}

impl RunResult {
    /// No check failed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The value of a reported metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.reported
            .iter()
            .find(|r| r.metric.name == name)
            .map(|r| r.value)
    }

    /// The result line the driver reads.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.checks.attempted as f64)),
            ("failed", Json::Num(self.checks.failed as f64)),
            (
                "metrics",
                Json::obj(self.reported.iter().map(|r| {
                    (
                        r.metric.name,
                        Json::obj([
                            ("value", Json::Num(r.value)),
                            ("unit", Json::Str(r.metric.unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// What the result line leaves out, as one JSON object on the line
    /// before it: the host probe and every metric as measured, so a reader
    /// on another host can tell what normalisation did to a number.
    pub fn as_measured_json(&self) -> Json {
        Json::obj([
            ("host_probe_ms", Json::Num(self.host_probe_ms)),
            ("nominal_probe_ms", Json::Num(NOMINAL_PROBE_S * 1e3)),
            (
                "as_measured",
                Json::obj(
                    self.reported
                        .iter()
                        .map(|r| (r.metric.name, Json::Num(r.raw))),
                ),
            ),
        ])
    }

    /// The human-readable table: name, value, unit, n, quartiles.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} ({}): {} iterations, {} checks, {} failed, host probe {:.4} ms (nominal {:.2})",
            self.workload.name(),
            if self.trace { "traced" } else { "untraced" },
            self.iterations,
            self.checks.attempted,
            self.checks.failed,
            self.host_probe_ms,
            NOMINAL_PROBE_S * 1e3
        );
        for (cause, n) in &self.checks.causes {
            let _ = writeln!(out, "  FAILED x{n}: {cause}");
        }
        let _ = writeln!(
            out,
            "  {:<40} {:>16} {:<9} {:>6} {:>14} {:>14} {:>16}",
            "metric", "value", "unit", "n", "q1", "q3", "as measured"
        );
        for r in &self.reported {
            let tail = r
                .summary
                .tail
                .map_or(String::new(), |(p, v)| format!("  p{p}={v:.6}"));
            let _ = writeln!(
                out,
                "  {:<40} {:>16.6} {:<9} {:>6} {:>14.6} {:>14.6} {:>16.6}{tail}",
                r.metric.name,
                r.value,
                r.metric.unit,
                r.summary.n,
                r.summary.q1,
                r.summary.q3,
                r.raw
            );
        }
        if !self.layer_times.is_empty() {
            let _ = writeln!(
                out,
                "  {:<40} {:>10} {:>14} {:>14}",
                "span", "count", "total ms", "self ms"
            );
            for (name, t) in &self.layer_times {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>10} {:>14.3} {:>14.3}",
                    name,
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                );
            }
        }
        out
    }
}

/// One pass of the whole loop over freshly generated inputs: the fixed
/// dataset under traffic draw `instance` of the seed.
fn iteration(
    ctx: &mut Ctx<'_>,
    paper_fx: &Paper,
    sizes: &Sizes,
    cfg: &RunConfig,
    instance: usize,
    tree: &mut Option<PostingTree>,
) {
    let inputs = Inputs::generate(ctx.tracer, paper_fx, sizes, cfg.seed, instance);
    // (`generate` probed the host around the timed part.)
    let host = ctx.tracer.host_speed();
    for name in ["setup_s", "sim.gen_s"] {
        ctx.samples
            .push_timed(name, inputs.setup.as_secs_f64(), host);
    }
    for (draw, (w, batches)) in inputs.advise.iter().enumerate() {
        advise::run(ctx, w, batches, sizes, draw == 0);
    }
    for (draw, w) in inputs.budget.iter().enumerate() {
        budget::run(ctx, w, draw == 0);
    }
    let spec = DriftSpec {
        seed: inputs.churn_seed,
        ..CHURN
    };
    epochs::run(ctx, &inputs.drift, spec, sizes.epochs, sizes.ticks);
    let postings = execdb::run(
        ctx,
        paper_fx,
        inputs.db,
        inputs.twin_db,
        &inputs.ops,
        sizes,
        tree.is_none(),
    );
    if let Some(postings) = postings {
        let built = PostingTree::build(ctx, &cfg.out_dir, postings, cfg.seed);
        *tree = ctx.checks.ok(built, "StoreError (posting tree build)");
    }
    if let Some(tree) = tree.as_mut() {
        tree.run(ctx, sizes.paged_lookups, sizes.commit_rounds);
    }
    paper::run(ctx, paper_fx, sizes.paper_repeats);
}

/// The quantities that must repeat bit for bit whenever an iteration
/// replays a traffic instance it has run before.
const EXACT_SOURCES: [&str; 8] = [
    "pages_per_op",
    "budget_cost_ratio_mean",
    "tuned_cost_ratio",
    "advisor.plan_cost",
    "advisor.lambda_sweeps",
    "capture.events_per_epoch",
    "capture.log_events",
    "index.pages",
];

fn exact_fingerprint(samples: &Samples) -> Vec<u64> {
    EXACT_SOURCES
        .iter()
        .flat_map(|name| samples.get(name).iter().map(|v| v.to_bits()))
        .collect()
}

/// Runs one workload as configured.
pub fn run(cfg: &RunConfig) -> RunResult {
    let sizes = cfg.workload.sizes(cfg.quick);
    let paper_fx = Paper::new(sizes.exec_scale);
    let tracer = Tracer::new();
    let mut ctx = Ctx {
        tracer: &tracer,
        samples: Samples::default(),
        checks: Checks::default(),
        probes: true,
    };
    let mut tree: Option<PostingTree> = None;

    // Warm-up on traffic instance 0: fills caches, builds the posting tree,
    // and runs the once-per-run probes (one-lane parity, mining, fan-out
    // speed-ups). Only the probe samples survive it.
    iteration(&mut ctx, &paper_fx, &sizes, cfg, 0, &mut tree);
    let once = std::mem::take(&mut ctx.samples);
    let mut fingerprints = BTreeMap::from([(0, exact_fingerprint(&once))]);
    ctx.probes = false;
    tracer.take_timed_work_ns();

    // An untraced run moves to the next traffic instance every iteration. A
    // traced run runs each instance twice, recorded and then unrecorded, so
    // the tracer's overhead is measured inside one process on identical
    // inputs, and reports from its recorded iterations only.
    let per_instance = if cfg.trace { 2 } else { 1 };
    // `kept` feeds the timings; `exact` — the first EXACT_INSTANCES traffic
    // instances, which every run completes — feeds the exact metrics, so
    // those do not depend on how many iterations the time budget allowed.
    let (mut kept, mut exact) = (Samples::default(), Samples::default());
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let started = Instant::now();
    let mut iterations = 0usize;
    while iterations < EXACT_INSTANCES * per_instance || started.elapsed() < budget {
        let instance = iterations / per_instance;
        let record = cfg.trace && iterations % 2 == 0;
        tracer.set_recording(record);
        tracer.set_request(1_000 * (iterations as u32 + 1));
        iteration(&mut ctx, &paper_fx, &sizes, cfg, instance, &mut tree);
        tracer.set_recording(false);
        let samples = std::mem::take(&mut ctx.samples);
        // Instance 0 replays the warm-up; a traced run replays every one.
        let fingerprint = exact_fingerprint(&samples);
        if let Some(seen) = fingerprints.insert(instance, fingerprint.clone()) {
            ctx.checks.check(
                seen == fingerprint,
                "an exact quantity changed between replays of one traffic instance",
            );
        }
        let timed_ns = tracer.take_timed_work_ns();
        if record {
            traced_ns.push(timed_ns);
        } else {
            untraced_ns.push(timed_ns);
        }
        if record || !cfg.trace {
            kept.extend(&samples);
            if instance < EXACT_INSTANCES {
                exact.extend(&samples);
            }
        }
        iterations += 1;
    }
    drop(tree); // removes the posting tree's files
    let probes = tracer.probes();

    let mut layer_times = Vec::new();
    if cfg.trace {
        // Fan-out speed-ups: the warm-up's one-lane probe over the default
        // executor's median on the same phase.
        for (name, one_lane, default) in [
            (
                "exec.fanout_speedup",
                "exec.one_lane_optimize_s",
                "advisor.optimize_s",
            ),
            (
                "exec.fanout_speedup.budget",
                "exec.one_lane_frontier_s",
                "frontier_s",
            ),
        ] {
            let (one_lane, default) = (once.normalised(one_lane), kept.normalised(default));
            if let (&[one_lane], [_, ..]) = (one_lane.as_slice(), default.as_slice()) {
                kept.push(name, one_lane / median(&default));
            }
        }
        // Recorded over unrecorded run of the same instance, pair by pair:
        // the two are adjacent in time, so the host's drift mostly cancels.
        let ratios: Vec<f64> = traced_ns
            .iter()
            .zip(&untraced_ns)
            .map(|(traced, untraced)| traced / untraced)
            .collect();
        let overhead = median(&ratios) - 1.0;
        kept.push("trace_overhead_pct", overhead * 100.0);
        let coverage = tracer.coverage("e2e.");
        let min = coverage.values().copied().fold(1.0, f64::min);
        kept.push("trace.coverage_min_pct", min * 100.0);
        kept.push("trace.spans", tracer.len() as f64);
        kept.push("host.probe_ms", median(&probes) * 1e3);
        kept.push("host.slowdown_p50", median(&probes) / NOMINAL_PROBE_S);
        kept.push("host.probes", probes.len() as f64);
        layer_times = tracer.layer_times().into_iter().collect();
        let path = cfg
            .out_dir
            .join(format!("trace-{}.jsonl", cfg.workload.name()));
        let written = tracer.write_jsonl(&path);
        ctx.checks.ok(written, "trace file not written");
    }

    // Timings are reduced normalised to the nominal host speed (exact
    // samples carry no host speed and pass through as measured).
    let mut reported = Vec::new();
    for metric in table(cfg.trace) {
        // Once-per-run probes only ever sampled during the warm-up.
        let pool = [if metric.exact { &exact } else { &kept }, &once]
            .into_iter()
            .find(|pool| !pool.get(metric.source).is_empty())
            .unwrap_or(&once);
        let samples = pool.normalised(metric.source);
        let samples = samples.as_slice();
        let raw = pool.get(metric.source);
        let sampled = !samples.is_empty() && samples.iter().all(|v| v.is_finite());
        ctx.checks.check(
            sampled,
            &format!("metric {} has no finite sample", metric.name),
        );
        if sampled {
            reported.push(Reported {
                metric: *metric,
                value: metric.reduce.apply(samples),
                raw: metric.reduce.apply(raw),
                summary: summarize(samples),
            });
        }
    }
    RunResult {
        workload: cfg.workload,
        trace: cfg.trace,
        checks: ctx.checks,
        iterations,
        host_probe_ms: median(&probes) * 1e3,
        reported,
        layer_times,
    }
}
