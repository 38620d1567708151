//! Phase 4 — execute on real indexes: `Advisor::recommend` on the paper's
//! path, the recommended configuration built over a generated database,
//! and the sampled Figure 7 operation mix run against it with capture on.
//! Every `twin_stride`-th query is compared with a twin database that has
//! no index at all; the twin receives the same inserts and deletes.

use crate::inputs::Paper;
use crate::paged::Posting;
use crate::sizes::Sizes;
use crate::stats::percentile;
use crate::Ctx;
use oic_core::{Advisor, Choice, IndexConfiguration};
use oic_cost::{CostParams, Org};
use oic_schema::{ClassId, SubpathId};
use oic_sim::{ConfiguredDb, GeneratedDb};
use oic_storage::{Object, Oid, Value};
use oic_workload::ops::OpKind;
use oic_workload::{EstimatorConfig, EventLog, PathKey, RateEstimator};

/// The capture key the executor logs its queries under.
const CAPTURE_KEY: PathKey = PathKey(1);
/// Operations per host-speed bracket: latencies are reduced chunk by chunk,
/// each chunk under the two probes around it. A chunk contributes its
/// **mean** latency per operation kind: the mix of cheap and dear queries
/// puts the median latency on a cliff (p40 = 9 µs, p60 = 31 µs at the small
/// scale), where a one-percent change in the mix moves it by 7 %.
const OPS_PER_CHUNK: usize = 500;
/// Chunks per capture tick.
const CHUNKS_PER_TICK: usize = 2;

/// The paper's optimal configuration for Example 5.1:
/// `{(Person.owns.man, NIX), (Company.divs.name, MX)}`.
fn paper_optimum() -> [(SubpathId, Choice); 2] {
    [
        (SubpathId { start: 1, end: 2 }, Choice::Index(Org::Nix)),
        (SubpathId { start: 3, end: 4 }, Choice::Index(Org::Mx)),
    ]
}

/// Every `(position, ending value)` answer of a freshly built executor —
/// the content of the posting tree, and the truth its lookups must match.
pub fn postings(exec: &ConfiguredDb<'_>) -> Vec<Posting> {
    let values = exec.db.ending_values.clone();
    let mut out = Vec::new();
    for pos in 1..=exec.path_len() {
        let target = exec.class_at(pos);
        for v in &values {
            let (oids, _) = exec.query(v, target, false);
            if !oids.is_empty() {
                out.push(Posting {
                    pos,
                    value: v.clone(),
                    oids,
                });
            }
        }
    }
    out
}

/// A copy of the class's first live object under a fresh oid — the simplest
/// insert that is faithful to the class's shape — registered as the class's
/// most recent object. `None` for a class without objects.
fn copy_of_first(
    exec: &mut ConfiguredDb<'_>,
    live: &mut [Vec<Oid>],
    target: ClassId,
) -> Option<Object> {
    let template = *live[target.index()].first()?;
    let mut obj = exec.db.heap.peek(template).expect("live oid").clone();
    obj.oid = exec.db.heap.fresh_oid(target);
    live[target.index()].push(obj.oid);
    Some(obj)
}

/// Per-kind accumulators of one operation stream.
#[derive(Default)]
struct Kind {
    us: Vec<f64>,
    pages: u64,
}

impl Kind {
    fn record(&mut self, d: std::time::Duration, pages: u64) {
        self.us.push(d.as_secs_f64() * 1e6);
        self.pages += pages;
    }
}

/// Runs the phase once. `want_postings` asks for the fresh executor's
/// posting answers (taken before any operation mutates the database).
pub fn run(
    ctx: &mut Ctx<'_>,
    paper: &Paper,
    db: GeneratedDb,
    twin_db: GeneratedDb,
    ops: &[OpKind],
    sizes: &Sizes,
    want_postings: bool,
) -> Option<Vec<Posting>> {
    let t = ctx.tracer;
    let (schema, path) = (&paper.schema, &paper.path);
    let (rec, _) = t.span("advisor.recommend", || {
        Advisor::new(schema, path, &paper.chars, &paper.ld)
            .with_params(CostParams::paper())
            .recommend()
    });
    ctx.checks.check(
        rec.selection.best.pairs() == paper_optimum(),
        "Advisor::recommend left the paper's Example 5.1 optimum",
    );

    let (mut exec, d) = t.measured("e2e.index_build", || {
        t.span("index.build", || {
            ConfiguredDb::new(schema, path, db, &rec.selection.best)
        })
        .0
    });
    ctx.time_s("index_build_s", d);
    ctx.time_s("index.build_s", d);
    ctx.samples.push("index.pages", exec.index_pages() as f64);
    let posting_answers = want_postings.then(|| t.span("check.postings", || postings(&exec)).0);

    let no_index = IndexConfiguration::new(
        vec![(
            SubpathId {
                start: 1,
                end: path.len(),
            },
            Choice::NoIndex,
        )],
        path.len(),
    )
    .expect("one piece tiles the path");
    let (mut twin, _) = t.span("check.twin_build", || {
        ConfiguredDb::new(schema, path, twin_db, &no_index)
    });

    // Live oids per class, so resolving an operation's arguments costs
    // nothing inside the timed call.
    let mut live: Vec<Vec<Oid>> = schema
        .class_ids()
        .map(|c| exec.db.heap.oids_of(c))
        .collect();
    let values: Vec<Value> = exec.db.ending_values.clone();
    let class_of = |position: usize, class: usize| -> ClassId {
        schema.hierarchy(path.step(position).class)[class]
    };

    // Steady state: a delete removes the most recently inserted object of
    // its class, and this untimed prelude inserts as many copies per class
    // as the stream's deletes ever outrun its inserts. The generated
    // objects — and with them the query answers — stay as generated,
    // instead of eroding by a different random walk in every traffic draw.
    t.span("index.prelude", || {
        let mut balance = vec![0i64; live.len()];
        let mut short = vec![0i64; live.len()];
        for op in ops {
            match *op {
                OpKind::Insert { position, class } => {
                    balance[class_of(position, class).index()] += 1
                }
                OpKind::Delete { position, class } => {
                    let c = class_of(position, class).index();
                    balance[c] -= 1;
                    short[c] = short[c].max(-balance[c]);
                }
                OpKind::Query { .. } => {}
            }
        }
        for class in schema.class_ids() {
            for _ in 0..short[class.index()] {
                if let Some(obj) = copy_of_first(&mut exec, &mut live, class) {
                    twin.insert(obj.clone());
                    exec.insert(obj);
                }
            }
        }
    });

    exec.start_capture(CAPTURE_KEY);
    let (mut q, mut ins, mut del) = (Kind::default(), Kind::default(), Kind::default());
    let (mut next_value, mut queries) = (0usize, 0usize);
    for (c, chunk) in ops.chunks(OPS_PER_CHUNK).enumerate() {
        if c > 0 && c % CHUNKS_PER_TICK == 0 {
            exec.advance_capture_tick();
        }
        let (q0, i0, d0) = (q.us.len(), ins.us.len(), del.us.len());
        t.probe();
        for op in chunk {
            match *op {
                OpKind::Query { position, class } => {
                    let target = class_of(position, class);
                    let v = &values[next_value % values.len()];
                    next_value += 1;
                    let ((oids, stats), d) = t.span("index.query", || exec.query(v, target, false));
                    q.record(d, stats.distinct_total());
                    queries += 1;
                    if queries % sizes.twin_stride == 0 {
                        let ((mut want, _), _) =
                            t.span("check.twin_query", || twin.query(v, target, false));
                        let mut got = oids;
                        want.sort_unstable();
                        got.sort_unstable();
                        ctx.checks
                            .check(got == want, "query differs from the NoIndex twin");
                    }
                }
                OpKind::Insert { position, class } => {
                    let target = class_of(position, class);
                    let Some(obj) = copy_of_first(&mut exec, &mut live, target) else {
                        continue;
                    };
                    t.span("check.twin_insert", || twin.insert(obj.clone()));
                    let (stats, d) = t.span("index.insert", || exec.insert(obj));
                    ins.record(d, stats.distinct_total());
                }
                OpKind::Delete { position, class } => {
                    let target = class_of(position, class);
                    let Some(victim) = live[target.index()].pop() else {
                        continue;
                    };
                    t.span("check.twin_delete", || twin.delete(victim));
                    let (stats, d) = t.span("index.delete", || exec.delete(victim));
                    del.record(d, stats.distinct_total());
                }
            }
        }
        t.probe();
        // This chunk's means, under this chunk's host speed.
        let parts = [
            ("query_us", &q.us[q0..]),
            ("insert_us", &ins.us[i0..]),
            ("delete_us", &del.us[d0..]),
        ];
        let executed: usize = parts.iter().map(|(_, us)| us.len()).sum();
        let busy_us: f64 = parts.iter().flat_map(|(_, us)| us.iter()).sum();
        for (name, us) in parts {
            if !us.is_empty() {
                ctx.time(name, us.iter().sum::<f64>() / us.len() as f64);
            }
        }
        if executed > 0 {
            ctx.time("index.us_per_op", busy_us / executed as f64);
        }
    }

    let executed = q.us.len() + ins.us.len() + del.us.len();
    ctx.time("index.query_us_p99", percentile(&q.us, 99.0));
    let s = &mut ctx.samples;
    s.push(
        "pages_per_op",
        (q.pages + ins.pages + del.pages) as f64 / executed as f64,
    );
    s.push(
        "index.query_pages_per_op",
        q.pages as f64 / q.us.len() as f64,
    );
    s.push(
        "index.insert_pages_per_op",
        ins.pages as f64 / ins.us.len() as f64,
    );
    s.push(
        "index.delete_pages_per_op",
        del.pages as f64 / del.us.len() as f64,
    );

    let log = exec.take_capture_log().expect("capture was started");
    capture_round_trip(ctx, &log, executed);
    posting_answers
}

/// The captured log must encode, decode and replay cleanly — one event per
/// executed operation, identical after the text round trip.
fn capture_round_trip(ctx: &mut Ctx<'_>, log: &EventLog, executed: usize) {
    let t = ctx.tracer;
    let (text, d) = t.measured("capture.encode", || log.encode());
    ctx.time_ms("capture.encode_ms", d);
    let (decoded, d) = t.measured("capture.decode", || EventLog::decode(&text));
    ctx.time_ms("capture.decode_ms", d);
    ctx.samples.push("capture.log_events", log.len() as f64);
    ctx.samples.push("capture.log_bytes", text.len() as f64);
    ctx.checks
        .check(log.len() == executed, "capture log misses operations");
    if let Some(decoded) = ctx.checks.ok(decoded, "CaptureError (decode)") {
        ctx.checks.check(
            decoded.entries() == log.entries(),
            "decoded capture log differs from the recorded one",
        );
        let mut estimator = RateEstimator::new(EstimatorConfig::default());
        let (r, d) = t.measured("capture.replay", || {
            decoded.replay(|tick, event, weight| estimator.observe(tick, event, weight))
        });
        ctx.time_ms("capture.replay_ms", d);
        ctx.checks.ok(r, "CaptureError (replay)");
    }
}
