//! **Captured-stream tuning vs oracle declared-rate tuning** — the closed
//! loop of DESIGN.md §5.16 on a 250-path drifting workload.
//!
//! Two advisors walk the same deterministic drift trajectory (same seed,
//! same RNG consumption). The **oracle** is told every rate change
//! directly through the mutation API and re-optimizes each epoch. The
//! **tuned** advisor never sees a rate mutation: rate and query-mix drift
//! go to a hidden shadow, which is emitted as 64 stationary capture
//! windows per epoch into an [`OnlineTuner`]; the advisor re-learns the
//! rates from the stream and re-optimizes only when the tuner's drift
//! policy trips.
//!
//! The yardstick is the **true** cost of the tuned plan — what the oracle
//! (which knows the exact rates) says the tuned selections cost
//! (`price_plan`) — against the oracle's own optimum. The snapshot pins
//! the per-epoch ratio, asserted ≤ 1.05 once the estimator has converged.
//!
//! Writes a machine-readable snapshot to `BENCH_online_tuning.json` at the
//! repository root via the shared `oic_bench::Json` writer: per epoch the
//! two wall clocks and what one observed event costs
//! (`observe_ns_per_event`), at the top the median tuned ÷ oracle epoch
//! (`tuned_over_oracle_p50`), `host_cpus`, and the same two numbers from
//! this bench run at the parent commit as the `baseline` object.

use oic_bench::{write_repo_snapshot, Json};
use oic_core::{OnlineTuner, TuningPolicy, WorkloadAdvisor};
use oic_cost::CostParams;
use oic_schema::ClassId;
use oic_sim::{synth_workload, DriftSim, DriftSpec, WorkloadSpec};
use oic_workload::{EstimatorConfig, PathKey, WorkloadEvent};
use std::time::Instant;

const EPOCHS: u32 = 8;
const TICKS_PER_EPOCH: u64 = 64;

/// This bench at the parent commit on the same 2-CPU host (the median of
/// three runs alternated with this tree's): `BTreeMap<PathKey, _>`
/// estimator storage, two ordered-map probes per observed event.
const BASELINE_COMMIT: &str = "35906fc";
const BASELINE_HOST_CPUS: usize = 2;
const BASELINE_TUNED_OVER_ORACLE_P50: f64 = 22.20;
const BASELINE_OBSERVE_NS_PER_EVENT: f64 = 34.7;

/// What one observed event costs at the per-event door: `ticks` stationary
/// windows of the rates `advisor` adopts (the epoch's traffic once the
/// tuner has converged — one weighted event per live signal per tick, path
/// by path) through a fresh tuner tracking every live path, after one
/// untimed window that starts every cell.
fn observe_ns_per_event(advisor: &WorkloadAdvisor<'_>, ticks: u64) -> f64 {
    let mut tuner = OnlineTuner::new(EstimatorConfig::default(), TuningPolicy::default());
    let ids: Vec<_> = advisor.path_ids().collect();
    for &id in &ids {
        tuner.track(PathKey(id.raw() as u64), id);
    }
    let window = |tuner: &mut OnlineTuner, tick: u64| {
        let mut events = 0u64;
        for c in 0..advisor.class_count() {
            let class = ClassId(c as u32);
            let (beta, gamma) = advisor.rates(class);
            if beta > 0.0 {
                tuner.observe(tick, &WorkloadEvent::Insert { class }, beta);
                events += 1;
            }
            if gamma > 0.0 {
                tuner.observe(tick, &WorkloadEvent::Delete { class }, gamma);
                events += 1;
            }
        }
        for &id in &ids {
            let path = PathKey(id.raw() as u64);
            let alphas = advisor.query_rates(id).expect("live path");
            for (c, &alpha) in alphas.iter().enumerate() {
                if alpha > 0.0 {
                    let class = ClassId(c as u32);
                    tuner.observe(tick, &WorkloadEvent::Query { path, class }, alpha);
                    events += 1;
                }
            }
        }
        events
    };
    window(&mut tuner, 0);
    let t = Instant::now();
    let events: u64 = (1..=ticks).map(|tick| window(&mut tuner, tick)).sum();
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(tuner.dropped_events(), 0, "every emitted key is tracked");
    ns / events as f64
}

fn main() {
    let w = synth_workload(&WorkloadSpec {
        paths: 250,
        depth: 5,
        fanout: 3,
        seed: 1994,
    });
    let spec = DriftSpec {
        arrivals: 6,
        departures: 6,
        stat_drifts: 4,
        rate_drifts: 4,
        query_drifts: 10,
        seed: 77,
    };

    let mut oracle = w.advisor(CostParams::default());
    let mut tuned = w.advisor(CostParams::default());
    let cold = oracle.optimize();
    tuned.optimize();
    println!(
        "cold optimize: {} paths, {} candidates, cost {:.3}\n",
        cold.paths.len(),
        cold.candidates,
        cold.total_cost
    );

    let mut sim_oracle = DriftSim::new(&w, spec.clone());
    let mut sim_tuned = DriftSim::new(&w, spec);
    let mut tuner = OnlineTuner::new(EstimatorConfig::default(), TuningPolicy::default());
    sim_tuned.enable_traffic(&tuned, &mut tuner);

    println!(
        "{:>5} {:>9} {:>7} {:>14} {:>14} {:>8} {:>6} {:>10} {:>10} {:>8}",
        "epoch",
        "mutations",
        "retuned",
        "oracle cost",
        "tuned true",
        "ratio",
        "match",
        "oracle",
        "tuned",
        "ns/event"
    );
    let mut epochs = Vec::new();
    let mut overheads = Vec::new();
    let mut observe_costs = Vec::new();
    let mut max_ratio = 1.0f64;
    let mut last_tuned_plan = None;
    for epoch in 1..=EPOCHS {
        // Oracle: drift goes straight into the advisor, retune every epoch.
        let t = Instant::now();
        let churn = sim_oracle.step(&mut oracle);
        let oracle_plan = oracle.reoptimize();
        let oracle_ns = t.elapsed().as_nanos();

        // Tuned: drift hides in the traffic; the tuner must rediscover it.
        let t = Instant::now();
        let (churn_t, plan) = sim_tuned.step_traffic(&mut tuned, &mut tuner, TICKS_PER_EPOCH);
        let tuned_ns = t.elapsed().as_nanos();
        assert_eq!(
            churn.arrived + churn.departed,
            churn_t.arrived + churn_t.departed,
            "epoch {epoch}: the two runs fell out of lockstep"
        );
        let retuned = plan.is_some();
        if let Some(p) = plan {
            last_tuned_plan = Some(p);
        }
        let tuned_plan = last_tuned_plan
            .as_ref()
            .expect("structural churn every epoch");

        // The yardstick: the tuned selections priced under the TRUE rates.
        let tuned_true = oracle.price_plan(tuned_plan);
        let ratio = tuned_true / oracle_plan.total_cost;
        max_ratio = max_ratio.max(ratio);
        let selections_match = oracle_plan
            .paths
            .iter()
            .zip(&tuned_plan.paths)
            .all(|(o, t)| o.id == t.id && o.selection.pairs() == t.selection.pairs());
        let observe_ns = observe_ns_per_event(&tuned, TICKS_PER_EPOCH);
        overheads.push(tuned_ns as f64 / oracle_ns as f64);
        observe_costs.push(observe_ns);
        println!(
            "{:>5} {:>9} {:>7} {:>14.3} {:>14.3} {:>8.4} {:>6} {:>10} {:>10} {:>8.1}",
            epoch,
            churn.total(),
            retuned,
            oracle_plan.total_cost,
            tuned_true,
            ratio,
            selections_match,
            format!("{:.1?}", std::time::Duration::from_nanos(oracle_ns as u64)),
            format!("{:.1?}", std::time::Duration::from_nanos(tuned_ns as u64)),
            observe_ns,
        );
        epochs.push(Json::obj([
            ("epoch", Json::from(epoch)),
            ("mutations", Json::from(churn.total())),
            ("paths", Json::from(oracle_plan.paths.len())),
            ("retuned", Json::from(retuned)),
            ("tuner_retunes", Json::from(tuner.retunes())),
            ("oracle_cost", Json::fixed(oracle_plan.total_cost, 3)),
            ("tuned_true_cost", Json::fixed(tuned_true, 3)),
            ("cost_ratio", Json::fixed(ratio, 6)),
            ("selections_match", Json::from(selections_match)),
            ("oracle_ns", Json::from(oracle_ns)),
            ("tuned_ns", Json::from(tuned_ns)),
            ("observe_ns_per_event", Json::fixed(observe_ns, 2)),
        ]));
    }

    // With 64 stationary windows per epoch at smoothing 0.5, the estimates
    // converge bitwise inside every epoch, so the tuned plan tracks the
    // oracle to within the policy's do-not-retune tolerance from epoch 1.
    println!("\nworst tuned/oracle cost ratio: {max_ratio:.6}");
    assert!(
        max_ratio <= 1.05,
        "captured-stream tuning drifted {max_ratio:.4}× past the oracle"
    );

    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        (xs[(xs.len() - 1) / 2] + xs[xs.len() / 2]) / 2.0
    };
    let tuned_over_oracle = median(&mut overheads);
    let observe_ns = median(&mut observe_costs);
    println!(
        "tuned / oracle epoch (median): {tuned_over_oracle:.2} ({BASELINE_TUNED_OVER_ORACLE_P50:.2} \
         at {BASELINE_COMMIT}); observed event: {observe_ns:.1} ns \
         ({BASELINE_OBSERVE_NS_PER_EVENT:.1})"
    );

    let snapshot = Json::obj([
        ("bench", Json::from("online_tuning")),
        (
            "host_cpus",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        (
            "config",
            Json::obj([
                ("paths", Json::from(250u32)),
                ("epochs", Json::from(EPOCHS)),
                ("ticks_per_epoch", Json::from(TICKS_PER_EPOCH)),
                (
                    "smoothing",
                    Json::fixed(EstimatorConfig::default().smoothing, 3),
                ),
                (
                    "policy_relative",
                    Json::fixed(TuningPolicy::default().relative, 3),
                ),
                (
                    "policy_floor",
                    Json::fixed(TuningPolicy::default().floor, 4),
                ),
            ]),
        ),
        ("epochs", Json::Arr(epochs)),
        ("tuned_over_oracle_p50", Json::fixed(tuned_over_oracle, 2)),
        ("observe_ns_per_event", Json::fixed(observe_ns, 2)),
        (
            "baseline",
            Json::obj([
                ("commit", Json::from(BASELINE_COMMIT)),
                ("host_cpus", Json::from(BASELINE_HOST_CPUS)),
                (
                    "tuned_over_oracle_p50",
                    Json::fixed(BASELINE_TUNED_OVER_ORACLE_P50, 2),
                ),
                (
                    "observe_ns_per_event",
                    Json::fixed(BASELINE_OBSERVE_NS_PER_EVENT, 2),
                ),
            ]),
        ),
        ("max_cost_ratio", Json::fixed(max_ratio, 6)),
        ("tuner_retunes", Json::from(tuner.retunes())),
        ("dropped_events", Json::from(tuner.dropped_events())),
    ]);
    match write_repo_snapshot("BENCH_online_tuning.json", &snapshot) {
        Ok(_) => println!("snapshot written to BENCH_online_tuning.json"),
        Err(e) => println!("snapshot not written ({e})"),
    }
    println!(
        "\nNote: the tuned advisor never receives a rate mutation — every \
         rate it plans under was re-estimated from the captured stream; only \
         structural changes (path arrivals/departures, statistics) use the \
         mutation API, as they would in a live system."
    );
}
