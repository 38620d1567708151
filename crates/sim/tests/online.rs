//! The online-tuning anchors (DESIGN.md §5.16).
//!
//! Headline invariant — **replay equivalence**: for a stationary captured
//! stream, the plan an [`OnlineTuner`] derives from decayed estimates
//! equals the plan built from the exact declared rates, bitwise in the
//! selections and cost, across random workloads and random within-tick
//! event interleavings. Plus: replaying the same log twice yields
//! bit-identical estimator state; drift-mode trigger decisions and plans
//! agree across lane counts (there is one engine; the parallel and the
//! sequential executor must not differ); and `what_if` on an adopted candidate reproduces the adopted pricing
//! bitwise.

use oic_core::{Choice, OnlineTuner, TuningPolicy, WorkloadAdvisor};
use oic_cost::CostParams;
use oic_schema::ClassId;
use oic_sim::{synth_workload, DriftSim, DriftSpec, WorkloadSpec};
use oic_workload::{EstimatorConfig, EventLog, PathKey, RateEstimator, WorkloadEvent};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tuner() -> OnlineTuner {
    OnlineTuner::new(EstimatorConfig::default(), TuningPolicy::default())
}

/// One stationary window of ground-truth traffic, one weighted event per
/// live signal, shuffled by `rng` (the estimator must not care about
/// within-tick order).
fn stationary_window(oracle: &WorkloadAdvisor<'_>, rng: &mut StdRng) -> Vec<(WorkloadEvent, f64)> {
    let mut events = Vec::new();
    for c in 0..oracle.class_count() {
        let class = ClassId(c as u32);
        let (beta, gamma) = oracle.rates(class);
        if beta > 0.0 {
            events.push((WorkloadEvent::Insert { class }, beta));
        }
        if gamma > 0.0 {
            events.push((WorkloadEvent::Delete { class }, gamma));
        }
    }
    for id in oracle.path_ids().collect::<Vec<_>>() {
        let key = PathKey(id.raw() as u64);
        let alphas = oracle.query_rates(id).expect("live path");
        for (c, &alpha) in alphas.iter().enumerate() {
            if alpha > 0.0 {
                let event = WorkloadEvent::Query {
                    path: key,
                    class: ClassId(c as u32),
                };
                events.push((event, alpha));
            }
        }
    }
    // Fisher–Yates: the interleaving under test.
    for i in (1..events.len()).rev() {
        events.swap(i, rng.gen_range(0..=i));
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// **Replay equivalence.** An advisor whose adopted rates were
    /// scrambled, then re-tuned purely from a stationary captured stream
    /// of the true rates, lands on the same plan as the oracle advisor
    /// that declared those rates exactly — same selections, same cost
    /// bits. The estimator's adopt-first-window rule plus the delta-form
    /// fold make the estimates *bitwise* equal to the declared rates, so
    /// the mutation API installs exactly what the oracle adopted.
    #[test]
    fn stationary_capture_retunes_to_the_oracle_plan(
        base_seed in 0u64..1_000,
        shuffle_seed in 0u64..1_000,
        paths in 2usize..=10,
        windows in 1u64..=4,
    ) {
        let w = synth_workload(&WorkloadSpec {
            paths,
            depth: 4,
            fanout: 2,
            seed: base_seed,
        });
        let mut oracle = w.advisor(CostParams::default());
        let oracle_plan = oracle.optimize();

        let mut tuned = w.advisor(CostParams::default());
        // Scramble what the tuned advisor believes about the workload.
        for c in 0..tuned.class_count() {
            tuned.update_rates(ClassId(c as u32), (0.123, 0.071));
        }
        for id in tuned.path_ids().collect::<Vec<_>>() {
            tuned.update_query_rates(id, |c| 0.3 + 0.01 * c.index() as f64);
        }
        tuned.optimize();

        let mut tun = tuner();
        for id in tuned.path_ids().collect::<Vec<_>>() {
            tun.track(PathKey(id.raw() as u64), id);
        }
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        for tick in 0..windows {
            for (event, weight) in stationary_window(&oracle, &mut rng) {
                tun.observe(tick, &event, weight);
            }
        }
        tun.seal(windows);
        // The scrambled rates diverge far beyond any sane tolerance, so
        // the policy trips on its own.
        prop_assert!(tun.drift(&tuned) > 1.0, "scrambled rates must register as drift");
        let retuned = tun.maybe_retune(&mut tuned).expect("policy tripped");
        oracle_plan.assert_same_plan(&retuned, "stationary replay vs oracle");
        // And the adopted rates are now bit-equal to the declarations.
        for c in 0..oracle.class_count() {
            let class = ClassId(c as u32);
            prop_assert_eq!(tuned.rates(class), oracle.rates(class));
        }
    }

    /// Replaying the same recorded log twice — and under different
    /// within-tick interleavings — yields bit-identical estimator state.
    #[test]
    fn log_replay_is_bit_deterministic(
        base_seed in 0u64..1_000,
        shuffle_a in 0u64..1_000,
        shuffle_b in 0u64..1_000,
        windows in 1u64..=5,
    ) {
        let w = synth_workload(&WorkloadSpec {
            paths: 6,
            depth: 4,
            fanout: 2,
            seed: base_seed,
        });
        let mut oracle = w.advisor(CostParams::default());
        oracle.optimize();
        let record = |seed: u64| {
            let mut log = EventLog::default();
            let mut rng = StdRng::seed_from_u64(seed);
            for tick in 0..windows {
                for (event, weight) in stationary_window(&oracle, &mut rng) {
                    log.push(tick, event, weight);
                }
            }
            log
        };
        let replay = |log: &EventLog| {
            let mut est = RateEstimator::new(EstimatorConfig::default());
            log.replay(|tick, event, weight| est.observe(tick, event, weight))
                .expect("well-formed log");
            est.seal(windows);
            est.fingerprint()
        };
        let log_a = record(shuffle_a);
        prop_assert_eq!(replay(&log_a), replay(&log_a), "same log, same state");
        let log_b = record(shuffle_b);
        prop_assert_eq!(
            replay(&log_a),
            replay(&log_b),
            "within-tick interleaving must not matter"
        );
        // The wire format round-trips the weights bitwise.
        let decoded = EventLog::decode(&log_a.encode()).expect("own encoding");
        prop_assert_eq!(replay(&log_a), replay(&decoded), "encode/decode round-trip");
    }
}

/// The parallel engine is bit-identical to the sequential one through the
/// whole closed loop: same-seed traffic runs under 8 threads and 1 thread
/// produce bit-identical plans at every trigger, and identical estimator
/// fingerprints. (`tests/golden_decisions.rs` pins the larger online loop,
/// migration schedules included, at lanes {1, 2, 8}.)
#[test]
fn traffic_mode_is_bit_identical_across_thread_counts() {
    let w = synth_workload(&WorkloadSpec {
        paths: 10,
        depth: 4,
        fanout: 2,
        seed: 1994,
    });
    let spec = DriftSpec {
        arrivals: 2,
        departures: 2,
        stat_drifts: 1,
        rate_drifts: 2,
        query_drifts: 3,
        seed: 41,
    };
    let run = |threads: usize| {
        let mut adv = w.advisor(CostParams::default()).with_threads(threads);
        adv.optimize();
        let mut tun = tuner();
        let mut sim = DriftSim::new(&w, spec.clone());
        sim.enable_traffic(&adv, &mut tun);
        let mut plans = Vec::new();
        for _ in 0..6 {
            let (_, plan) = sim.step_traffic(&mut adv, &mut tun, 8);
            plans.push(plan);
        }
        (plans, tun.estimator().fingerprint(), tun.retunes())
    };
    let (plans_par, fp_par, retunes_par) = run(8);
    let (plans_seq, fp_seq, retunes_seq) = run(1);
    assert_eq!(fp_par, fp_seq, "estimator state is engine-independent");
    assert_eq!(retunes_par, retunes_seq);
    assert_eq!(plans_par.len(), plans_seq.len());
    for (epoch, (p, s)) in plans_par.iter().zip(&plans_seq).enumerate() {
        assert_eq!(
            p.is_some(),
            s.is_some(),
            "epoch {epoch}: decisions diverged"
        );
        if let (Some(p), Some(s)) = (p, s) {
            p.assert_bit_identical_to(s, &format!("threads 8 vs 1, epoch {epoch}"));
        }
    }
    assert!(
        plans_par.iter().any(Option::is_some),
        "six churn epochs must re-optimize at least once"
    );
}

/// Purely stationary traffic — no churn, shadow rates equal to the adopted
/// rates — never trips the policy and never re-optimizes: the estimator
/// adopts the adopted rates verbatim and the drift measure stays at zero.
#[test]
fn stationary_traffic_never_retunes() {
    let w = synth_workload(&WorkloadSpec {
        paths: 6,
        depth: 4,
        fanout: 2,
        seed: 5,
    });
    let mut adv = w.advisor(CostParams::default());
    adv.optimize();
    let spec = DriftSpec {
        arrivals: 0,
        departures: 0,
        stat_drifts: 0,
        rate_drifts: 0,
        query_drifts: 0,
        seed: 9,
    };
    let mut tun = tuner();
    let mut sim = DriftSim::new(&w, spec);
    sim.enable_traffic(&adv, &mut tun);
    for epoch in 0..5 {
        let (churn, plan) = sim.step_traffic(&mut adv, &mut tun, 4);
        assert_eq!(churn.total(), 0, "epoch {epoch}");
        assert!(plan.is_none(), "epoch {epoch}: spurious re-optimization");
    }
    assert_eq!(tun.retunes(), 0);
    assert_eq!(tun.dropped_events(), 0);
}

/// `what_if` on every adopted `(path, subpath)` of a fresh plan reproduces
/// the adopted pricing **bitwise**: the per-organization maintenance
/// equals the interned memo, the reporting path appears among the
/// subscribers, and the subscribers' query shares re-sum (in selection
/// order) to the plan's per-path query cost to the last bit. Shared
/// entries agree with the plan's shared-index ledger.
#[test]
fn what_if_reproduces_adopted_pricing_bitwise() {
    let w = synth_workload(&WorkloadSpec {
        paths: 12,
        depth: 4,
        fanout: 2,
        seed: 1717,
    });
    let mut adv = w.advisor(CostParams::default());
    let plan = adv.optimize();
    let mut adopted_reports = 0usize;
    for outcome in &plan.paths {
        let mut resummed = 0.0f64;
        for &(sub, choice) in outcome.selection.pairs() {
            let Choice::Index(org) = choice else {
                panic!("workload advisor selections are always indexed")
            };
            let report = adv.what_if(&outcome.path, sub);
            assert!(
                report.adopted,
                "{sub:?} of path {:?} is adopted",
                outcome.id
            );
            let id = report.candidate.expect("adopted ⇒ live candidate");
            for o in oic_cost::Org::ALL {
                assert_eq!(
                    adv.candidate_space().priced(id, o),
                    Some((report.maintenance[o.index()], report.size_pages[o.index()])),
                    "memo bits for {o:?}"
                );
            }
            let me = report
                .subscribers
                .iter()
                .find(|s| s.path == outcome.id && s.sub == sub)
                .expect("the probing path subscribes to its own selection");
            resummed += me.query_costs[org.index()];
            // Shared-index ledger agreement.
            for s in &plan.shared {
                if s.candidate == id && s.org == org {
                    assert_eq!(
                        s.maintenance.to_bits(),
                        report.maintenance[org.index()].to_bits(),
                        "shared maintenance bits"
                    );
                }
            }
            adopted_reports += 1;
        }
        assert_eq!(
            resummed.to_bits(),
            outcome.query_cost.to_bits(),
            "subscriber query shares re-sum to the plan's query cost bitwise"
        );
    }
    assert!(adopted_reports >= plan.paths.len());
}

/// The hypothetical arm: probing a path the advisor does not (or no
/// longer) carries prices it standalone without adopting anything — and
/// when the path is registered again, the adopted memo reproduces the
/// hypothetical quote bitwise (same model, same inputs, same code path).
#[test]
fn what_if_hypothetical_quote_matches_later_adoption_bitwise() {
    let w = synth_workload(&WorkloadSpec {
        paths: 5,
        depth: 4,
        fanout: 2,
        seed: 23,
    });
    let mut adv = w.advisor(CostParams::default());
    let plan = adv.optimize();
    // A duplicate path would keep the victim's whole-path candidate alive
    // after removal; pick one whose terminal candidate it owns alone.
    let sole = plan
        .paths
        .iter()
        .find(|o| {
            let whole = oic_schema::SubpathId {
                start: 1,
                end: o.path.len(),
            };
            adv.what_if(&o.path, whole).subscribers.len() == 1
        })
        .expect("some path owns its whole-path candidate alone");
    let victim = sole.id;
    let path = oic_schema::Path::clone(&sole.path);
    let alphas = adv.query_rates(victim).expect("live").to_vec();
    adv.remove_path(victim).expect("live handle");
    adv.reoptimize();

    let whole = oic_schema::SubpathId {
        start: 1,
        end: path.len(),
    };
    let quote = adv.what_if(&path, whole);
    assert!(!quote.adopted, "nothing adopted may be cited after removal");
    assert!(quote.subscribers.is_empty());
    for org in oic_cost::Org::ALL {
        assert!(
            quote.maintenance[org.index()].is_finite() && quote.maintenance[org.index()] >= 0.0
        );
        assert!(quote.size_pages[org.index()] > 0.0);
    }
    // The candidate snapshot does not change under a read-only probe.
    let live_before = adv.candidate_space().len();
    let _ = adv.what_if(&path, whole);
    assert_eq!(adv.candidate_space().len(), live_before);

    adv.add_path_dense(path.clone(), alphas);
    adv.reoptimize();
    let adopted = adv.what_if(&path, whole);
    assert!(adopted.adopted, "re-registered path must be fully priced");
    for org in oic_cost::Org::ALL {
        assert_eq!(
            adopted.maintenance[org.index()].to_bits(),
            quote.maintenance[org.index()].to_bits(),
            "{org:?}: hypothetical quote vs adopted memo"
        );
        assert_eq!(
            adopted.size_pages[org.index()].to_bits(),
            quote.size_pages[org.index()].to_bits(),
        );
    }
}

/// The executor records real operations as a replayable stream: queries,
/// inserts and deletes land in the log with the right kinds, the wire
/// format round-trips, and two replays agree bitwise.
#[test]
fn executor_capture_round_trips_into_the_estimator() {
    let (schema, _) = oic_schema::fixtures::paper_schema();
    let (path, chars) = oic_cost::characteristics::example51(&schema);
    let small = oic_sim::scale_chars(&chars, 0.004);
    let db = oic_sim::generate(&schema, &path, &small, &oic_sim::GenSpec::default());
    let values = db.ending_values.clone();
    let mut exec = oic_sim::ConfiguredDb::single(&schema, &path, db, oic_cost::Org::Nix);
    let key = PathKey(42);
    exec.start_capture(key);
    let person = schema.class_by_name("Person").unwrap();
    for v in values.iter().take(3) {
        exec.query(v, person, false);
    }
    exec.advance_capture_tick();
    let victim = exec.db.pools[0][0];
    exec.delete(victim);
    exec.query(&values[0], person, false);
    let log = exec.take_capture_log().expect("capture was on");
    assert!(exec.take_capture_log().is_none(), "log is taken once");

    let kinds = |log: &EventLog| {
        let (mut q, mut i, mut d) = (0, 0, 0);
        log.replay(|_, event, _| match event {
            WorkloadEvent::Query { .. } => q += 1,
            WorkloadEvent::Insert { .. } => i += 1,
            WorkloadEvent::Delete { .. } => d += 1,
        })
        .expect("well-formed log");
        (q, i, d)
    };
    assert_eq!(kinds(&log), (4, 0, 1), "3 + 1 queries and one delete");
    let replay = |log: &EventLog| {
        let mut est = RateEstimator::new(EstimatorConfig::default());
        log.replay(|tick, event, weight| est.observe(tick, event, weight))
            .expect("well-formed log");
        est.seal(2);
        est.fingerprint()
    };
    let decoded = EventLog::decode(&log.encode()).expect("own encoding");
    assert_eq!(replay(&log), replay(&decoded));
    assert_eq!(replay(&log), replay(&log), "replay is idempotent");
}

/// Regression for the PR-7 follow-up, inverted by the λ-aware bound: the
/// prune mask is size-aware (a cell is struck only when beaten in both
/// cost and pages, so `cost + λ·size` can never flip the verdict at any
/// λ ≥ 0) and budgeted sweeps are REQUIRED to price under it. A budgeted
/// solve whose Lagrangian search actually engages must report a non-empty
/// mask (`lambda_pruned > 0`). (The name dates from the mask-free engine
/// these plans were compared against; that masked λ-pricing never changes
/// which plan wins is now checked by `budgeted.rs`'s exhaustive oracle.)
#[test]
fn lambda_priced_sweeps_run_masked_and_engine_agnostic() {
    let w = synth_workload(&WorkloadSpec {
        paths: 14,
        depth: 4,
        fanout: 2,
        seed: 404,
    });
    let mut adv = w.advisor(CostParams::default());
    let unconstrained = adv.optimize();
    assert!(
        unconstrained.candidates_pruned > 0,
        "pruning must actually engage unconstrained for this regression \
         to mean anything"
    );
    // Tight budgets force λ away from zero.
    for tighten in [2.0, 4.0, 8.0] {
        let budget = unconstrained.size_pages / tighten;
        let b = adv.optimize_with_budget(budget);
        // Every bracketing/bisection probe prices at λ > 0, so a positive
        // sweep count proves λ-priced pricing actually ran — even when
        // the eviction descent ends up winning (λ reported 0).
        assert!(
            b.lambda_sweeps > 0,
            "budget {budget} never priced a λ sweep; tighten the test"
        );
        // The satellite contract: those sweeps ran *masked*.
        assert!(
            b.plan.lambda_pruned > 0,
            "budget {budget} priced λ sweeps with an empty prune mask"
        );
    }
}
