//! Pins the README "Online tuning" snippet so the documented claims stay
//! true: traffic observed through the capture layer re-tunes the advisor
//! via the ordinary mutation API, the drift policy trips on a 10× rate
//! shift, the observed rates end up adopted, and `what_if` quotes a live
//! spelling from the space's priced cells.

use oo_index_config::prelude::*;

#[test]
fn readme_online_snippet() {
    let (schema, _) = oo_index_config::schema::fixtures::paper_schema();
    let mut advisor = WorkloadAdvisor::new(&schema, CostParams::default())
        .with_stats(|_| ClassStats::new(10_000.0, 1_000.0, 1.0))
        .with_maintenance(|_| (0.05, 0.02));
    let pexa = Path::parse(&schema, "Person", &["owns", "man", "divs", "name"]).unwrap();
    let id = advisor.add_path(pexa, |_| 0.1);
    advisor.optimize();

    // Observe traffic instead of declaring rates: weighted events per tick.
    let mut tuner = OnlineTuner::new(EstimatorConfig::default(), TuningPolicy::default());
    let key = PathKey(id.raw() as u64);
    tuner.track(key, id);
    for tick in 0..4 {
        for class in schema.class_ids() {
            // Inserts run at 10× the declared churn; the rest is stationary.
            tuner.observe(tick, &WorkloadEvent::Insert { class }, 0.5);
            tuner.observe(tick, &WorkloadEvent::Delete { class }, 0.02);
            tuner.observe(tick, &WorkloadEvent::Query { path: key, class }, 0.1);
        }
    }
    tuner.seal(4);

    // The policy watches estimator-vs-adopted divergence and re-optimizes
    // through update_rates / update_query_rates + reoptimize().
    assert!(tuner.drift(&advisor) > 1.0);
    let plan = tuner.maybe_retune(&mut advisor).expect("drift tripped");
    let person = schema.class_by_name("Person").unwrap();
    assert_eq!(advisor.rates(person), (0.5, 0.02)); // observed, now adopted

    // What-if: price a candidate without adopting anything.
    let report = advisor.what_if(&plan.paths[0].path, SubpathId { start: 1, end: 4 });
    assert!(report.adopted); // live spelling: quoted bitwise from the priced cells

    // Beyond the snippet: the quote really is the priced cell, bit for bit.
    let cand = report.candidate.expect("adopted implies live");
    for org in Org::ALL {
        assert_eq!(
            advisor.candidate_space().priced(cand, org),
            Some((
                report.maintenance[org.index()],
                report.size_pages[org.index()]
            ))
        );
    }
    // And the stationary signals were left exactly as declared: the query
    // rate estimate folded to the declared 0.1 bitwise, so the retune
    // installed a value-equal vector there.
    assert_eq!(advisor.query_rates(id).unwrap()[person.index()], 0.1);
}
