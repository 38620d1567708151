//! The timed loop is the library's loop, not a fork: with quiet epochs off
//! and 64 capture windows per epoch, the benchmark's epoch driver
//! reproduces `DriftSim::step_traffic` on the same seed — the same churn
//! and a bit-equal plan cost, epoch after epoch.

use oic_benchmark::epochs::DriftLoop;
use oic_benchmark::record::{Checks, Samples};
use oic_benchmark::sizes::CHURN;
use oic_benchmark::trace::Tracer;
use oic_benchmark::Ctx;
use oic_core::{OnlineTuner, TuningPolicy};
use oic_cost::CostParams;
use oic_sim::{synth_workload, DriftSim, DriftSpec, WorkloadSpec};
use oic_workload::EstimatorConfig;

#[test]
fn epoch_driver_reproduces_drift_sim_step_traffic() {
    const TICKS: u64 = 64;
    let w = synth_workload(&WorkloadSpec {
        paths: 40,
        depth: 4,
        fanout: 3,
        seed: 5,
    });
    let spec = DriftSpec { seed: 77, ..CHURN };

    let mut advisor = w.advisor(CostParams::default());
    advisor.optimize();
    let mut sim = DriftSim::new(&w, spec.clone());
    let mut tuner = OnlineTuner::new(EstimatorConfig::default(), TuningPolicy::default());
    sim.enable_traffic(&advisor, &mut tuner);

    let tracer = Tracer::new();
    let mut ctx = Ctx {
        tracer: &tracer,
        samples: Samples::default(),
        checks: Checks::default(),
        probes: false,
    };
    let mut driver = DriftLoop::new(&mut ctx, &w, spec);

    let mut retunes = 0;
    for epoch in 0..10 {
        let (want, plan) = sim.step_traffic(&mut advisor, &mut tuner, TICKS);
        let got = driver.epoch(&mut ctx, false, TICKS);
        assert_eq!(
            (
                got.churn.arrived,
                got.churn.departed,
                got.churn.stats_changed,
                got.churn.rates_changed,
                got.churn.queries_changed
            ),
            (
                want.arrived,
                want.departed,
                want.stats_changed,
                want.rates_changed,
                want.queries_changed
            ),
            "epoch {epoch}: churn"
        );
        assert_eq!(
            got.plan_cost.map(f64::to_bits),
            plan.map(|p| p.total_cost.to_bits()),
            "epoch {epoch}: plan cost"
        );
        retunes += u64::from(got.retuned);
    }
    assert_eq!(
        retunes,
        tuner.retunes(),
        "the same epochs tripped the policy"
    );
    assert!(retunes > 0, "the drift must trip the policy at least once");
    assert_eq!(ctx.checks.failed, 0, "{:?}", ctx.checks.causes);
    driver.finish(&mut ctx);
    assert_eq!(ctx.samples.get("migrate.errors"), &[0.0]);
}
