//! Phase 1 — advise, readvise, deploy-plan: a fresh advisor's cold
//! `optimize()`, warm `reoptimize()` after mutation batches, and the
//! migration plan from the deployed configuration to the new target.

use crate::inputs::Batch;
use crate::sizes::Sizes;
use crate::Ctx;
use oic_core::{MigrationEnvelope, MigrationPlanner, PathId, WorkloadAdvisor, WorkloadPlan};
use oic_cost::CostParams;
use oic_sim::SynthWorkload;
use oic_workload::MiningPolicy;

/// The deployment envelope of every migration in the benchmark.
pub const ENVELOPE: MigrationEnvelope = MigrationEnvelope {
    concurrent_builds: 2,
    space_pages: f64::INFINITY,
};

/// Support threshold of the one mined-admission probe.
const MINING_SUPPORT: f64 = 1.5;

/// Builds an advisor over `w` on the library's default executor (or on
/// `threads` lanes), optionally with a mined-admission policy adopted
/// before the paths arrive.
pub fn build<'a>(
    w: &'a SynthWorkload,
    threads: Option<usize>,
    mining: Option<MiningPolicy>,
) -> WorkloadAdvisor<'a> {
    let mut adv = WorkloadAdvisor::new(&w.schema, CostParams::default())
        .with_stats(|c| w.stats[c.index()])
        .with_maintenance(|c| w.maint[c.index()]);
    if let Some(n) = threads {
        adv = adv.with_threads(n);
    }
    if let Some(policy) = mining {
        adv = adv.with_mining(policy);
    }
    for (path, alphas) in w.paths.iter().zip(&w.queries) {
        adv.add_path(path.clone(), |c| alphas[c.index()]);
    }
    adv
}

/// Bit-level plan equality: same cost, same footprint, same selections.
pub fn same_plan(a: &WorkloadPlan, b: &WorkloadPlan) -> bool {
    a.total_cost.to_bits() == b.total_cost.to_bits()
        && a.size_pages.to_bits() == b.size_pages.to_bits()
        && a.paths.len() == b.paths.len()
        && a.paths
            .iter()
            .zip(&b.paths)
            .all(|(x, y)| x.id == y.id && x.selection.pairs() == y.selection.pairs())
}

/// `price_plan(plan)` against the plan's own quote. The sharded engine sums
/// component by component while `price_plan` folds globally, so the two
/// agree to the last few ulps, not bitwise — hence a relative tolerance.
fn check_price_plan(ctx: &mut Ctx<'_>, adv: &WorkloadAdvisor<'_>, plan: &WorkloadPlan) {
    let (priced, d) = ctx
        .tracer
        .measured("advisor.price_plan", || adv.price_plan(plan));
    ctx.time_ms("advisor.price_plan_ms", d);
    let rel = (priced - plan.total_cost).abs() / plan.total_cost.abs().max(f64::MIN_POSITIVE);
    ctx.checks.check(
        rel <= 1e-12,
        "price_plan differs from the plan's total_cost",
    );
}

fn apply(adv: &mut WorkloadAdvisor<'_>, ids: &[PathId], batch: &Batch) {
    for (path, alphas) in &batch.queries {
        adv.update_query_rates(ids[*path], |c| alphas[c.index()]);
    }
    for &(class, stats) in &batch.stats {
        adv.update_stats(class, stats);
    }
    for &(class, rates) in &batch.rates {
        adv.update_rates(class, rates);
    }
}

/// Runs the phase once; `probes` allows the once-per-run probes.
pub fn run(ctx: &mut Ctx<'_>, w: &SynthWorkload, batches: &[Batch], sizes: &Sizes, probes: bool) {
    let t = ctx.tracer;
    let ((mut adv, cold, d_add, d_opt), d_advise) = t.measured("e2e.advise", || {
        let (mut adv, d_add) = t.span("space.add_paths", || build(w, None, None));
        let (plan, d_opt) = t.span("advisor.optimize", || adv.optimize());
        (adv, plan, d_add, d_opt)
    });
    ctx.time_s("advise_s", d_advise);
    ctx.time_s("space.add_paths_s", d_add);
    ctx.time_s("advisor.optimize_s", d_opt);
    let s = &mut ctx.samples;
    s.push("space.candidates", cold.candidates as f64);
    s.push(
        "space.sharing_ratio",
        w.subpath_instances() as f64 / cold.candidates as f64,
    );
    s.push("advisor.dp_runs", cold.dp_runs as f64);
    s.push(
        "advisor.dp_memo_hit_ratio",
        cold.dp_memo_hits as f64 / (cold.dp_runs + cold.dp_memo_hits).max(1) as f64,
    );
    s.push(
        "advisor.maintenance_pricings",
        cold.maintenance_pricings as f64,
    );
    s.push("advisor.epoch_pricings", cold.epoch_pricings as f64);
    s.push("advisor.sweeps", cold.sweeps as f64);
    s.push("advisor.candidates_pruned", cold.candidates_pruned as f64);
    s.push("advisor.speculation_skips", cold.speculation_skips as f64);
    s.push("shard.components", cold.components as f64);
    s.push("shard.largest_component", cold.largest_component as f64);
    s.push("advisor.plan_cost", cold.total_cost);
    s.push("advisor.plan_size_pages", cold.size_pages);
    s.push("advisor.physical_indexes", cold.physical_indexes as f64);
    s.push("exec.lanes", adv.executor().threads() as f64);
    check_price_plan(ctx, &adv, &cold);

    if ctx.probes && probes {
        probe_threads(ctx, w, &cold);
        probe_mining(ctx, w, &cold);
    }

    let ids: Vec<PathId> = adv.path_ids().collect();
    let mut current = cold;
    for (k, batch) in batches.iter().enumerate() {
        apply(&mut adv, &ids, batch);
        let (target, d) = t.measured("e2e.readvise", || {
            t.span("advisor.reoptimize", || adv.reoptimize()).0
        });
        ctx.time_s("readvise_s", d);
        ctx.time_s("advisor.reoptimize_s", d);
        ctx.samples
            .push("advisor.repriced_paths", target.repriced_paths as f64);
        check_price_plan(ctx, &adv, &target);
        if k < sizes.deploys {
            deploy(ctx, &adv, &current, &target);
        }
        current = target;
    }
}

fn deploy(
    ctx: &mut Ctx<'_>,
    adv: &WorkloadAdvisor<'_>,
    current: &WorkloadPlan,
    target: &WorkloadPlan,
) {
    let t = ctx.tracer;
    let ((schedule, d_new, d_schedule), d) = t.measured("e2e.deploy_plan", || {
        let (planner, d_new) = t.span("migrate.new", || {
            MigrationPlanner::new(adv, current, target)
        });
        let (schedule, d_schedule) = t.span("migrate.schedule", || {
            planner.and_then(|p| p.schedule(ENVELOPE))
        });
        (schedule, d_new, d_schedule)
    });
    ctx.time_s("deploy_plan_s", d);
    ctx.time_s("migrate.new_s", d_new);
    ctx.time_s("migrate.schedule_s", d_schedule);
    if let Some(schedule) = ctx.checks.ok(schedule, "MigrationError (deploy plan)") {
        ctx.samples.push("migrate.builds", schedule.builds as f64);
        ctx.samples.push("migrate.drops", schedule.drops as f64);
        ctx.samples.push("migrate.waves", schedule.waves as f64);
        ctx.samples
            .push("migrate.build_pages", schedule.build_pages);
        ctx.checks.check(
            schedule.final_cost.to_bits() == adv.price_plan(target).to_bits(),
            "schedule does not land on the advisor's quote",
        );
    }
}

/// The same cold `optimize()` on one lane: the plan must be bit-identical
/// to the default executor's. Its time over the timed iterations' median
/// `optimize()` is the fan-out speed-up (`run` divides).
fn probe_threads(ctx: &mut Ctx<'_>, w: &SynthWorkload, cold: &WorkloadPlan) {
    let mut adv = build(w, Some(1), None);
    let (plan, d) = ctx
        .tracer
        .measured("exec.optimize_one_lane", || adv.optimize());
    ctx.checks.check(
        same_plan(&plan, cold),
        "default-executor plan differs from the one-lane plan",
    );
    ctx.time_s("exec.one_lane_optimize_s", d);
}

/// One mined-admission probe: how much the miner removes, what it costs.
fn probe_mining(ctx: &mut Ctx<'_>, w: &SynthWorkload, cold: &WorkloadPlan) {
    let policy = MiningPolicy {
        min_support: MINING_SUPPORT,
        ..MiningPolicy::default()
    };
    let mut adv = build(w, None, Some(policy));
    let (plan, d) = ctx.tracer.measured("mining.optimize", || adv.optimize());
    ctx.time_s("mining.optimize_s", d);
    ctx.samples.push(
        "mining.candidates_mined_out",
        plan.candidates_mined_out as f64,
    );
    ctx.samples
        .push("mining.cost_ratio", plan.total_cost / cold.total_cost);
}
