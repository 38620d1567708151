//! Phase 2 — the budget frontier: an unconstrained `optimize()`, then
//! `optimize_with_budget` at 25 %, 50 % and 75 % of its footprint.

use crate::advise::build;
use crate::sizes::BUDGET_FRACTIONS;
use crate::Ctx;
use oic_core::WorkloadAdvisor;
use oic_sim::SynthWorkload;
use std::time::Duration;

const SOLVE_SPANS: [&str; 3] = [
    "advisor.budget_solve.f25",
    "advisor.budget_solve.f50",
    "advisor.budget_solve.f75",
];
const SOLVE_SAMPLES: [&str; 3] = [
    "advisor.budget_solve_s.f25",
    "advisor.budget_solve_s.f50",
    "advisor.budget_solve_s.f75",
];

/// How far below the unconstrained `optimize()` a budgeted plan may price.
/// `optimize()` is a coordinate descent and the budget search explores
/// harder, so — as `optimize_with_budget` documents — a nearly slack budget
/// can return a plan slightly cheaper than the unconstrained one (0.29 % on
/// a 16-path tree at `--quick` sizes). More than this is a broken descent.
const BONUS_SLACK: f64 = 0.01;

/// What one frontier (three budgeted solves) produced.
#[derive(Default)]
struct Frontier {
    total: Duration,
    solves: [Duration; 3],
    sweeps: [usize; 3],
    ratio_sum: f64,
    fill_sum: f64,
    feasible: usize,
    repairs: usize,
    lambda_pruned: u64,
}

fn frontier(ctx: &mut Ctx<'_>, adv: &mut WorkloadAdvisor<'_>, cost: f64, size: f64) -> Frontier {
    let t = ctx.tracer;
    let mut out = Frontier::default();
    let (_, total) = t.measured("e2e.frontier", || {
        for (i, f) in BUDGET_FRACTIONS.into_iter().enumerate() {
            let budget = size * f;
            let (b, d) = t.span(SOLVE_SPANS[i], || adv.optimize_with_budget(budget));
            out.solves[i] = d;
            out.sweeps[i] = b.lambda_sweeps;
            if b.feasible {
                out.feasible += 1;
                ctx.checks.check(
                    b.plan.size_pages <= budget * (1.0 + 1e-12) + 1e-9,
                    "feasible budgeted plan exceeds its budget",
                );
            }
            ctx.checks.check(
                b.plan.total_cost >= cost * (1.0 - BONUS_SLACK),
                "budgeted plan over 1 % cheaper than the unconstrained optimum",
            );
            out.ratio_sum += b.plan.total_cost / cost;
            out.fill_sum += b.plan.size_pages / budget;
            out.repairs += b.repairs;
            out.lambda_pruned += b.plan.lambda_pruned;
        }
    });
    out.total = total;
    out
}

/// Runs the phase once; `probes` allows the once-per-run probe.
pub fn run(ctx: &mut Ctx<'_>, w: &SynthWorkload, probes: bool) {
    let mut adv = build(w, None, None);
    let (base, d_opt) = ctx
        .tracer
        .span("advisor.optimize_budget_base", || adv.optimize());
    let fr = frontier(ctx, &mut adv, base.total_cost, base.size_pages);
    let n = BUDGET_FRACTIONS.len() as f64;
    ctx.time_s("frontier_s", fr.total);
    for ((name, solve), sweeps) in SOLVE_SAMPLES.into_iter().zip(fr.solves).zip(fr.sweeps) {
        ctx.time_s(name, solve);
        ctx.time(
            "advisor.sweep_ms",
            solve.as_secs_f64() * 1e3 / sweeps.max(1) as f64,
        );
    }
    let s = &mut ctx.samples;
    s.push("budget_cost_ratio_mean", fr.ratio_sum / n);
    s.push("advisor.budget_fill", fr.fill_sum / n);
    s.push("advisor.budget_feasible", fr.feasible as f64);
    s.push(
        "advisor.lambda_sweeps",
        fr.sweeps.iter().sum::<usize>() as f64,
    );
    s.push("advisor.repairs", fr.repairs as f64);
    s.push("advisor.lambda_pruned", fr.lambda_pruned as f64);
    s.push(
        "advisor.budget_over_optimize",
        fr.total.as_secs_f64() / d_opt.as_secs_f64(),
    );

    if ctx.probes && probes {
        // The same frontier on one lane: its time over the timed
        // iterations' median frontier is the fan-out speed-up of the
        // budgeted search (`run` divides).
        let mut one = build(w, Some(1), None);
        let base = one.optimize();
        let fr1 = frontier(ctx, &mut one, base.total_cost, base.size_pages);
        ctx.time_s("exec.one_lane_frontier_s", fr1.total);
    }
}
