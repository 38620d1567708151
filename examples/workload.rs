//! The extension, reproduced: one deterministic report of what this
//! repository builds on the paper's Section 6 future work — several paths
//! at once, page budgets, drift, online tuning and a migration order (in
//! the manner of Kimura et al., PAPERS.md). One section per tour:
//!
//! 1. `multi_path`: Pexa and Pe under one advisor, their shared prefix
//!    index priced once.
//! 2. `budgeted_workload`: Example 5.1's cost–size frontier, then three
//!    paths under shrinking page budgets.
//! 3. `evolving_workload`: drift epochs re-optimized warm, against a cold
//!    rebuild.
//! 4. `large_workload`: the component descent on a 5000-path chain forest,
//!    cold then warm.
//! 5. `parallel_workload`: a 300-path plan at lanes 1, 2 and 8.
//! 6. `online_tuning`: rates re-learned from captured traffic, against an
//!    oracle told every change.
//! 7. `migration`: a re-targeted plan deployed in waves, against the naive
//!    ordering.
//!
//! Each section asserts its equality (warm ≡ cold, parallel ≡ sequential,
//! tuned ≡ oracle, landing ≡ quote) before it prints the line that states
//! it. The report prints no timing, and every advisor runs on a named lane
//! count, so its bytes are a pure function of the code: `tests/reports.rs`
//! diffs them against `examples/workload.expected`.
//!
//! ```sh
//! cargo run --release --example workload
//! ```

use oo_index_config::core::CandidateStep;
use oo_index_config::prelude::*;
use oo_index_config::schema::fixtures;
use oo_index_config::sim::{synth_forest, synth_workload, DriftSim, DriftSpec};
use oo_index_config::sim::{ForestSpec, SynthWorkload, WorkloadSpec};
use std::fmt::{self, Write as _};

fn main() {
    print!("{}", report());
}

/// The whole report, byte for byte what `examples/workload.expected` holds.
pub fn report() -> String {
    let mut out = String::new();
    write_report(&mut out).expect("writing to a String cannot fail");
    out
}

fn write_report(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "The extension of Choenni et al. (ICDE 1994): the Section 6 future work, \
         built and reproduced.\nNo timing: every number is a decision or a \
         deterministic counter.\n"
    )?;
    multi_path(out)?;
    budgeted_workload(out)?;
    evolving_workload(out)?;
    large_workload(out)?;
    parallel_workload(out)?;
    online_tuning(out)?;
    migration(out)
}

fn heading(out: &mut String, title: &str) -> fmt::Result {
    writeln!(out, "{}\n{}\n", title, "=".repeat(title.chars().count()))
}

/// An advisor on one lane over Figure 1's schema, under the statistics
/// the Figure 1 tours share and one `(insert, delete)` rate pair for every
/// class.
fn fig1_advisor(schema: &Schema, params: CostParams, rates: (f64, f64)) -> WorkloadAdvisor<'_> {
    let stats = |c| match schema.class_name(c) {
        "Person" => ClassStats::new(200_000.0, 20_000.0, 1.0),
        "Vehicle" => ClassStats::new(10_000.0, 5_000.0, 3.0),
        "Bus" | "Truck" => ClassStats::new(5_000.0, 2_500.0, 2.0),
        "Company" => ClassStats::new(1_000.0, 250.0, 4.0),
        "Division" => ClassStats::new(1_000.0, 1_000.0, 1.0),
        _ => ClassStats::new(1.0, 1.0, 1.0),
    };
    WorkloadAdvisor::new(schema, params)
        .with_threads(1)
        .with_stats(stats)
        .with_maintenance(|_| rates)
}

/// An advisor over `w` on one lane.
fn sequential(w: &SynthWorkload) -> WorkloadAdvisor<'_> {
    w.advisor(CostParams::default()).with_threads(1)
}

fn tree(paths: usize, depth: usize) -> SynthWorkload {
    synth_workload(&WorkloadSpec {
        paths,
        depth,
        fanout: 3,
        seed: 1994,
    })
}

/// Asserts that two plans select the same pieces for the same paths, in
/// order, at the same cost to 1e-9 relative.
fn assert_same_plan(a: &WorkloadPlan, b: &WorkloadPlan, what: &str) {
    assert_eq!(a.paths.len(), b.paths.len(), "{what}: path count");
    for (a, b) in a.paths.iter().zip(&b.paths) {
        let (a, b) = (
            (&a.path, a.selection.pairs()),
            (&b.path, b.selection.pairs()),
        );
        assert_eq!(a, b, "{what}: selections diverged");
    }
    let (a, b) = (a.total_cost, b.total_cost);
    assert!(
        (a - b).abs() < 1e-9 * b.abs().max(1.0),
        "{what}: {a} vs {b}"
    );
}

/// `Class.attr.attr…` for a physical index's step sequence.
fn render_steps(schema: &Schema, steps: &[CandidateStep]) -> String {
    let mut name = schema.class_name(steps[0].0).to_string();
    for &(_, attr) in steps {
        name.push('.');
        name.push_str(schema.attr_name(attr));
    }
    name
}

fn multi_path(out: &mut String) -> fmt::Result {
    heading(
        out,
        "1. multi_path: two overlapping paths under one advisor",
    )?;
    let (schema, _) = fixtures::paper_schema();
    let pexa = fixtures::paper_path_pexa(&schema);
    let pe = fixtures::paper_path_pe(&schema);
    let mut advisor = fig1_advisor(&schema, CostParams::paper(), (0.1, 0.08));
    advisor.add_path(pexa.clone(), |_| 0.2);
    advisor.add_path(pe.clone(), |_| 0.25);
    let plan = advisor.optimize();
    writeln!(out, "{pexa} and {pe}, shared prefix priced once:\n")?;
    write!(out, "{}", plan.render(&schema))?;
    assert!(plan.total_cost < plan.independent_cost, "sharing pays");
    writeln!(out, "\nindependent total: {:.2}", plan.independent_cost)?;
    writeln!(out, "consolidated total: {:.2}\n", plan.total_cost)
}

fn budgeted_workload(out: &mut String) -> fmt::Result {
    heading(out, "2. budgeted_workload: selection under a page budget")?;
    let (schema, _) = fixtures::paper_schema();
    let (pexa, chars) = oo_index_config::cost::characteristics::example51(&schema);
    let ld = oo_index_config::workload::example51_load(&schema, &pexa);
    let model = CostModel::new(&schema, &pexa, &chars, CostParams::paper());
    let frontier = frontier_dp(&CostMatrix::build(&model, &ld));
    writeln!(
        out,
        "Pexa = {pexa}: cost–size Pareto frontier ({} points)\n",
        frontier.points.len()
    )?;
    for p in &frontier.points {
        let config = p.config.render(&schema, &pexa);
        writeln!(
            out,
            "  cost {:>10.2}  pages {:>8.0}  {config}",
            p.cost, p.size
        )?;
    }
    let unbounded = frontier.min_cost();
    let half = frontier
        .within_budget(unbounded.size / 2.0)
        .expect("a leaner configuration exists");
    writeln!(
        out,
        "\nhalving the footprint ({:.0} → {:.0} pages) costs {:.2}x\n",
        unbounded.size,
        half.size,
        half.cost / unbounded.cost
    )?;

    // Three paths share one budget; the solves run on one advisor, so the
    // eviction descent is walked once and later budgets extend its trail.
    let owns = Path::parse(&schema, "Person", &["owns"]).expect("Person.owns");
    let mut adv = fig1_advisor(&schema, CostParams::paper(), (0.15, 0.12));
    adv.add_path(pexa, |_| 0.2);
    adv.add_path(fixtures::paper_path_pe(&schema), |_| 0.25);
    adv.add_path(owns, |_| 0.35);
    let unconstrained = adv.optimize();
    writeln!(
        out,
        "workload: {} paths, unconstrained cost {:.2}, footprint {:.0} pages \
         ({} physical indexes)\n",
        unconstrained.paths.len(),
        unconstrained.total_cost,
        unconstrained.size_pages,
        unconstrained.physical_indexes
    )?;
    for frac in [1.0f64, 0.75, 0.3] {
        let budget = unconstrained.size_pages * frac;
        let b = adv.optimize_with_budget(budget);
        assert!(b.plan.size_pages <= budget || !b.feasible);
        let verdict = if b.feasible {
            "within budget"
        } else {
            "infeasible — leanest plan shown"
        };
        writeln!(
            out,
            "budget {:>3.0}% = {:>7.0} pages: cost {:>9.2} ({:.2}x), footprint {:>7.0} \
             pages, λ {:.4}, {} evictions ({} trials run) — {verdict}",
            frac * 100.0,
            budget,
            b.plan.total_cost,
            b.cost_ratio(),
            b.plan.size_pages,
            b.lambda,
            b.evictions,
            b.eviction_trials
        )?;
        for p in &b.plan.paths {
            writeln!(out, "    {}", p.selection.render(&schema, &p.path))?;
        }
    }
    writeln!(
        out,
        "\nthe budget squeezes fat NIX spans into leaner MX/MIX pieces path by \
         path, cheapest-regret first — never by dropping coverage.\n"
    )
}

fn evolving_workload(out: &mut String) -> fmt::Result {
    heading(out, "3. evolving_workload: drift epochs, re-optimized warm")?;
    let (schema, _) = fixtures::paper_schema();
    let pexa = fixtures::paper_path_pexa(&schema);
    let pe = fixtures::paper_path_pe(&schema);
    let mut advisor = fig1_advisor(&schema, CostParams::default(), (0.1, 0.1));
    let pexa_id = advisor.add_path(pexa, |_| 0.2);
    advisor.add_path(pe, |_| 0.3);
    writeln!(out, "── epoch 1: the paper's two overlapping paths ──")?;
    write!(out, "{}", advisor.optimize().render(&schema))?;

    // The Vehicle population quadruples, Person churn accelerates, a path
    // arrives and Pexa's queries cool down.
    let class = |name| schema.class_by_name(name).expect("a Figure 1 class");
    advisor.update_stats(class("Vehicle"), ClassStats::new(40_000.0, 20_000.0, 3.0));
    advisor.update_rates(class("Person"), (0.35, 0.25));
    let divs_name = Path::parse(&schema, "Company", &["divs", "name"]).expect("Company.divs.name");
    advisor.add_path(divs_name, |_| 0.4);
    advisor.update_query_rates(pexa_id, |_| 0.05);
    writeln!(out, "\n── epoch 2: stat/rate drift + arrival (warm) ──")?;
    write!(out, "{}", advisor.reoptimize().render(&schema))?;

    // The heavy path departs; its exclusive candidates leave the space.
    advisor.remove_path(pexa_id).expect("pexa is live");
    let warm = advisor.reoptimize();
    writeln!(out, "\n── epoch 3: departure (warm) ──")?;
    write!(out, "{}", warm.render(&schema))?;

    let cold = advisor.rebuild().optimize();
    assert_same_plan(&warm, &cold, "warm vs cold");
    writeln!(
        out,
        "\nwarm reoptimize == cold rebuild: {:.2} == {:.2} \
         ({} of {} paths repriced in the warm pass)\n",
        warm.total_cost,
        cold.total_cost,
        warm.repriced_paths,
        warm.paths.len()
    )
}

fn large_workload(out: &mut String) -> fmt::Result {
    heading(out, "4. large_workload: components on a 5000-path forest")?;
    let w = synth_forest(&ForestSpec {
        roots: 32,
        paths: 5_000,
        depth: 8,
        fanout: 1,
        seed: 1994,
    });
    writeln!(
        out,
        "workload: {} paths over {} disjoint depth-8 chain schemas",
        w.paths.len(),
        w.roots.len()
    )?;
    let mut advisor = sequential(&w);
    let plan = advisor.optimize();
    assert!(plan.components >= w.roots.len(), "trees never merge");
    assert!(plan.candidates_pruned > 0, "the dominance bound engages");
    writeln!(
        out,
        "cold optimize: cost {:.0}, {} physical indexes, {} DP runs\n\
         {} components (largest {} paths, {} singletons skipped), {} cells pruned",
        plan.total_cost,
        plan.physical_indexes,
        plan.dp_runs,
        plan.components,
        plan.largest_component,
        plan.speculation_skips,
        plan.candidates_pruned
    )?;

    // One tree's root class starts churning: only the paths that scope it
    // are repriced.
    let (beta, gamma) = w.maint[w.root.index()];
    advisor.update_rates(w.root, (beta + 0.25, gamma + 0.125));
    let warm = advisor.reoptimize();
    let cold = advisor.rebuild().optimize();
    writeln!(
        out,
        "warm reoptimize: cost {:.0}, {} of {} paths repriced, {} DP runs \
         (a cold rebuild runs {})",
        warm.total_cost,
        warm.repriced_paths,
        warm.paths.len(),
        warm.dp_runs,
        cold.dp_runs
    )?;
    assert_same_plan(&warm, &cold, "warm vs cold");
    writeln!(
        out,
        "warm plan == cold rebuild ({} paths, {} physical indexes)\n",
        warm.paths.len(),
        warm.physical_indexes
    )
}

fn parallel_workload(out: &mut String) -> fmt::Result {
    heading(out, "5. parallel_workload: one plan at every lane count")?;
    let w = tree(300, 5);
    writeln!(
        out,
        "workload: {} paths ({} subpath instances) over a depth-5 class tree",
        w.paths.len(),
        w.subpath_instances()
    )?;
    let plan = sequential(&w).optimize();
    writeln!(
        out,
        "sequential engine: cost {:.0}, {} physical indexes over {} candidates",
        plan.total_cost, plan.physical_indexes, plan.candidates
    )?;
    // Bit-identical, not merely close: same floats, same selections, same
    // audited work. Lanes change wall-clock only.
    for lanes in [2, 8] {
        let parallel = w
            .advisor(CostParams::default())
            .with_threads(lanes)
            .optimize();
        plan.assert_bit_identical_to(&parallel, "parallel_workload");
    }
    writeln!(
        out,
        "parallel plan == sequential plan (bit-identical at lanes 1, 2 and 8 \
         across {} paths, {} sweeps)\n",
        plan.paths.len(),
        plan.sweeps
    )
}

fn online_tuning(out: &mut String) -> fmt::Result {
    heading(
        out,
        "6. online_tuning: rates re-learned from captured traffic",
    )?;
    // Each epoch paths arrive and depart, and update and query rates move
    // without telling the tuned advisor.
    let w = tree(40, 4);
    let spec = DriftSpec {
        arrivals: 2,
        departures: 2,
        stat_drifts: 1,
        rate_drifts: 2,
        query_drifts: 4,
        seed: 41,
    };
    let mut oracle = sequential(&w);
    let mut tuned = sequential(&w);
    let cold = oracle.optimize();
    tuned.optimize();
    writeln!(
        out,
        "cold start: {} paths, {} candidates, cost {:.2}\n",
        cold.paths.len(),
        cold.candidates,
        cold.total_cost
    )?;

    // Same-seed simulators: the oracle gets every change through the
    // mutation API; the tuned side sees rate drift only as 64 stationary
    // capture windows per epoch, folded into decayed estimates.
    let mut sim_oracle = DriftSim::new(&w, spec.clone());
    let mut sim_tuned = DriftSim::new(&w, spec);
    let mut tuner = OnlineTuner::new(EstimatorConfig::default(), TuningPolicy::default());
    sim_tuned.enable_traffic(&tuned, &mut tuner);
    for epoch in 1..=4u32 {
        let churn = sim_oracle.step(&mut oracle);
        let oracle_plan = oracle.reoptimize();
        let (_, tuned_plan) = sim_tuned.step_traffic(&mut tuned, &mut tuner, 64);
        let verdict = match tuned_plan {
            Some(_) => "re-optimized",
            None => "held the plan",
        };
        writeln!(
            out,
            "epoch {epoch}: {} mutations, oracle cost {:.2}, tuner {verdict} \
             (retunes so far: {})",
            churn.total(),
            oracle_plan.total_cost,
            tuner.retunes()
        )?;
    }

    // 64 stationary windows at smoothing 0.5 converge the estimates to the
    // true rates bitwise: one forced retune lands on the oracle's plan.
    let tuned_final = tuner.force_retune(&mut tuned);
    let oracle_final = oracle.reoptimize();
    assert_same_plan(&tuned_final, &oracle_final, "tuned vs oracle");
    assert_eq!(oracle_final.physical_indexes, tuned_final.physical_indexes);
    writeln!(
        out,
        "\ntuned plan == oracle plan: {} paths, {} physical indexes, every \
         selection identical (cost {:.2} vs {:.2})",
        oracle_final.paths.len(),
        oracle_final.physical_indexes,
        tuned_final.total_cost,
        oracle_final.total_cost
    )?;

    // What-if: price a candidate without adopting anything.
    let probe = &oracle_final.paths[0];
    let whole = SubpathId {
        start: 1,
        end: probe.path.len(),
    };
    let report = oracle.what_if(&probe.path, whole);
    let source = if report.adopted {
        "adopted — quoted from the live memos"
    } else {
        "hypothetical — priced standalone, nothing installed"
    };
    writeln!(
        out,
        "\nwhat-if on {} (whole path, {source}):",
        probe.path.display()
    )?;
    for org in Org::ALL {
        writeln!(
            out,
            "  {org}: maintenance {:.3}, {:.0} pages, {} subscriber(s)",
            report.maintenance[org.index()],
            report.size_pages[org.index()],
            report.subscribers.len()
        )?;
    }
    writeln!(out)
}

fn migration(out: &mut String) -> fmt::Result {
    heading(out, "7. migration: a re-targeted plan, deployed in waves")?;
    let w = tree(60, 5);
    let mut adv = sequential(&w);
    let current = adv.optimize();
    writeln!(
        out,
        "deployed: {} paths, {} physical indexes, cost {:.2}",
        current.paths.len(),
        current.physical_indexes,
        current.total_cost
    )?;
    // An update surge: every class's insert/delete rates jump.
    for c in 0..adv.class_count() {
        adv.update_rates(ClassId(c as u32), (1.2, 0.5));
    }
    let target = adv.reoptimize();
    writeln!(
        out,
        "re-targeted after update surge: cost {:.2} (deployed plan now {:.2})\n",
        target.total_cost,
        adv.price_plan(&current)
    )?;

    // At most two concurrent builds, unlimited space; every interim state
    // is priced from the memos `optimize()` quotes from.
    let envelope = MigrationEnvelope {
        concurrent_builds: 2,
        space_pages: f64::INFINITY,
    };
    let planner = MigrationPlanner::new(&adv, &current, &target).expect("same path set");
    let greedy = planner.schedule(envelope).expect("schedulable");
    let naive = planner.naive_schedule(envelope).expect("schedulable");
    assert_eq!(
        greedy.final_cost.to_bits(),
        adv.price_plan(&target).to_bits()
    );
    writeln!(
        out,
        "schedule: {} builds, {} drops in {} waves ({:.0} pages of build I/O)",
        greedy.builds, greedy.drops, greedy.waves, greedy.build_pages
    )?;
    for step in greedy.steps.iter().take(6) {
        writeln!(
            out,
            "  wave {:>2}: {:?} {} ({}, {:.0} pages)",
            step.wave,
            step.action,
            render_steps(&w.schema, &step.steps),
            step.org,
            step.pages
        )?;
    }
    writeln!(
        out,
        "  … {} more steps",
        greedy.steps.len().saturating_sub(6)
    )?;

    // Cumulative interim cost (Σ wave duration × workload cost during that
    // wave) against the naive build-everything-then-drop ordering.
    assert!(greedy.interim_cost <= naive.interim_cost);
    writeln!(
        out,
        "\ninterim cost ≤ naive ordering: {:.0} vs {:.0} \
         (excess over steady state: {:.0} vs {:.0})",
        greedy.interim_cost, naive.interim_cost, greedy.interim_excess, naive.interim_excess
    )?;

    // Walk the first wave, then retune mid-migration: `retarget` re-aims
    // the remaining steps without forgetting what was already built.
    let mut live = planner.clone();
    live.advance(envelope)
        .expect("schedulable")
        .expect("steps remain");
    for c in 0..adv.class_count() {
        adv.update_rates(ClassId(c as u32), (0.9, 0.4));
    }
    let retargeted = adv.reoptimize();
    let quote = adv.price_plan(&retargeted);
    live.retarget(&adv, &retargeted)
        .expect("path set unchanged");
    let remaining = live.schedule(envelope).expect("schedulable");
    assert_eq!(remaining.final_cost.to_bits(), quote.to_bits());
    writeln!(
        out,
        "mid-migration retune: {} steps remain, landing on the new target \
         (cost {:.2}, bit-equal to the advisor's quote)",
        remaining.steps.len(),
        remaining.final_cost
    )?;
    while live.advance(envelope).expect("schedulable").is_some() {}
    assert!(live.is_complete());
    assert_eq!(live.current_cost().to_bits(), quote.to_bits());
    writeln!(
        out,
        "migration complete: deployed cost {:.2} == target quote, bitwise",
        live.current_cost()
    )
}
