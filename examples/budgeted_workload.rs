//! Space-budgeted selection, end to end: the single-path `(cost, size)`
//! Pareto frontier of the paper's Example 5.1, then a small workload
//! optimized under shrinking page budgets with
//! `WorkloadAdvisor::optimize_with_budget` (Lagrangian bisection, the
//! greedy eviction descent, frontier repair; a shared physical index's
//! footprint — like its maintenance — is counted once). The budgets run
//! on one advisor, so the eviction descent is walked once and every
//! later budget lands on, or extends, the recorded trail.
//!
//! ```sh
//! cargo run --release --example budgeted_workload
//! ```

use oo_index_config::prelude::*;
use oo_index_config::schema::fixtures;

fn main() {
    // ---- single path: the whole cost-vs-footprint frontier at once ------
    let (schema, _) = fixtures::paper_schema();
    let (pexa, chars) = oo_index_config::cost::characteristics::example51(&schema);
    let ld = oo_index_config::workload::example51_load(&schema, &pexa);
    let model = CostModel::new(&schema, &pexa, &chars, CostParams::paper());
    let matrix = CostMatrix::build(&model, &ld);
    let frontier = frontier_dp(&matrix);
    println!(
        "Pexa = {pexa}: cost–size Pareto frontier ({} points)\n",
        frontier.points.len()
    );
    for p in &frontier.points {
        println!(
            "  cost {:>10.2}  pages {:>8.0}  {}",
            p.cost,
            p.size,
            p.config.render(&schema, &pexa)
        );
    }
    let unbounded = frontier.min_cost();
    let half = frontier
        .within_budget(unbounded.size / 2.0)
        .expect("a leaner configuration exists");
    println!(
        "\nhalving the footprint ({:.0} → {:.0} pages) costs {:.2}x\n",
        unbounded.size,
        half.size,
        half.cost / unbounded.cost
    );

    // ---- workload scale: shared budget across paths ---------------------
    let pe = fixtures::paper_path_pe(&schema);
    let owns = Path::parse(&schema, "Person", &["owns"]).unwrap();
    let mut adv = WorkloadAdvisor::new(&schema, CostParams::paper())
        .with_stats(|c| match schema.class_name(c) {
            "Person" => ClassStats::new(200_000.0, 20_000.0, 1.0),
            "Vehicle" => ClassStats::new(10_000.0, 5_000.0, 3.0),
            "Bus" | "Truck" => ClassStats::new(5_000.0, 2_500.0, 2.0),
            "Company" => ClassStats::new(1_000.0, 250.0, 4.0),
            "Division" => ClassStats::new(1_000.0, 1_000.0, 1.0),
            _ => ClassStats::new(1.0, 1.0, 1.0),
        })
        .with_maintenance(|_| (0.15, 0.12));
    adv.add_path(pexa.clone(), |_| 0.2);
    adv.add_path(pe.clone(), |_| 0.25);
    adv.add_path(owns.clone(), |_| 0.35);
    let unconstrained = adv.optimize();
    println!(
        "workload: {} paths, unconstrained cost {:.2}, footprint {:.0} pages \
         ({} physical indexes)\n",
        unconstrained.paths.len(),
        unconstrained.total_cost,
        unconstrained.size_pages,
        unconstrained.physical_indexes
    );
    for frac in [1.0f64, 0.75, 0.3] {
        let budget = unconstrained.size_pages * frac;
        let b = adv.optimize_with_budget(budget);
        assert!(b.plan.size_pages <= budget || !b.feasible);
        let verdict = if b.feasible {
            "within budget"
        } else {
            "infeasible — leanest plan shown"
        };
        println!(
            "budget {:>3.0}% = {:>7.0} pages: cost {:>9.2} ({:.2}x), \
             footprint {:>7.0} pages, λ {:.4}, {} evictions ({} trials run) — {}",
            frac * 100.0,
            budget,
            b.plan.total_cost,
            b.cost_ratio(),
            b.plan.size_pages,
            b.lambda,
            b.evictions,
            b.eviction_trials,
            verdict
        );
        for p in &b.plan.paths {
            println!("    {}", p.selection.render(&schema, &p.path));
        }
    }
    println!(
        "\nthe budget squeezes fat NIX spans into leaner MX/MIX pieces path by \
         path, cheapest-regret first — never by dropping coverage."
    );
}
