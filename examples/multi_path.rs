//! Section 6 future work, implemented: index configurations for **several
//! paths at once**. `Pe = Per.owns.man.name` and `Pexa =
//! Per.owns.man.divs.name` overlap on the `Per.owns.man` prefix — both go
//! through one shared candidate space, so a physical index that serves
//! both is priced once *during* selection: its maintenance is paid once.
//!
//! ```sh
//! cargo run --example multi_path
//! ```

use oo_index_config::prelude::*;
use oo_index_config::schema::fixtures;

fn main() {
    let (schema, _) = fixtures::paper_schema();
    let pexa = fixtures::paper_path_pexa(&schema);
    let pe = fixtures::paper_path_pe(&schema);

    let mut advisor = WorkloadAdvisor::new(&schema, CostParams::paper())
        .with_stats(|c| match schema.class_name(c) {
            "Person" => ClassStats::new(200_000.0, 20_000.0, 1.0),
            "Vehicle" => ClassStats::new(10_000.0, 5_000.0, 3.0),
            "Bus" | "Truck" => ClassStats::new(5_000.0, 2_500.0, 2.0),
            "Company" => ClassStats::new(1_000.0, 250.0, 4.0),
            "Division" => ClassStats::new(1_000.0, 1_000.0, 1.0),
            _ => ClassStats::new(1.0, 1.0, 1.0),
        })
        .with_maintenance(|_| (0.1, 0.08));
    advisor.add_path(pexa.clone(), |_| 0.2);
    advisor.add_path(pe.clone(), |_| 0.25);
    let plan = advisor.optimize();

    // The report lists each path's configuration and every shared index
    // with the maintenance it saves.
    println!("multi-path physical design for {pexa} and {pe}\n");
    print!("{}", plan.render(&schema));
    println!("\nindependent total: {:.2}", plan.independent_cost);
    println!("consolidated total: {:.2}", plan.total_cost);
}
