//! Quickstart: define a schema, a path and a workload; ask the advisor for
//! the optimal index configuration.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use oo_index_config::prelude::*;

fn main() {
    // --- 1. Schema: a small order-management aggregation hierarchy. -----
    //     Order → Customer → Region (with Customer specialized into
    //     RetailCustomer / CorporateCustomer).
    let mut b = SchemaBuilder::new();
    let region = b.declare("Region").unwrap();
    b.atomic(region, "name", AtomicType::Str).unwrap();
    b.atomic(region, "tax_rate", AtomicType::Float).unwrap();

    let customer = b.declare("Customer").unwrap();
    b.atomic(customer, "name", AtomicType::Str).unwrap();
    b.reference(customer, "region", region, Cardinality::Single)
        .unwrap();
    let retail = b.subclass("RetailCustomer", customer, vec![]).unwrap();
    b.atomic(retail, "loyalty", AtomicType::Int).unwrap();
    let corporate = b.subclass("CorporateCustomer", customer, vec![]).unwrap();
    b.atomic(corporate, "vat_id", AtomicType::Str).unwrap();

    let order = b.declare("Order").unwrap();
    b.atomic(order, "total", AtomicType::Int).unwrap();
    b.reference(order, "customer", customer, Cardinality::Single)
        .unwrap();
    let schema = b.build().unwrap();

    // --- 2. The query path: orders by region name. ----------------------
    //     "Retrieve the orders of customers in region X" ⇒
    //     Order.customer.region.name (a nested predicate, Definition 2.1).
    let path = Path::parse(&schema, "Order", &["customer", "region", "name"]).unwrap();
    println!("path: {path}  (len {})", path.len());

    // --- 3. Database characteristics (n, d, nin per class). -------------
    let chars = PathCharacteristics::build(&schema, &path, |c| {
        match schema.class_name(c) {
            "Order" => ClassStats::new(500_000.0, 40_000.0, 1.0),
            "Customer" => ClassStats::new(30_000.0, 200.0, 1.0),
            "RetailCustomer" => ClassStats::new(8_000.0, 150.0, 1.0),
            "CorporateCustomer" => ClassStats::new(2_000.0, 100.0, 1.0),
            _ => ClassStats::new(200.0, 200.0, 1.0), // Region
        }
    });

    // --- 4. Workload: order-entry heavy, with regional reporting. -------
    let ld = LoadDistribution::build(&schema, &path, |c| match schema.class_name(c) {
        "Order" => Triplet::new(0.5, 2.0, 1.5), // many inserts/deletes
        "Customer" => Triplet::new(0.2, 0.02, 0.01),
        "RetailCustomer" => Triplet::new(0.05, 0.01, 0.01),
        "CorporateCustomer" => Triplet::new(0.05, 0.005, 0.005),
        _ => Triplet::new(0.1, 0.0, 0.0), // Region: static
    });

    // --- 5. Recommend. ---------------------------------------------------
    let rec = Advisor::new(&schema, &path, &chars, &ld)
        .with_params(CostParams::default())
        .recommend();
    println!("{rec}");

    // The same machinery, one level down: inspect any single cell.
    let model = CostModel::new(&schema, &path, &chars, CostParams::default());
    let full = SubpathId {
        start: 1,
        end: path.len(),
    };
    for org in Org::ALL {
        println!(
            "whole-path {org}: query@Order = {:.2} pages, delete@Order = {:.2} pages",
            model.retrieval(org, full, 1, 0),
            model.maint_delete(org, full, 1, 0),
        );
    }
}
