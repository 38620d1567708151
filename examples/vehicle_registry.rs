//! The paper's running example, end to end on *real* data structures:
//! generate a vehicle-registry database (Figure 1 schema, Figure 7 shape),
//! build physical indexes, run the motivating query — “retrieve the persons
//! who own a bus manufactured by the company Fiat” — and compare measured
//! page accesses across the organizations and the naive evaluator.
//!
//! ```sh
//! cargo run --release --example vehicle_registry
//! ```

use oo_index_config::index::{
    Grouping, MultiIndex, NaivePathEvaluator, NestedInheritedIndex, PathIndex,
};
use oo_index_config::prelude::*;
use oo_index_config::schema::fixtures;
use oo_index_config::sim::{generate, scale_chars, GenSpec};

fn main() {
    let (schema, classes) = fixtures::paper_schema();
    let path = fixtures::paper_path_pe(&schema); // Per.owns.man.name
    let (_, chars_full) = oo_index_config::cost::characteristics::example51(&schema);
    // Laptop-size rendition of the Figure 7 database (2% scale), with the
    // Pe path's characteristics (Company.name is the ending attribute).
    let chars = {
        let scaled = scale_chars(&chars_full, 0.02);
        PathCharacteristics::build(&schema, &path, |c| {
            // Reuse scaled stats; Company indexed on `name` here.
            let pos = [
                ("Person", (1usize, 0usize)),
                ("Vehicle", (2, 0)),
                ("Bus", (2, 1)),
                ("Truck", (2, 2)),
                ("Company", (3, 0)),
            ];
            let name = schema.class_name(c);
            let (l, x) = pos.iter().find(|(n, _)| *n == name).unwrap().1;
            *scaled.stats(l, x)
        })
    };
    let spec = GenSpec {
        page_size: 1024,
        seed: 2024,
    };
    let mut db = generate(&schema, &path, &chars, &spec);
    println!(
        "database: {} persons, {} vehicles ({} buses), {} companies, {} heap pages",
        db.heap.count(classes.person),
        db.heap.count(classes.vehicle),
        db.heap.count(classes.bus),
        db.heap.count(classes.company),
        db.store.live_pages(),
    );

    let sub = SubpathId { start: 1, end: 3 };
    let query_value = db.ending_values[0].clone();
    println!("\nquery: persons owning a vehicle manufactured by the company named {query_value}\n");

    // Build each organization and measure the same query. MX and MIX are
    // one multi-index with two groupings: a B-tree per class (each a SIX)
    // or one per inheritance hierarchy (an IIX).
    let [mx, mix] = [Grouping::PerClass, Grouping::PerHierarchy]
        .map(|g| MultiIndex::build(&schema, &path, sub, g, &mut db.store, &db.heap));
    let nix = NestedInheritedIndex::build(&schema, &path, sub, &mut db.store, &db.heap);
    let naive = NaivePathEvaluator::new(&schema, &path, sub);

    let keys = vec![query_value.clone()];
    let run = |name: &str, f: &dyn Fn() -> Vec<Oid>| {
        db.store.begin_op();
        let oids = f();
        let stats = db.store.end_op();
        println!(
            "{name:<8} {:>4} results   {:>6} distinct page reads",
            oids.len(),
            stats.distinct_reads
        );
        oids
    };

    // Bus owners: find buses made by X, then their owners. Each index
    // answers it with a person-targeted lookup whose vehicle step is
    // restricted per organization automatically; here we demonstrate the
    // person query (whole-hierarchy traversal at position 2).
    let r_mx = run("MX", &|| mx.lookup(&db.store, &keys, classes.person, false));
    let r_mix = run("MIX", &|| {
        mix.lookup(&db.store, &keys, classes.person, false)
    });
    let r_nix = run("NIX", &|| {
        nix.lookup(&db.store, &keys, classes.person, false)
    });
    let r_naive = run("naive", &|| {
        naive.lookup(&db.store, &db.heap, &keys, classes.person, false)
    });
    assert_eq!(r_mx, r_mix);
    assert_eq!(r_mx, r_nix);
    assert_eq!(r_mx, r_naive);
    println!("\nall four evaluations agree on {} persons", r_mx.len());

    // Index sizes (pages), the space side of the trade-off.
    println!(
        "\nindex sizes: MX {} pages, MIX {} pages, NIX {} pages",
        mx.total_pages(),
        mix.total_pages(),
        nix.total_pages()
    );

    // Maintenance: delete a company and watch the boundary effect (CMD).
    let victim = db.heap.oids_of(classes.company)[0];
    let obj = db.heap.peek(victim).unwrap().clone();
    let mut nix = nix;
    db.store.begin_op();
    nix.on_delete(&mut db.store, &obj);
    let del_stats = db.store.end_op();
    println!(
        "\ndeleting company {victim}: NIX maintenance touched {} pages \
         (primary record removal + auxiliary pointer cleanup)",
        del_stats.total()
    );
}
