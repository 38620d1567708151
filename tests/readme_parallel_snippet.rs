//! Pins the README "Parallel optimization" snippet so the documented
//! claims stay true: `with_threads` is a wall-clock knob only — the
//! parallel plan is bit-identical to the sequential engine's — and the
//! advisor reports the executor it runs on.

use oo_index_config::prelude::*;

#[test]
fn readme_parallel_optimization_snippet() {
    let (schema, _) = oo_index_config::schema::fixtures::paper_schema();
    let path = Path::parse(&schema, "Person", &["owns", "man", "divs", "name"]).unwrap();
    let build = |threads: usize| {
        let mut advisor = WorkloadAdvisor::new(&schema, CostParams::paper())
            .with_stats(|_| ClassStats::new(10_000.0, 1_000.0, 1.0))
            .with_maintenance(|_| (0.1, 0.1))
            .with_threads(threads); // 1 = the sequential engine
        advisor.add_path(path.clone(), |_| 0.2);
        advisor
    };
    let sequential = build(1).optimize();
    let parallel = build(8).optimize(); // 8 lanes: caller + 7 pool workers
    assert_eq!(
        sequential.total_cost.to_bits(),
        parallel.total_cost.to_bits()
    );
    assert_eq!(
        sequential.paths[0].selection.pairs(),
        parallel.paths[0].selection.pairs()
    );

    // The engine selection surfaces honestly through the API.
    assert!(!build(1).executor().is_parallel());
    assert_eq!(build(8).executor().threads(), 8);
}
