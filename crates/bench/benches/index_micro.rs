//! Criterion micro-benchmarks: B+-tree primitives, index-organization
//! lookups/maintenance on a generated database, and optimizer throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use oic_core::{opt_ind_con, CostMatrix};
use oic_cost::{CostModel, CostParams};
use oic_index::{MultiIndex, NestedInheritedIndex, PathIndex};
use oic_schema::SubpathId;
use oic_sim::{generate, scale_chars, GenSpec};
use oic_storage::Value;

fn bench_btree(c: &mut Criterion) {
    use oic_btree::{BTreeIndex, Layout};
    use oic_storage::SimStore;
    let mut g = c.benchmark_group("btree");
    g.bench_function("insert_10k", |b| {
        b.iter_batched(
            || SimStore::new(4096),
            |mut store| {
                let mut t = BTreeIndex::new(&mut store, Layout::for_page_size(4096));
                for i in 0..10_000u64 {
                    t.insert_entry(&mut store, &i.to_be_bytes(), vec![0u8; 8]);
                }
                t
            },
            BatchSize::SmallInput,
        )
    });
    let mut store = SimStore::new(4096);
    let mut tree = BTreeIndex::new(&mut store, Layout::for_page_size(4096));
    for i in 0..100_000u64 {
        tree.insert_entry(&mut store, &i.to_be_bytes(), vec![0u8; 8]);
    }
    g.bench_function("lookup_100k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 100_000;
            let mut bytes = 0usize;
            tree.visit(&store, &i.to_be_bytes(), |e| bytes += e.len());
            bytes
        })
    });
    g.finish();
}

fn bench_index_orgs(c: &mut Criterion) {
    let (schema, classes) = oic_schema::fixtures::paper_schema();
    let (path, chars) = oic_cost::characteristics::example51(&schema);
    let small = scale_chars(&chars, 0.02);
    let spec = GenSpec {
        page_size: 1024,
        seed: 7,
    };
    let mut db = generate(&schema, &path, &small, &spec);
    let full = SubpathId { start: 1, end: 4 };
    let mx = MultiIndex::build(&schema, &path, full, &mut db.store, &db.heap);
    let nix = NestedInheritedIndex::build(&schema, &path, full, &mut db.store, &db.heap);
    let values: Vec<Value> = db.ending_values.clone();

    let mut g = c.benchmark_group("index_query");
    g.bench_function("mx_person_query", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % values.len();
            mx.lookup(
                &db.store,
                std::slice::from_ref(&values[i]),
                classes.person,
                false,
            )
        })
    });
    g.bench_function("nix_person_query", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % values.len();
            nix.lookup(
                &db.store,
                std::slice::from_ref(&values[i]),
                classes.person,
                false,
            )
        })
    });
    g.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    let (schema, _) = oic_schema::fixtures::paper_schema();
    let (path, chars) = oic_cost::characteristics::example51(&schema);
    let ld = oic_workload::example51_load(&schema, &path);
    let model = CostModel::new(&schema, &path, &chars, CostParams::paper());
    let mut g = c.benchmark_group("optimizer");
    g.bench_function("cost_matrix_build_n4", |b| {
        b.iter(|| CostMatrix::build(&model, &ld))
    });
    let matrix = CostMatrix::build(&model, &ld);
    g.bench_function("opt_ind_con_n4", |b| b.iter(|| opt_ind_con(&matrix)));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_btree, bench_index_orgs, bench_optimizer
}
criterion_main!(benches);
