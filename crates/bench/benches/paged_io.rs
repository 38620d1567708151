//! **Paged I/O validation** — the cost model's per-query page
//! predictions against *physical* page reads measured on the durable
//! paged stack (`oic-pager` + `PagedBTree`), for the Example 5.1 /
//! fig. 6 walkthrough path under whole-path MX, MIX and NIX.
//!
//! For each organization the per-position query answers are mirrored
//! into a paged B-tree (chunked posting lists, so big answers span
//! pages), then every ending value is queried at every position twice:
//! once cold (2-frame cache — every descent goes to the file) and once
//! warm (resident cache). Every lookup is `PagedMirror::lookup`, i.e. one
//! `PagedBTree::visit_range` over borrowed page images. Rows land in
//! `BENCH_paged_io.json` next to the model's `CR_X` predictions and the
//! counting executor's distinct logical touches, with `host_cpus` and the
//! parent commit's page counts as the `baseline` object; a row whose cold
//! physical reads exceed 1.05× its baseline fails the bench (and CI's
//! snapshot check): a faster node format must not read more pages.

use oic_bench::{write_repo_snapshot, Json};
use oic_core::IndexConfiguration;
use oic_cost::paged_io::query_io_rows;
use oic_cost::{CostModel, CostParams, Org};
use oic_pager::{MemFile, Pager};
use oic_schema::fixtures;
use oic_sim::{generate, scale_chars, ConfiguredDb, GenSpec, PagedMirror};
use oic_storage::paged::PageStore;

const PAGE_SIZE: usize = 1024;
const COLD_CACHE: usize = 2;
const WARM_CACHE: usize = 1 << 20;

/// The parent commit's snapshot (decoded-node `OICBT1` tree), identical
/// for MX, MIX and NIX because the mirror stores answers, not the
/// organization: mirror pages, tree height, cold physical reads per
/// query at positions 1–4.
const BASELINE_COMMIT: &str = "0ffa186";
const BASELINE_MIRROR_PAGES: u64 = 452;
const BASELINE_TREE_HEIGHT: u32 = 3;
const BASELINE_COLD_READS: [f64; 4] = [23.25, 4.25, 3.10, 3.00];
const MAX_COLD_OVER_BASELINE: f64 = 1.05;

struct PositionResult {
    pos: usize,
    predicted: f64,
    sim_distinct: f64,
    cold_physical: f64,
    warm_physical: f64,
    warm_hit_rate: f64,
    samples: usize,
}

fn measure_org(org: Org) -> (Vec<PositionResult>, u64, u32) {
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = oic_cost::characteristics::example51(&schema);
    let small = scale_chars(&chars, 0.02);
    let params = CostParams::calibrated(PAGE_SIZE as f64);
    let model = CostModel::new(&schema, &path, &small, params);
    let predictions = query_io_rows(&model, org, path.len());

    let spec = GenSpec {
        page_size: PAGE_SIZE,
        seed: 99,
    };
    let db = generate(&schema, &path, &small, &spec);
    let config = IndexConfiguration::whole_path(org, path.len());
    let exec = ConfiguredDb::new(&schema, &path, db, &config);
    let values = exec.db.ending_values.clone();

    // Cold run: a 2-frame cache makes every descent physical.
    let cold_store =
        Pager::open(MemFile::new(), MemFile::new(), PAGE_SIZE, COLD_CACHE).expect("open");
    let mut cold = PagedMirror::build(&exec, cold_store).expect("build cold");
    // Warm run: same mirror content, cache big enough to go fully
    // resident after the first pass over the values.
    let warm_store =
        Pager::open(MemFile::new(), MemFile::new(), PAGE_SIZE, WARM_CACHE).expect("open");
    let mut warm = PagedMirror::build(&exec, warm_store).expect("build warm");

    let footprint = cold.tree_mut().store().live_pages();
    let height = cold.tree_mut().height();

    let mut rows = Vec::new();
    for pred in predictions {
        let pos = pred.pos;
        let target = exec.class_at(pos);
        let mut sim_total = 0u64;
        let mut n = 0usize;
        for v in &values {
            let (_, stats) = exec.query(v, target, false);
            sim_total += stats.distinct_total();
            n += 1;
        }

        cold.reset_io_stats();
        for v in &values {
            cold.lookup(pos, v).expect("cold lookup");
        }
        let cold_stats = cold.io_stats();

        // Prime, then measure the second pass.
        for v in &values {
            warm.lookup(pos, v).expect("warm prime");
        }
        warm.reset_io_stats();
        for v in &values {
            warm.lookup(pos, v).expect("warm lookup");
        }
        let warm_stats = warm.io_stats();

        rows.push(PositionResult {
            pos,
            predicted: pred.predicted,
            sim_distinct: sim_total as f64 / n as f64,
            cold_physical: cold_stats.physical_reads as f64 / n as f64,
            warm_physical: warm_stats.physical_reads as f64 / n as f64,
            warm_hit_rate: warm_stats.hit_rate(),
            samples: n,
        });
    }
    (rows, footprint, height)
}

fn main() {
    println!(
        "predicted query page I/O vs physical reads on the paged stack \
         (2% Figure 7 database, whole-path indexes, page {PAGE_SIZE})\n"
    );
    let mut org_objs = Vec::new();
    for org in Org::ALL {
        let (rows, footprint, height) = measure_org(org);
        println!("{org}: mirror footprint {footprint} pages, tree height {height}");
        println!(
            "  {:<4} {:>10} {:>12} {:>14} {:>14} {:>9}",
            "pos", "predicted", "sim distinct", "cold physical", "warm physical", "warm hit"
        );
        let mut row_objs = Vec::new();
        for r in &rows {
            println!(
                "  {:<4} {:>10.2} {:>12.2} {:>14.2} {:>14.2} {:>8.0}%",
                r.pos,
                r.predicted,
                r.sim_distinct,
                r.cold_physical,
                r.warm_physical,
                r.warm_hit_rate * 100.0
            );
            // Sanity contracts the snapshot relies on: the warm cache
            // serves (almost) everything, and cold physical reads are
            // real work of at least a descent per query.
            assert!(
                r.warm_physical <= r.cold_physical,
                "warm must not read more than cold"
            );
            assert!(
                r.cold_physical >= 1.0,
                "a cold query reads at least one page"
            );
            let baseline = BASELINE_COLD_READS[r.pos - 1];
            assert!(
                r.cold_physical <= MAX_COLD_OVER_BASELINE * baseline,
                "{org} position {}: {:.2} cold reads against {baseline:.2} at {BASELINE_COMMIT}",
                r.pos,
                r.cold_physical
            );
            row_objs.push(Json::obj([
                ("position", Json::from(r.pos)),
                ("predicted_pages", Json::fixed(r.predicted, 2)),
                ("sim_distinct_pages", Json::fixed(r.sim_distinct, 2)),
                ("cold_physical_reads", Json::fixed(r.cold_physical, 2)),
                ("warm_physical_reads", Json::fixed(r.warm_physical, 2)),
                ("warm_hit_rate", Json::fixed(r.warm_hit_rate, 4)),
                ("samples", Json::from(r.samples)),
            ]));
        }
        println!();
        org_objs.push(Json::obj([
            ("org", Json::from(org.to_string().as_str())),
            ("mirror_pages", Json::from(footprint)),
            ("tree_height", Json::from(height)),
            ("queries", Json::Arr(row_objs)),
        ]));
    }
    let snapshot = Json::obj([
        ("bench", Json::from("paged_io")),
        (
            "description",
            Json::from(
                "Cost-model query predictions vs physical page reads on the \
                 durable paged stack (oic-pager + PagedBTree), Example 5.1 \
                 walkthrough path, whole-path indexes",
            ),
        ),
        ("page_size", Json::from(PAGE_SIZE)),
        ("cold_cache_pages", Json::from(COLD_CACHE)),
        ("warm_cache_pages", Json::from(WARM_CACHE)),
        (
            "host_cpus",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        (
            "baseline",
            Json::obj([
                ("commit", Json::from(BASELINE_COMMIT)),
                ("host_cpus", Json::from(2usize)),
                ("mirror_pages", Json::from(BASELINE_MIRROR_PAGES)),
                ("tree_height", Json::from(BASELINE_TREE_HEIGHT)),
                (
                    "cold_physical_reads",
                    Json::Arr(
                        BASELINE_COLD_READS
                            .iter()
                            .map(|&r| Json::fixed(r, 2))
                            .collect(),
                    ),
                ),
                (
                    "max_cold_over_baseline",
                    Json::fixed(MAX_COLD_OVER_BASELINE, 2),
                ),
            ]),
        ),
        ("organizations", Json::Arr(org_objs)),
    ]);
    let path = write_repo_snapshot("BENCH_paged_io.json", &snapshot).expect("write snapshot");
    println!("snapshot written to {}", path.display());
}
