//! Input generation — the benchmark's set-up, through the library's own
//! generators (`synth_forest`, `synth_workload`, `generate`, `sample_ops`);
//! the layers under test only ever see the generated inputs.
//!
//! Inputs come in two kinds, as in any database benchmark. The **dataset**
//! — class trees, class statistics, path sets, the generated objects — is
//! the benchmark's own and fixed ([`DATASET_SEED`]): advisor and executor
//! times depend on its shape far more than on anything else (a redrawn
//! 250-path tree moves a cold `optimize()` from 15 to 38 ms), so redrawing
//! it per seed would make two seeds two different benchmarks. The
//! **traffic** — per-path query rates, per-class update rates, mutation
//! batches, the churn stream, the sampled operations, the lookup order —
//! is drawn from `--seed`, and every loop iteration of a run draws a fresh
//! **instance** of it, so the run's medians describe the seed's traffic
//! distribution rather than one draw.

use crate::sizes::{AdvisorInput, Sizes, PAGE_SIZE};
use crate::trace::Tracer;
use oic_cost::characteristics::example51;
use oic_cost::{ClassStats, PathCharacteristics};
use oic_schema::{fixtures, ClassId, Path, Schema};
use oic_sim::workload_gen::random_query_rates;
use oic_sim::{
    generate, scale_chars, synth_forest, synth_workload, ForestSpec, GenSpec, GeneratedDb,
    SynthWorkload, WorkloadSpec,
};
use oic_workload::ops::{sample_ops, OpKind};
use oic_workload::{example51_load, LoadDistribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Seed of the fixed dataset (the paper's year).
pub const DATASET_SEED: u64 = 1994;
/// Traffic instances every run completes, however slow the host: the ones
/// the exact metrics are reduced over.
pub const EXACT_INSTANCES: usize = 4;

/// Independent sub-seed `stream` of the run seed (SplitMix64 finalizer).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the fixed dataset `input` describes and draws its traffic —
/// per-class `(insert, delete)` rates and per-path query rates, from the
/// generator's own distributions — from `traffic_seed`.
pub fn synth(input: AdvisorInput, traffic_seed: u64) -> SynthWorkload {
    let seed = DATASET_SEED;
    let mut w = match input {
        AdvisorInput::Forest {
            roots,
            paths,
            depth,
            fanout,
        } => synth_forest(&ForestSpec {
            roots,
            paths,
            depth,
            fanout,
            seed,
        }),
        AdvisorInput::Tree {
            paths,
            depth,
            fanout,
        } => synth_workload(&WorkloadSpec {
            paths,
            depth,
            fanout,
            seed,
        }),
    };
    let mut rng = StdRng::seed_from_u64(traffic_seed);
    let classes = w.schema.class_count();
    for rates in &mut w.maint {
        *rates = draw_rates(&mut rng);
    }
    for alphas in &mut w.queries {
        *alphas = random_query_rates(classes, &mut rng);
    }
    w
}

/// Per-class `(insert, delete)` rates, as `DriftSim` draws them.
pub fn draw_rates(rng: &mut StdRng) -> (f64, f64) {
    (
        rng.gen_range(0..200) as f64 / 1000.0,
        rng.gen_range(0..200) as f64 / 1000.0,
    )
}

/// `old` with its cardinalities rescaled by a factor drawn from 0.5–2, as
/// `DriftSim` drifts class statistics.
pub fn drift_stats(old: ClassStats, rng: &mut StdRng) -> ClassStats {
    let scale = rng.gen_range(500..2000) as f64 / 1000.0;
    ClassStats::new(
        (old.n * scale).max(1.0).round(),
        (old.d * scale).max(1.0).round(),
        old.nin,
    )
}

/// One mutation batch of the readvise phase.
#[derive(Debug, Clone)]
pub struct Batch {
    /// `(index of the path in insertion order, new dense query rates)`.
    pub queries: Vec<(usize, Vec<f64>)>,
    /// New statistics per class.
    pub stats: Vec<(ClassId, ClassStats)>,
    /// New `(insert, delete)` rates per class.
    pub rates: Vec<(ClassId, (f64, f64))>,
}

fn batches(w: &SynthWorkload, sizes: &Sizes, seed: u64) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let classes = w.schema.class_count();
    (0..sizes.readvise_batches)
        .map(|_| Batch {
            queries: (0..sizes.batch_queries)
                .map(|_| {
                    let path = rng.gen_range(0..w.paths.len());
                    (path, random_query_rates(classes, &mut rng))
                })
                .collect(),
            stats: (0..sizes.batch_classes)
                .map(|_| {
                    let c = rng.gen_range(0..classes);
                    (ClassId(c as u32), drift_stats(w.stats[c], &mut rng))
                })
                .collect(),
            rates: (0..sizes.batch_classes)
                .map(|_| {
                    let c = rng.gen_range(0..classes);
                    (ClassId(c as u32), draw_rates(&mut rng))
                })
                .collect(),
        })
        .collect()
}

/// The paper's running example (Figure 1 schema, path `Pexa`, Figure 7
/// statistics and load), with the statistics scaled for execution.
pub struct Paper {
    /// Figure 1.
    pub schema: Schema,
    /// `Per.owns.man.divs.name`.
    pub path: Path,
    /// Figure 7 statistics, unscaled — what the advisor is given.
    pub chars: PathCharacteristics,
    /// Figure 7 statistics scaled by `exec_scale` — what is generated.
    pub scaled: PathCharacteristics,
    /// Figure 7 load.
    pub ld: LoadDistribution,
}

impl Paper {
    /// Binds the fixture at the given database scale.
    pub fn new(scale: f64) -> Self {
        let (schema, _) = fixtures::paper_schema();
        let (path, chars) = example51(&schema);
        let scaled = scale_chars(&chars, scale);
        let ld = example51_load(&schema, &path);
        Paper {
            schema,
            path,
            chars,
            scaled,
            ld,
        }
    }
}

/// One iteration's inputs.
pub struct Inputs {
    /// Advise / readvise / deploy-plan workloads — one per traffic draw —
    /// each with its mutation batches.
    pub advise: Vec<(SynthWorkload, Vec<Batch>)>,
    /// Budgeted-solve workloads, one per traffic draw.
    pub budget: Vec<SynthWorkload>,
    /// Drift-loop workload.
    pub drift: SynthWorkload,
    /// The generated database the recommended configuration is built on.
    pub db: GeneratedDb,
    /// The same database again, for the NoIndex twin (not timed as set-up:
    /// it exists only to verify outputs).
    pub twin_db: GeneratedDb,
    /// The sampled operation stream.
    pub ops: Vec<OpKind>,
    /// Seed of the drift loop's churn stream.
    pub churn_seed: u64,
    /// Time spent generating (twin excluded) — one `setup_s` sample.
    pub setup: Duration,
}

impl Inputs {
    /// Generates every input of one iteration: the fixed dataset, and
    /// traffic draw `instance` of `seed`.
    pub fn generate(
        tracer: &Tracer,
        paper: &Paper,
        sizes: &Sizes,
        seed: u64,
        instance: usize,
    ) -> Inputs {
        let seed = sub_seed(seed, 1_000 + instance as u64);
        let spec = GenSpec {
            page_size: PAGE_SIZE,
            seed: DATASET_SEED,
        };
        let ((advise, budget, drift, db, ops), setup) = tracer.measured("sim.gen", || {
            let advise = (0..sizes.advise_draws as u64)
                .map(|draw| {
                    let w = synth(sizes.advise, sub_seed(seed, 100 + draw));
                    let batches = batches(&w, sizes, sub_seed(seed, 200 + draw));
                    (w, batches)
                })
                .collect();
            (
                advise,
                (0..sizes.budget_draws as u64)
                    .map(|draw| synth(sizes.budget, sub_seed(seed, 300 + draw)))
                    .collect(),
                synth(sizes.drift, sub_seed(seed, 4)),
                generate(&paper.schema, &paper.path, &paper.scaled, &spec),
                sample_ops(&paper.ld, sizes.exec_ops, sub_seed(seed, 6)),
            )
        });
        let (twin_db, _) = tracer.span("check.twin_gen", || {
            generate(&paper.schema, &paper.path, &paper.scaled, &spec)
        });
        Inputs {
            advise,
            budget,
            drift,
            db,
            twin_db,
            ops,
            churn_seed: sub_seed(seed, 7),
            setup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::Workload;

    type Fingerprint = (
        Vec<String>,
        Vec<f64>,
        Vec<f64>,
        Vec<Vec<oic_storage::Oid>>,
        Vec<OpKind>,
    );

    fn fingerprint(i: &Inputs) -> Fingerprint {
        (
            i.advise[0]
                .0
                .paths
                .iter()
                .map(|p| p.display().to_string())
                .collect(),
            i.advise[0].0.queries[0].clone(),
            i.advise[0].1[0].queries[0].1.clone(),
            i.db.pools.clone(),
            i.ops.clone(),
        )
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let sizes = Workload::ColdForest.sizes(true);
        let paper = Paper::new(sizes.exec_scale);
        let t = Tracer::new();
        let a = Inputs::generate(&t, &paper, &sizes, 11, 0);
        let b = Inputs::generate(&t, &paper, &sizes, 11, 0);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.churn_seed, b.churn_seed);
        assert!(a.setup > Duration::ZERO);
        // Another seed, or another instance of the same seed: the same
        // dataset under other traffic.
        for c in [
            Inputs::generate(&t, &paper, &sizes, 12, 0),
            Inputs::generate(&t, &paper, &sizes, 11, 1),
        ] {
            assert_eq!(
                fingerprint(&a).0,
                fingerprint(&c).0,
                "the path set is fixed"
            );
            assert_eq!(
                fingerprint(&a).3,
                fingerprint(&c).3,
                "the database is fixed"
            );
            assert_ne!(
                fingerprint(&a).1,
                fingerprint(&c).1,
                "query rates are drawn"
            );
            assert_ne!(fingerprint(&a).2, fingerprint(&c).2, "batches are drawn");
            assert_ne!(fingerprint(&a).4, fingerprint(&c).4, "operations are drawn");
            assert_ne!(a.churn_seed, c.churn_seed);
        }
    }

    #[test]
    fn sub_seeds_are_distinct_streams() {
        let s: Vec<u64> = (0..8).map(|k| sub_seed(1994, k)).collect();
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s.len());
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
    }
}
