//! Complexity contracts of the warm epoch, in counters rather than wall
//! clock: after one mutation batch shaped like the whole-loop benchmark's
//! readvise batch (new query rates for one path in 30 — the benchmark's
//! 100 of 3 000 —, drifted statistics for eight classes, new update rates
//! for eight), a warm `reoptimize()` runs a fraction of the cold solve's
//! DPs — the dirty paths' own, plus those of the clean paths whose sharing
//! context left the trail of their last descent — and a no-op
//! `reoptimize()` runs none. Each holds at lanes {1, 2, 8}, and the warm
//! plan is the cold rebuild's, bit for bit.
//!
//! When a sweep memo kept only the last context each path saw, the warm
//! epoch re-ran 59 % of the cold DPs on the 3k-path forest and 62 % on the
//! 250-path tree; with trails it runs 17 % and 15 %.

use oic_core::WorkloadAdvisor;
use oic_cost::{ClassStats, CostParams};
use oic_schema::ClassId;
use oic_sim::workload_gen::random_query_rates;
use oic_sim::{synth_forest, synth_workload, ForestSpec, SynthWorkload, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LANES: [usize; 3] = [1, 2, 8];

/// The ceiling on warm DPs as a share of the cold solve's.
const WARM_SHARE: f64 = 0.30;

/// One readvise batch of the benchmark's shape on `w`, drawn from `seed`.
fn mutate(adv: &mut WorkloadAdvisor<'_>, w: &SynthWorkload, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let classes = adv.class_count();
    let ids: Vec<_> = adv.path_ids().collect();
    for _ in 0..ids.len() / 30 {
        let id = ids[rng.gen_range(0..ids.len())];
        let alphas = random_query_rates(classes, &mut rng);
        adv.update_query_rates(id, |c| alphas[c.index()]);
    }
    for _ in 0..8 {
        let c = rng.gen_range(0..classes);
        let old = w.stats[c];
        let scale = rng.gen_range(500..2000) as f64 / 1000.0;
        let stats = ClassStats::new(
            (old.n * scale).max(1.0).round(),
            (old.d * scale).max(1.0).round(),
            old.nin,
        );
        adv.update_stats(ClassId(c as u32), stats);
    }
    for _ in 0..8 {
        let c = rng.gen_range(0..classes);
        let rates = (
            rng.gen_range(0..200) as f64 / 1000.0,
            rng.gen_range(0..200) as f64 / 1000.0,
        );
        adv.update_rates(ClassId(c as u32), rates);
    }
}

/// Cold solve, one batch, warm solve and a no-op solve on `w` at every
/// lane count: the warm epoch stays under [`WARM_SHARE`] of the cold DPs,
/// the no-op epoch runs none, and the warm plan equals the cold rebuild's.
fn check(name: &str, w: &SynthWorkload) {
    for lanes in LANES {
        let mut adv = w.advisor(CostParams::default()).with_threads(lanes);
        let cold = adv.optimize();
        mutate(&mut adv, w, 0x5eed);
        let warm = adv.reoptimize();
        let share = warm.dp_runs as f64 / cold.dp_runs as f64;
        assert!(
            share <= WARM_SHARE,
            "{name} at {lanes} lanes: the warm epoch ran {} of {} cold DPs ({:.0} %), \
             re-pricing {} of {} paths",
            warm.dp_runs,
            cold.dp_runs,
            100.0 * share,
            warm.repriced_paths,
            w.paths.len()
        );
        assert!(warm.repriced_paths > 0, "{name}: the batch dirtied paths");
        warm.assert_same_plan(&adv.rebuild().optimize(), name);
        let noop = adv.reoptimize();
        assert_eq!(noop.dp_runs, 0, "{name} at {lanes} lanes: a no-op epoch");
        noop.assert_same_plan(&warm, name);
    }
}

#[test]
fn a_warm_epoch_on_the_3k_forest_runs_a_fraction_of_the_cold_dps() {
    let w = synth_forest(&ForestSpec {
        roots: 64,
        paths: 3_000,
        depth: 8,
        fanout: 1,
        seed: 1994,
    });
    check("forest3k", &w);
}

#[test]
fn a_warm_epoch_on_the_250_path_tree_runs_a_fraction_of_the_cold_dps() {
    let w = synth_workload(&WorkloadSpec {
        paths: 250,
        depth: 5,
        fanout: 3,
        seed: 1994,
    });
    check("tree250", &w);
}

/// One tree's root class drifts in a forest of eight: a warm `reoptimize()`
/// re-prices at most the paths whose scope holds that root, one tree's of
/// 400, and lands on the cold rebuild's plan.
#[test]
fn a_root_rate_drift_reprices_only_its_trees_paths() {
    let w = synth_forest(&ForestSpec {
        roots: 8,
        paths: 400,
        depth: 6,
        fanout: 1,
        seed: 1994,
    });
    for (k, &root) in w.roots.iter().enumerate() {
        let tree = w
            .paths
            .iter()
            .filter(|p| p.scope(&w.schema).contains(&root))
            .count();
        let mut adv = w.advisor(CostParams::default());
        adv.optimize();
        adv.update_rates(root, (0.3, 0.2));
        let warm = adv.reoptimize();
        assert!(
            warm.repriced_paths > 0 && warm.repriced_paths <= tree,
            "tree {k}: re-priced {} paths, the tree has {tree}",
            warm.repriced_paths
        );
        warm.assert_same_plan(&adv.rebuild().optimize(), "forest400");
    }
}
