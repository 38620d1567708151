//! Golden decision digests: the bits of every decision the advisor makes on
//! fixed inputs, folded per stage and pinned to constants recorded from an
//! earlier commit. A perf change that claims "plans bit-identical" is held
//! to it here instead of by a one-off comparison.
//!
//! Each stage folds its numbers with the order-sensitive FNV-1a idiom of
//! `page_accounting_is_golden` (`crates/btree/tests/proptest_tree.rs`):
//! floats by their bits, selections as `(start, end, organization)`
//! triples, counters as integers. A plan is folded twice: its decisions
//! (selections, cost, footprint) into the stage's digest, and its two work
//! counters (DP runs, maintenance pricings) into a separate `…/work`
//! digest, so a change that only saves work moves the `…/work` stages and
//! nothing else. A stage whose digest moves fails with
//! the stage's name, and the failure message lists the actual digests of
//! the failing test's stages in the format of [`GOLDEN`], so a deliberate
//! move is re-recorded by pasting them (and explained in CHANGES.md).
//!
//! Pinned stages:
//! * Example 5.1's cost matrix, every cell's cost and size, under
//!   `CostParams::paper()` and `CostParams::default()`;
//! * cold and warm (one `DriftSim` step) unconstrained plans on
//!   `synth_workload` trees of 48 and 250 paths (depth 5, fanout 3) and on
//!   64-root `synth_forest`s of 1k and 3k paths (depth 8, fanout 1), at two
//!   seeds, under one, two and eight lanes (each must give the recorded
//!   digest);
//! * the 25 / 50 / 75 % budgeted plans on both trees, and each plan's
//!   search outcome (λ, sweeps, repairs, evictions, feasibility and the
//!   unconstrained cost and footprint); the stages of `GOLDEN_COSTS` also
//!   assert their plan cost;
//! * the online loop on the 48-path tree: twelve `DriftSim` traffic
//!   epochs through an `OnlineTuner`, each epoch's churn, tuner firings,
//!   estimator fingerprint and plan, and the `MigrationPlanner` retargeted
//!   to each new plan — its schedule and the wave it advances — under one,
//!   two and eight lanes;
//! * a deployment after one seeded readvise batch on the 250-path tree and
//!   the 3k-path forest, under one, two and eight lanes: the greedy and
//!   naive schedules under unbounded space and two tight envelopes (or
//!   the `SpaceExceeded` that refused them), every step in full with its
//!   index's key, and an `advance` walk to completion;
//! * executed page accounting on Example 5.1's database at 0.4 % scale:
//!   six `ConfiguredDb` configurations (whole-path MX, MIX and NIX, and
//!   three splits) under a seeded stream of queries, inserts and deletes,
//!   at two seeds — every operation's page counters and every answer.
//!
//! Budgeted plans on the forests are deliberately not pinned: their
//! λ-bisection breakpoints are near-ties, and a last-ulp change in a cell
//! price may move them (DESIGN.md §5.2).

use oo_index_config::core::{
    Choice, CostMatrix, IndexConfiguration, MigrationAction, MigrationEnvelope, MigrationError,
    MigrationPlanner, MigrationSchedule, MigrationStep, OnlineTuner, PathId, TuningPolicy,
    WorkloadAdvisor, WorkloadPlan,
};
use oo_index_config::cost::characteristics::example51;
use oo_index_config::cost::{ClassStats, CostModel, CostParams, Org};
use oo_index_config::schema::{fixtures, ClassId, Schema, SubpathId};
use oo_index_config::sim::workload_gen::random_query_rates;
use oo_index_config::sim::{
    generate, scale_chars, synth_forest, synth_workload, ConfiguredDb, DriftSim, DriftSpec,
    ForestSpec, GenSpec, SynthWorkload, WorkloadSpec,
};
use oo_index_config::storage::Oid;
use oo_index_config::workload::{example51_load, EstimatorConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 2] = [7, 11];
const LANES: [usize; 3] = [1, 2, 8];
const BUDGET_FRACTIONS: [f64; 3] = [0.25, 0.50, 0.75];
/// The online stage's migration envelope (the benchmark's drift loop).
const ENVELOPE: MigrationEnvelope = MigrationEnvelope {
    concurrent_builds: 2,
    space_pages: f64::INFINITY,
};

/// The per-epoch churn of the warm stage (the benchmark's drift spec).
fn churn(seed: u64) -> DriftSpec {
    DriftSpec {
        arrivals: 6,
        departures: 6,
        stat_drifts: 4,
        rate_drifts: 4,
        query_drifts: 10,
        seed,
    }
}

/// Order-sensitive FNV-1a fold.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) -> &mut Self {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01B3);
        self
    }

    fn float(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    fn choice(&mut self, choice: Choice) -> &mut Self {
        self.word(match choice {
            Choice::Index(org) => org.index() as u64,
            Choice::NoIndex => 3,
        })
    }

    /// Every path's selection, then the plan's cost and footprint: the
    /// decisions, which no change to how much work the advisor does may
    /// move.
    fn plan(&mut self, plan: &WorkloadPlan) -> &mut Self {
        for outcome in &plan.paths {
            self.word(outcome.selection.pairs().len() as u64);
            for &(sub, choice) in outcome.selection.pairs() {
                self.word(sub.start as u64)
                    .word(sub.end as u64)
                    .choice(choice);
            }
        }
        self.float(plan.total_cost).float(plan.size_pages)
    }

    /// The plan's two work counters: DP runs and cumulative maintenance
    /// pricings. A change that makes the advisor do less work moves these
    /// and only these.
    fn work(&mut self, plan: &WorkloadPlan) -> &mut Self {
        self.word(plan.dp_runs).word(plan.maintenance_pricings)
    }

    fn steps(&mut self, steps: &[MigrationStep]) -> &mut Self {
        self.word(steps.len() as u64);
        for s in steps {
            self.word(s.wave as u64)
                .word((s.action == MigrationAction::Build) as u64)
                .word(s.org.index() as u64)
                .word(s.embedded as u64)
                .float(s.pages);
        }
        self
    }

    /// Every step in full — wave, action, the index's step sequence, role
    /// and organization, and its pages — so two steps with equal pages
    /// cannot swap unseen.
    fn deploy_steps(&mut self, steps: &[MigrationStep]) -> &mut Self {
        self.word(steps.len() as u64);
        for s in steps {
            self.word(s.wave as u64)
                .word((s.action == MigrationAction::Build) as u64)
                .word(s.steps.len() as u64);
            for &(class, attr) in &s.steps {
                self.word(u64::from(class.0))
                    .word(u64::from(attr.class.0))
                    .word(u64::from(attr.slot));
            }
            self.word(s.embedded as u64)
                .word(s.org.index() as u64)
                .float(s.pages);
        }
        self
    }

    /// A schedule's steps in full, its switch points and every count and
    /// cost field — or the error that refused it.
    fn schedule(&mut self, s: &Result<MigrationSchedule, MigrationError>) -> &mut Self {
        let s = match s {
            Ok(s) => s,
            Err(MigrationError::SpaceExceeded { need, envelope }) => {
                return self.word(1).float(*need).float(*envelope)
            }
            Err(e) => panic!("unexpected refusal: {e}"),
        };
        self.word(0).deploy_steps(&s.steps);
        self.word(s.switches.len() as u64);
        for &(wave, id) in &s.switches {
            self.word(wave as u64).word(u64::from(id.raw()));
        }
        self.word(s.waves as u64)
            .word(s.builds as u64)
            .word(s.drops as u64)
            .word(s.cancelled)
            .float(s.build_pages)
            .float(s.duration)
            .float(s.initial_cost)
            .float(s.final_cost)
            .float(s.interim_cost)
            .float(s.interim_excess)
    }
}

/// Checks every `(stage, digest)` against [`GOLDEN`]; on any mismatch
/// panics naming the first moved stage and listing the actual digests.
fn check(actual: &[(String, u64)]) {
    let table: String = actual
        .iter()
        .map(|(stage, d)| format!("    (\"{stage}\", {d:#018x}),\n"))
        .collect();
    for (stage, d) in actual {
        let want = GOLDEN.iter().find(|(s, _)| s == stage);
        assert_eq!(
            Some(d),
            want.map(|(_, d)| d),
            "stage `{stage}` moved; actual:\n{table}"
        );
    }
}

#[test]
fn example51_matrix_is_golden() {
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = example51(&schema);
    let ld = example51_load(&schema, &path);
    let actual: Vec<(String, u64)> = [
        ("paper", CostParams::paper()),
        ("default", CostParams::default()),
    ]
    .into_iter()
    .map(|(name, params)| {
        let model = CostModel::new(&schema, &path, &chars, params);
        let matrix = CostMatrix::build(&model, &ld);
        let mut d = Digest::new();
        for &sub in matrix.rows() {
            for org in Org::ALL {
                d.float(matrix.cost(sub, org)).float(matrix.size(sub, org));
            }
        }
        (format!("example51/{name}"), d.0)
    })
    .collect();
    check(&actual);
}

/// Cold and warm plan digests of `w`, each a decision digest and a work
/// digest; every lane count must give the same digests before they are
/// reported.
fn plan_stages(name: &str, w: &SynthWorkload, seed: u64) -> Vec<(String, u64)> {
    let per_lane: Vec<[u64; 4]> = LANES
        .iter()
        .map(|&lanes| {
            let mut adv = w.advisor(CostParams::default()).with_threads(lanes);
            let cold = adv.optimize();
            DriftSim::new(w, churn(seed)).step(&mut adv);
            let warm = adv.reoptimize();
            [
                Digest::new().plan(&cold).0,
                Digest::new().work(&cold).0,
                Digest::new().plan(&warm).0,
                Digest::new().work(&warm).0,
            ]
        })
        .collect();
    for (lanes, digests) in LANES.iter().zip(&per_lane) {
        assert_eq!(digests, &per_lane[0], "{name}: {lanes} lanes vs one");
    }
    let [cold, cold_work, warm, warm_work] = per_lane[0];
    vec![
        (format!("{name}/seed{seed}/cold"), cold),
        (format!("{name}/seed{seed}/cold/work"), cold_work),
        (format!("{name}/seed{seed}/warm"), warm),
        (format!("{name}/seed{seed}/warm/work"), warm_work),
    ]
}

/// Budget stages whose plan cost is also asserted beside the digest, so a
/// move names the cost: `tree250/seed11/budget75` is the one golden budget
/// stage the eviction descent wins (without its incumbent it costs
/// 2212.16).
const GOLDEN_COSTS: [(&str, f64); 1] = [("tree250/seed11/budget75", 2144.997348167531)];

/// The budgeted plans at each fraction of the unconstrained footprint, on
/// one advisor (each solve warm from the previous one), and beside each
/// plan its work digest and the search that found it: the winning λ, the
/// sweep, repair and eviction counts, feasibility and the unconstrained
/// baseline.
fn budget_stages(name: &str, w: &SynthWorkload, seed: u64) -> Vec<(String, u64)> {
    let mut adv = w.advisor(CostParams::default());
    let size = adv.optimize().size_pages;
    BUDGET_FRACTIONS
        .iter()
        .flat_map(|f| {
            let b = adv.optimize_with_budget(f * size);
            let stage = format!("{name}/seed{seed}/budget{}", (f * 100.0) as u32);
            if let Some(&(_, cost)) = GOLDEN_COSTS.iter().find(|(s, _)| *s == stage) {
                assert_eq!(b.plan.total_cost, cost, "stage `{stage}`: plan cost moved");
            }
            let plan = Digest::new().plan(&b.plan).word(b.feasible as u64).0;
            let work = Digest::new().work(&b.plan).0;
            let search = Digest::new()
                .float(b.lambda)
                .word(b.lambda_sweeps as u64)
                .word(b.repairs as u64)
                .word(b.evictions as u64)
                .word(b.feasible as u64)
                .float(b.unconstrained_cost)
                .float(b.unconstrained_size)
                .0;
            [
                (stage.clone(), plan),
                (format!("{stage}/work"), work),
                (format!("{stage}/search"), search),
            ]
        })
        .collect()
}

fn tree(paths: usize, seed: u64) -> SynthWorkload {
    synth_workload(&WorkloadSpec {
        paths,
        depth: 5,
        fanout: 3,
        seed,
    })
}

fn forest(paths: usize, seed: u64) -> SynthWorkload {
    synth_forest(&ForestSpec {
        roots: 64,
        paths,
        depth: 8,
        fanout: 1,
        seed,
    })
}

#[test]
fn tree_plans_are_golden() {
    let mut actual = Vec::new();
    for seed in SEEDS {
        let small = tree(48, seed);
        actual.extend(plan_stages("tree48", &small, seed));
        actual.extend(budget_stages("tree48", &small, seed));
        actual.extend(plan_stages("tree250", &tree(250, seed), seed));
    }
    check(&actual);
}

// The 250-path budgets dominate this file's run time (debug builds
// re-derive every eviction trial), so each seed is its own test.
#[test]
fn tree250_budgets_are_golden_seed7() {
    check(&budget_stages("tree250", &tree(250, SEEDS[0]), SEEDS[0]));
}

#[test]
fn tree250_budgets_are_golden_seed11() {
    check(&budget_stages("tree250", &tree(250, SEEDS[1]), SEEDS[1]));
}

#[test]
fn forest_1k_plans_are_golden() {
    let actual: Vec<_> = SEEDS
        .iter()
        .flat_map(|&seed| plan_stages("forest1k", &forest(1_000, seed), seed))
        .collect();
    check(&actual);
}

#[test]
fn forest_3k_plans_are_golden() {
    let actual: Vec<_> = SEEDS
        .iter()
        .flat_map(|&seed| plan_stages("forest3k", &forest(3_000, seed), seed))
        .collect();
    check(&actual);
}

/// Twelve traffic epochs of the online loop on `w` at `lanes`: per epoch
/// the churn, the tuner's firings and fingerprint, the plan if any, the
/// schedule after retargeting to it, and the wave `advance` performs —
/// and, apart, the work digest of every plan.
fn online_digest(w: &SynthWorkload, seed: u64, lanes: usize) -> [u64; 2] {
    let mut adv = w.advisor(CostParams::default()).with_threads(lanes);
    let plan = adv.optimize();
    let mut tuner = OnlineTuner::new(EstimatorConfig::default(), TuningPolicy::default());
    let mut sim = DriftSim::new(w, churn(seed));
    sim.enable_traffic(&adv, &mut tuner);
    let mut planner = MigrationPlanner::new(&adv, &plan, &plan).expect("live path set");
    let (mut d, mut work) = (Digest::new(), Digest::new());
    for _ in 0..12 {
        let (c, plan) = sim.step_traffic(&mut adv, &mut tuner, 16);
        for n in [
            c.arrived,
            c.departed,
            c.stats_changed,
            c.rates_changed,
            c.queries_changed,
        ] {
            d.word(n as u64);
        }
        d.word(tuner.retunes())
            .word(tuner.estimator().fingerprint());
        if let Some(plan) = plan {
            d.plan(&plan);
            work.work(&plan);
            planner.retarget(&adv, &plan).expect("live path set");
            let s = planner.schedule(ENVELOPE).expect("unbounded space");
            d.steps(&s.steps).word(s.switches.len() as u64);
            for &(wave, id) in &s.switches {
                d.word(wave as u64).word(u64::from(id.raw()));
            }
            d.word(s.waves as u64)
                .word(s.builds as u64)
                .word(s.drops as u64)
                .word(s.cancelled)
                .float(s.final_cost)
                .float(s.interim_cost)
                .float(s.interim_excess);
        }
        let wave = planner.advance(ENVELOPE).expect("unbounded space");
        d.steps(wave.as_deref().unwrap_or_default());
    }
    [d.0, work.0]
}

#[test]
fn online_loop_is_golden() {
    let actual: Vec<_> = SEEDS
        .iter()
        .flat_map(|&seed| {
            let w = tree(48, seed);
            let per_lane: Vec<[u64; 2]> = LANES
                .iter()
                .map(|&lanes| online_digest(&w, seed, lanes))
                .collect();
            for (lanes, digest) in LANES.iter().zip(&per_lane) {
                assert_eq!(digest, &per_lane[0], "online: {lanes} lanes vs one");
            }
            let stage = format!("online/tree48/seed{seed}");
            let [decisions, work] = per_lane[0];
            [(stage.clone(), decisions), (format!("{stage}/work"), work)]
        })
        .collect();
    check(&actual);
}

/// One seeded readvise batch: new statistics for eight classes, heavy
/// update rates for one class in `heat` and new query rates for one path
/// in `2.5 · heat` — at `heat` 4, enough drift on the 250-path tree to
/// retire and replace a few dozen indexes.
fn readvise_batch(adv: &mut WorkloadAdvisor<'_>, w: &SynthWorkload, seed: u64, heat: usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdeb1);
    let classes = adv.class_count();
    let ids: Vec<PathId> = adv.path_ids().collect();
    for _ in 0..8 {
        let c = rng.gen_range(0..classes);
        let old = w.stats[c];
        let scale = rng.gen_range(500..2000) as f64 / 1000.0;
        let n = (old.n * scale).max(1.0).round();
        let d = (old.d * scale).max(1.0).round();
        adv.update_stats(ClassId(c as u32), ClassStats::new(n, d, old.nin));
    }
    for _ in 0..classes / heat {
        let c = rng.gen_range(0..classes);
        let rates = (
            rng.gen_range(0..4000) as f64 / 1000.0,
            rng.gen_range(0..2000) as f64 / 1000.0,
        );
        adv.update_rates(ClassId(c as u32), rates);
    }
    for _ in 0..ids.len() * 4 / (10 * heat) {
        let id = ids[rng.gen_range(0..ids.len())];
        let alphas = random_query_rates(classes, &mut rng);
        adv.update_query_rates(id, |c| alphas[c.index()]);
    }
}

/// The deployment after one readvise batch of `heat` on `w` at `lanes`:
/// the greedy and naive schedules under unbounded space and under two
/// space envelopes tight enough to force drops before builds, then an
/// `advance` walk to completion, every wave folded in full.
fn deploy_digest(w: &SynthWorkload, seed: u64, heat: usize, lanes: usize) -> u64 {
    let mut adv = w.advisor(CostParams::default()).with_threads(lanes);
    let current = adv.optimize();
    readvise_batch(&mut adv, w, seed, heat);
    let target = adv.reoptimize();
    let mut planner = MigrationPlanner::new(&adv, &current, &target).expect("live path set");
    let mut d = Digest::new();
    let slack = planner.schedule(ENVELOPE);
    // The footprint at the start is the target's, less what the slack
    // schedule builds, plus what it drops. The tight envelopes admit the
    // larger endpoint and one biggest build, or a quarter of one: the
    // naive order, which drops last, cannot fit them.
    let (mut start, mut biggest) = (target.size_pages, 0.0f64);
    for s in &slack.as_ref().expect("unbounded space").steps {
        match s.action {
            MigrationAction::Build => start -= s.pages,
            MigrationAction::Drop => start += s.pages,
        }
        biggest = biggest.max(s.pages);
    }
    d.schedule(&slack)
        .schedule(&planner.naive_schedule(ENVELOPE));
    for margin in [1.0, 0.25] {
        let tight = MigrationEnvelope {
            concurrent_builds: 2,
            space_pages: start.max(target.size_pages) + margin * biggest,
        };
        d.schedule(&planner.schedule(tight))
            .schedule(&planner.naive_schedule(tight));
    }
    let mut waves = 0;
    while let Some(steps) = planner.advance(ENVELOPE).expect("unbounded space") {
        d.deploy_steps(&steps);
        waves += 1;
        assert!(waves <= 1000, "advance must terminate");
    }
    d.word(waves)
        .word(planner.is_complete() as u64)
        .float(planner.current_cost())
        .0
}

fn deploy_stage(name: &str, w: &SynthWorkload, seed: u64, heat: usize) -> (String, u64) {
    let per_lane: Vec<u64> = LANES
        .iter()
        .map(|&lanes| deploy_digest(w, seed, heat, lanes))
        .collect();
    for (lanes, digest) in LANES.iter().zip(&per_lane) {
        assert_eq!(digest, &per_lane[0], "{name}: {lanes} lanes vs one");
    }
    (format!("deploy/{name}/seed{seed}"), per_lane[0])
}

#[test]
fn tree250_deployment_is_golden() {
    let actual: Vec<_> = SEEDS
        .iter()
        .map(|&seed| deploy_stage("tree250", &tree(250, seed), seed, 4))
        .collect();
    check(&actual);
}

#[test]
fn forest3k_deployment_is_golden() {
    let actual: Vec<_> = SEEDS
        .iter()
        .map(|&seed| deploy_stage("forest3k", &forest(3_000, seed), seed, 32))
        .collect();
    check(&actual);
}

/// Example 5.1's configurations the executed stage runs: whole-path MX,
/// MIX and NIX, the paper optimum, a MIX piece before an unindexed tail,
/// and a three-piece split.
fn executed_configs(n: usize) -> Vec<(&'static str, IndexConfiguration)> {
    let pieces = |p: &[(usize, usize, Choice)]| {
        let pairs = p
            .iter()
            .map(|&(start, end, c)| (SubpathId { start, end }, c))
            .collect();
        IndexConfiguration::new(pairs, n).expect("valid split")
    };
    let (mx, mix, nix) = (
        Choice::Index(Org::Mx),
        Choice::Index(Org::Mix),
        Choice::Index(Org::Nix),
    );
    vec![
        ("mx", IndexConfiguration::whole_path(Org::Mx, n)),
        ("mix", IndexConfiguration::whole_path(Org::Mix, n)),
        ("nix", IndexConfiguration::whole_path(Org::Nix, n)),
        ("nix12_mx34", pieces(&[(1, 2, nix), (3, 4, mx)])),
        (
            "mix12_none34",
            pieces(&[(1, 2, mix), (3, 4, Choice::NoIndex)]),
        ),
        (
            "mx1_mix23_nix4",
            pieces(&[(1, 1, mx), (2, 3, mix), (4, 4, nix)]),
        ),
    ]
}

/// 160 seeded operations on `exec`: queries at every position (Vehicle
/// with and without subclasses, Bus and Truck alone), inserts of copies
/// under fresh oids, and deletes at every position (Company and Division
/// deletes run the boundary `CMD`). Folds the index pages after the build
/// and at the end, every operation's four page counters and every query's
/// sorted answer.
fn executed_digest(exec: &mut ConfiguredDb<'_>, schema: &Schema, seed: u64) -> u64 {
    let class = |name| schema.class_by_name(name).expect("paper class");
    let targets = [
        (class("Person"), false),
        (class("Vehicle"), true),
        (class("Vehicle"), false),
        (class("Bus"), false),
        (class("Truck"), false),
        (class("Company"), false),
        (class("Division"), false),
    ];
    let oid_word = |oid: Oid| u64::from_be_bytes(oid.to_bytes());
    let values = exec.db.ending_values.clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a6e);
    let mut d = Digest::new();
    d.word(exec.index_pages());
    for _ in 0..160 {
        let pos = rng.gen_range(0..exec.path_len());
        let stats = match rng.gen_range(0..10u32) {
            0..=5 => {
                let value = &values[rng.gen_range(0..values.len())];
                let (target, subs) = targets[rng.gen_range(0..targets.len())];
                let (mut oids, stats) = exec.query(value, target, subs);
                oids.sort_unstable();
                d.word(oids.len() as u64);
                for oid in oids {
                    d.word(oid_word(oid));
                }
                stats
            }
            kind => {
                let pool = &exec.db.pools[pos];
                if pool.is_empty() {
                    d.word(u64::MAX);
                    continue;
                }
                let oid = pool[rng.gen_range(0..pool.len())];
                if kind < 8 {
                    let mut copy = exec.db.heap.peek(oid).expect("pooled oid").clone();
                    copy.oid = exec.db.heap.fresh_oid(oid.class);
                    d.word(oid_word(copy.oid));
                    exec.insert(copy)
                } else {
                    d.word(oid_word(oid));
                    exec.delete(oid)
                }
            }
        };
        d.word(stats.reads)
            .word(stats.writes)
            .word(stats.distinct_reads)
            .word(stats.distinct_writes);
    }
    d.word(exec.index_pages()).0
}

#[test]
fn executed_pages_are_golden() {
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = example51(&schema);
    let small = scale_chars(&chars, 0.004);
    let mut actual = Vec::new();
    for seed in SEEDS {
        for (name, config) in executed_configs(path.len()) {
            let spec = GenSpec {
                page_size: 1024,
                seed,
            };
            let db = generate(&schema, &path, &small, &spec);
            let mut exec = ConfiguredDb::new(&schema, &path, db, &config);
            let digest = executed_digest(&mut exec, &schema, seed);
            actual.push((format!("executed/{name}/seed{seed}"), digest));
        }
    }
    check(&actual);
}

/// Recorded from the commit before Yao's closed form (every stage but
/// `online/*`, `*/cold`, `*/warm`, `*/budget{25,50,75}` and their `…/work`
/// twins, which were re-recorded when the plan fold was split into
/// decisions and work, just before sweep memos kept their trajectories —
/// the warm, budgeted and online `…/work` stages once more after, since
/// a trail hit saves the DP a single memo re-ran —, `executed/*`, recorded before MX and MIX became one type, `*/search`,
/// recorded before the budget search got its `Pair` hasher, owner-scoped
/// trial reuse and one-point frontier, and `deploy/*`, recorded before the
/// migration planner moved onto a dense index table with reference
/// counts).
const GOLDEN: &[(&str, u64)] = &[
    ("example51/paper", 0x3b235bc366e99259),
    ("example51/default", 0x77e81cb29f0673db),
    ("tree48/seed7/cold", 0xea174ec9a0f4e6b3),
    ("tree48/seed7/cold/work", 0x08cf5b07b56e35ef),
    ("tree48/seed7/warm", 0xbc014a0de7cd0fd3),
    ("tree48/seed7/warm/work", 0x080a7a07b4cce938),
    ("tree48/seed7/budget25", 0x84726649d3a6c60d),
    ("tree48/seed7/budget25/work", 0x082f5f07b4e61142),
    ("tree48/seed7/budget50", 0x9bddb54878447a1e),
    ("tree48/seed7/budget50/work", 0x082f5f07b4e61142),
    ("tree48/seed7/budget75", 0xc14f423244620b43),
    ("tree48/seed7/budget75/work", 0x082f5f07b4e61142),
    ("tree48/seed7/budget25/search", 0x3d9ea9dee19a9691),
    ("tree48/seed7/budget50/search", 0x804a5885bb4085e0),
    ("tree48/seed7/budget75/search", 0xb5733913ed811735),
    ("tree48/seed11/cold", 0x501ad97b9f979607),
    ("tree48/seed11/cold/work", 0x08bf0907b563cd8f),
    ("tree48/seed11/warm", 0x9f986cead019260b),
    ("tree48/seed11/warm/work", 0x07dd2f07b49fb58a),
    ("tree48/seed11/budget25", 0x6442dc57698d7fb0),
    ("tree48/seed11/budget25/work", 0x082f8907b4e658a0),
    ("tree48/seed11/budget50", 0x985a355ede4edc84),
    ("tree48/seed11/budget50/work", 0x082f8907b4e658a0),
    ("tree48/seed11/budget75", 0x177979a26883c3d8),
    ("tree48/seed11/budget75/work", 0x082f8907b4e658a0),
    ("tree48/seed11/budget25/search", 0x2790f2e7e658d60e),
    ("tree48/seed11/budget50/search", 0x4eee632d1b7e5d5b),
    ("tree48/seed11/budget75/search", 0x3232a96e7da5c44e),
    ("tree250/seed7/cold", 0x841b1446ec3947ec),
    ("tree250/seed7/cold/work", 0x03195f07b090a670),
    ("tree250/seed7/warm", 0xd4b7eacd46f8585f),
    ("tree250/seed7/warm/work", 0x0818c307b4dc85c8),
    ("tree250/seed7/budget25", 0xd3886b491acb33d7),
    ("tree250/seed7/budget25/work", 0x08397307b4f7313e),
    ("tree250/seed7/budget50", 0xf7cd8d7b4631d593),
    ("tree250/seed7/budget50/work", 0x08397307b4f7313e),
    ("tree250/seed7/budget75", 0x917890904ba6f61f),
    ("tree250/seed7/budget75/work", 0x08397307b4f7313e),
    ("tree250/seed7/budget25/search", 0x5e02dae60641cce5),
    ("tree250/seed7/budget50/search", 0x4d1c08d2c980c774),
    ("tree250/seed7/budget75/search", 0xc26c1673892607fe),
    ("tree250/seed11/cold", 0x9fb895ce1eab9221),
    ("tree250/seed11/cold/work", 0x03549f07b0cfcb1b),
    ("tree250/seed11/warm", 0x960ad66cd39f7736),
    ("tree250/seed11/warm/work", 0x04d02a07b2143985),
    ("tree250/seed11/budget25", 0x1b50d801f20cb501),
    ("tree250/seed11/budget25/work", 0x083aa307b4f935ce),
    ("tree250/seed11/budget50", 0xd338555f5ef38afa),
    ("tree250/seed11/budget50/work", 0x083aa307b4f935ce),
    ("tree250/seed11/budget75", 0x02245ba1142d8054),
    ("tree250/seed11/budget75/work", 0x083aa307b4f935ce),
    ("tree250/seed11/budget25/search", 0xcdf125529b30c367),
    ("tree250/seed11/budget50/search", 0x22e93401a70abc03),
    ("tree250/seed11/budget75/search", 0x12ea87f1c2ac256c),
    ("forest1k/seed7/cold", 0xac6db750b3c42b31),
    ("forest1k/seed7/cold/work", 0x206e1e07c9949b7c),
    ("forest1k/seed7/warm", 0xbd43504f694cde5e),
    ("forest1k/seed7/warm/work", 0x09935807b63c31ca),
    ("forest1k/seed11/cold", 0x0a52193a43836e03),
    ("forest1k/seed11/cold/work", 0x1ff8e607c8fb9fe4),
    ("forest1k/seed11/warm", 0x39bc37ac5b65b202),
    ("forest1k/seed11/warm/work", 0x0997bb07b604207d),
    ("forest3k/seed7/cold", 0x41a8439c92f9865c),
    ("forest3k/seed7/cold/work", 0x5e717a07fe486ae2),
    ("forest3k/seed7/warm", 0x6ae2aac0228e6b63),
    ("forest3k/seed7/warm/work", 0x0577b307b2c32f3a),
    ("forest3k/seed11/cold", 0x97aab23c6f3783d2),
    ("forest3k/seed11/cold/work", 0x5f920f07ff4321c6),
    ("forest3k/seed11/warm", 0x295a81a1f32fefa7),
    ("forest3k/seed11/warm/work", 0x01886307af503541),
    ("online/tree48/seed7", 0xe7d43d9021923353),
    ("online/tree48/seed7/work", 0x226c2676ca0ff1a2),
    ("online/tree48/seed11", 0x826928feaa0c299f),
    ("online/tree48/seed11/work", 0x2301cc442ef2390a),
    ("deploy/tree250/seed7", 0x55e5804477d17104),
    ("deploy/tree250/seed11", 0x6dceca598984fbc4),
    ("deploy/forest3k/seed7", 0x2c619100bbd70750),
    ("deploy/forest3k/seed11", 0x461367d22fe88f93),
    ("executed/mx/seed7", 0x9b2b3d1ac2751bd5),
    ("executed/mix/seed7", 0x30732b893fc4ed18),
    ("executed/nix/seed7", 0xe652ffd0a1130ddd),
    ("executed/nix12_mx34/seed7", 0xb7adeee2f685fc80),
    ("executed/mix12_none34/seed7", 0x64505df5fed11fe3),
    ("executed/mx1_mix23_nix4/seed7", 0x5859704cc271bada),
    ("executed/mx/seed11", 0x630dc6268f6a5d3c),
    ("executed/mix/seed11", 0x2ebd5e402711029d),
    ("executed/nix/seed11", 0x04bced8236e4df30),
    ("executed/nix12_mx34/seed11", 0xfc7f8bcc4b2505a4),
    ("executed/mix12_none34/seed11", 0xf3989903528e4b51),
    ("executed/mx1_mix23_nix4/seed11", 0xfd7f19e991d77345),
];
