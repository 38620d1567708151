//! Tests of the migration planner: schedules and walks on the paper
//! fixture, refusals, and the reference counts against a recount from
//! scratch through seeded drift.

use super::*;
use oic_cost::{ClassStats, CostParams};
use oic_schema::{fixtures, ClassId};

fn advisor(schema: &oic_schema::Schema) -> WorkloadAdvisor<'_> {
    let mut adv = WorkloadAdvisor::new(schema, CostParams::default())
        .with_stats(|_| ClassStats::new(500.0, 50.0, 2.0))
        .with_maintenance(|_| (0.05, 0.02));
    adv.add_path(fixtures::paper_path_pexa(schema), |_| 0.1);
    adv.add_path(fixtures::paper_path_pe(schema), |_| 0.2);
    adv
}

/// A `(current, target)` pair that actually differs: the paper
/// workload re-optimized under 40× update traffic.
fn drifted(adv: &mut WorkloadAdvisor<'_>) -> (WorkloadPlan, WorkloadPlan) {
    let current = adv.optimize();
    for c in 0..adv.class_count() {
        adv.update_rates(ClassId(c as u32), (2.0, 0.8));
    }
    let target = adv.reoptimize();
    (current, target)
}

#[test]
fn empty_diff_yields_empty_schedule() {
    let (schema, _) = fixtures::paper_schema();
    let mut adv = advisor(&schema);
    let a = adv.optimize();
    let b = adv.reoptimize();
    let planner = MigrationPlanner::new(&adv, &a, &b).expect("same path set");
    assert!(planner.is_complete());
    let sched = planner.schedule(MigrationEnvelope::default()).expect("ok");
    assert!(sched.steps.is_empty(), "nothing to build or drop");
    assert_eq!(sched.waves, 0);
    assert_eq!(sched.duration, 0.0);
    assert_eq!(sched.interim_cost, 0.0);
    assert_eq!(sched.interim_excess, 0.0);
    assert_eq!(sched.initial_cost, sched.final_cost);
}

#[test]
fn zero_concurrency_envelope_errors_cleanly() {
    let (schema, _) = fixtures::paper_schema();
    let mut adv = advisor(&schema);
    let (current, target) = drifted(&mut adv);
    let planner = MigrationPlanner::new(&adv, &current, &target).expect("same path set");
    let envelope = MigrationEnvelope {
        concurrent_builds: 0,
        space_pages: f64::INFINITY,
    };
    let err = planner.schedule(envelope).expect_err("zero concurrency");
    assert_eq!(err, MigrationError::ZeroConcurrency);
    assert!(err.to_string().contains("zero concurrent builds"));
}

#[test]
fn endpoints_price_bitwise_like_price_plan() {
    let (schema, _) = fixtures::paper_schema();
    let mut adv = advisor(&schema);
    let (current, target) = drifted(&mut adv);
    let planner = MigrationPlanner::new(&adv, &current, &target).expect("same path set");
    let sched = planner.schedule(MigrationEnvelope::default()).expect("ok");
    assert_eq!(
        sched.initial_cost.to_bits(),
        adv.price_plan(&current).to_bits(),
        "start state prices exactly like the old plan under the new rates"
    );
    assert_eq!(
        sched.final_cost.to_bits(),
        adv.price_plan(&target).to_bits(),
        "end state prices exactly like the target plan"
    );
    assert_eq!(
        sched.final_cost.to_bits(),
        target.total_cost.to_bits(),
        "the target plan's own objective is the same number"
    );
    assert!(
        sched.final_cost <= sched.initial_cost,
        "the optimizer retargeted for a reason"
    );
}

#[test]
fn advancing_to_completion_reaches_the_scheduled_end_state() {
    let (schema, _) = fixtures::paper_schema();
    let mut adv = advisor(&schema);
    let (current, target) = drifted(&mut adv);
    let mut planner = MigrationPlanner::new(&adv, &current, &target).expect("same path set");
    let sched = planner.schedule(MigrationEnvelope::default()).expect("ok");
    let mut waves = 0;
    while let Some(_steps) = planner.advance(MigrationEnvelope::default()).expect("ok") {
        waves += 1;
        assert!(waves <= sched.waves + 1, "advance must terminate");
    }
    assert!(planner.is_complete());
    assert_eq!(planner.current_cost().to_bits(), sched.final_cost.to_bits());
}

#[test]
fn removing_a_path_cancels_its_unbuilt_builds() {
    let (schema, _) = fixtures::paper_schema();
    let mut adv = advisor(&schema);
    let (current, target) = drifted(&mut adv);
    let ids: Vec<PathId> = adv.path_ids().collect();
    let planner = MigrationPlanner::new(&adv, &current, &target).expect("same path set");
    let full = planner.schedule(MigrationEnvelope::default()).expect("ok");
    assert!(full.builds > 0, "the drifted target needs builds");
    // A path departs before anything was built: every target build
    // only it needed is cancelled, and the remaining schedule never
    // builds it.
    let mut planner = planner;
    let cancelled = planner.remove_path(ids[0]);
    assert!(cancelled > 0, "the departed path had scheduled builds");
    assert_eq!(planner.cancelled(), cancelled as u64);
    let sched = planner.schedule(MigrationEnvelope::default()).expect("ok");
    assert_eq!(sched.cancelled, cancelled as u64);
    assert!(
        sched.builds + cancelled <= full.builds + sched.drops,
        "cancelled builds never reappear"
    );
    assert_eq!(planner.remove_path(ids[0]), 0, "unknown handle is a no-op");
}

#[test]
fn tight_space_envelope_drops_before_building() {
    let (schema, _) = fixtures::paper_schema();
    let mut adv = advisor(&schema);
    let (current, target) = drifted(&mut adv);
    let planner = MigrationPlanner::new(&adv, &current, &target).expect("same path set");
    let slack = planner.schedule(MigrationEnvelope::default()).expect("ok");
    // An envelope exactly as large as the bigger endpoint, plus the
    // largest single build: tight enough that keeping every old index
    // while building every new one cannot fit, so the repair must
    // interleave drops.
    let start: f64 = planner
        .state
        .indexes
        .iter()
        .filter(|i| i.built)
        .map(|i| i.pages)
        .sum();
    let end: f64 = slack
        .steps
        .iter()
        .filter(|s| s.action == MigrationAction::Build)
        .map(|s| s.pages)
        .sum();
    let biggest = slack.steps.iter().map(|s| s.pages).fold(0.0f64, f64::max);
    let envelope = MigrationEnvelope {
        concurrent_builds: 2,
        space_pages: start.max(end) + biggest,
    };
    let sched = planner.schedule(envelope).expect("repairable");
    assert_eq!(sched.final_cost.to_bits(), slack.final_cost.to_bits());
    // And an envelope smaller than the end state is honestly hopeless.
    let hopeless = MigrationEnvelope {
        concurrent_builds: 2,
        space_pages: 1.0,
    };
    assert!(matches!(
        planner.schedule(hopeless),
        Err(MigrationError::SpaceExceeded { .. })
    ));
}

/// Plans that do not cover exactly the advisor's live path set, or
/// whose shares went stale, are refused by `new` and `retarget` alike;
/// the order of a plan's outcomes does not matter.
#[test]
fn mismatched_path_sets_are_refused() {
    let (schema, _) = fixtures::paper_schema();
    let mut adv = advisor(&schema);
    let (current, target) = drifted(&mut adv);
    let mut planner = MigrationPlanner::new(&adv, &current, &target).expect("same path set");
    // A second advisor whose live handles are 1 and 2: handle 2 is
    // foreign to `adv`, whose handles are 0 and 1.
    let mut other = advisor(&schema);
    other.add_path(fixtures::paper_path_pe(&schema), |_| 0.3);
    let first = other.path_ids().next().expect("live");
    other.remove_path(first).expect("live handle");
    let foreign = other.optimize();
    let mut variants: Vec<(&str, WorkloadPlan)> = Vec::new();
    let mut missing = adv.reoptimize();
    missing.paths.pop();
    variants.push(("missing", missing));
    let mut duplicated = adv.reoptimize();
    duplicated.paths[1] = duplicated.paths[0].clone();
    variants.push(("duplicated", duplicated));
    let mut mixed = adv.reoptimize();
    mixed.paths[1] = foreign.paths[1].clone();
    variants.push(("foreign", mixed));
    variants.push(("foreign plan", foreign));
    let before = format!("{planner:?}");
    for (name, bad) in &variants {
        assert_eq!(
            MigrationPlanner::new(&adv, &current, bad).err(),
            Some(MigrationError::PathSetMismatch),
            "new, {name} target"
        );
        assert_eq!(
            MigrationPlanner::new(&adv, bad, &target).err(),
            Some(MigrationError::PathSetMismatch),
            "new, {name} current"
        );
        assert_eq!(
            planner.retarget(&adv, bad),
            Err(MigrationError::PathSetMismatch),
            "retarget, {name}"
        );
        assert_eq!(format!("{planner:?}"), before, "{name}: refused, unchanged");
    }
    let mut permuted = adv.reoptimize();
    permuted.paths.reverse();
    MigrationPlanner::new(&adv, &current, &permuted).expect("any order");
    // Stale shares: the plans predate a mutation not yet re-optimized.
    let id = adv.path_ids().next().expect("live");
    adv.update_query_rates(id, |_| 0.4);
    assert_eq!(
        MigrationPlanner::new(&adv, &current, &target).err(),
        Some(MigrationError::PathSetMismatch),
        "new, stale"
    );
    assert_eq!(
        planner.retarget(&adv, &target),
        Err(MigrationError::PathSetMismatch),
        "retarget, stale"
    );
    assert_eq!(format!("{planner:?}"), before, "stale: refused, unchanged");
    adv.remove_path(id).expect("live handle");
    assert_eq!(
        MigrationPlanner::new(&adv, &current, &target).err(),
        Some(MigrationError::PathSetMismatch),
        "new, departed path"
    );
}

#[test]
fn greedy_interim_cost_never_exceeds_naive() {
    let (schema, _) = fixtures::paper_schema();
    let mut adv = advisor(&schema);
    let (current, target) = drifted(&mut adv);
    let planner = MigrationPlanner::new(&adv, &current, &target).expect("same path set");
    let greedy = planner.schedule(MigrationEnvelope::default()).expect("ok");
    let naive = planner
        .naive_schedule(MigrationEnvelope::default())
        .expect("ok");
    assert_eq!(greedy.final_cost.to_bits(), naive.final_cost.to_bits());
    assert_eq!(greedy.builds, naive.builds, "same physical work");
    assert!(
        greedy.interim_cost <= naive.interim_cost,
        "ordering must not hurt: {} vs {}",
        greedy.interim_cost,
        naive.interim_cost
    );
}

/// Alternating a hopeless envelope with one-build waves: every refused
/// wave leaves the planner as it was, so every drop the walk performs
/// is one some wave reported.
#[test]
fn a_refused_wave_performs_nothing() {
    let (schema, _) = fixtures::paper_schema();
    let mut adv = advisor(&schema);
    let (current, target) = drifted(&mut adv);
    let mut planner = MigrationPlanner::new(&adv, &current, &target).expect("same path set");
    let built = |planner: &MigrationPlanner| -> Vec<IndexKey> {
        let indexes = planner.state.indexes.iter();
        let keys = planner.capture.keys.iter().zip(indexes);
        keys.filter(|(_, i)| i.built)
            .map(|(k, _)| k.clone())
            .collect()
    };
    let at_start = built(&planner);
    let hopeless = MigrationEnvelope {
        concurrent_builds: 1,
        space_pages: 1.0,
    };
    let one = MigrationEnvelope::default();
    let (mut refusals, mut dropped) = (0, Vec::new());
    let mut record = |steps: Vec<MigrationStep>| {
        let drops = steps
            .into_iter()
            .filter(|s| s.action == MigrationAction::Drop);
        dropped.extend(drops.map(|s| (s.steps, s.embedded, s.org)));
    };
    for _ in 0..32 {
        let before = format!("{planner:?}");
        match planner.advance(hopeless) {
            Err(MigrationError::SpaceExceeded { .. }) => {
                refusals += 1;
                assert_eq!(
                    format!("{planner:?}"),
                    before,
                    "a refused wave performs nothing"
                );
            }
            Ok(steps) => record(steps.expect("not yet complete")),
            Err(e) => panic!("unexpected refusal: {e}"),
        }
        match planner.advance(one).expect("unbounded space") {
            Some(steps) => record(steps),
            None => break,
        }
    }
    assert!(
        refusals >= 2,
        "the walk hits the hopeless envelope after a build"
    );
    assert!(planner.is_complete());
    let at_end = built(&planner);
    let mut gone: Vec<IndexKey> = at_start
        .into_iter()
        .filter(|k| !at_end.contains(k))
        .collect();
    gone.sort();
    dropped.sort();
    assert!(!gone.is_empty(), "the drifted target retires indexes");
    assert_eq!(dropped, gone, "every drop performed is reported, once");
}

/// A seeded SplitMix64 stream (the planner's tests cannot reach the
/// simulator crate's generators).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A class tree of depth 4 and fanout 3 — a `name` on every class and
/// references `r0`..`r2` to fresh children — and its children lists.
fn class_tree() -> (oic_schema::Schema, Vec<Vec<ClassId>>) {
    use oic_schema::{AtomicType, Cardinality, SchemaBuilder};
    fn grow(b: &mut SchemaBuilder, kids: &mut Vec<Vec<ClassId>>, depth: usize) -> ClassId {
        let id = b.declare(format!("N{}", kids.len())).expect("unique");
        b.atomic(id, "name", AtomicType::Str).expect("fresh");
        kids.push(Vec::new());
        for r in 0..if depth > 1 { 3 } else { 0 } {
            let child = grow(b, kids, depth - 1);
            b.reference(id, format!("r{r}"), child, Cardinality::Single)
                .expect("fresh");
            kids[id.index()].push(child);
        }
        id
    }
    let (mut b, mut kids) = (SchemaBuilder::new(), Vec::new());
    grow(&mut b, &mut kids, 4);
    (b.build().expect("a tree is acyclic"), kids)
}

/// A random walk down the tree from the root (always one hop, then
/// each further hop with probability 3/4), ending at a `name`.
fn walk(schema: &oic_schema::Schema, kids: &[Vec<ClassId>], rng: &mut Rng) -> oic_schema::Path {
    let (mut at, mut attrs) = (ClassId(0), Vec::new());
    while !kids[at.index()].is_empty() && (attrs.is_empty() || rng.below(4) > 0) {
        let r = rng.below(kids[at.index()].len());
        attrs.push(format!("r{r}"));
        at = kids[at.index()][r];
    }
    attrs.push("name".to_string());
    let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    oic_schema::Path::new(schema, ClassId(0), &attrs).expect("walks are paths")
}

/// Every count the planner maintains against a recount from scratch
/// over its arms, and the drop set and switch benefits against their
/// old set-rebuilding definitions, on sorted vectors of index ids (one
/// per durable key).
fn check_against_oracle(planner: &MigrationPlanner) {
    let (cap, st) = (&planner.capture, &planner.state);
    assert!(
        cap.keys.windows(2).all(|w| w[0] < w[1]),
        "one index per durable key, ids in key order"
    );
    let present: Vec<&PathArm> = st.paths.iter().filter(|p| !p.departed).collect();
    let ids = |arm: Arm| cap.arm(arm).iter().map(|pc| pc.index).collect::<Vec<u32>>();
    let sorted = |mut v: Vec<u32>| {
        v.sort_unstable();
        v
    };
    let cites = |arms: &dyn Fn(&PathArm) -> Arm| {
        sorted(present.iter().flat_map(|p| ids(arms(p))).collect())
    };
    let (current, active, target) = (
        cites(&|p| p.current),
        cites(&|p| p.active()),
        cites(&|p| p.target),
    );
    let count = |v: &[u32], i: u32| v.iter().filter(|&&j| j == i).count() as u32;
    for (i, index) in (0..).zip(&st.indexes) {
        assert_eq!(
            index.in_current,
            count(&current, i),
            "current citations of {i}"
        );
        assert_eq!(
            index.in_active,
            count(&active, i),
            "active citations of {i}"
        );
        assert_eq!(
            index.in_target,
            count(&target, i),
            "target citations of {i}"
        );
    }
    for p in &present {
        let unbuilt = ids(p.target)
            .into_iter()
            .filter(|&i| !st.indexes[i as usize].built);
        assert_eq!(
            p.missing,
            unbuilt.count() as u32,
            "missing pieces of {:?}",
            p.id
        );
        let subtotal = |arm| ledger::subtotal(cap.arm(arm).iter().map(|pc| pc.query));
        assert_eq!(p.current_query.to_bits(), subtotal(p.current).to_bits());
        assert_eq!(p.target_query.to_bits(), subtotal(p.target).to_bits());
    }
    let built: Vec<u32> = (0..)
        .zip(&st.indexes)
        .filter(|(_, x)| x.built)
        .map(|(i, _)| i)
        .collect();
    let maintenance = ledger::sorted(
        built
            .iter()
            .map(|&i| st.indexes[i as usize].maintenance)
            .collect(),
    );
    assert_eq!(
        st.maintenance, maintenance,
        "the built maintenance, in fold order"
    );
    // Droppable: built, and referenced by no active and no target arm.
    let mut referenced = [active.clone(), target.clone()].concat();
    referenced.sort_unstable();
    referenced.dedup();
    let old: Vec<u32> = built
        .iter()
        .copied()
        .filter(|i| referenced.binary_search(i).is_err())
        .collect();
    let droppable: Vec<u32> = (0..)
        .zip(&st.indexes)
        .filter(|(_, x)| x.droppable())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        droppable, old,
        "the next drop pass drops exactly the unreferenced built indexes"
    );
    // Freed by a switch: built current-arm indexes no other path's
    // active arm and no target arm references.
    for (at, p) in st.paths.iter().enumerate().filter(|(_, p)| !p.departed) {
        let others = present
            .iter()
            .filter(|q| q.id != p.id)
            .flat_map(|q| ids(q.active()));
        let mut referenced: Vec<u32> = others.chain(target.iter().copied()).collect();
        referenced.sort_unstable();
        referenced.dedup();
        let (mut freed, mut seen) = (0.0f64, Vec::new());
        for i in ids(p.current) {
            if referenced.binary_search(&i).is_err() && !seen.contains(&i) {
                seen.push(i);
                let index = &st.indexes[i as usize];
                if index.built {
                    freed += index.maintenance;
                }
            }
        }
        assert_eq!(
            st.freed_by_switch(cap, at).to_bits(),
            freed.to_bits(),
            "freed by {:?}",
            p.id
        );
    }
}

/// Seeded drift epochs on a 48-path tree — departures mid-wave,
/// arrivals, statistic and rate drift, a retarget to every new plan,
/// waves under an unbounded and a tight envelope — with the planner's
/// counts held to the oracle after every call.
#[test]
fn reference_counts_match_a_recount_through_drift() {
    let (schema, kids) = class_tree();
    let mut rng = Rng(1994);
    let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
        .with_stats(|c| ClassStats::new(1000.0 + 500.0 * c.index() as f64, 100.0, 1.0))
        .with_maintenance(|_| (0.05, 0.02));
    let arrive = |adv: &mut WorkloadAdvisor<'_>, rng: &mut Rng| {
        let path = walk(&schema, &kids, rng);
        adv.add_path(path, |_| rng.below(500) as f64 / 1000.0);
    };
    for _ in 0..48 {
        arrive(&mut adv, &mut rng);
    }
    let current = adv.optimize();
    let drift = |adv: &mut WorkloadAdvisor<'_>, rng: &mut Rng| {
        for _ in 0..4 {
            let c = ClassId(rng.below(adv.class_count()) as u32);
            let n = 500.0 + rng.below(20_000) as f64;
            adv.update_stats(c, ClassStats::new(n, 1.0 + rng.below(200) as f64, 1.0));
            let c = ClassId(rng.below(adv.class_count()) as u32);
            let rates = (
                rng.below(2000) as f64 / 1000.0,
                rng.below(800) as f64 / 1000.0,
            );
            adv.update_rates(c, rates);
        }
    };
    drift(&mut adv, &mut rng);
    let target = adv.reoptimize();
    let mut planner = MigrationPlanner::new(&adv, &current, &target).expect("live path set");
    check_against_oracle(&planner);
    let unbounded = MigrationEnvelope {
        concurrent_builds: 2,
        space_pages: f64::INFINITY,
    };
    let (mut cancelled, mut refusals, mut waves) = (0, 0, 0);
    for epoch in 0..12 {
        waves += usize::from(planner.advance(unbounded).expect("unbounded").is_some());
        check_against_oracle(&planner);
        // Odd epochs tell the planner of each departure mid-wave; even
        // ones leave it to the retarget.
        for _ in 0..3 {
            let ids: Vec<PathId> = adv.path_ids().collect();
            let id = ids[rng.below(ids.len())];
            adv.remove_path(id).expect("live handle");
            if epoch % 2 == 1 {
                cancelled += planner.remove_path(id);
                check_against_oracle(&planner);
            }
        }
        for _ in 0..3 {
            arrive(&mut adv, &mut rng);
        }
        drift(&mut adv, &mut rng);
        let target = adv.reoptimize();
        planner.retarget(&adv, &target).expect("live path set");
        check_against_oracle(&planner);
        let before = format!("{planner:?}");
        let tight = MigrationEnvelope {
            concurrent_builds: 1,
            space_pages: 1.0 + rng.below(400_000) as f64,
        };
        match planner.advance(tight) {
            Ok(_) => waves += 1,
            Err(_) => {
                refusals += 1;
                assert_eq!(format!("{planner:?}"), before, "a refusal performs nothing");
            }
        }
        check_against_oracle(&planner);
    }
    assert!(waves > 0 && refusals > 0, "both wave outcomes exercised");
    assert!(
        cancelled > 0 || planner.cancelled() > 0,
        "churn cancelled some build"
    );
}
