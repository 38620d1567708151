//! Budget-constrained workload selection against brute force: enumerate
//! *every* combination of per-path configurations for small synthetic
//! workloads, price each with the same count-once accounting the advisor
//! uses (query shares per path, each distinct physical `(candidate,
//! organization)`'s maintenance and footprint once), and check
//! `optimize_with_budget` against the resulting ground truth:
//!
//! * the plan's reported `(total_cost, size_pages)` re-derive from first
//!   principles (an independent implementation of the accounting);
//! * a feasible plan never exceeds its budget;
//! * no feasible exhaustive combination cost-dominates the plan (strictly
//!   cheaper while no larger), and the plan *is* the exhaustive feasible
//!   optimum, to 1e-9 relative, on every instance but one recorded gap
//!   (`MEASURED_GAPS`), held at its measured ratio;
//! * an infinite budget reproduces `optimize()` bit-identically.
//!
//! The same tables are the independent oracle of the *unconstrained*
//! engine (DESIGN.md §5.15): on forests small enough to enumerate,
//! `optimize()` and post-churn `reoptimize()` must return a plan whose
//! totals re-derive from first principles, that no single path can
//! improve by switching configuration (the contract of a converged
//! descent), and that sits between the exhaustive optimum and the
//! independent cost — with the component split, the dominance pruner and
//! the per-signature query bases known to have engaged.

use oic_core::{pc, Choice, WorkloadAdvisor, WorkloadPlan};
use oic_cost::{ClassStats, CostModel, CostParams, Org, PathCharacteristics};
use oic_schema::SubpathId;
use oic_sim::{synth_forest, synth_workload, ForestSpec, SynthWorkload, WorkloadSpec};
use oic_workload::{LoadDistribution, Triplet};
use std::collections::HashMap;

/// One path's enumeration table: every legal configuration with its query
/// share and the global `(candidate, org)` pairs it allocates.
#[derive(Clone)]
struct PathTable {
    /// `(query_cost, allocated pair indices)` per configuration.
    configs: Vec<(f64, Vec<usize>)>,
    /// The `(subpath, organization)` pieces of each configuration, in path
    /// order — how a plan's selection finds its row.
    pieces: Vec<Vec<(SubpathId, Org)>>,
}

/// Ground-truth pricing tables shared across paths: maintenance and size
/// per global `(candidate, org)` pair, candidate-intrinsic.
struct Ground {
    tables: Vec<PathTable>,
    maint: Vec<f64>,
    size: Vec<f64>,
}

/// A physical identity: `(steps, embedded, org)`.
type PairKey = (Vec<(oic_schema::ClassId, oic_schema::AttrId)>, bool, Org);

fn ground_truth(w: &SynthWorkload, params: CostParams) -> Ground {
    // Global interning of (steps, embedded, org) triples.
    let mut pair_ids: HashMap<PairKey, usize> = HashMap::new();
    let mut maint = Vec::new();
    let mut size = Vec::new();
    let mut tables = Vec::new();
    for (path, alphas) in w.paths.iter().zip(&w.queries) {
        let n = path.len();
        let chars = PathCharacteristics::build(&w.schema, path, |c| w.stats[c.index()]);
        let model = CostModel::new(&w.schema, path, &chars, params);
        let qld = LoadDistribution::build(&w.schema, path, |c| {
            Triplet::new(alphas[c.index()], 0.0, 0.0)
        });
        let mld = LoadDistribution::build(&w.schema, path, |c| {
            let (beta, gamma) = w.maint[c.index()];
            Triplet::new(0.0, beta, gamma)
        });
        // Per-rank cell tables.
        let ranks = SubpathId::count(n);
        let mut query = vec![[0.0f64; 3]; ranks];
        let mut pair = vec![[0usize; 3]; ranks];
        for r in 0..ranks {
            let sub = SubpathId::from_rank(n, r);
            for org in Org::ALL {
                query[r][org.index()] = pc::processing_cost(&model, &qld, sub, Choice::Index(org));
                let key = (path.step_keys(sub).to_vec(), sub.end < n, org);
                let next = pair_ids.len();
                let id = *pair_ids.entry(key).or_insert(next);
                if id == maint.len() {
                    maint.push(pc::processing_cost(&model, &mld, sub, Choice::Index(org)));
                    size.push(model.size_pages(org, sub));
                }
                pair[r][org.index()] = id;
            }
        }
        // Enumerate all cut masks × per-piece organizations.
        let mut configs = Vec::new();
        let mut config_pieces = Vec::new();
        for mask in 0u64..(1 << (n - 1)) {
            let mut pieces = Vec::new();
            let mut start = 1usize;
            for pos in 1..=n {
                if pos == n || (mask >> (pos - 1)) & 1 == 1 {
                    pieces.push(SubpathId { start, end: pos });
                    start = pos + 1;
                }
            }
            let mut assign = vec![0usize; pieces.len()];
            loop {
                let mut q = 0.0;
                let mut pairs = Vec::with_capacity(pieces.len());
                for (p, &a) in pieces.iter().zip(&assign) {
                    let r = p.rank(n);
                    q += query[r][a];
                    pairs.push(pair[r][a]);
                }
                configs.push((q, pairs));
                config_pieces.push(
                    pieces
                        .iter()
                        .zip(&assign)
                        .map(|(&p, &a)| (p, Org::ALL[a]))
                        .collect(),
                );
                // Odometer over organizations.
                let mut i = 0;
                loop {
                    if i == assign.len() {
                        break;
                    }
                    assign[i] += 1;
                    if assign[i] < 3 {
                        break;
                    }
                    assign[i] = 0;
                    i += 1;
                }
                if i == assign.len() {
                    break;
                }
            }
        }
        tables.push(PathTable {
            configs,
            pieces: config_pieces,
        });
    }
    Ground {
        tables,
        maint,
        size,
    }
}

impl Ground {
    /// Prices one combination (config index per path) with count-once
    /// accounting. Returns `(cost, size)`.
    fn price(&self, combo: &[usize]) -> (f64, f64) {
        // Enumerable workloads hold well under 128 distinct pairs; a word
        // mask keeps the 10⁶-combination scans allocation-free.
        assert!(self.maint.len() <= 128);
        let mut mask = 0u128;
        let mut cost = 0.0;
        for (t, &c) in self.tables.iter().zip(combo) {
            let (q, pairs) = &t.configs[c];
            cost += q;
            for &p in pairs {
                mask |= 1 << p;
            }
        }
        let mut size = 0.0;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            cost += self.maint[i];
            size += self.size[i];
        }
        (cost, size)
    }

    /// The exhaustive feasible optimum `(cost, size)` under `budget`, if
    /// any combination fits.
    fn feasible_optimum(&self, budget: f64) -> Option<(f64, f64)> {
        let mut best: Option<(f64, f64)> = None;
        self.scan(|cost, size| {
            if size <= budget
                && best.map_or(true, |(bc, bs)| cost < bc || (cost == bc && size < bs))
            {
                best = Some((cost, size));
            }
        });
        best
    }

    /// Whether any combination *cost-dominates* `(cost, size)`: strictly
    /// cheaper while no larger. (Equal-cost combinations that are
    /// marginally leaner can exist — the selection optimizes cost under the
    /// budget and breaks ties toward leaner configurations per path, but
    /// not across global cost ties — so size-only domination at equal cost
    /// is deliberately not flagged.)
    fn dominated(&self, cost: f64, size: f64) -> Option<(f64, f64)> {
        let ctol = 1e-9 * cost.abs().max(1.0);
        let stol = 1e-9 * size.abs().max(1.0);
        let mut witness = None;
        self.scan(|c, s| {
            if witness.is_none() && c < cost - ctol && s <= size + stol {
                witness = Some((c, s));
            }
        });
        witness
    }

    /// Runs `visit(cost, size)` over every combination.
    fn scan(&self, mut visit: impl FnMut(f64, f64)) {
        let mut combo = vec![0usize; self.tables.len()];
        loop {
            let (cost, size) = self.price(&combo);
            visit(cost, size);
            let mut i = 0;
            loop {
                if i == combo.len() {
                    return;
                }
                combo[i] += 1;
                if combo[i] < self.tables[i].configs.len() {
                    break;
                }
                combo[i] = 0;
                i += 1;
            }
        }
    }
}

/// The one feasible budgeted solve of
/// [`budgeted_plans_match_the_exhaustive_feasible_optimum`] that misses the
/// exhaustive optimum: `(seed, budget fraction, cost / optimum)`, measured
/// at 1.055066040. Its bound is the measured ratio plus [`GAP_MARGIN`]; every
/// other feasible solve must reach the optimum to 1e-9 relative. Without
/// the eviction descent's incumbent, seed 3 at 35 % reads 1.198 and fails.
const MEASURED_GAPS: [(u64, f64, f64); 1] = [(1994, 0.9, 1.055_066)];
/// Slack above a recorded gap: the sixth decimal's rounding plus float
/// noise, far below any lost optimum.
const GAP_MARGIN: f64 = 1e-5;
/// How far, relative, an unconstrained plan's total may sit from the
/// exhaustive optimum it reaches: the two sides sum the same terms in
/// different orders. The largest distance measured over the five seeds is
/// 1.83e-16 (seed 1994, one ulp); a fold of n positive terms rounds by at
/// most about n·2⁻⁵³ of its sum, and 1e-14 covers n = 45 per side while
/// staying far below the gap between two distinct configurations.
const FOLD_NOISE: f64 = 1e-14;

fn small_workload(seed: u64) -> SynthWorkload {
    synth_workload(&WorkloadSpec {
        paths: 3,
        depth: 3,
        fanout: 2,
        seed,
    })
}

#[test]
fn budgeted_plans_match_the_exhaustive_feasible_optimum() {
    // Budgeted solves whose λ sweeps priced under a non-empty prune mask:
    // the enumeration is what shows the mask never changes the winner.
    let mut masked = 0;
    for seed in [3u64, 11, 42, 77, 1994] {
        let w = small_workload(seed);
        let params = CostParams::default();
        let ground = ground_truth(&w, params);
        let unconstrained = w.advisor(params).optimize();
        // The advisor's own accounting agrees with the ground truth at no
        // budget: its plan re-prices to the same totals.
        let opt = ground
            .feasible_optimum(f64::INFINITY)
            .expect("some combination exists");
        let tol = FOLD_NOISE * opt.0.abs().max(1.0);
        assert!(
            unconstrained.total_cost >= opt.0 - tol,
            "seed {seed}: advisor {} beat the exhaustive optimum {}",
            unconstrained.total_cost,
            opt.0
        );
        assert!(
            unconstrained.total_cost <= opt.0 + tol,
            "seed {seed}: advisor {} missed the exhaustive optimum {}",
            unconstrained.total_cost,
            opt.0
        );
        for frac in [0.35f64, 0.5, 0.75, 0.9] {
            let budget = unconstrained.size_pages * frac;
            let b = w.advisor(params).optimize_with_budget(budget);
            masked += usize::from(b.plan.lambda_pruned > 0);
            let feasible_opt = ground.feasible_optimum(budget);
            match (b.feasible, feasible_opt) {
                (true, Some((opt_cost, _))) => {
                    assert!(
                        b.plan.size_pages <= budget + 1e-9 * budget.max(1.0),
                        "seed {seed} frac {frac}: {} pages over budget {budget}",
                        b.plan.size_pages
                    );
                    let scale = opt_cost.abs().max(1.0);
                    // Never better than the true optimum (accounting sanity)…
                    assert!(
                        b.plan.total_cost >= opt_cost - 1e-9 * scale,
                        "seed {seed} frac {frac}: beat the optimum"
                    );
                    // …not *dominated* by any feasible combination (no
                    // combo is cheaper without being larger)…
                    if let Some((c, s)) = ground.dominated(b.plan.total_cost, b.plan.size_pages) {
                        panic!(
                            "seed {seed} frac {frac}: plan ({:?}, {:?}) dominated by \
                             combination ({c:?}, {s:?})",
                            b.plan.total_cost, b.plan.size_pages
                        );
                    }
                    // …and the exhaustive feasible optimum itself, or
                    // within the recorded gap of it.
                    let bound = MEASURED_GAPS
                        .iter()
                        .find(|&&(s, f, _)| s == seed && f == frac)
                        .map_or(1.0 + 1e-9, |&(_, _, ratio)| ratio + GAP_MARGIN);
                    assert!(
                        b.plan.total_cost <= bound * opt_cost,
                        "seed {seed} frac {frac}: plan {} vs exhaustive optimum {opt_cost} \
                         (ratio {:.9}, bound {bound})",
                        b.plan.total_cost,
                        b.plan.total_cost / opt_cost
                    );
                }
                (false, None) => {} // both sides agree the budget is impossible
                (advisor, exhaustive) => panic!(
                    "seed {seed} frac {frac}: advisor feasible={advisor} but \
                     exhaustive feasible={}",
                    exhaustive.is_some()
                ),
            }
        }
    }
    assert!(masked > 0, "no budgeted solve ran masked");
}

#[test]
fn infinite_budget_reproduces_optimize_bit_identically() {
    for seed in [7u64, 21] {
        let w = small_workload(seed);
        let params = CostParams::default();
        let plan = w.advisor(params).optimize();
        // Unbounded, and exactly the unconstrained footprint: both slack.
        for budget in [f64::INFINITY, plan.size_pages] {
            let budgeted = w.advisor(params).optimize_with_budget(budget);
            assert!(budgeted.feasible);
            assert_eq!(budgeted.lambda, 0.0, "seed {seed} budget {budget}");
            assert_eq!(
                budgeted.plan.total_cost.to_bits(),
                plan.total_cost.to_bits(),
                "seed {seed} budget {budget}"
            );
            assert_eq!(
                budgeted.plan.size_pages.to_bits(),
                plan.size_pages.to_bits()
            );
            for (a, b) in budgeted.plan.paths.iter().zip(&plan.paths) {
                assert_eq!(a.selection.pairs(), b.selection.pairs(), "seed {seed}");
            }
        }
    }
}

/// Half the storage for a modest time premium: on an update-significant
/// mix (the generator's update rates ×5, query rates ×0.5), a budget of
/// 50 % of the unconstrained footprint is feasible and costs 1.109767× the
/// unconstrained optimum (measured), held to ± [`HALF_MARGIN`].
#[test]
fn half_the_footprint_costs_at_most_a_quarter_more_on_a_balanced_mix() {
    let w = synth_workload(&WorkloadSpec {
        paths: 48,
        depth: 5,
        fanout: 3,
        seed: 1994,
    });
    let mut adv = WorkloadAdvisor::new(&w.schema, CostParams::default())
        .with_stats(|c| w.stats[c.index()])
        .with_maintenance(|c| {
            let (beta, gamma) = w.maint[c.index()];
            (beta * 5.0, gamma * 5.0)
        });
    for (path, alphas) in w.paths.iter().zip(&w.queries) {
        adv.add_path(path.clone(), |c| alphas[c.index()] * 0.5);
    }
    let unconstrained = adv.optimize();
    let (c0, budget) = (unconstrained.total_cost, 0.5 * unconstrained.size_pages);
    let b = adv.optimize_with_budget(budget);
    assert!(b.feasible, "the 50% budget is feasible on this workload");
    assert!(
        b.plan.size_pages <= budget + 1e-9 * budget.max(1.0),
        "{} pages over budget {budget}",
        b.plan.size_pages
    );
    // Above the band the search lost quality; below it, it found a cheaper
    // plan or the accounting moved: either way re-measure on purpose.
    let ratio = b.plan.total_cost / c0;
    assert!(
        (ratio - HALF_RATIO).abs() <= HALF_MARGIN,
        "50% budget: cost {} is {ratio:.6}× the unconstrained {c0}, recorded {HALF_RATIO} ± {HALF_MARGIN}",
        b.plan.total_cost
    );
}

/// The 50 %-budget cost over the unconstrained optimum on the balanced mix,
/// as measured (1.109766887), and the band held around it.
const HALF_RATIO: f64 = 1.109_767;
const HALF_MARGIN: f64 = 1e-3;

// ---- the unconstrained engine against the same tables (DESIGN.md §5.15) ---

impl Ground {
    /// The combination a plan selected: per path, the row of its selection.
    fn combo_of(&self, plan: &WorkloadPlan) -> Vec<usize> {
        assert_eq!(plan.paths.len(), self.tables.len());
        plan.paths
            .iter()
            .zip(&self.tables)
            .map(|(p, t)| {
                let sel: Vec<(SubpathId, Org)> = p
                    .selection
                    .pairs()
                    .iter()
                    .map(|&(sub, choice)| match choice {
                        Choice::Index(org) => (sub, org),
                        Choice::NoIndex => panic!("workload plans index every piece"),
                    })
                    .collect();
                t.pieces
                    .iter()
                    .position(|pieces| *pieces == sel)
                    .expect("the selection is a legal configuration")
            })
            .collect()
    }

    /// What path `i` pays optimizing alone: its cheapest row with every
    /// allocated index's maintenance its own.
    fn standalone(&self, i: usize) -> f64 {
        self.tables[i]
            .configs
            .iter()
            .map(|(q, pairs)| q + pairs.iter().map(|&p| self.maint[p]).sum::<f64>())
            .fold(f64::INFINITY, f64::min)
    }

    /// The tables grouped by chains of shared pairs — the candidate-sharing
    /// components, derived from physical identities alone — each group a
    /// `Ground` of its own (groups share no pair, so they price
    /// independently and their optima add up).
    fn components(&self) -> Vec<Ground> {
        let masks: Vec<u128> = self
            .tables
            .iter()
            .map(|t| {
                let pairs = t.configs.iter().flat_map(|(_, pairs)| pairs);
                pairs.fold(0, |mask, &p| mask | 1 << p)
            })
            .collect();
        let mut label: Vec<usize> = (0..masks.len()).collect();
        for i in 0..masks.len() {
            for j in 0..i {
                if masks[i] & masks[j] != 0 {
                    let (from, to) = (label[i], label[j]);
                    for l in label.iter_mut().filter(|l| **l == from) {
                        *l = to;
                    }
                }
            }
        }
        let mut groups = label.clone();
        groups.sort_unstable();
        groups.dedup();
        groups
            .iter()
            .map(|g| Ground {
                tables: (0..masks.len())
                    .filter(|&i| label[i] == *g)
                    .map(|i| self.tables[i].clone())
                    .collect(),
                maint: self.maint.clone(),
                size: self.size.clone(),
            })
            .collect()
    }

    /// The oracle of the unconstrained engine, on one plan:
    ///
    /// (a) every reported total re-derives from the tables — the workload
    ///     objective and footprint, the independent cost (each path's
    ///     exhaustive standalone minimum, so a wrong dominance strike
    ///     shows here first), and each path's query share **bitwise**
    ///     (the tables price every path from scratch, so this is also
    ///     the per-signature basis replay against its definition);
    /// (b) the plan is a unilateral fixed point: with the other paths
    ///     held, no row of any path's table lowers the total — what a
    ///     converged descent guarantees, and what a lost component, a
    ///     wrongly merged or split one, or a cell struck in error breaks;
    /// (c) exhaustive optimum ≤ total ≤ independent cost, the optimum
    ///     enumerated per table-derived component — whose count and
    ///     largest size must be the plan's.
    fn assert_explains(&self, plan: &WorkloadPlan, ctx: &str) {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        let combo = self.combo_of(plan);
        let (cost, size) = self.price(&combo);
        assert!(
            close(plan.total_cost, cost),
            "{ctx}: total {} vs {cost}",
            plan.total_cost
        );
        assert!(
            close(plan.size_pages, size),
            "{ctx}: pages {} vs {size}",
            plan.size_pages
        );
        for (i, (p, &c)) in plan.paths.iter().zip(&combo).enumerate() {
            let q = self.tables[i].configs[c].0;
            assert_eq!(
                p.query_cost.to_bits(),
                q.to_bits(),
                "{ctx}: path {i} query share"
            );
            let alone = self.standalone(i);
            assert!(
                close(p.standalone_cost, alone),
                "{ctx}: path {i} standalone {} vs exhaustive {alone}",
                p.standalone_cost
            );
        }
        let tol = 1e-9 * cost.abs().max(1.0);
        let mut trial = combo.clone();
        for i in 0..combo.len() {
            for c in 0..self.tables[i].configs.len() {
                trial[i] = c;
                let (alt, _) = self.price(&trial);
                assert!(
                    alt >= cost - tol,
                    "{ctx}: path {i} improves the plan alone ({cost} -> {alt}, row {c})"
                );
            }
            trial[i] = combo[i];
        }
        let parts = self.components();
        assert_eq!(plan.components, parts.len(), "{ctx}: components");
        assert_eq!(
            plan.largest_component,
            parts.iter().map(|g| g.tables.len()).max().unwrap_or(0),
            "{ctx}: largest component"
        );
        let optimum: f64 = parts
            .iter()
            .map(|g| g.feasible_optimum(f64::INFINITY).expect("non-empty").0)
            .sum();
        assert!(optimum <= plan.total_cost + tol, "{ctx}: beat the optimum");
        assert!(
            plan.total_cost <= plan.independent_cost + tol,
            "{ctx}: sharing raised the cost"
        );
    }
}

/// One epoch of churn through the public mutators, mirrored into `m` so
/// the tables can be rebuilt for the mutated workload. Epoch 0 shrinks
/// (departure, statistics drift, query churn); epoch 1 regrows with a twin
/// of path 0 — a new sharing partner, and after the statistics drift a
/// signature with two dirty members — under redrawn maintenance rates.
fn churn(adv: &mut WorkloadAdvisor<'_>, m: &mut SynthWorkload, epoch: usize) {
    let root = m.root;
    let s = m.stats[root.index()];
    m.stats[root.index()] = ClassStats::new(s.n * (2.0 + epoch as f64), s.d, s.nin);
    assert!(adv.update_stats(root, m.stats[root.index()]));
    if epoch == 0 {
        let last = adv.path_ids().last().expect("non-empty workload");
        adv.remove_path(last).expect("live handle");
        m.paths.pop();
        m.queries.pop();
        for q in &mut m.queries[0] {
            *q = *q * 4.0 + 0.01;
        }
        let first = adv.path_ids().next().expect("non-empty workload");
        assert!(adv.update_query_rates(first, |c| m.queries[0][c.index()]));
    } else {
        let (beta, gamma) = m.maint[root.index()];
        m.maint[root.index()] = (beta + 0.25, gamma + 0.125);
        assert!(adv.update_rates(root, m.maint[root.index()]));
        let twin: Vec<f64> = m.queries[0].iter().map(|q| q * 0.5).collect();
        adv.add_path_dense(m.paths[0].clone(), twin.clone());
        m.paths.push(m.paths[0].clone());
        m.queries.push(twin);
    }
}

/// The engine's independent oracle (it replaces the bit-identity check
/// against a second, global engine): forests of 2–3 trees and 4 paths of
/// depth ≤ 3 — small enough to enumerate every combination — cold and
/// after two epochs of churn. Most such workloads already share at their
/// standalone seeds; 48 seeds hold a dozen whose descent has to move, with
/// and without a non-empty prune mask, in both tree counts.
#[test]
fn unconstrained_plans_are_priced_fixed_points_of_the_exhaustive_tables() {
    let params = CostParams::default();
    // Cases on which each piece of machinery provably engaged.
    let (mut skipped, mut pruned, mut twins) = (0, 0, 0);
    // … and on which the descent moved a path off its standalone seed (the
    // cases a dropped component fails on), cold and after churn.
    let mut moved = [0, 0];
    for seed in 0u64..48 {
        for roots in [2usize, 3] {
            let spec = ForestSpec {
                roots,
                paths: 4,
                depth: 3,
                fanout: 2,
                seed,
            };
            // The advisor borrows `w`; churn is mirrored into a twin.
            let (w, mut m) = (synth_forest(&spec), synth_forest(&spec));
            let mut adv = w.advisor(params);
            for epoch in 0..3 {
                if epoch > 0 {
                    churn(&mut adv, &mut m, epoch - 1);
                }
                let plan = adv.reoptimize();
                let ctx = format!("seed {seed}, {roots} trees, epoch {epoch}");
                ground_truth(&m, params).assert_explains(&plan, &ctx);
                moved[epoch.min(1)] += usize::from(plan.sweeps > 1);
                skipped += usize::from(plan.speculation_skips > 0);
                pruned += usize::from(plan.candidates_pruned > 0);
                let signatures: Vec<_> = m.paths.iter().map(|p| p.signature()).collect();
                twins += usize::from(
                    (1..signatures.len()).any(|i| signatures[..i].contains(&signatures[i])),
                );
            }
        }
    }
    for (what, cases) in [
        ("a cold descent moved off its seed", moved[0]),
        ("a warm descent moved off its seed", moved[1]),
        ("a singleton component was skipped", skipped),
        ("the dominance pruner struck a cell", pruned),
        ("two paths shared a signature", twins),
    ] {
        assert!(cases > 0, "no generated case where {what}");
    }
}

// ---- the recorded eviction descent (DESIGN.md §5.12) ----------------------

/// A mid-size single-tree workload: three large candidate-sharing
/// components, descents of a few dozen evictions.
fn tree_workload(paths: usize, seed: u64) -> SynthWorkload {
    synth_workload(&WorkloadSpec {
        paths,
        depth: 4,
        fanout: 2,
        seed,
    })
}

/// One public mutator applied to an advisor over workload `w`.
type Mutator<'w> = fn(&mut WorkloadAdvisor<'w>, &'w SynthWorkload);

/// The five public mutators, by name.
fn mutators<'w>() -> Vec<(&'static str, Mutator<'w>)> {
    vec![
        ("add_path", |adv, w| {
            adv.add_path(w.paths[0].clone(), |c| w.queries[0][c.index()] * 2.0);
        }),
        ("remove_path", |adv, _| {
            let last = adv.path_ids().last().expect("non-empty workload");
            adv.remove_path(last).expect("live handle");
        }),
        ("update_stats", |adv, w| {
            let s = w.stats[w.root.index()];
            assert!(adv.update_stats(w.root, ClassStats::new(s.n * 3.0, s.d, s.nin)));
        }),
        ("update_rates", |adv, w| {
            let (beta, gamma) = w.maint[w.root.index()];
            assert!(adv.update_rates(w.root, (beta + 0.25, gamma + 0.125)));
        }),
        ("update_query_rates", |adv, w| {
            let first = adv.path_ids().next().expect("non-empty workload");
            assert!(adv.update_query_rates(first, |c| w.queries[0][c.index()] * 4.0 + 0.01));
        }),
    ]
}

/// Every public mutator between two budgeted calls retires the recorded
/// descent. The witness is a twin advisor with the same history that never
/// recorded one (it ran a plain `optimize()` first): after the mutation
/// the two budgeted results are bit-identical *and* ran the same number of
/// eviction trials — the first advisor re-walked, it did not reuse. The
/// result also matches a cold rebuild of the mutated workload (up to the
/// warm-vs-cold float noise `evolving.rs` documents).
#[test]
fn every_mutator_drops_the_recorded_descent() {
    let params = CostParams::default();
    for seed in [5u64, 1994] {
        let w = tree_workload(24, seed);
        let size = w.advisor(params).optimize().size_pages;
        for (name, mutate) in mutators() {
            let ctx = format!("seed {seed}, {name}");
            let mut adv = w.advisor(params);
            let first = adv.optimize_with_budget(0.3 * size);
            assert!(
                first.evictions > 0,
                "{ctx}: the first call must record a descent"
            );
            let mut twin = w.advisor(params);
            twin.optimize();
            mutate(&mut adv, &w);
            mutate(&mut twin, &w);
            let warm = adv.optimize_with_budget(0.5 * size);
            let fresh = twin.optimize_with_budget(0.5 * size);
            assert!(warm.evictions > 0, "{ctx}: the budget must still bind");
            warm.assert_bit_identical_to(&fresh, &ctx);
            assert_eq!(warm.eviction_trials, fresh.eviction_trials, "{ctx}: trials");

            let cold = adv.rebuild().optimize_with_budget(0.5 * size);
            assert_eq!(warm.feasible, cold.feasible, "{ctx}");
            assert_eq!(warm.evictions, cold.evictions, "{ctx}: evictions");
            let tol = 1e-9 * cold.plan.total_cost.abs().max(1.0);
            assert!(
                (warm.plan.total_cost - cold.plan.total_cost).abs() < tol,
                "{ctx}: warm {} vs cold {}",
                warm.plan.total_cost,
                cold.plan.total_cost
            );
            for (a, b) in warm.plan.paths.iter().zip(&cold.plan.paths) {
                assert_eq!(a.selection.pairs(), b.selection.pairs(), "{ctx}");
            }
        }
    }
}

/// Seeded 8–64-path workloads under binding budgets. In debug builds every
/// eviction trial of every round — run fresh or kept from the previous
/// round — has the `(Δcost, Δsize)` it is priced by, summed from the few
/// terms it changes, compared with the totals of a ledger built from
/// scratch on the applied trial minus the round's totals, to 1e-9 of the
/// larger total; every kept trial is run again and compared with the
/// re-selection and the delta it kept (the delta `to_bits()`: a kept
/// trial keeps its price); and the round an adopted eviction moves is
/// compared `to_bits()` with one built from scratch (three `debug_assert`s
/// inside the descent, the adopted trial included). So this test fails on
/// the first trial priced by a term it does not change or missing one it
/// does, on the first kept trial an eviction disturbed without dropping
/// it, and on the first trail step whose totals drift by one ulp.
#[test]
fn trial_deltas_match_full_repricing() {
    let params = CostParams::default();
    let mut trials = 0;
    for (paths, seed) in [(8usize, 3u64), (16, 11), (32, 42), (64, 77)] {
        for (roots, frac) in [(1usize, 0.25f64), (1, 0.6), (3, 0.4)] {
            let w = synth_forest(&ForestSpec {
                roots,
                paths,
                depth: 4,
                fanout: 2,
                seed,
            });
            let mut adv = w.advisor(params);
            let size = adv.optimize().size_pages;
            let b = adv.optimize_with_budget(frac * size);
            assert!(
                b.evictions > 0,
                "{paths} paths, seed {seed}: no descent ran"
            );
            assert!(b.eviction_trials >= b.evictions as u64);
            trials += b.eviction_trials;
        }
    }
    assert!(trials > 1_000, "only {trials} trials exercised");
}

/// Eviction trials the cold 25 % solve on the 250-path tree of
/// `tests/golden_decisions.rs` ran when an eviction dropped every kept
/// trial of its component, recorded before trials were kept per owner.
const COMPONENT_SCOPED_TRIALS: u64 = 8_509;

/// The same solve's trials when an eviction dropped every trial with an
/// owner holding a candidate of a re-selected path's old or new pieces:
/// 53 % fewer.
const OWNER_SCOPED_TRIALS: u64 = 3_960;
const _: () = assert!(OWNER_SCOPED_TRIALS < COMPONENT_SCOPED_TRIALS);

/// The same solve's trials now that an eviction drops a trial only when
/// one of its owners moved, or a cell on an owner's candidates changed its
/// holder count with `min(old, new) ≤ |owners|`: 70 % fewer again.
const CELL_SCOPED_TRIALS: u64 = 1_185;
const _: () = assert!(CELL_SCOPED_TRIALS < OWNER_SCOPED_TRIALS);

/// The walk's work contract on the 250-path tree (depth 5, fanout 3, seed
/// 7) at `lanes` lanes: the cold 25 % solve runs [`CELL_SCOPED_TRIALS`]
/// trials, and the 50 % and 75 % solves after it land on the recorded
/// trail without a trial. One test per lane count, so the three debug
/// walks (each re-checks every trial) run side by side.
fn assert_walk_trials(lanes: usize) {
    let w = synth_workload(&WorkloadSpec {
        paths: 250,
        depth: 5,
        fanout: 3,
        seed: 7,
    });
    let mut adv = w.advisor(CostParams::default()).with_threads(lanes);
    let size = adv.optimize().size_pages;
    let cold = adv.optimize_with_budget(0.25 * size);
    assert_eq!(cold.eviction_trials, CELL_SCOPED_TRIALS, "{lanes} lanes");
    for f in [0.5, 0.75] {
        let served = adv.optimize_with_budget(f * size);
        assert_eq!(served.eviction_trials, 0, "{lanes} lanes, {f}: trail");
    }
}

#[test]
fn eviction_walk_runs_only_disturbed_trials_one_lane() {
    assert_walk_trials(1);
}

#[test]
fn eviction_walk_runs_only_disturbed_trials_two_lanes() {
    assert_walk_trials(2);
}

#[test]
fn eviction_walk_runs_only_disturbed_trials_eight_lanes() {
    assert_walk_trials(8);
}

/// A budget below the workload's minimum footprint walks the descent to
/// its dead end; asking again — directly, or after a feasible budget in
/// between — is answered from the dead-ended trail without a single new
/// trial, and returns the same infeasible leanest plan as a cold call.
#[test]
fn dead_ended_trail_serves_infeasible_budgets() {
    let params = CostParams::default();
    for seed in [9u64, 1994] {
        let w = tree_workload(24, seed);
        let mut adv = w.advisor(params);
        let size = adv.optimize().size_pages;
        let tiny = 0.01 * size;
        let cold = adv.rebuild().optimize_with_budget(tiny);
        assert!(
            !cold.feasible,
            "seed {seed}: 1 % of the footprint must not fit"
        );
        let walked = adv.optimize_with_budget(tiny);
        walked.assert_same_plan(&cold, &format!("seed {seed}: first walk"));
        assert_eq!(walked.eviction_trials, cold.eviction_trials);
        let again = adv.optimize_with_budget(tiny);
        again.assert_same_plan(&cold, &format!("seed {seed}: served from the dead end"));
        assert_eq!(again.eviction_trials, 0);
        let loose = adv.optimize_with_budget(0.6 * size);
        assert!(loose.feasible && loose.evictions < again.evictions);
        assert_eq!(
            loose.eviction_trials, 0,
            "a prefix of the trail needs no trial"
        );
        adv.optimize_with_budget(tiny)
            .assert_same_plan(&cold, &format!("seed {seed}: after a feasible budget"));
    }
}
