//! Selection under a shared page budget (DESIGN.md §5.12): λ-priced
//! sweeps, the recorded eviction descent and the frontier repair pass.

use super::descent::{Memo, Shards, MAX_SWEEPS};
use super::ledger::{self, pair_at, slot, Holders, Ledger, Overlay, Pair};
use super::pricing::{
    best_response, frontier_response, to_selection, true_marginal, Bans, FoldedRows,
    FrontierTables, Pricing, Source,
};
use super::state::PathState;
use super::{Selection, WorkloadAdvisor, WorkloadPlan};
use crate::space::CandidateSpace;
use oic_exec::Executor;
use std::sync::{Mutex, PoisonError};

/// One eviction trial's outcome: the re-selected owners of the banned
/// index, ascending by path index (a path never repeats a class, so its
/// ranks are distinct candidates and it owns an index at most once) —
/// everything a trial changes — and what that changes in the round's
/// `(cost, size)` ([`Overlay::delta`]). `None` when the ban left some
/// owner uncoverable.
type Reselection = Option<(Vec<(usize, Selection)>, (f64, f64))>;

/// Whether two trial outcomes are the same, their deltas bit for bit (a
/// NaN delta under hostile rates equals itself).
fn same_trial(a: &Reselection, b: &Reselection) -> bool {
    let bits = |(cost, size): (f64, f64)| (cost.to_bits(), size.to_bits());
    match (a, b) {
        (Some((a, da)), Some((b, db))) => a == b && bits(*da) == bits(*db),
        (a, b) => a.is_none() && b.is_none(),
    }
}

/// A [`WorkloadPlan`] selected under a shared page budget, with the
/// telemetry of the search that found it: λ-priced sweeps (bracketing +
/// bisection), the greedy eviction descent, and the frontier repair pass.
/// Produced by [`WorkloadAdvisor::optimize_with_budget`].
#[derive(Debug)]
pub struct BudgetedWorkloadPlan {
    /// The selected plan; [`WorkloadPlan::size_pages`] is its footprint
    /// (each distinct physical index's pages counted once).
    pub plan: WorkloadPlan,
    /// The budget the selection ran under.
    pub budget_pages: f64,
    /// Whether the plan fits the budget. `false` only when even the most
    /// size-averse sweep exceeds it (budget below the workload's minimum
    /// footprint); the returned plan is then that leanest plan.
    pub feasible: bool,
    /// The Lagrange multiplier of the λ sweep that produced the plan; 0
    /// when the plan did not come from a λ sweep — the unconstrained
    /// optimum already fit, or the greedy eviction descent won.
    pub lambda: f64,
    /// λ-priced coordinate-descent sweeps run (bracketing + bisection) —
    /// one of the search's two directions; the other is the eviction
    /// descent counted by [`Self::evictions`].
    pub lambda_sweeps: usize,
    /// Per-path selections replaced by the frontier repair pass.
    pub repairs: usize,
    /// Evictions between the unconstrained optimum and the point where the
    /// eviction descent met the budget (or dead-ended) — whether or not
    /// that point beat the λ sweeps. A logical count: the same for a call
    /// served from the advisor's recorded descent trail and for a cold
    /// one, for every lane count. 0 when the budget was slack.
    pub evictions: usize,
    /// Eviction trials this call actually ran (each bans one physical
    /// index and re-selects all of its owners with a frontier DP). A work
    /// counter like the inner epoch's `dp_runs`: trials kept from an
    /// earlier round — because nothing they read moved — and whole rounds
    /// answered from the recorded trail are not counted, so it is 0 for a
    /// call the trail serves outright. The same for every lane count, and
    /// excluded from the identity asserts.
    pub eviction_trials: u64,
    /// Cost of the unconstrained optimum (the budget-∞ baseline).
    pub unconstrained_cost: f64,
    /// Footprint of the unconstrained optimum.
    pub unconstrained_size: f64,
}

impl BudgetedWorkloadPlan {
    /// `total_cost / unconstrained_cost` — the price of the budget, ≥ 1 up
    /// to float noise (1 when the budget is slack). 1 as well when both
    /// costs are zero — an empty advisor, or a workload whose rates are
    /// all zero — rather than `0 / 0`.
    pub fn cost_ratio(&self) -> f64 {
        if self.plan.total_cost == 0.0 && self.unconstrained_cost == 0.0 {
            1.0
        } else {
            self.plan.total_cost / self.unconstrained_cost
        }
    }

    /// [`WorkloadPlan::assert_bit_identical_to`] extended over the budget
    /// search's own outcome: feasibility, the winning λ, and the
    /// sweep/repair/eviction telemetry must match too (all but the
    /// `eviction_trials` work counter, which depends on what the advisor's
    /// descent trail already held).
    pub fn assert_bit_identical_to(&self, other: &BudgetedWorkloadPlan, ctx: &str) {
        self.plan.assert_bit_identical_to(&other.plan, ctx);
        self.assert_same_search(other, ctx);
    }

    /// [`WorkloadPlan::assert_same_plan`] extended over the budget
    /// search's outcome: everything except the work counters (the inner
    /// epoch's, and `eviction_trials`) must agree — what a call served
    /// from the recorded descent trail shares with a cold one.
    pub fn assert_same_plan(&self, other: &BudgetedWorkloadPlan, ctx: &str) {
        self.plan.assert_same_plan(&other.plan, ctx);
        self.assert_same_search(other, ctx);
    }

    /// The budget search's own outcome, common to both asserts above.
    fn assert_same_search(&self, other: &BudgetedWorkloadPlan, ctx: &str) {
        assert_eq!(self.feasible, other.feasible, "{ctx}: feasibility");
        assert_eq!(self.lambda_sweeps, other.lambda_sweeps, "{ctx}: λ sweeps");
        assert_eq!(self.repairs, other.repairs, "{ctx}: repairs");
        assert_eq!(self.evictions, other.evictions, "{ctx}: evictions");
        for (what, a, b) in [
            ("λ", self.lambda, other.lambda),
            (
                "unconstrained cost",
                self.unconstrained_cost,
                other.unconstrained_cost,
            ),
            (
                "unconstrained size",
                self.unconstrained_size,
                other.unconstrained_size,
            ),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: {what}");
        }
    }
}

/// The budgeted search's eviction descent from the unconstrained optimum,
/// as far as some call has walked it. The walk reads the budget only in
/// its stop test — which index to evict next depends on the selections and
/// the bans alone — so one trail serves every budget: a looser budget
/// lands on an earlier step, a tighter one extends the walk from the end.
/// Any mutation of the advisor drops it; until then it also keeps the
/// trials of the next round that the last eviction did not disturb.
#[derive(Default)]
pub(super) struct EvictionTrail {
    /// One step per adopted eviction. Footprints strictly decrease.
    steps: Vec<TrailStep>,
    /// Every index evicted so far, as a 3-bit organization mask per
    /// candidate; they stay banned so a later owner's re-selection cannot
    /// smuggle one back.
    banned: Vec<u8>,
    /// The walk found no eviction that frees a page at the last step: no
    /// budget below that step's footprint is reachable.
    dead_end: bool,
    /// The outcome of each trial whose inputs are still those of the
    /// walk's current end: its owners' selections, the bans over their
    /// candidates, and whether a path outside them holds each of their
    /// cells. An eviction drops the trials whose inputs it may have moved
    /// ([`WorkloadAdvisor::drop_disturbed_trials`]), and every other trial
    /// keeps its re-selection and its delta for the next round. By
    /// [`ledger::slot`]; `None` where no trial is kept.
    trials: Vec<Option<Reselection>>,
}

/// One adopted eviction: the owners it re-selected and the workload's
/// true `(cost, size)` afterwards, bit-identical to the [`Ledger`] totals
/// of the resulting selections.
struct TrailStep {
    changed: Vec<(usize, Selection)>,
    cost: f64,
    size: f64,
}

impl EvictionTrail {
    /// Whether the recorded walk already answers `budget_pages` with no
    /// trial to run: a step fits it, or the walk dead-ended.
    fn answers(&self, budget_pages: f64) -> bool {
        self.dead_end || self.steps.iter().any(|s| s.size <= budget_pages)
    }

    /// The selections after the first `steps` evictions, from the
    /// unconstrained `base`.
    fn selections_at(&self, base: &[Selection], steps: usize) -> Vec<Selection> {
        let mut selections = base.to_vec();
        for step in &self.steps[..steps] {
            for (i, sel) in &step.changed {
                selections[*i].clone_from(sel);
            }
        }
        selections
    }
}

/// A search result: the selections, their true `(cost, size)`, and the λ
/// that produced them (0 = not from a λ sweep).
type Found = (Vec<Selection>, f64, f64, f64);

/// The budget search's incumbents: the cheapest result that fits, and —
/// until one does — the leanest seen (reported, flagged infeasible, when
/// nothing fits).
#[derive(Default)]
struct Incumbents {
    best: Option<Found>,
    leanest: Option<Found>,
}

impl Incumbents {
    fn offer(&mut self, budget_pages: f64, found: Found) {
        let (cost, size) = (found.1, found.2);
        let leaner = |b: &Found| size < b.2 || (size == b.2 && cost < b.1);
        if size <= budget_pages {
            if self.best.as_ref().map_or(true, |b| cost < b.1) {
                self.best = Some(found);
            }
        } else if self.best.is_none() && self.leanest.as_ref().map_or(true, leaner) {
            self.leanest = Some(found);
        }
    }
}

/// One lane of [`side_by_side`]: its work, until a lane takes it.
type Lane<'a> = Mutex<Option<Box<dyn FnOnce() + Send + 'a>>>;

/// `(a(), b())`, each on its own lane of `exec` when it has two: this
/// batch holds the pool, so the batches that `a` and `b` issue run
/// inline, one lane each. On one lane, `a` runs first. A lock is poisoned
/// only by a panic, which `par_map` resumes on the caller.
fn side_by_side<A, B>(
    exec: &Executor,
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B)
where
    A: Default + Send,
    B: Default + Send,
{
    let (mut from_a, mut from_b) = (A::default(), B::default());
    let lanes: [Lane<'_>; 2] = [
        Mutex::new(Some(Box::new(|| from_a = a()))),
        Mutex::new(Some(Box::new(|| from_b = b()))),
    ];
    exec.par_map(&lanes, |_, lane| {
        let work = lane.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(work) = work {
            work();
        }
    });
    drop(lanes);
    (from_a, from_b)
}

/// What every round of one eviction walk reads, kept across its rounds:
/// the [`Ledger`] of the current selections, which every trial forks, and
/// the [`Holders`] of every owned index, listed ascending. An adopted
/// eviction moves them by its re-selected owners alone
/// ([`Round::adopt`]): the ledger's fold is order-independent, so its
/// totals stay bit-equal to a ledger built from scratch on the same
/// selections.
struct Round {
    ledger: Ledger,
    holders: Holders,
}

impl Round {
    fn new(advisor: &WorkloadAdvisor<'_>, selections: &[Selection]) -> Self {
        let paths = advisor.paths.iter().zip(selections);
        let pieces = paths.map(|(st, sel)| st.pieces(sel));
        Round {
            ledger: advisor.ledger(selections),
            holders: Holders::new(&advisor.space, 1, pieces),
        }
    }

    /// Re-selects `changed` in the round and in `selections`.
    fn adopt(
        &mut self,
        space: &CandidateSpace,
        paths: &[PathState],
        selections: &mut [Selection],
        changed: &[(usize, Selection)],
    ) {
        for (i, sel) in changed {
            let (st, old) = (&paths[*i], &mut selections[*i]);
            self.ledger.remove(*i, st.pieces(old));
            self.holders.remove(*i, st.pieces(old));
            self.holders.insert(space, *i, st.pieces(sel));
            self.ledger.insert(space, *i, st.pieces(sel));
            old.clone_from(sel);
        }
        self.ledger.settle();
    }

    /// Whether the round is the one built from scratch on `selections`,
    /// totals bit for bit — the debug check of every adoption.
    fn matches(&self, advisor: &WorkloadAdvisor<'_>, selections: &[Selection]) -> bool {
        let fresh = Round::new(advisor, selections);
        let bits = |(cost, size): (f64, f64)| (cost.to_bits(), size.to_bits());
        bits(self.ledger.totals()) == bits(fresh.ledger.totals()) && self.holders == fresh.holders
    }
}

impl WorkloadAdvisor<'_> {
    /// One full coordinate-descent pass pricing `cost + λ·size` — the
    /// unconstrained sweep in a Lagrangian-relaxed objective, over the
    /// same component kernel. Read-only: neither the sweep memos nor the
    /// standalone caches are touched (they hold λ = 0 artifacts); each
    /// path's starting memo is its context-free response instead (no
    /// context prices like the all-zero one), so a path whose sharing
    /// context did not move — every path, in the confirming no-change
    /// round — is a memo hit. `shards` are the advisor's current
    /// [`Self::components`]; singletons keep their context-free response,
    /// which no other path can ever perturb. Every DP reads the solve's
    /// folded `rows`.
    fn lambda_sweep(&self, lambda: f64, shards: &Shards, rows: &FoldedRows) -> Vec<Selection> {
        let pricing = Pricing {
            lambda,
            ..Pricing::default()
        };
        let paths: Vec<usize> = (0..self.paths.len()).collect();
        let mut selections: Vec<Selection> = self.par_map_dp(&paths, |dp, &i| {
            let mut sel = Selection::new();
            best_response(
                &self.paths[i],
                Source::Row(rows.row(i)),
                pricing,
                dp,
                &mut sel,
            );
            sel
        });
        let outs = self.descend_components(shards, lambda, Memo::Seeded(&selections, rows));
        for (comp, out) in outs {
            for (k, sel) in out.changed {
                selections[comp[k]] = sel;
            }
        }
        selections
    }

    /// The budget search's λ direction: grow λ until a λ-priced sweep
    /// fits `budget_pages` (or its footprint saturates), then bisect
    /// toward the smallest λ whose sweep still fits. `unconstrained` is
    /// the optimum's `(cost, size)`, which seeds the bracket. Returns every
    /// probe offered, in probe order, and the sweeps run. Its sweeps read
    /// the solve's `shards` and folded `rows`.
    fn lambda_search(
        &self,
        budget_pages: f64,
        unconstrained: (f64, f64),
        shards: &Shards,
        rows: &FoldedRows,
    ) -> (Incumbents, usize) {
        let (unconstrained_cost, unconstrained_size) = unconstrained;
        let mut lambda_sweeps = 0usize;
        let mut lo = 0.0f64;
        let mut hi = (unconstrained_cost / unconstrained_size.max(1e-12)).max(1e-9);
        let mut found = Incumbents::default();
        let probe = |l: f64, found: &mut Incumbents| -> f64 {
            let sel = self.lambda_sweep(l, shards, rows);
            let (cost, size) = self.ledger(&sel).totals();
            found.offer(budget_pages, (sel, cost, size, l));
            size
        };
        let mut plateau = 0u32;
        let mut prev_size = f64::NAN;
        for _ in 0..48 {
            lambda_sweeps += 1;
            let size = probe(hi, &mut found);
            if size <= budget_pages {
                break;
            }
            // A footprint that stopped shrinking across several
            // quadruplings of λ has saturated at the workload's minimum:
            // the budget is infeasible, stop escalating.
            if size == prev_size {
                plateau += 1;
                if plateau >= 3 {
                    break;
                }
            } else {
                plateau = 0;
                prev_size = size;
            }
            lo = hi;
            hi *= 4.0;
        }
        if found.best.is_some() {
            // Bisect toward the smallest λ whose sweep still fits — smaller
            // λ weighs cost more, so it can only find cheaper feasible
            // plans.
            for _ in 0..24 {
                let mid = 0.5 * (lo + hi);
                lambda_sweeps += 1;
                let size = probe(mid, &mut found);
                if size <= budget_pages {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
        }
        (found, lambda_sweeps)
    }

    /// Frontier-based greedy repair: round-robin over the paths, replacing
    /// each path's selection by the cheapest point of its *marginal*
    /// `(cost, size)` frontier that fits the budget slack the other paths
    /// leave. Marginal means count-once-aware: cells other paths cover cost
    /// no maintenance and no pages. Each adoption strictly lowers the total
    /// cost while preserving feasibility, so the pass closes (part of) the
    /// duality gap the λ discretization leaves open. Feasibility is the
    /// ledger's own fold: an adoption whose folded footprint would exceed
    /// the budget — the slack and the frontier's sizes round on their own —
    /// is refused, so a repaired plan's `size_pages` fits exactly. Returns
    /// the number of adoptions. Its DPs read the solve's folded `rows`.
    fn repair(&self, selections: &mut [Selection], budget_pages: f64, rows: &FoldedRows) -> usize {
        let mut ledger = self.ledger(selections);
        let mut repairs = 0;
        let (mut context, mut tables, mut point) = (Vec::new(), FrontierTables::default(), vec![]);
        for _ in 0..MAX_SWEEPS {
            let mut changed = false;
            for (i, (st, sel)) in self.paths.iter().zip(selections.iter_mut()).enumerate() {
                ledger.remove(i, st.pieces(sel));
                ledger.settle();
                let slack = budget_pages - ledger.totals().1;
                ledger.context_into(&st.cands, &mut context);
                let pricing = Pricing {
                    context: Some(&context),
                    ..Pricing::default()
                };
                // Marginal (cost, size) of the current selection, for the
                // strict-improvement guard — priced mask-blind: the mask
                // certifies a struck cell belongs to no *optimum*, not
                // that the current selection avoids one (a cell adopted
                // while covered can be struck once its sharer moved away),
                // and an ∞ old price would turn the guard into an
                // unconditional adoption.
                let (old_cost, old_size) = true_marginal(st, &self.space, &context, sel);
                let row = Source::Row(rows.row(i));
                let fits = frontier_response(st, row, pricing, slack, &mut tables, &mut point);
                if let Some((cost, size)) = fits {
                    let tol = 1e-9 * old_cost.abs().max(1.0);
                    let stol = 1e-9 * old_size.abs().max(1.0);
                    // Lexicographic improvement: strictly cheaper, or
                    // equally cheap and strictly leaner (frees slack for
                    // later paths without giving anything up). Strictness
                    // guarantees termination.
                    if cost < old_cost - tol || (cost <= old_cost + tol && size < old_size - stol) {
                        ledger.insert(&self.space, i, st.pieces(&point));
                        ledger.settle();
                        if ledger.totals().1 <= budget_pages {
                            sel.clone_from(&point);
                            repairs += 1;
                            changed = true;
                            continue;
                        }
                        ledger.remove(i, st.pieces(&point));
                    }
                }
                ledger.insert(&self.space, i, st.pieces(sel));
            }
            if !changed {
                break;
            }
        }
        repairs
    }

    /// Greedy eviction descent: starting from the unconstrained
    /// selections `base`, repeatedly **ban the physical index** whose
    /// eviction costs the least per page it frees — all of its owner paths
    /// re-select without it, under the live sharing context — until the
    /// budget fits or no eviction reduces the footprint. The walk is
    /// recorded on (and resumed from) `trail`: returns the number of trail
    /// steps to the landing point — the first step that fits the budget,
    /// or the trail's dead end when none can — and how many eviction
    /// trials this call ran.
    ///
    /// This is the complement of the λ sweep, and it works at the
    /// *candidate* level deliberately: shared candidates couple the paths
    /// (a fat shared index has marginal size zero for every owner but the
    /// last, so no single-path move can free its pages, while in a λ sweep
    /// the first owner leaving strips the others' free ride and the whole
    /// clique stampedes to lean plans far past the budget). Banning the
    /// physical index and re-selecting all its owners at once prices the
    /// coordinated move exactly.
    ///
    /// Work is proportional to what an eviction changes (DESIGN.md
    /// §5.12): the walk builds once what its rounds share — the [`Round`]
    /// every trial forks — and moves it by each adopted eviction alone,
    /// runs only the trials whose inputs the previous eviction moved, and
    /// prices every trial once, by the terms its re-selection changes: a
    /// kept trial keeps its price.
    fn evict_to_budget(
        &self,
        trail: &mut EvictionTrail,
        base: &[Selection],
        budget_pages: f64,
    ) -> (usize, u64) {
        if trail.answers(budget_pages) {
            let fits = trail.steps.iter().position(|s| s.size <= budget_pages);
            return (fits.map_or(trail.steps.len(), |k| k + 1), 0);
        }
        let mut selections = trail.selections_at(base, trail.steps.len());
        let mut trials_run = 0u64;
        // The space cannot change under the trail (any mutation drops
        // it), so its tables keep the size the walk started with.
        trail.banned.resize(self.space.slot_count(), 0);
        trail
            .trials
            .resize_with(ledger::slots(&self.space), || None);
        let mut round = Round::new(self, &selections);
        let mut least_moved = vec![u32::MAX; self.space.slot_count()];
        while !trail.dead_end {
            debug_assert!(
                round.ledger.totals().1 > budget_pages,
                "the walk stops at the first fit"
            );
            // Each trial is read-only given the round's selections, so the
            // fan-out is free of coordination; the selection walks the
            // ascending pair order, which keeps the chosen eviction — and
            // the whole descent — bit-identical to the sequential engine.
            let fresh: Vec<Pair> = round
                .holders
                .listed()
                .map(|(pair, _)| pair)
                .filter(|&pair| trail.trials[slot(pair)].is_none())
                .collect();
            trials_run += fresh.len() as u64;
            let trial_of = |_: usize, &pair: &Pair| {
                let owners = round.holders.of(pair);
                self.eviction_trial(&round.ledger, owners, &selections, &trail.banned, pair)
            };
            // A kept trial IS the trial of this round, delta included, bit
            // for bit: debug builds run every one of them again.
            debug_assert!(
                trail.trials.iter().enumerate().all(|(s, kept)| kept
                    .as_ref()
                    .map_or(true, |kept| same_trial(kept, &trial_of(0, &pair_at(s))))),
                "a kept eviction trial diverged from a fresh run"
            );
            let outcomes: Vec<Reselection> = self.exec.par_map(&fresh, trial_of);
            for (pair, outcome) in fresh.into_iter().zip(outcomes) {
                trail.trials[slot(pair)] = Some(outcome);
            }
            let totals = round.ledger.totals();
            debug_assert!(
                round.holders.listed().all(|(pair, _)| {
                    let kept = trail.trials[slot(pair)].as_ref();
                    kept.and_then(Option::as_ref)
                        .map_or(true, |(changed, delta)| {
                            self.delta_matches(&selections, changed, *delta, totals)
                        })
                }),
                "a trial's delta diverged from a from-scratch ledger's"
            );
            let pairs = round.holders.listed().map(|(pair, _)| pair);
            let Some(pair) = cheapest_eviction(totals.1, pairs, &trail.trials) else {
                trail.dead_end = true; // nothing left to evict
                break;
            };
            let (changed, _) = trail.trials[slot(pair)]
                .take()
                .flatten()
                .expect("the adopted trial re-selected its owners");
            let mut overlay = round.ledger.overlay(&self.space);
            self.apply_trial(&mut overlay, &selections, &changed);
            let moved: Vec<(Pair, u32, u32)> = overlay.moved().collect();
            self.drop_disturbed_trials(&mut trail.trials, &round, &moved, &mut least_moved);
            round.adopt(&self.space, &self.paths, &mut selections, &changed);
            debug_assert!(
                round.matches(self, &selections),
                "the kept round diverged from one built from scratch"
            );
            trail.banned[pair.0.index()] |= 1 << pair.1.index();
            let (cost, size) = round.ledger.totals();
            trail.steps.push(TrailStep {
                changed,
                cost,
                size,
            });
            if size <= budget_pages {
                break;
            }
        }
        (trail.steps.len(), trials_run)
    }

    /// Whether a trial's `delta` is the totals of a ledger built from
    /// scratch on the applied trial minus the round's `totals`, within
    /// 1e-9 of the larger total (the two folds round; the delta is exact
    /// up to its few operands). Non-finite totals have no difference to
    /// compare. The debug check of every trial.
    fn delta_matches(
        &self,
        selections: &[Selection],
        changed: &[(usize, Selection)],
        delta: (f64, f64),
        totals: (f64, f64),
    ) -> bool {
        let applied = self.paths.iter().zip(selections).enumerate();
        let fresh = Ledger::new(
            &self.space,
            applied.map(|(i, (st, sel))| {
                let new = changed.iter().find(|(j, _)| *j == i);
                st.pieces(new.map_or(sel, |(_, new)| new))
            }),
        )
        .totals();
        let near = |delta: f64, to: f64, from: f64| {
            let scale = to.abs().max(from.abs()).max(1.0);
            !(to - from).is_finite() || (delta - (to - from)).abs() <= 1e-9 * scale
        };
        near(delta.0, fresh.0, totals.0) && near(delta.1, fresh.1, totals.1)
    }

    /// Drops the kept trials an adopted eviction disturbed. The eviction
    /// re-selects the evicted index's owners and bans the index; `moved`
    /// holds each cell whose holder count that moves, with its counts
    /// before and after ([`Overlay::moved`]). A trial reads its
    /// owners' selections, the bans over their candidates and, per cell on
    /// their candidates, whether a path outside them holds it
    /// ([`Self::eviction_trial`]). It is dropped when a cell on an owner's
    /// candidates moved with `min(old, new) ≤ |owners|`, and every other
    /// trial reads what it read before (DESIGN.md §5.12):
    /// - no owner moved: a re-selected path held the evicted index, whose
    ///   count falls to 0;
    /// - no ban moved over the owners' candidates, by the same cell;
    /// - the trial's own index gains an owner only from a count of
    ///   `|owners|`, and loses one only to a moved owner;
    /// - with the owners fixed, `h ≤ |owners|` of a cell's holders are
    ///   owners, and "held outside them" is `count > h`, which flips only
    ///   when the count crosses `h`.
    ///
    /// `least_moved` is scratch per candidate, all `u32::MAX` on entry and
    /// on return.
    fn drop_disturbed_trials(
        &self,
        trials: &mut [Option<Reselection>],
        round: &Round,
        moved: &[(Pair, u32, u32)],
        least_moved: &mut [u32],
    ) {
        for &((cand, _), old, new) in moved {
            let least = &mut least_moved[cand.index()];
            *least = (*least).min(old.min(new));
        }
        for (pair, owners) in round.holders.listed() {
            let kept = &mut trials[slot(pair)];
            let reach = owners.len() as u32;
            let disturbed = |&i: &usize| {
                let cands = &self.paths[i].live_cands;
                cands.iter().any(|c| least_moved[c.index()] <= reach)
            };
            if kept.is_some() && owners.iter().any(disturbed) {
                *kept = None;
            }
        }
        for &((cand, _), ..) in moved {
            least_moved[cand.index()] = u32::MAX;
        }
    }

    /// One eviction trial: ban `pair` on top of `banned` and let all of
    /// its `owners` re-select without it, one after the other, each
    /// under the sharing context the earlier ones left. Returns the
    /// re-selected owners and their delta — from the overlay that holds
    /// them, in [`Self::apply_trial`]'s order — or `None` when the ban
    /// leaves some owner uncoverable. Read-only (runs on pool workers
    /// during the parallel descent), and it touches nothing but the
    /// owners, on an overlay of the `round`'s ledger; its context buffer
    /// and frontier tables are its own.
    fn eviction_trial(
        &self,
        round: &Ledger,
        owners: &[usize],
        selections: &[Selection],
        banned: &[u8],
        pair: Pair,
    ) -> Reselection {
        let bans = Bans {
            evicted: banned,
            trial: pair,
        };
        let mut overlay = round.overlay(&self.space);
        let mut changed: Vec<(usize, Selection)> = Vec::with_capacity(owners.len());
        let (mut context, mut tables) = (Vec::new(), FrontierTables::default());
        for &i in owners {
            let st = &self.paths[i];
            overlay.remove(st.pieces(&selections[i]));
            overlay.context_into(&st.cands, &mut context);
            let pricing = Pricing {
                context: Some(&context),
                lambda: 0.0,
                bans: Some(&bans),
            };
            // The frontier's first point rather than the scalar DP,
            // deliberately: its absence detects a ban that left the path
            // uncoverable (the scalar DP panics there), and it breaks
            // exact cost ties toward the leaner configuration — the right
            // bias while evicting pages.
            let mut sel = Selection::new();
            let inf = f64::INFINITY;
            let space = Source::Space(&self.space);
            frontier_response(st, space, pricing, inf, &mut tables, &mut sel)?;
            overlay.insert(i, st.pieces(&sel));
            changed.push((i, sel));
        }
        Some((changed, overlay.delta()))
    }

    /// The round's selections with `changed` substituted, on `overlay`
    /// (cleared first): what the adopted trial moves.
    fn apply_trial(
        &self,
        overlay: &mut Overlay<'_>,
        selections: &[Selection],
        changed: &[(usize, Selection)],
    ) {
        overlay.clear();
        for (i, sel) in changed {
            let st = &self.paths[*i];
            overlay.remove(st.pieces(&selections[*i]));
            overlay.insert(*i, st.pieces(sel));
        }
    }

    /// Workload-scale selection under a **shared page budget**: the
    /// cheapest plan whose total physical footprint — each distinct
    /// `(candidate, organization)` counted once, like its maintenance —
    /// fits `budget_pages`.
    ///
    /// Strategy (DESIGN.md §5.12):
    ///
    /// 1. Run the unconstrained [`Self::reoptimize`]. If its footprint
    ///    already fits (always true at `budget_pages = ∞`), return it
    ///    unchanged — the budgeted API is behavior-preserving at infinite
    ///    budget by construction.
    /// 2. Otherwise relax the budget into the objective: bisect the
    ///    Lagrange multiplier λ of `cost + λ·size`, each probe being a full
    ///    λ-priced coordinate-descent sweep over the shared candidate space
    ///    (the λ-priced sweep is just another pricing context; covered
    ///    cells stay free in both cost and pages). As a second search
    ///    direction, run a greedy *eviction descent* from the
    ///    unconstrained selections — cheapest regret per page saved first —
    ///    which covers the budgets the sweep's discontinuous footprint
    ///    curve jumps over. The descent reads the budget only to stop, so
    ///    it is recorded on the advisor: while no mutation or re-pricing
    ///    intervenes, a later call under another budget lands on the
    ///    recorded trail or extends it from its end — same plan, bit for
    ///    bit, as a cold call. Neither direction reads what the other
    ///    finds: while the walk has trials to run, the two run side by
    ///    side, one lane each, and the walk's landing is offered after the
    ///    λ probes either way, so the result is the same at every lane
    ///    count.
    /// 3. Close the duality gap with a frontier-based greedy
    ///    *repair* pass from the cheapest feasible plan
    ///    found.
    ///
    /// When even the most size-averse sweep cannot fit (a budget below the
    /// workload's minimum footprint), the returned plan is that leanest
    /// plan and `feasible` is `false`. A NaN budget is clamped to `0.0`,
    /// which no non-empty plan fits: same plan, same `feasible: false`,
    /// and `budget_pages` reports the `0.0`.
    ///
    /// The unconstrained `optimize()` is itself a coordinate-descent
    /// heuristic, and the budget search explores strictly harder
    /// (candidate-level evictions plus per-path frontier repairs), so a
    /// *nearly*-slack budget can occasionally return a plan slightly
    /// **cheaper** than the unconstrained one — a bonus, reported as a
    /// [`BudgetedWorkloadPlan::cost_ratio`] just under 1.
    pub fn optimize_with_budget(&mut self, budget_pages: f64) -> BudgetedWorkloadPlan {
        let budget_pages = if budget_pages.is_nan() {
            0.0
        } else {
            budget_pages
        };
        let unconstrained = self.reoptimize();
        let unconstrained_cost = unconstrained.total_cost;
        let unconstrained_size = unconstrained.size_pages;
        if unconstrained.size_pages <= budget_pages || self.paths.is_empty() {
            return BudgetedWorkloadPlan {
                plan: unconstrained,
                budget_pages,
                feasible: true,
                lambda: 0.0,
                lambda_sweeps: 0,
                repairs: 0,
                evictions: 0,
                eviction_trials: 0,
                unconstrained_cost,
                unconstrained_size,
            };
        }

        // Both search directions work per candidate-sharing component;
        // the λ search and the repair read every path's folded row.
        let shards = self.components();
        let rows = FoldedRows::new(&self.paths, &self.space);
        // The first search direction is the λ search; the second, a
        // greedy eviction descent from the unconstrained selections. The
        // λ sweep can overshoot (shared candidates couple the paths, so its
        // footprint jumps discontinuously in λ); the descent walks down one
        // cheapest-regret move at a time and lands just under the budget.
        // The walk never reads the budget except to stop, so it is
        // recorded on the advisor and a later call on the same state lands
        // on, or extends, the same trail.
        let base: Vec<Selection> = unconstrained
            .paths
            .iter()
            .map(|p| to_selection(&p.selection))
            .collect();
        let mut trail = self.trail.take().unwrap_or_default();
        let lands = trail.answers(budget_pages);
        let unconstrained_point = (unconstrained_cost, unconstrained_size);
        let search = || self.lambda_search(budget_pages, unconstrained_point, &shards, &rows);
        let mut walk = || self.evict_to_budget(&mut trail, &base, budget_pages);
        // Neither direction reads what the other finds: while the walk has
        // trials to run, the two share the pool's lanes. The walk's landing
        // is offered after the λ probes either way.
        let ((mut found, lambda_sweeps), (evictions, eviction_trials)) = if lands {
            (search(), walk())
        } else {
            side_by_side(&self.exec, search, walk)
        };
        let evicted = trail.selections_at(&base, evictions);
        let (cost, size) = match evictions.checked_sub(1) {
            Some(last) => (trail.steps[last].cost, trail.steps[last].size),
            None => self.ledger(&evicted).totals(),
        };
        self.trail = Some(trail);
        found.offer(budget_pages, (evicted, cost, size, 0.0));
        // When even the leanest search result exceeds the budget, report
        // that plan, flagged infeasible, under the λ that found it.
        let feasible = found.best.is_some();
        let (mut selections, _, _, lambda) = found
            .best
            .or(found.leanest)
            .expect("at least one probe ran");
        let repairs = if feasible {
            self.repair(&mut selections, budget_pages, &rows)
        } else {
            0
        };
        let assembled = self.assemble_plan(Some(&selections), unconstrained.independent_cost);
        // The real epoch work happened inside the inner reoptimize(): its
        // telemetry carries over instead of reporting the budgeted epoch as
        // free (the λ sweeps and evictions are read-only w.r.t. the memos
        // and are reported separately via lambda_sweeps / evictions /
        // repairs).
        let plan = WorkloadPlan {
            paths: assembled.paths,
            shared: assembled.shared,
            total_cost: assembled.total_cost,
            size_pages: assembled.size_pages,
            physical_indexes: assembled.physical_indexes,
            // λ sweeps ran against the live masks: report the cells the
            // budgeted search priced without (the λ-uniform dominance
            // bound).
            lambda_pruned: unconstrained.candidates_pruned,
            ..unconstrained
        };
        // Every search result was offered by its ledger fold's footprint,
        // and the repair refuses what its fold would overshoot: the plan's
        // own fold of the same selections fits exactly.
        debug_assert!(
            !feasible || plan.size_pages <= budget_pages,
            "feasible plan exceeds budget: {} > {budget_pages}",
            plan.size_pages
        );
        BudgetedWorkloadPlan {
            plan,
            budget_pages,
            feasible,
            lambda,
            lambda_sweeps,
            repairs,
            evictions,
            eviction_trials,
            unconstrained_cost,
            unconstrained_size,
        }
    }
}

/// The round's eviction: among the trials of `pairs` (ascending, each
/// with its trial in `trials`, by [`ledger::slot`]), the one that frees
/// pages at the least regret per page freed, ties to the one that frees
/// more, then to the earlier pair. `None` when no trial frees a page.
///
/// A configuration's cost and footprint are sums of per-index and
/// per-path terms, so a trial is priced by the terms it changes — its
/// delta, kept with it: `Δcost / −Δsize` over the trials with `Δsize`
/// below `−stol`, where `size0` is the round's footprint (DESIGN.md
/// §5.12).
fn cheapest_eviction(
    size0: f64,
    pairs: impl Iterator<Item = Pair>,
    trials: &[Option<Reselection>],
) -> Option<Pair> {
    // A trial frees pages when its footprint falls by more than this.
    let stol = 1e-9 * size0.abs().max(1.0);
    // (regret per page, Δsize, evicted index)
    let mut best: Option<(f64, f64, Pair)> = None;
    for pair in pairs {
        let kept = trials[slot(pair)].as_ref();
        let Some((_, (cost, size))) = kept.expect("every round index has its trial") else {
            continue; // the ban left some owner uncoverable
        };
        if *size < -stol {
            let regret = cost / -size;
            let better = best.map_or(true, |b| regret < b.0 || (regret == b.0 && *size < b.1));
            if better {
                best = Some((regret, *size, pair));
            }
        }
    }
    best.map(|(.., pair)| pair)
}
