//! What-if and cross-plan pricing: one hypothetical candidate priced
//! without adopting it, another advisor's plan priced under this one's
//! adopted state, and the mined-admission cost bound.

use super::pricing::{installed, price_cells, to_selection, with_model};
use super::{PathId, PathOutcome, Selection, WorkloadAdvisor, WorkloadPlan};
use crate::space::{CandidateId, CandidateStep};
use crate::Choice;
use oic_cost::Org;
use oic_schema::{Path, SubpathId};

/// The answer of [`WorkloadAdvisor::what_if`]: one candidate physical
/// index priced *hypothetically* — query benefit per subscribing path plus
/// maintenance and footprint per organization — without adopting anything.
///
/// When the candidate is live and fully priced (it belongs to the adopted
/// workload and the last `(re)optimize` priced it), every number is read
/// from the live memos, so the report reproduces the adopted pricing
/// **bitwise** (`adopted = true`). Otherwise the candidate is priced
/// standalone from the current statistics and rates — the same arithmetic
/// the re-pricing phase would run if the candidate were interned — with no
/// subscriber attribution (`adopted = false`, it is not part of any plan).
#[derive(Debug, Clone)]
pub struct WhatIfReport {
    /// The candidate's step sequence.
    pub steps: Vec<CandidateStep>,
    /// Its role: embedded (more steps follow in the probing path) or
    /// terminal. The two price differently (boundary `CMD`, key domain).
    pub embedded: bool,
    /// The live candidate id, when some path currently exposes this exact
    /// `(steps, role)` spelling.
    pub candidate: Option<CandidateId>,
    /// `true` when every price below came from the adopted memos.
    pub adopted: bool,
    /// Maintenance price per organization (`Org::ALL` order), paid once
    /// regardless of subscriber count.
    pub maintenance: [f64; 3],
    /// Footprint in pages per organization, counted once likewise.
    pub size_pages: [f64; 3],
    /// Live paths that expose this candidate, with their query shares —
    /// the per-subscriber benefit side of the what-if ledger. Empty for a
    /// hypothetical candidate.
    pub subscribers: Vec<WhatIfSubscriber>,
}

/// One subscribing path in a [`WhatIfReport`].
#[derive(Debug, Clone)]
pub struct WhatIfSubscriber {
    /// The subscribing path.
    pub path: PathId,
    /// Where the candidate sits in that path.
    pub sub: SubpathId,
    /// The path's query share per organization were this candidate
    /// selected there (`Org::ALL` order).
    pub query_costs: [f64; 3],
}

/// One live path as the migration planner captures it: its handle, its
/// interned candidate per subpath rank, and its adopted query shares.
pub(crate) struct AdoptedPath<'a> {
    pub(crate) id: PathId,
    pub(crate) path: &'a Path,
    /// Interned candidate per rank — `None` where mining dropped the rank.
    pub(crate) cands: &'a [Option<CandidateId>],
    /// Query share per rank and organization — the exact memo values the
    /// plan's ledger folds; `None` while stale (pending mutations not yet
    /// repriced).
    pub(crate) shares: Option<&'a [[f64; 3]]>,
}

impl AdoptedPath<'_> {
    /// The `(subpath rank, organization)` pieces of this path's selection
    /// in `outcome`, in selection order (no-index choices never appear at
    /// workload scale; skipped defensively).
    pub(crate) fn pieces<'o>(
        &self,
        outcome: &'o PathOutcome,
    ) -> impl Iterator<Item = (usize, Org)> + 'o {
        let (n, pairs) = (self.path.len(), outcome.selection.pairs().iter());
        pairs.filter_map(move |&(sub, choice)| match choice {
            Choice::Index(org) => Some((sub.rank(n), org)),
            Choice::NoIndex => None,
        })
    }
}

impl WorkloadAdvisor<'_> {
    /// For each live path, in live-path order, the position of its outcome
    /// in `plan` — `None` unless `plan` covers exactly the live path set,
    /// in any order (a plan in live-path order sorts in one pass).
    pub(crate) fn outcome_order(&self, plan: &WorkloadPlan) -> Option<Vec<usize>> {
        let mut order: Vec<usize> = (0..plan.paths.len()).collect();
        order.sort_by_key(|&i| plan.paths[i].id);
        let mut live = self.paths.iter().zip(&order);
        let covered = order.len() == self.paths.len();
        (covered && live.all(|(st, &i)| plan.paths[i].id == st.id)).then_some(order)
    }

    /// Every live path in live-path order, read without any recomputation.
    /// The migration planner captures its arms through this, so its
    /// endpoint costs equal [`Self::price_plan`] bitwise.
    pub(crate) fn adopted_paths(&self) -> impl Iterator<Item = AdoptedPath<'_>> {
        self.paths.iter().map(|st| AdoptedPath {
            id: st.id,
            path: &st.path,
            cands: &st.cands,
            shares: (!st.dirty_query).then_some(&st.query_costs[..]),
        })
    }

    /// The adopted `(maintenance, footprint)` memos of a live candidate,
    /// per organization — `None` unless all three are priced. What
    /// [`Self::what_if`]'s adopted arm reports, without its subscriber
    /// scan; the migration planner captures index prices through this.
    pub(crate) fn adopted_prices(&self, id: CandidateId) -> Option<([f64; 3], [f64; 3])> {
        let mut m = [0.0; 3];
        let mut s = [0.0; 3];
        for org in Org::ALL {
            (m[org.index()], s[org.index()]) = self.space.priced(id, org)?;
        }
        Some((m, s))
    }

    /// Prices the hypothetical physical index over `sub` of `path` without
    /// adopting it — AIM's core what-if primitive, nearly free here
    /// because the advisor already prices candidates standalone.
    ///
    /// Resolution: the candidate identity is `path`'s step sequence over
    /// `sub` in its role (embedded iff `sub` ends before the path does).
    /// If that identity is live in the shared space **and** fully priced,
    /// the report reads the adopted memos — maintenance, footprint and
    /// every clean subscriber's query share reproduce the adopted pricing
    /// bitwise. Otherwise the candidate is priced standalone under the
    /// current statistics and rates, exactly the arithmetic the re-pricing
    /// phase runs when a path exposes a new candidate (so probing first
    /// and adopting later yields the same numbers).
    ///
    /// Values reflect the last completed `(re)optimize`; pending mutations
    /// are visible only through the standalone arm. `path` need not be
    /// registered with the advisor.
    pub fn what_if(&self, path: &Path, sub: SubpathId) -> WhatIfReport {
        let n = path.len();
        assert!(
            sub.start >= 1 && sub.start <= sub.end && sub.end <= n,
            "subpath {sub:?} out of range for a path of {n} positions"
        );
        let steps = path.step_keys(sub);
        let embedded = sub.end < n;
        let candidate = self.space.find(&steps, embedded);
        if let Some(id) = candidate {
            if let Some((maintenance, size_pages)) = self.adopted_prices(id) {
                let mut subscribers = Vec::new();
                for st in &self.paths {
                    if st.dirty_query {
                        continue; // stale shares never enter a report
                    }
                    for (r, &cand) in st.cands.iter().enumerate() {
                        if cand == Some(id) {
                            subscribers.push(WhatIfSubscriber {
                                path: st.id,
                                sub: SubpathId::from_rank(st.path.len(), r),
                                query_costs: st.query_costs[r],
                            });
                        }
                    }
                }
                return WhatIfReport {
                    steps,
                    embedded,
                    candidate,
                    adopted: true,
                    maintenance,
                    size_pages,
                    subscribers,
                };
            }
        }
        // Hypothetical (or invalidated) candidate: one standalone pricing
        // pass, installing nothing.
        let r = sub.rank(n);
        let cells = with_model(self.schema, self.params, &self.stats, path, |model| {
            let cells = Org::ALL.map(|org| (r, org));
            price_cells(self.schema, &self.maint, model, path, cells.into_iter())
        });
        WhatIfReport {
            steps,
            embedded,
            candidate,
            adopted: false,
            maintenance: [0, 1, 2].map(|o| cells[o].0),
            size_pages: [0, 1, 2].map(|o| cells[o].1),
            subscribers: Vec::new(),
        }
    }

    /// The workload objective of **another advisor's plan** priced under
    /// *this* advisor's adopted statistics and rates: per-path query
    /// shares of the plan's selections plus each distinct physical index's
    /// maintenance, once. This is the yardstick of the online-tuning
    /// bench: the true cost of the estimator-driven plan is what the
    /// oracle (exact-rate) advisor says it costs.
    ///
    /// Requires a completed `(re)optimize` on `self` (so every cell is
    /// priced) and the same live path set (matched by
    /// [`PathId`], which congruent mutation histories keep
    /// aligned), listed ascending by id as every plan lists it.
    pub fn price_plan(&self, plan: &WorkloadPlan) -> f64 {
        assert_eq!(
            plan.paths.len(),
            self.paths.len(),
            "price_plan: plan and advisor hold different path sets"
        );
        // Both list their paths ascending by id, so they pair up in order.
        let pairs = self.paths.iter().zip(&plan.paths);
        let selections: Vec<Selection> = pairs
            .map(|(st, p)| {
                if p.id != st.id {
                    let held = |id| plan.paths.binary_search_by_key(&id, |p| p.id).is_ok();
                    let lost = self
                        .paths
                        .iter()
                        .find(|st| !held(st.id))
                        .map_or(st.id, |st| st.id);
                    panic!("price_plan: plan misses live path {lost:?}");
                }
                assert_eq!(
                    p.path.signature(),
                    st.signature,
                    "price_plan: path {:?} changed identity",
                    st.id
                );
                to_selection(&p.selection)
            })
            .collect();
        self.ledger(&selections).totals().0
    }

    /// An upper bound on the workload-cost increase the mined admission
    /// can cause, from the coverability guarantee (DESIGN.md §5.17): any
    /// position a mined-out rank spans is still coverable by its admitted
    /// singleton rank, so an unmined solution turns mined-feasible by
    /// replacing each dropped piece with those singletons — at an extra
    /// cost of at most the summed full price (query share plus unshared
    /// maintenance, cheapest organization) of the replacement singletons.
    /// The bound sums that replacement price over the union of every
    /// mined-out rank's span, per path — generous, since real selections
    /// drop far fewer pieces. 0 when nothing was mined out. Requires a
    /// completed `(re)optimize` (every live cell priced).
    pub fn mining_cost_bound(&self) -> f64 {
        let mut bound = 0.0;
        for st in &self.paths {
            let n = st.path.len();
            let mut dropped_span = vec![false; n + 1];
            for (r, c) in st.cands.iter().enumerate() {
                if c.is_none() {
                    let sub = SubpathId::from_rank(n, r);
                    dropped_span[sub.start..=sub.end].fill(true);
                }
            }
            for (l, &dropped) in dropped_span.iter().enumerate().skip(1) {
                if !dropped {
                    continue;
                }
                let r = SubpathId { start: l, end: l }.rank(n);
                let cand = st.cands[r].expect("singleton ranks are always admitted");
                let cheapest = Org::ALL
                    .iter()
                    .map(|&org| {
                        st.query_costs[r][org.index()] + installed(&self.space, (cand, org)).0
                    })
                    .fold(f64::INFINITY, f64::min);
                bound += cheapest;
            }
        }
        bound
    }
}
