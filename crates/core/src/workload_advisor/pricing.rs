//! Pricing: the re-pricing phase of `reoptimize()` (the first-owner claim
//! pass, then one job per dirty path signature: one cost model, the
//! signature's query basis, its members' claimed cells — every query
//! share a basis replay), dominance masks, and [`Cells`], the one cell
//! rule every advisor DP reads its pieces through, with the two in-place
//! kernels over it ([`best_response`], [`frontier_response`]) and its
//! per-solve memo for the budget search ([`FoldedRows`]).

use super::ledger::Pair;
use super::state::PathState;
use super::{Selection, WorkloadAdvisor};
use crate::select::{frontier_point, prune_dominated, Labels, ScalarDp};
use crate::space::{CandidateId, CandidateSpace};
use crate::{pc, Choice, IndexConfiguration};
use oic_cost::{ClassStats, CostModel, CostParams, Org, PathCharacteristics};
use oic_schema::{ClassId, Path, PathSignature, Schema, SubpathId};
use oic_workload::{LoadDistribution, Triplet};
use std::collections::HashMap;

/// The installed `(maintenance, footprint)` prices of a live cell — what
/// phase 1 priced for every admitted rank of every path.
pub(super) fn installed(space: &CandidateSpace, (cand, org): Pair) -> (f64, f64) {
    space.priced(cand, org).expect("cell priced during reprice")
}

/// One dirty path's re-pricing output, computed read-only by its
/// signature's job and installed in path order: fresh query shares when
/// the path's were stale, and the `(maintenance, size)` of each cell it
/// claimed, in claim order.
type Repriced = (Option<Vec<[f64; 3]>>, Vec<(f64, f64)>);

/// Per-signature query-retrieval basis: the per-slot retrieval
/// coefficients of one path *shape*, priced once and re-evaluated against
/// any path of the same signature under any query rates.
///
/// Query retrieval costs (`model.retrieval*`) depend only on the path's
/// class statistics and the physical parameters — never on query,
/// insert/delete, or maintenance rates — so every path sharing a signature
/// (same classes step for step, hence the same characteristics and cost
/// model) shares these coefficients exactly. [`QueryBasis::eval`] replays
/// the definition — `pc::processing_cost` of each cell under the path's
/// query-only load — term for term (same slot order, same guards, same
/// fold), so the shares it produces are **bitwise** the from-scratch ones
/// (DESIGN.md §5.15). It is the advisor's only source of query shares.
pub(super) struct QueryBasis {
    /// The representative path's scope (sorted class ids) — the
    /// invalidation key: `update_stats(c, ..)` evicts every basis whose
    /// scope contains `c`.
    pub(super) scope: Vec<ClassId>,
    /// Classes per position (`Path::scope_by_position`): `classes[l - 1]`
    /// is position `l`'s native-slot class list, in hierarchy order.
    classes: Vec<Vec<ClassId>>,
    /// Per rank, per organization: the retrieval coefficient of each
    /// native slot `(l, x)` in the from-scratch accumulation order (`l`
    /// ascending through the subpath, `x` ascending within the position).
    coeffs: Vec<[Vec<f64>; 3]>,
    /// Per rank, per organization: the traversal-retrieval coefficient
    /// (multiplies the upstream query mass when the subpath starts past
    /// position 1).
    traversal: Vec<[f64; 3]>,
}

impl QueryBasis {
    /// Prices the retrieval coefficients of `st`'s path shape from its
    /// cost `model`: every `(rank, org, slot)` retrieval unit cost in the
    /// exact order `pc::processing_cost` visits them.
    fn build(schema: &Schema, model: &CostModel<'_>, st: &PathState) -> Self {
        let n = st.path.len();
        let classes = st.path.scope_by_position(schema);
        let mut coeffs = Vec::with_capacity(SubpathId::count(n));
        let mut traversal = Vec::with_capacity(SubpathId::count(n));
        for r in 0..SubpathId::count(n) {
            let sub = SubpathId::from_rank(n, r);
            let mut per_org: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
            let mut trav = [0.0; 3];
            for org in Org::ALL {
                let slots = &mut per_org[org.index()];
                for l in sub.start..=sub.end {
                    for x in 0..classes[l - 1].len() {
                        slots.push(model.retrieval(org, sub, l, x));
                    }
                }
                trav[org.index()] = model.retrieval_traversal(org, sub);
            }
            coeffs.push(per_org);
            traversal.push(trav);
        }
        QueryBasis {
            scope: st.scope.clone(),
            classes,
            coeffs,
            traversal,
        }
    }

    /// Query shares of a path of this signature under per-class query
    /// rates `alphas` — a bitwise replay of the from-scratch pricing:
    /// native slots accumulate in `(l ascending, x ascending)` order with
    /// the same `mass > 0.0` guards, and the upstream masses are snapshots
    /// of the one left-to-right fold `upstream_query_mass` runs, added
    /// last with the same guard (query-only loads never fire the
    /// insert/delete or boundary-deletion terms, so those contribute
    /// exactly nothing here as there).
    ///
    /// The basis is shared per signature but admission is per path, so
    /// `cands` gates the replay: a mined-out rank has no cell to price
    /// and its arithmetic is skipped wholesale.
    fn eval(&self, alphas: &[f64], n: usize, cands: &[Option<CandidateId>]) -> Vec<[f64; 3]> {
        let mut upstream = vec![0.0; n + 1];
        let mut acc = 0.0;
        for (p, classes) in self.classes.iter().enumerate() {
            for &c in classes {
                acc += alphas[c.index()];
            }
            upstream[p + 1] = acc;
        }
        (0..SubpathId::count(n))
            .map(|r| {
                if cands[r].is_none() {
                    return [0.0; 3];
                }
                let sub = SubpathId::from_rank(n, r);
                let mut cell = [0.0; 3];
                for org in Org::ALL {
                    let coeffs = &self.coeffs[r][org.index()];
                    let mut total = 0.0;
                    let mut k = 0;
                    for l in sub.start..=sub.end {
                        for &c in &self.classes[l - 1] {
                            let a = alphas[c.index()];
                            if a > 0.0 {
                                total += a * coeffs[k];
                            }
                            k += 1;
                        }
                    }
                    let t = upstream[sub.start - 1];
                    if t > 0.0 {
                        total += t * self.traversal[r][org.index()];
                    }
                    cell[org.index()] = total;
                }
                cell
            })
            .collect()
    }
}

impl WorkloadAdvisor<'_> {
    /// Phase 1 of [`Self::reoptimize`] — re-prices the dirty paths: a
    /// sequential claim pass hands every unpriced cell to its first dirty
    /// owner, one read-only job per dirty signature prices its members'
    /// claims and query shares on the executor, and the merge installs
    /// each cell once, in path order — same memo contents and pricing
    /// counter for any thread count — swapping each re-priced cell's
    /// once-paid values in the kept ledger. Returns the dirty paths
    /// (ascending) and the cells priced. O(dirty): the dirty paths come
    /// from the advisor's list, not from a scan.
    pub(super) fn reprice(&mut self) -> (Vec<usize>, u64) {
        let pricings_before = self.space.maintenance_pricings();
        let mut marked = std::mem::take(&mut self.dirty);
        marked.sort_unstable();
        // Handles ascend with the path order; a departed path has none.
        let dirty: Vec<usize> = marked.iter().filter_map(|&id| self.find(id)).collect();
        debug_assert!(
            (0..self.paths.len())
                .all(|i| self.paths[i].is_dirty() == dirty.binary_search(&i).is_ok()),
            "the dirty list holds exactly the dirty paths"
        );

        // Claim pass, in path order: an unpriced `(candidate, org)` cell
        // goes to the first dirty path that exposes it — the cells a
        // sequential first-owner walk would price, each exactly once. A
        // path whose maintenance is clean has every cell priced.
        let (paths, space, claimed) = (&self.paths, &self.space, &mut self.claimed);
        claimed.resize(claimed.len().max(space.slot_count()), 0);
        let claims: Vec<Vec<(usize, CandidateId, Org)>> = dirty
            .iter()
            .map(|&i| {
                let mut mine = Vec::new();
                if !paths[i].dirty_maint {
                    return mine;
                }
                for (r, cand) in paths[i].cands.iter().enumerate() {
                    let Some(cand) = *cand else {
                        continue; // mined out: no cells exist for this rank
                    };
                    for org in Org::ALL {
                        let (taken, bit) = (&mut claimed[cand.index()], 1 << org.index());
                        if *taken & bit == 0 && space.priced(cand, org).is_none() {
                            *taken |= bit;
                            mine.push((r, cand, org));
                        }
                    }
                }
                mine
            })
            .collect();
        for &(_, cand, _) in claims.iter().flatten() {
            claimed[cand.index()] = 0;
        }

        // One job per dirty signature, members in path order, jobs in
        // first-member order.
        let jobs: Vec<Vec<usize>> = {
            let mut job_of: HashMap<&PathSignature, usize> = HashMap::new();
            let mut jobs: Vec<Vec<usize>> = Vec::new();
            for (k, &i) in dirty.iter().enumerate() {
                let j = *job_of.entry(&self.paths[i].signature).or_insert_with(|| {
                    jobs.push(Vec::new());
                    jobs.len() - 1
                });
                jobs[j].push(k);
            }
            jobs
        };
        let outs = self.exec.par_map(&jobs, |_, members| {
            self.reprice_job(&dirty, &claims, members)
        });

        // Install in path order.
        let mut priced: Vec<Option<Repriced>> = vec![None; dirty.len()];
        for ((built, per_member), members) in outs.into_iter().zip(&jobs) {
            if let Some(b) = built {
                let sig = &self.paths[dirty[members[0]]].signature;
                self.basis.insert(sig.clone(), b);
            }
            for (out, &k) in per_member.into_iter().zip(members) {
                priced[k] = Some(out);
            }
        }
        for ((out, &i), mine) in priced.into_iter().zip(&dirty).zip(&claims) {
            let (shares, cells) = out.expect("every dirty path belongs to one job");
            for (&(_, cand, org), cell) in mine.iter().zip(cells) {
                self.space.install(cand, org, cell);
                self.ledger.repay((cand, org), cell);
            }
            let st = &mut self.paths[i];
            if let Some(q) = shares {
                st.query_costs = q;
            }
            st.dirty_query = false;
            st.dirty_maint = false;
        }
        let epoch_pricings = self.space.maintenance_pricings() - pricings_before;
        debug_assert_eq!(
            epoch_pricings,
            claims.iter().map(|mine| mine.len() as u64).sum::<u64>(),
            "every claimed cell is priced exactly once"
        );
        (dirty, epoch_pricings)
    }

    /// One dirty signature's re-pricing job, read-only: `members` index
    /// `dirty` (and `claims`), first member first. Members share their
    /// step sequence, so one cost model is the one each member would
    /// build: the job builds it once, and only when it has work — a basis
    /// to price (some member is query-dirty and none is cached) or a
    /// claimed cell. Query-dirty members replay their shares from the
    /// signature's basis. Returns the basis it built, if any, and each
    /// member's [`Repriced`] output.
    fn reprice_job(
        &self,
        dirty: &[usize],
        claims: &[Vec<(usize, CandidateId, Org)>],
        members: &[usize],
    ) -> (Option<QueryBasis>, Vec<Repriced>) {
        let st = |k: usize| &self.paths[dirty[k]];
        let first = st(members[0]);
        let cached = self.basis.get(&first.signature);
        let build = cached.is_none() && members.iter().any(|&k| st(k).dirty_query);
        let claimed = members.iter().any(|&k| !claims[k].is_empty());
        let (built, cells): (Option<QueryBasis>, Vec<Vec<(f64, f64)>>) = if build || claimed {
            let price = |model: &CostModel<'_>| {
                let cells = members.iter().map(|&k| {
                    let mine = claims[k].iter().map(|&(r, _, org)| (r, org));
                    price_cells(self.schema, &self.maint, model, &first.path, mine)
                });
                let built = build.then(|| QueryBasis::build(self.schema, model, first));
                (built, cells.collect())
            };
            with_model(self.schema, self.params, &self.stats, &first.path, price)
        } else {
            (None, vec![Vec::new(); members.len()])
        };
        let basis = built.as_ref().or(cached);
        let repriced: Vec<Repriced> = members
            .iter()
            .zip(cells)
            .map(|(&k, cells)| {
                let st = st(k);
                let shares = st.dirty_query.then(|| {
                    let basis = basis.expect("a query-dirty job has a basis");
                    basis.eval(&st.alphas, st.path.len(), &st.cands)
                });
                (shares, cells)
            })
            .collect();
        (built, repriced)
    }

    /// Dominance pruning: rebuilds the per-rank prune masks of the paths
    /// re-priced this epoch (`dirty`, ascending) — every path without a
    /// mask is among them, since only arrival and re-admission drop one —
    /// and returns the cells struck across the workload, a running total
    /// corrected by each rebuilt mask's count: O(dirty), not O(paths).
    /// Masks read the **installed** maintenance and size prices — exactly
    /// the values the best responses and the λ sweeps are priced from — so
    /// the strict dominance argument (DESIGN.md §5.15) holds bitwise, at
    /// λ = 0 and under every λ-priced sweep.
    pub(super) fn refresh_masks(&mut self, dirty: &[usize]) -> u64 {
        debug_assert!(
            (0..self.paths.len())
                .all(|i| self.paths[i].pruned.is_some() || dirty.binary_search(&i).is_ok()),
            "a path without a mask was not re-priced"
        );
        // One mask per dirty path on the executor, each a pure function of
        // the path's installed cells, installed in path order.
        let ranks = |&i: &usize| self.paths[i].cands.len();
        let masks = self.exec.par_map_chunked(dirty, ranks, |_, &i| {
            let st = &self.paths[i];
            // A mined-out rank prices its maintenance and size at ∞: it can
            // neither be struck nor serve as a dominator or replacement
            // (singleton ranks — the replacement pool — are always admitted).
            let (maint, sizes): (Vec<[f64; 3]>, Vec<[f64; 3]>) = st
                .cands
                .iter()
                .map(|&cand| match cand {
                    Some(cand) => self.adopted_prices(cand).expect("priced during reprice"),
                    None => ([f64::INFINITY; 3], [f64::INFINITY; 3]),
                })
                .unzip();
            let mut mask = prune_dominated(&st.query_costs, &maint, &sizes, st.path.len());
            // Mined-out ranks are absent, not pruned: zero their bits so
            // the pruning telemetry counts only real strikes.
            for (m, c) in mask.iter_mut().zip(&st.cands) {
                if c.is_none() {
                    *m = 0;
                }
            }
            let struck = mask.iter().map(|b| u64::from(b.count_ones())).sum::<u64>();
            (mask, struck)
        });
        for ((mask, struck), &i) in masks.into_iter().zip(dirty) {
            let st = &mut self.paths[i];
            self.struck = self.struck - st.struck + struck;
            (st.pruned, st.struck) = (Some(mask), struck);
        }
        self.struck
    }
}

/// Runs `f` on `path`'s cost model under the current statistics.
pub(super) fn with_model<R>(
    schema: &Schema,
    params: CostParams,
    stats: &[ClassStats],
    path: &Path,
    f: impl FnOnce(&CostModel<'_>) -> R,
) -> R {
    let chars = PathCharacteristics::build(schema, path, |c| stats[c.index()]);
    f(&CostModel::new(schema, path, &chars, params))
}

/// The one maintenance-cell rule: the `(maintenance, size)` of each
/// `(rank, organization)` cell of `path`, in order, priced on `path`'s
/// cost `model` under the workload's shared insert/delete rates `maint`.
/// Re-pricing prices claimed cells through it, and `what_if` a
/// hypothetical candidate's, so a quote equals the later adoption
/// bitwise.
pub(super) fn price_cells(
    schema: &Schema,
    maint: &[(f64, f64)],
    model: &CostModel<'_>,
    path: &Path,
    cells: impl ExactSizeIterator<Item = (usize, Org)>,
) -> Vec<(f64, f64)> {
    if cells.len() == 0 {
        return Vec::new();
    }
    let n = path.len();
    let mld = LoadDistribution::build(schema, path, |c| {
        let (beta, gamma) = maint[c.index()];
        Triplet::new(0.0, beta, gamma)
    });
    let cell = |(r, org)| {
        let sub = SubpathId::from_rank(n, r);
        let m = pc::processing_cost(model, &mld, sub, Choice::Index(org));
        (m, model.size_pages(org, sub))
    };
    cells.map(cell).collect()
}

/// The bans one eviction trial prices under: every index the descent
/// evicted so far plus the one on trial. [`Cells::new`] reads one ban
/// mask per rank of every owner a trial re-prices: one load, plus the
/// trial's bit.
pub(super) struct Bans<'a> {
    /// Per candidate, the 3-bit mask of the trail's evictions so far;
    /// they stay banned for the whole walk.
    pub(super) evicted: &'a [u8],
    /// The index this trial evicts.
    pub(super) trial: Pair,
}

impl Bans<'_> {
    /// The 3-bit mask of `cand`'s banned organizations.
    fn mask(&self, cand: CandidateId) -> u8 {
        let (trial, org) = self.trial;
        let on_trial = if cand == trial { 1 << org.index() } else { 0 };
        self.evicted[cand.index()] | on_trial
    }
}

/// What a path's cells are priced under. The default — no context, λ =
/// 0, no bans — is the standalone pricing (maintenance unshared).
#[derive(Default, Clone, Copy)]
pub(super) struct Pricing<'p> {
    /// The sharing context (3-bit covered mask per rank): a covered cell
    /// pays its query share only — another path already maintains *and
    /// stores* that physical index, so both its maintenance and its
    /// footprint are counted once, by the first owner.
    pub(super) context: Option<&'p [u8]>,
    /// The Lagrange multiplier: an uncovered cell pays `query +
    /// maintenance + λ·size`. λ = 0 is the unconstrained pricing — `m +
    /// 0.0·s` is bit-identical to `m`, and the scalar DP never reads the
    /// size — so one implementation of the coverage rule serves the
    /// unconstrained and the budgeted machinery.
    pub(super) lambda: f64,
    /// Banned physical indexes, whose cells become unselectable
    /// (`INFINITY` cost) — the eviction descent's instrument.
    pub(super) bans: Option<&'p Bans<'p>>,
}

/// One path's cells under a [`Pricing`] — the one cell rule every
/// advisor DP reads its pieces through, where the recurrence reads them:
/// no cost matrix is built. All of the path's cells must already be
/// priced (phase 1).
///
/// Cells struck by the path's dominance mask
/// ([`crate::select::prune_dominated`]) are unselectable. The mask is
/// **λ-uniform** — a struck cell is beaten in both cost and size, so it is
/// absent from the optimum of `cost + λ·size` for every λ ≥ 0 (DESIGN.md
/// §5.15/§5.17) — which lets the λ-priced sweeps, the eviction descent and
/// the frontier machinery price under it too. It is *not* ban-aware: a
/// bound whose dominating cells are banned proves nothing. Org-dominance
/// bits lean on cells of their own rank, so they apply only when the rank
/// is ban-free; the whole-rank (0b111) bound leans on singleton
/// replacements anywhere in the span, so it applies only when the entire
/// path is.
pub(super) struct Cells<'a> {
    st: &'a PathState,
    space: &'a CandidateSpace,
    context: Option<&'a [u8]>,
    lambda: f64,
    /// Per rank, the mask of banned cells, each looked up once (empty
    /// without bans).
    banned: &'a [u8],
    /// Whether any rank of the path has a banned cell.
    ban_in_path: bool,
}

/// A path's cells as the in-place kernels read them.
pub(super) trait Pieces {
    /// The `(cost, size)` of piece `sub` under each organization, in
    /// [`Org::ALL`] order.
    fn piece(&self, sub: SubpathId) -> [(f64, f64); 3];
}

impl<'a> Cells<'a> {
    /// `st`'s cells under `pricing`; the per-rank ban masks are written
    /// over the caller's `banned` buffer.
    pub(super) fn new(
        st: &'a PathState,
        space: &'a CandidateSpace,
        pricing: Pricing<'a>,
        banned: &'a mut Vec<u8>,
    ) -> Self {
        banned.clear();
        if let Some(bans) = pricing.bans {
            let mask = |cand: &Option<CandidateId>| cand.map_or(0, |cand| bans.mask(cand));
            banned.extend(st.cands.iter().map(mask));
        }
        let ban_in_path = banned.iter().any(|&mask| mask != 0);
        Cells {
            st,
            space,
            context: pricing.context,
            lambda: pricing.lambda,
            banned,
            ban_in_path,
        }
    }
}

impl Pieces for Cells<'_> {
    /// `query + maintenance + λ·size`. A mined-out rank is absent from the
    /// candidate space and a banned cell unselectable: `INFINITY`, no
    /// pages.
    fn piece(&self, sub: SubpathId) -> [(f64, f64); 3] {
        let st = self.st;
        let r = sub.rank(st.path.len());
        let Some(cand) = st.cands[r] else {
            return [(f64::INFINITY, 0.0); 3];
        };
        let ban = self.banned.get(r).copied().unwrap_or(0);
        let cut = match st.pruned.as_deref().map_or(0, |p| p[r]) {
            0b111 if self.ban_in_path => 0,
            cut if cut != 0b111 && ban != 0 => 0,
            cut => cut,
        };
        let covered = self.context.map_or(0, |ctx| ctx[r]);
        let query = &st.query_costs[r];
        [0, 1, 2].map(|o| {
            let bit = 1 << o;
            if ban & bit != 0 {
                return (f64::INFINITY, 0.0);
            }
            // Coverage outranks the prune mask: a covered cell costs its
            // query share only — which can beat the mask's uncovered-price
            // dominance argument — so it stays selectable.
            let (m, s) = if covered & bit != 0 {
                (0.0, 0.0)
            } else if cut & bit != 0 {
                (f64::INFINITY, 0.0)
            } else {
                installed(self.space, (cand, Org::ALL[o]))
            };
            (query[o] + m + self.lambda * s, s)
        })
    }
}

/// One rank of a path's folded row: [`Cells`]' ban-free rule with
/// everything but the sharing context and λ already applied. Per
/// organization, the piece costs `covered + λ·0.0` at no pages when
/// another path holds the cell, and `uncovered + λ·size` at `size` pages
/// when none does — the rule's own operations on the same operands, so
/// the same bits (DESIGN.md §5.12).
#[derive(Clone, Copy)]
pub(super) struct Folded {
    /// `query + 0.0`.
    covered: [f64; 3],
    /// `query + maintenance`; `query + ∞` for a struck cell.
    uncovered: [f64; 3],
    /// The cell's pages; 0 when it is struck.
    size: [f64; 3],
}

impl Folded {
    /// A mined-out rank: `∞` whether covered or not, at no pages. Its
    /// piece reads `∞ + λ·0.0`, the rule's `∞` — NaN at λ = +∞, which both
    /// kernels skip exactly as they skip `∞` (neither is below a total,
    /// and neither is finite).
    const ABSENT: Folded = Folded {
        covered: [f64::INFINITY; 3],
        uncovered: [f64::INFINITY; 3],
        size: [0.0; 3],
    };
}

/// Every path's cells under the installed prices, query shares and prune
/// masks, folded per rank ([`Folded`]): one row per path, built once per
/// budgeted solve — after its `reoptimize()`, which nothing in the solve
/// moves — for the λ sweeps and the repair pass, which price every path
/// at every probe and ban nothing. The eviction trials ban, and keep
/// [`Cells`].
pub(super) struct FoldedRows {
    folded: Vec<Folded>,
    /// Path `i`'s row is `folded[first[i]..first[i + 1]]`.
    first: Vec<usize>,
}

impl FoldedRows {
    /// Folds every rank of every path of `paths`, all priced.
    pub(super) fn new(paths: &[PathState], space: &CandidateSpace) -> Self {
        let ranks = paths.iter().map(|st| st.cands.len()).sum();
        let (mut folded, mut first) = (
            Vec::with_capacity(ranks),
            Vec::with_capacity(paths.len() + 1),
        );
        first.push(0);
        for st in paths {
            for (r, (&cand, query)) in st.cands.iter().zip(&st.query_costs).enumerate() {
                let Some(cand) = cand else {
                    folded.push(Folded::ABSENT);
                    continue;
                };
                let cut = st.pruned.as_deref().map_or(0, |p| p[r]);
                let cell = |o: usize| {
                    if cut & 1 << o != 0 {
                        (f64::INFINITY, 0.0)
                    } else {
                        installed(space, (cand, Org::ALL[o]))
                    }
                };
                let cells = [0, 1, 2].map(cell);
                folded.push(Folded {
                    covered: [0, 1, 2].map(|o| query[o] + 0.0),
                    uncovered: [0, 1, 2].map(|o| query[o] + cells[o].0),
                    size: cells.map(|cell| cell.1),
                });
            }
            first.push(folded.len());
        }
        FoldedRows { folded, first }
    }

    /// Path `i`'s row.
    pub(super) fn row(&self, i: usize) -> &[Folded] {
        &self.folded[self.first[i]..self.first[i + 1]]
    }
}

/// A path's folded row under a ban-free [`Pricing`].
pub(super) struct RowCells<'a> {
    row: &'a [Folded],
    n: usize,
    context: Option<&'a [u8]>,
    lambda: f64,
}

impl<'a> RowCells<'a> {
    /// The row of a path of `n` positions under `pricing`.
    pub(super) fn new(row: &'a [Folded], n: usize, pricing: Pricing<'a>) -> Self {
        debug_assert!(pricing.bans.is_none(), "a folded row bans nothing");
        RowCells {
            row,
            n,
            context: pricing.context,
            lambda: pricing.lambda,
        }
    }
}

impl Pieces for RowCells<'_> {
    fn piece(&self, sub: SubpathId) -> [(f64, f64); 3] {
        let r = sub.rank(self.n);
        let (cell, covered) = (&self.row[r], self.context.map_or(0, |ctx| ctx[r]));
        [0, 1, 2].map(|o| {
            if covered & 1 << o != 0 {
                (cell.covered[o] + self.lambda * 0.0, 0.0)
            } else {
                (cell.uncovered[o] + self.lambda * cell.size[o], cell.size[o])
            }
        })
    }
}

/// Where a kernel reads a path's cells: the cell rule over the candidate
/// space, or the path's row of a solve's [`FoldedRows`] — which serves
/// ban-free pricings only.
#[derive(Clone, Copy)]
pub(super) enum Source<'a> {
    /// [`Cells`] over this space.
    Space(&'a CandidateSpace),
    /// This folded row ([`RowCells`]).
    Row(&'a [Folded]),
}

/// The scalar best response of `st` under `pricing` (which bans nothing):
/// [`ScalarDp`] over the path's cells, read from `source`, on the
/// caller's tables, the selection written over `out`. Returns its cost.
///
/// When no tiling has a finite cost — an infinite or overflowing rate or
/// statistic makes every one `+∞` or NaN — they all tie, and the path's
/// singletons (always admitted) under the first organization stand in,
/// at `+∞`.
pub(super) fn best_response(
    st: &PathState,
    source: Source<'_>,
    pricing: Pricing<'_>,
    dp: &mut ScalarDp,
    out: &mut Selection,
) -> f64 {
    debug_assert!(pricing.bans.is_none(), "a ban can leave a path uncoverable");
    let n = st.path.len();
    let cost = match source {
        Source::Space(space) => scalar(n, &Cells::new(st, space, pricing, &mut Vec::new()), dp),
        Source::Row(row) => scalar(n, &RowCells::new(row, n, pricing), dp),
    };
    if cost.is_finite() {
        dp.pieces_into(out, |sub, o| (sub, Org::ALL[o]));
        return cost;
    }
    out.clear();
    out.extend((1..=n).map(|l| (SubpathId { start: l, end: l }, Org::ALL[0])));
    f64::INFINITY
}

/// [`ScalarDp`] over `cells`: the optimum's cost.
fn scalar(n: usize, cells: &impl Pieces, dp: &mut ScalarDp) -> f64 {
    dp.run(n, |sub| cells.piece(sub).map(|cell| cell.0)).0
}

impl WorkloadAdvisor<'_> {
    /// `f` over `items` on the executor, in item order, each contiguous
    /// chunk of items on its own [`ScalarDp`] tables: one chunk inline, a
    /// few per lane when the executor fans out. A DP overwrites every
    /// table entry it reads, so what a table held before — and with it the
    /// chunking — reaches no result.
    pub(super) fn par_map_dp<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(&mut ScalarDp, &T) -> R + Sync,
    ) -> Vec<R> {
        let chunks = if self.exec.is_parallel() {
            4 * self.exec.threads()
        } else {
            1
        };
        let parts: Vec<&[T]> = items.chunks(items.len().div_ceil(chunks).max(1)).collect();
        let outs = self.exec.par_map(&parts, |_, part| {
            let mut dp = ScalarDp::default();
            part.iter().map(|item| f(&mut dp, item)).collect::<Vec<R>>()
        });
        let mut all = Vec::with_capacity(items.len());
        outs.into_iter().for_each(|part| all.extend(part));
        all
    }
}

/// The tables of one job's frontier responses — an eviction trial, or
/// the repair pass.
#[derive(Default)]
pub(super) struct FrontierTables {
    labels: Labels,
    banned: Vec<u8>,
}

/// The cheapest point of `st`'s `(cost, size)` frontier under `pricing`
/// that fits `budget_pages` ([`frontier_point`] over the path's cells,
/// read from `source`), its selection written over `out`; `None` when no
/// point fits — at `f64::INFINITY`, when a ban left the path uncoverable.
pub(super) fn frontier_response(
    st: &PathState,
    source: Source<'_>,
    pricing: Pricing<'_>,
    budget_pages: f64,
    tables: &mut FrontierTables,
    out: &mut Selection,
) -> Option<(f64, f64)> {
    let FrontierTables { labels, banned } = tables;
    let n = st.path.len();
    let label = match source {
        Source::Space(space) => {
            let cells = Cells::new(st, space, pricing, banned);
            frontier_point(labels, n, |sub| cells.piece(sub), budget_pages)
        }
        Source::Row(row) => {
            let cells = RowCells::new(row, n, pricing);
            frontier_point(labels, n, |sub| cells.piece(sub), budget_pages)
        }
    }?;
    labels.pieces_into(&label, out, |sub, o| (sub, Org::ALL[o]));
    Some((label.cost, label.size))
}

/// The marginal `(cost, size)` of one path's *existing* selection
/// under a sharing context, read from the installed prices and never
/// through the dominance mask — bit-identical to summing the matching
/// unmasked [`Cells`] at λ = 0, in selection order.
pub(super) fn true_marginal(
    st: &PathState,
    space: &CandidateSpace,
    context: &[u8],
    sel: &Selection,
) -> (f64, f64) {
    let n = st.path.len();
    let mut cost = 0.0;
    let mut size = 0.0;
    for &(sub, org) in sel.iter() {
        let r = sub.rank(n);
        let (m, s) = if context[r] & (1 << org.index()) != 0 {
            (0.0, 0.0)
        } else {
            installed(space, (st.cand(sub), org))
        };
        cost += st.query_costs[r][org.index()] + m + 0.0 * s;
        size += s;
    }
    (cost, size)
}

/// Converts a configuration into a workload [`Selection`] (workload
/// matrices never build the no-index column).
pub(super) fn to_selection(config: &IndexConfiguration) -> Selection {
    config
        .pairs()
        .iter()
        .map(|&(sub, choice)| match choice {
            Choice::Index(org) => (sub, org),
            Choice::NoIndex => unreachable!("no no-index column at workload scale"),
        })
        .collect()
}
