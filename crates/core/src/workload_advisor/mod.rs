//! Workload-scale selection as an **online engine**: optimal index
//! configurations for N paths at once over a shared, delta-maintained
//! [`CandidateSpace`], with incremental re-optimization when the workload
//! evolves.
//!
//! The paper optimizes one path under a fixed access pattern; real advisor
//! deployments (CoPhy's what-if loops, Meta's AIM observe→re-optimize
//! cycle) face hundreds of overlapping paths whose population statistics,
//! update rates and query mix drift continuously. The advisor exploits two
//! structural facts:
//!
//! 1. **Processing cost is linear in the load** (Proposition 4.2 plus the
//!    `frequency × unit cost` shape of every `PC` term), so each cell
//!    splits exactly into a *query share* `Q_i(S, X)` — path-specific,
//!    because probe counts depend on the full path downstream of `S` — and
//!    a *maintenance share* `M(c, X)` that depends only on the physical
//!    candidate `c` — its step sequence, its embedded-vs-terminal role
//!    (part of the candidate identity: an embedded subpath absorbs the
//!    boundary `CMD` traffic of the class that follows it), and the shared
//!    per-class statistics and update rates — not on which path embeds it.
//! 2. **A physical index is built once.** When several paths allocate the
//!    same `(candidate, organization)`, its maintenance is paid once, so
//!    the workload objective is
//!    `Σ_i Q_i(selection_i) + Σ_{distinct (c, X) selected} M(c, X)`.
//!
//! # The evolving-workload model
//!
//! Mutations arrive through four entry points — [`WorkloadAdvisor::add_path`],
//! [`WorkloadAdvisor::remove_path`], [`WorkloadAdvisor::update_stats`],
//! [`WorkloadAdvisor::update_rates`] (plus the per-path
//! [`WorkloadAdvisor::update_query_rates`]) — which delta-maintain three
//! memo layers instead of discarding them (see DESIGN.md §5.11 for the
//! invalidation matrix):
//!
//! * the **interned candidate space**: refcounted per owning path, so a
//!   departing path frees exactly the candidates it alone exposed;
//! * the **priced cell** per `(candidate, organization)`, its maintenance
//!   and size: a class mutation invalidates only the candidates whose
//!   dependency set (step hierarchies + embedded boundary, per
//!   `oic_cost::invalidation`) contains that class;
//! * the **per-path artifacts**: query-share vectors, standalone optima and
//!   last best-response selections, invalidated only for paths whose scope
//!   contains a mutated class (or whose own query rates changed).
//!
//! [`WorkloadAdvisor::reoptimize`] then re-prices only the dirty paths and
//! re-runs the selection sweeps with memoized best responses: an untouched
//! path whose sharing context is unchanged is a cache hit, not a DP run.
//!
//! # Space budgets
//!
//! Every plan reports its physical footprint ([`WorkloadPlan::size_pages`]:
//! each distinct `(candidate, organization)`'s pages counted once, exactly
//! like its maintenance), and
//! [`WorkloadAdvisor::optimize_with_budget`] selects the cheapest plan
//! whose footprint fits a shared page budget — Lagrangian bisection on
//! `cost + λ·size` over the same sweep machinery, a greedy eviction
//! descent from the unconstrained optimum (recorded per advisor state, so
//! re-solving under a moved budget resumes or truncates the walk instead
//! of repeating it), then a frontier-based greedy repair pass (DESIGN.md
//! §5.12). At infinite budget it returns the unconstrained plan
//! bit-identically.
//! The warm start is deliberately *computational*, not trajectorial — the
//! sweep replays the cold algorithm's exact iteration over cached values —
//! so an incremental `reoptimize()` returns a plan whose cost equals a
//! cold [`WorkloadAdvisor::optimize`] on a freshly
//! [rebuilt](WorkloadAdvisor::rebuild) advisor (the anchor invariant,
//! property-tested in `oic-sim/tests/evolving.rs`).
//!
//! **Invariant:** epoch mutations go through the advisor API. The
//! [`CandidateSpace`]'s mutators are private to this crate, so no caller
//! can bypass the invalidation bookkeeping and leave a stale price in it.
//!
//! # Parallel engine
//!
//! The three hot per-path stages — cost-model construction + pricing,
//! standalone DP optima, and the best-response sweeps of the coordinate
//! descent — fan out over an [`oic_exec::Executor`] (default: one lane
//! per CPU; [`WorkloadAdvisor::with_threads`] picks another count, `1` =
//! the sequential engine). The
//! parallel plan is **bit-identical** to the sequential one for every
//! thread count, telemetry included, by construction rather than by luck:
//! each unpriced cell is claimed by its first dirty owner, priced once
//! and installed in path-id order, the descent fans out per
//! candidate-sharing component (components share no
//! index, so each one's Gauss–Seidel trajectory is independent of the
//! others') and merges in component order, and every float reduction keeps
//! its value-sorted summation order. DESIGN.md §5.13 states the contract;
//! `oic-sim/tests/parallel.rs` pins it across thread counts {1, 2, 8}.

mod budget;
mod descent;
pub(crate) mod ledger;
mod plan;
mod pricing;
mod state;
#[cfg(test)]
mod tests;
mod whatif;

pub use budget::BudgetedWorkloadPlan;
pub use plan::{PathOutcome, SharedIndexOutcome, WorkloadPlan};
pub(crate) use whatif::AdoptedPath;
pub use whatif::{WhatIfReport, WhatIfSubscriber};

use crate::shard;
use crate::space::{CandidateId, CandidateSpace};
use budget::EvictionTrail;
use descent::{Memo, Shards};
use ledger::{Holders, Ledger};
use oic_cost::{ClassStats, CostParams, Org};
use oic_exec::Executor;
use oic_schema::{ClassId, Path, PathSignature, Schema, SubpathId};
use oic_workload::{mining, MiningPolicy};
use pricing::{best_response, Pricing, QueryBasis, Source};
use state::{Dirty, PathState};
use std::collections::HashMap;
use std::sync::Arc;

/// One path's selection: the chosen `(subpath, organization)` pieces.
type Selection = Vec<(SubpathId, Org)>;

/// A path's best responses from its last λ = 0 descent, one entry per
/// sharing context that descent visited (a 3-bit covered mask per rank),
/// each with the selection the DP produced for it. An entry is a pure
/// function of the path's installed cells, its context and λ, so reusing
/// it while the path is clean is the cold replay's DP, not an
/// approximation of it (DESIGN.md §5.11).
type SweepMemo = Vec<(Vec<u8>, Selection)>;

/// Stable handle of one path in the advisor, valid across epochs until the
/// path is removed. Handles are never reused within one advisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(u32);

impl PathId {
    /// The raw handle value (diagnostics only).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// The online workload-scale advisor. Class statistics and maintenance
/// rates are shared across the workload — the consistency that makes a
/// shared physical index's maintenance a property of the candidate alone;
/// query rates are per path.
///
/// Build one with [`WorkloadAdvisor::new`] (+ the chainable
/// [`WorkloadAdvisor::with_stats`] / [`WorkloadAdvisor::with_maintenance`]),
/// feed it paths with [`WorkloadAdvisor::add_path`], and call
/// [`WorkloadAdvisor::optimize`]. As the workload evolves, apply mutations
/// and call [`WorkloadAdvisor::reoptimize`] — the result is identical to a
/// cold run on the mutated workload, at a fraction of the work.
pub struct WorkloadAdvisor<'a> {
    schema: &'a Schema,
    params: CostParams,
    /// `ClassStats` per class, dense by `ClassId`.
    stats: Vec<ClassStats>,
    /// `(β, γ)` insert/delete rates per class, dense by `ClassId`.
    maint: Vec<(f64, f64)>,
    /// Live paths in insertion order (removal preserves relative order).
    paths: Vec<PathState>,
    /// Cells struck by the live paths' prune masks: the sum of their
    /// `struck` counts, kept by `refresh_masks` and `remove_path`.
    struck: u64,
    /// Ranks the admission policy dropped across the live paths: the sum
    /// of their mined-out counts, kept by arrival, departure and
    /// re-mining.
    mined_out: u64,
    /// The adopted plan's ledger, kept across epochs: every live path's
    /// current selection, registered at the prices installed for it. A
    /// departure or re-admission withdraws the path, re-pricing swaps an
    /// owned cell's once-paid values, and an epoch re-registers only the
    /// paths whose selection or query shares moved — so it always holds
    /// what a ledger built from scratch on the current selections would
    /// hold, bit for bit (DESIGN.md §5.15).
    ledger: Ledger,
    /// The holders of each index the adopted plan cites, kept beside the
    /// ledger by the same doors.
    holders: Holders,
    /// Each live path's standalone optimum cost, in path order: the
    /// operands of `independent_cost`, refreshed for the re-priced paths
    /// and folded in path order (a running float total would not be that
    /// fold's bits).
    standalone_costs: Vec<f64>,
    /// The paths marked since the last re-pricing, by handle, in marking
    /// order: exactly the live paths with a dirty flag, plus departed
    /// ones, which the re-pricing skips.
    dirty: Vec<PathId>,
    /// The claim pass's table, a 3-bit organization mask per candidate:
    /// all zero between passes, which clear only what they set.
    claimed: Vec<u8>,
    /// Shared candidate arena + its priced cells.
    space: CandidateSpace,
    next_id: u32,
    /// Completed re-optimizations.
    epoch: u64,
    /// Mutations applied since the last completed re-optimization.
    mutations: u64,
    /// How the per-path stages run: inline, or fanned out over a pool.
    /// Either way the plan is bit-identical (DESIGN.md §5.13).
    exec: Executor,
    /// Per-signature query-pricing basis: retrieval coefficients priced
    /// once per distinct path signature, evaluated per path against its
    /// own query rates. `update_stats` evicts the bases whose scope
    /// contains the mutated class.
    basis: HashMap<PathSignature, QueryBasis>,
    /// The mined-admission policy: which candidate subpaths clear the
    /// support threshold and get interned at all (DESIGN.md §5.17). The
    /// default admits everything — the unmined space, bitwise.
    mining: MiningPolicy,
    /// The eviction descent of the budgeted search, recorded for the
    /// current advisor state so a re-solve under a moved budget resumes or
    /// truncates it instead of re-walking it (DESIGN.md §5.12). Dropped by
    /// the next [`Self::reoptimize`] that sees a mutation or re-prices a
    /// path.
    trail: Option<EvictionTrail>,
    /// The candidate-sharing components of the live paths, with their
    /// members' cells numbered for the descent, built on first use and
    /// kept while membership holds: dropped only by `add_path`,
    /// `remove_path` and a re-mining that moved a path's admitted set —
    /// nothing else changes a path's candidates or the paths' order.
    components: Option<Arc<Shards>>,
}

impl<'a> WorkloadAdvisor<'a> {
    /// Binds the schema and physical parameters. Every class starts with
    /// singleton statistics and zero maintenance; override with
    /// [`Self::with_stats`] / [`Self::with_maintenance`] (or later, per
    /// class, with [`Self::update_stats`] / [`Self::update_rates`]).
    pub fn new(schema: &'a Schema, params: CostParams) -> Self {
        let nc = schema.class_count();
        WorkloadAdvisor {
            schema,
            params,
            stats: vec![ClassStats::new(1.0, 1.0, 1.0); nc],
            maint: vec![(0.0, 0.0); nc],
            paths: Vec::new(),
            struck: 0,
            mined_out: 0,
            ledger: Ledger::default(),
            holders: Holders::listing(2),
            standalone_costs: Vec::new(),
            dirty: Vec::new(),
            claimed: Vec::new(),
            space: CandidateSpace::new(),
            next_id: 0,
            epoch: 0,
            mutations: 0,
            exec: Executor::default(),
            basis: HashMap::new(),
            mining: MiningPolicy::default(),
            trail: None,
            components: None,
        }
    }

    /// Sets the lane count the per-path stages run on (chainable): `1` is
    /// the sequential engine, `n ≥ 2` recruits `n - 1` shared pool
    /// workers. The default is [`Executor::default`], one lane per
    /// available CPU; the plan is bit-identical for any choice, so this is
    /// purely a wall-clock knob.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.exec = Executor::with_threads(threads);
        self
    }

    /// The executor the per-path stages run on.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Sets the mined-admission policy (chainable) and re-mines every
    /// live path under it: ranks below the support threshold are released
    /// from the space, newly admitted ranks are interned, in rank order.
    /// [`MiningPolicy::default`] (support 0) admits everything — the
    /// unmined candidate space, and therefore the unmined plan, bitwise.
    pub fn with_mining(mut self, policy: MiningPolicy) -> Self {
        self.mining = policy;
        for i in 0..self.paths.len() {
            self.remine_path(i);
        }
        self
    }

    /// The adopted mined-admission policy.
    pub fn mining_policy(&self) -> MiningPolicy {
        self.mining
    }

    /// Sets the shared per-class statistics (chainable; equivalent to
    /// [`Self::update_stats`] per class).
    pub fn with_stats(mut self, mut stats: impl FnMut(ClassId) -> ClassStats) -> Self {
        for c in self.schema.class_ids() {
            self.update_stats(c, stats(c));
        }
        self
    }

    /// Sets the shared per-class `(insert, delete)` rates (chainable;
    /// equivalent to [`Self::update_rates`] per class).
    pub fn with_maintenance(mut self, mut rates: impl FnMut(ClassId) -> (f64, f64)) -> Self {
        for c in self.schema.class_ids() {
            self.update_rates(c, rates(c));
        }
        self
    }

    // ---- epoch mutations --------------------------------------------------

    /// Adds one path with its per-class query rates, interning (and
    /// refcounting) its candidates into the shared space. Returns the
    /// path's stable handle.
    pub fn add_path(&mut self, path: Path, mut queries: impl FnMut(ClassId) -> f64) -> PathId {
        let alphas = self.schema.class_ids().map(&mut queries).collect();
        self.add_path_dense(path, alphas)
    }

    /// [`Self::add_path`] with the dense per-class rate vector prebuilt.
    pub fn add_path_dense(&mut self, path: Path, alphas: Vec<f64>) -> PathId {
        self.add_shared_path(Arc::new(path), alphas)
    }

    /// [`Self::add_path_dense`] for a path the caller already shares.
    fn add_shared_path(&mut self, path: Arc<Path>, alphas: Vec<f64>) -> PathId {
        assert_eq!(alphas.len(), self.schema.class_count());
        let id = PathId(self.next_id);
        self.next_id += 1;
        let admitted = Self::admitted_ranks(self.schema, self.mining, &path, &alphas);
        let cands = self
            .space
            .intern_path_admitted(self.schema, &path, &admitted);
        let st = PathState::new(self.schema, id, path, alphas, cands);
        self.mined_out += st.mined_out();
        self.paths.push(st);
        self.ledger.arrive();
        self.standalone_costs.push(0.0);
        self.dirty.push(id);
        self.components = None;
        self.mutations += 1;
        id
    }

    /// Removes a path, releasing its candidate references; candidates it
    /// alone exposed are freed from the space (their ids recycle) and can
    /// never be cited by a subsequent plan. Returns the removed path, or
    /// `None` for an unknown/already-removed handle; the path is copied
    /// only when a live [`WorkloadPlan`] still shares it.
    pub fn remove_path(&mut self, id: PathId) -> Option<Path> {
        let i = self.find(id)?;
        let st = &self.paths[i];
        self.ledger.remove(i, st.pieces(&st.selection));
        self.ledger.depart(i);
        self.holders.remove(i, st.pieces(&st.selection));
        self.holders.depart(i);
        self.standalone_costs.remove(i);
        let st = self.paths.remove(i);
        self.struck -= st.struck;
        self.mined_out -= st.mined_out();
        self.space.release_path(&st.live_cands);
        self.components = None;
        if !self.paths.iter().any(|p| p.signature == st.signature) {
            self.basis.remove(&st.signature);
        }
        self.mutations += 1;
        Some(Arc::try_unwrap(st.path).unwrap_or_else(|shared| Path::clone(&shared)))
    }

    /// Updates one class's shared statistics, invalidating exactly the
    /// memo layers that read them: the maintenance prices of candidates
    /// whose dependency set contains `class`, and every cached artifact of
    /// paths whose scope contains it. A no-op (returning `false`) when the
    /// statistics are unchanged.
    pub fn update_stats(&mut self, class: ClassId, stats: ClassStats) -> bool {
        if self.stats[class.index()] == stats {
            return false;
        }
        self.stats[class.index()] = stats;
        self.space.invalidate_class(class);
        // Retrieval coefficients read class statistics; evict the bases
        // that depend on the mutated class (rate churn leaves them alone —
        // they are maintenance- and α-blind).
        self.basis
            .retain(|_, b| b.scope.binary_search(&class).is_err());
        for st in &mut self.paths {
            if st.scope.binary_search(&class).is_ok() && st.mark(Dirty::Stats) {
                self.dirty.push(st.id);
            }
        }
        self.mutations += 1;
        true
    }

    /// Updates one class's shared `(insert, delete)` rates. Query shares
    /// are untouched (they are priced under the query-only load); the
    /// maintenance prices of dependent candidates are invalidated and the
    /// owning paths marked for re-pricing. A no-op when unchanged.
    pub fn update_rates(&mut self, class: ClassId, rates: (f64, f64)) -> bool {
        if self.maint[class.index()] == rates {
            return false;
        }
        self.maint[class.index()] = rates;
        self.space.invalidate_class(class);
        for st in &mut self.paths {
            if st.scope.binary_search(&class).is_ok() && st.mark(Dirty::Rates) {
                self.dirty.push(st.id);
            }
        }
        self.mutations += 1;
        true
    }

    /// Replaces one path's per-class query rates. Only that path's query
    /// shares go stale — maintenance prices are query-blind. Like
    /// [`Self::update_stats`] / [`Self::update_rates`], returns whether a
    /// mutation was applied: `false` for an unknown handle *or* when the
    /// new rates equal the old ones (a recognized no-op).
    pub fn update_query_rates(
        &mut self,
        id: PathId,
        mut queries: impl FnMut(ClassId) -> f64,
    ) -> bool {
        let alphas: Vec<f64> = self.schema.class_ids().map(&mut queries).collect();
        let Some(i) = self.find(id) else {
            return false;
        };
        let st = &mut self.paths[i];
        if st.alphas == alphas {
            return false;
        }
        st.alphas = alphas;
        if st.mark(Dirty::Queries) {
            self.dirty.push(id);
        }
        self.mutations += 1;
        // Admission is a pure function of (policy, path, α): new rates can
        // move ranks across the support threshold, so re-mine. Same
        // verdict = recognized no-op, interning history untouched — which
        // keeps a warm advisor's candidate ids aligned with its cold
        // rebuild. Retunes re-mine through this same door: the tuner
        // pushes its live-estimator rates path by path.
        self.remine_path(i);
        true
    }

    /// The admission verdict of `path` under `policy` and per-class query
    /// rates `alphas`: one bool per subpath rank. The all-true fast path
    /// skips the miner entirely when the policy cannot gate.
    fn admitted_ranks(
        schema: &Schema,
        policy: MiningPolicy,
        path: &Path,
        alphas: &[f64],
    ) -> Vec<bool> {
        if !policy.is_gating() {
            return vec![true; SubpathId::count(path.len())];
        }
        let masses = mining::position_mass(schema, path, |c| alphas[c.index()]);
        mining::mine(&policy, &masses).admitted
    }

    /// Recomputes path `i`'s admission under the adopted policy and
    /// re-interns its candidates when the verdict moved: dropped ranks
    /// are released from the space (freed when this path was their last
    /// owner), newly admitted ranks are interned in rank order, and every
    /// cached artifact of the path is invalidated. An unchanged verdict is
    /// a recognized no-op.
    fn remine_path(&mut self, i: usize) {
        let admitted = {
            let st = &self.paths[i];
            Self::admitted_ranks(self.schema, self.mining, &st.path, &st.alphas)
        };
        if admitted
            .iter()
            .zip(&self.paths[i].cands)
            .all(|(&a, c)| a == c.is_some())
        {
            return;
        }
        // The selection goes with the old candidates: withdraw it while
        // they are still interned.
        let st = &self.paths[i];
        self.ledger.remove(i, st.pieces(&st.selection));
        self.holders.remove(i, st.pieces(&st.selection));
        self.mined_out -= st.mined_out();
        let old = std::mem::take(&mut self.paths[i].live_cands);
        self.space.release_path(&old);
        let cands = self
            .space
            .intern_path_admitted(self.schema, &self.paths[i].path, &admitted);
        let st = &mut self.paths[i];
        if st.admit(cands) {
            self.dirty.push(st.id);
        }
        self.mined_out += st.mined_out();
        self.components = None;
    }

    // ---- introspection ----------------------------------------------------

    /// Number of live paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Live path handles, in insertion order — an iterator, so callers
    /// that want the first handle (or a count) never allocate a vector of
    /// 100k ids.
    pub fn path_ids(&self) -> impl Iterator<Item = PathId> + '_ {
        self.paths.iter().map(|st| st.id)
    }

    /// The path behind a handle.
    pub fn path(&self, id: PathId) -> Option<&Path> {
        self.find(id).map(|i| &*self.paths[i].path)
    }

    /// The epoch-stable physical identity of a live path — equal for any
    /// later re-arrival of the same step sequence.
    pub fn path_signature(&self, id: PathId) -> Option<&PathSignature> {
        self.find(id).map(|i| &self.paths[i].signature)
    }

    /// The shared candidate space, read-only: epoch mutations go through
    /// the advisor API, so invalidation stays sound.
    pub fn candidate_space(&self) -> &CandidateSpace {
        &self.space
    }

    /// Completed re-optimizations.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of classes in the bound schema — the dense id range of the
    /// per-class statistics and rate vectors.
    pub fn class_count(&self) -> usize {
        self.stats.len()
    }

    /// The adopted `(insert, delete)` rates of a class — what the current
    /// plan was priced under. The online tuner compares these against its
    /// stream-derived estimates to detect drift.
    pub fn rates(&self, class: ClassId) -> (f64, f64) {
        self.maint[class.index()]
    }

    /// The adopted per-class query rates of a live path, dense by
    /// `ClassId`; `None` for an unknown/removed handle.
    pub fn query_rates(&self, id: PathId) -> Option<&[f64]> {
        self.find(id).map(|i| self.paths[i].alphas.as_slice())
    }

    /// A cold copy: a fresh advisor over the same schema, parameters,
    /// statistics, rates, live paths (same order) and executor, with every
    /// cache empty. `rebuild().optimize()` is the from-scratch baseline
    /// that [`Self::reoptimize`] must match — benches time the two against
    /// each other; the property tests pin the cost equality.
    pub fn rebuild(&self) -> WorkloadAdvisor<'a> {
        let mut adv = WorkloadAdvisor::new(self.schema, self.params).with_mining(self.mining);
        adv.exec = self.exec.clone();
        adv.stats.clone_from(&self.stats);
        adv.maint.clone_from(&self.maint);
        for st in &self.paths {
            adv.add_shared_path(Arc::clone(&st.path), st.alphas.clone());
        }
        adv.mutations = 0;
        adv
    }

    fn find(&self, id: PathId) -> Option<usize> {
        // Handles are issued ascending and removal keeps the order.
        self.paths.binary_search_by_key(&id, |st| st.id).ok()
    }

    // ---- (re-)optimization ------------------------------------------------

    /// Runs the workload-scale selection. On a freshly built advisor this
    /// is the cold path (everything is dirty); after mutations it is
    /// exactly [`Self::reoptimize`].
    pub fn optimize(&mut self) -> WorkloadPlan {
        self.reoptimize()
    }

    /// Incrementally re-optimizes the evolved workload.
    ///
    /// Three phases, each skipping clean work:
    ///
    /// 1. **Re-price** — rebuild the cost model for dirty paths only; the
    ///    space's priced cells turn shared-candidate pricing into hits
    ///    except for invalidated cells.
    /// 2. **Standalone** — recompute the per-path unshared optimum where
    ///    stale (it seeds the sweeps and prices `independent_cost`).
    /// 3. **Sweeps** — coordinate descent over all paths from the
    ///    standalone seed, replaying the cold trajectory; a path whose
    ///    sharing context matches its memoized best response is a cache
    ///    hit. Convergence: the objective is monotone nonincreasing.
    ///
    /// Because every cached value equals what a cold run would recompute
    /// and the trajectory is replayed rather than warm-seeded, the
    /// resulting plan cost **equals** a cold `optimize()` on
    /// [`Self::rebuild`] (up to float-summation noise; see DESIGN.md
    /// §5.11). An empty workload yields an empty plan.
    pub fn reoptimize(&mut self) -> WorkloadPlan {
        self.epoch += 1;
        let mutations = std::mem::take(&mut self.mutations);

        let (dirty, epoch_pricings) = self.reprice();
        // The recorded eviction descent was walked over this state's
        // selections and prices: any mutation or re-pricing retires it.
        if mutations > 0 || !dirty.is_empty() {
            self.trail = None;
        }
        let candidates_pruned = self.refresh_masks(&dirty);

        // Phase 2 — standalone optima (maintenance unshared). Per-path
        // independent DPs over the now-frozen memo: embarrassingly
        // parallel, results written back in path order. Every re-priced
        // path was marked since its last standalone optimum, and only
        // those: the stale ones are the dirty ones.
        debug_assert!(
            (0..self.paths.len())
                .all(|i| self.paths[i].standalone.is_none() == dirty.binary_search(&i).is_ok()),
            "the stale standalone optima are the re-priced paths'"
        );
        let mut dp_runs = dirty.len() as u64;
        let results = self.par_map_dp(&dirty, |dp, &i| {
            let (st, mut sel) = (&self.paths[i], Selection::new());
            let space = Source::Space(&self.space);
            let cost = best_response(st, space, Pricing::default(), dp, &mut sel);
            (sel, cost)
        });
        for (result, &i) in results.into_iter().zip(&dirty) {
            self.standalone_costs[i] = result.1;
            self.paths[i].standalone = Some(result);
        }
        let independent_cost: f64 = self.standalone_costs.iter().sum();

        let shards = self.components();
        let comps = &shards.comps;
        let components = comps.groups.len();
        let largest_component = comps.groups.iter().map(Vec::len).max().unwrap_or(0);

        // Phase 3 — coordinate descent from the standalone seed, per
        // component (DESIGN.md §5.15): components share no candidate, so
        // the descent decomposes exactly. A singleton's context is
        // permanently all-zero — its standalone seed *is* the fixed point —
        // so only multi-path components run. Each path keeps its current
        // selection; only the ones that moved are overwritten.
        for group in comps.groups.iter().filter(|g| g.len() == 1) {
            let st = &self.paths[group[0]];
            let seed = &st.standalone.as_ref().expect("phase 2 filled it").0;
            if st.selection != *seed {
                self.adopt_selection(group[0], seed.clone());
            }
        }
        let outs = self.descend_components(&shards, 0.0, Memo::Trail);
        let speculation_skips = (components - outs.len()) as u64;
        // An all-singleton (or empty) workload converges in one no-change
        // round.
        let mut sweeps = 1;
        let mut dp_memo_hits = 0u64;
        for (comp, out) in outs {
            for (k, sel) in out.changed {
                self.adopt_selection(comp[k], sel);
            }
            for (k, added, visited) in out.trails {
                self.paths[comp[k]].retrace(added, visited);
            }
            sweeps = sweeps.max(out.sweeps);
            dp_runs += out.dp_runs;
            dp_memo_hits += out.dp_memo_hits;
        }
        // The re-priced paths' query shares may have moved under an
        // unmoved selection.
        for &i in &dirty {
            let st = &self.paths[i];
            self.ledger.requery(i, st.pieces(&st.selection));
        }
        self.ledger.settle();
        let current = || self.paths.iter().map(|st| st.pieces(&st.selection));
        debug_assert!(
            self.ledger.matches(&Ledger::new(&self.space, current())),
            "the kept ledger diverged from one built from scratch"
        );
        debug_assert!(
            self.holders.agree(&self.ledger, |i, pair| {
                let st = &self.paths[i];
                st.pieces(&st.selection).any(|(held, _)| held == pair)
            }),
            "the kept holders diverged from a fresh count"
        );
        let mut plan = self.adopted_plan(independent_cost);
        debug_assert!(
            plan.total_cost <= independent_cost + 1e-6 * independent_cost.abs().max(1.0),
            "sharing can only reduce the objective: {} vs {independent_cost}",
            plan.total_cost
        );
        plan.epoch_pricings = epoch_pricings;
        plan.sweeps = sweeps;
        plan.mutations = mutations;
        plan.repriced_paths = dirty.len();
        plan.dp_runs = dp_runs;
        plan.dp_memo_hits = dp_memo_hits;
        plan.components = components;
        plan.largest_component = largest_component;
        plan.candidates_pruned = candidates_pruned;
        plan.speculation_skips = speculation_skips;
        plan.candidates_mined_out = self.mined_out;
        // Cells the admission policy deleted from this epoch's re-pricing:
        // 3 organizations per mined-out rank, over the dirty paths the
        // phase actually visited (clean paths priced nothing either way).
        let skipped = dirty.iter().map(|&i| 3 * self.paths[i].mined_out());
        plan.cells_skipped = skipped.sum();
        plan
    }

    /// Makes `sel` path `i`'s current selection: the kept ledger withdraws
    /// the old one and registers `sel` (the epoch settles it), and the
    /// path's configuration is built for it.
    fn adopt_selection(&mut self, i: usize, sel: Selection) {
        let st = &mut self.paths[i];
        self.ledger.remove(i, st.pieces(&st.selection));
        self.holders.remove(i, st.pieces(&st.selection));
        self.holders.insert(&self.space, i, st.pieces(&sel));
        st.configuration = plan::configuration(st, &sel);
        st.selection = sel;
        self.ledger.insert(&self.space, i, st.pieces(&st.selection));
    }

    /// The candidate-sharing components of the live paths (indices into
    /// the path list, grouped in first-member order) with their members'
    /// cells numbered: the cached ones, or built from the live candidates
    /// when membership moved since.
    fn components(&mut self) -> Arc<Shards> {
        let (paths, space, exec) = (&self.paths, &self.space, &self.exec);
        let shards = self.components.get_or_insert_with(|| {
            let live: Vec<&[CandidateId]> = paths.iter().map(|st| &st.live_cands[..]).collect();
            let comps = shard::components(&live, space.slot_count());
            Arc::new(Shards::new(paths, comps, exec))
        });
        Arc::clone(shards)
    }
}
