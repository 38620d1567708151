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
//! * the **maintenance memo** per `(candidate, organization)`: a class
//!   mutation invalidates only the candidates whose dependency set (step
//!   hierarchies + embedded boundary, per `oic_cost::invalidation`)
//!   contains that class;
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
//! **Invariant:** epoch mutations must go through the advisor API. Editing
//! a [`CandidateSpace`] directly bypasses the invalidation bookkeeping and
//! can leave stale maintenance prices in the memo.
//!
//! # Parallel engine
//!
//! The three hot per-path stages — cost-model construction + pricing,
//! standalone DP optima, and the best-response sweeps of the coordinate
//! descent — fan out over an [`oic_exec::Executor`] (default: one lane
//! per CPU, `OIC_THREADS` overrides, `1` = the sequential engine). The
//! parallel plan is **bit-identical** to the sequential one for every
//! thread count, telemetry included, by construction rather than by luck:
//! each unpriced cell is claimed by its first dirty owner, priced once
//! and installed in path-id order, the descent fans out per
//! candidate-sharing component (components share no
//! index, so each one's Gauss–Seidel trajectory is independent of the
//! others') and merges in component order, and every float reduction keeps
//! its value-sorted summation order. DESIGN.md §5.13 states the contract;
//! `oic-sim/tests/parallel.rs` pins it across thread counts {1, 2, 8}.

use crate::select::{opt_ind_con_dp, prune_dominated};
use crate::shard::ShardIndex;
use crate::space::{CandidateId, CandidateSpace, CandidateStep};
use crate::{pc, Choice, CostMatrix, IndexConfiguration};
use oic_cost::{ClassStats, CostModel, CostParams, Org, PathCharacteristics};
use oic_exec::Executor;
use oic_schema::{ClassId, Path, PathSignature, Schema, SubpathId};
use oic_workload::{mining, LoadDistribution, MiningPolicy, Triplet};
use std::collections::{HashMap, HashSet};

/// Maximum coordinate-descent rounds; the objective is monotone, so this is
/// a safety net, not a tuning knob (workloads converge in 2–3 sweeps).
const MAX_SWEEPS: usize = 8;

/// One path's selection: the chosen `(subpath, organization)` pieces.
type Selection = Vec<(SubpathId, Org)>;

/// A physical index: one interned candidate under one organization.
type Pair = (CandidateId, Org);

/// One eviction trial's outcome: the re-selected owners of the banned
/// index, ascending by path index (a path never repeats a class, so its
/// ranks are distinct candidates and it owns an index at most once) —
/// everything a trial changes. `None` when the ban left some owner
/// uncoverable.
type Reselection = Option<Vec<(usize, Selection)>>;

/// A path's last best response: the sharing context (3-bit covered mask
/// per rank) and the selection the DP produced for it.
type SweepMemo = Option<(Vec<u8>, Selection)>;

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

/// Per-path engine state: the path, its load, and every cached artifact
/// with the dirty bits that gate recomputation.
#[derive(Debug)]
struct PathState {
    id: PathId,
    path: Path,
    /// Epoch-stable physical identity (used by re-arrival diagnostics).
    signature: PathSignature,
    /// Per-class query rates, dense by `ClassId`.
    alphas: Vec<f64>,
    /// Sorted class set whose statistics this path's query shares read
    /// (`oic_cost::invalidation::query_dependencies`).
    scope: Vec<ClassId>,
    /// Interned candidate per subpath rank — `None` when the mining
    /// admission policy dropped the rank (DESIGN.md §5.17): a mined-out
    /// subpath is never interned, never priced, and never offered to any
    /// DP. The path holds one reference to each live entry (released on
    /// removal).
    cands: Vec<Option<CandidateId>>,
    /// The admitted entries of `cands`, flattened in rank order — the
    /// slice the shard index, the release path and the component builder
    /// consume without re-flattening per call. Kept in sync at intern and
    /// re-mine time.
    live_cands: Vec<CandidateId>,
    /// Query share per rank and organization; valid unless `dirty_query`.
    query_costs: Vec<[f64; 3]>,
    /// Standalone optimum (selection + cost, maintenance unshared); `None`
    /// when stale.
    standalone: Option<(Selection, f64)>,
    /// Last best response: the sharing context (3-bit covered mask per
    /// rank) and the selection the DP produced for it. Valid across epochs
    /// while the path is clean — a sweep whose context matches is a memo
    /// hit, not a DP run.
    sweep_memo: SweepMemo,
    /// Per-rank dominance prune mask (bit per organization; `0b111` = the
    /// whole rank is eliminated): cells provably absent from any best
    /// response, under any sharing context **and any λ ≥ 0** — the mask is
    /// size-aware, so it holds for every `cost + λ·size` pricing the
    /// budgeted search runs (DESIGN.md §5.15/§5.17). `None` when stale.
    pruned: Option<Vec<u8>>,
    /// Query shares stale (class statistics in scope, or own rates, moved).
    dirty_query: bool,
    /// Maintenance prices of this path's candidates possibly unpriced.
    dirty_maint: bool,
}

impl PathState {
    /// The interned candidate at a *selected* rank. Selections only ever
    /// cite admitted ranks — mined-out cells price at ∞, and singletons
    /// are always admitted, so every DP has a finite tiling to pick.
    fn cand(&self, sub: SubpathId) -> CandidateId {
        self.cands[sub.rank(self.path.len())].expect("selected rank admitted")
    }
}

/// One path's outcome in a [`WorkloadPlan`].
#[derive(Debug, Clone)]
pub struct PathOutcome {
    /// The advisor handle of the path.
    pub id: PathId,
    /// The path.
    pub path: Path,
    /// The selected configuration.
    pub selection: IndexConfiguration,
    /// The path-specific query share of the selection's cost.
    pub query_cost: f64,
    /// What the path would cost optimizing alone (paying all maintenance
    /// itself) — the single-path `Opt_Ind_Con` baseline.
    pub standalone_cost: f64,
}

/// A physical index selected by two or more paths.
#[derive(Debug, Clone)]
pub struct SharedIndexOutcome {
    /// The interned candidate.
    pub candidate: CandidateId,
    /// Its organization.
    pub org: Org,
    /// Indices (into [`WorkloadPlan::paths`]) of the owning paths.
    pub owners: Vec<usize>,
    /// The maintenance price, paid once.
    pub maintenance: f64,
    /// Maintenance avoided versus every owner paying separately.
    pub saving: f64,
}

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

/// The workload-scale physical design, with the epoch telemetry that makes
/// incremental re-optimization auditable.
#[derive(Debug)]
pub struct WorkloadPlan {
    /// Per-path outcomes, in insertion order.
    pub paths: Vec<PathOutcome>,
    /// Physical indexes shared by ≥ 2 paths, in deterministic order.
    pub shared: Vec<SharedIndexOutcome>,
    /// Σ of the standalone per-path optima.
    pub independent_cost: f64,
    /// The workload objective of the final selection: per-path query shares
    /// plus each distinct physical index's maintenance, once.
    pub total_cost: f64,
    /// Total footprint in pages of the plan's physical indexes: each
    /// distinct `(candidate, organization)` counted **once**, exactly like
    /// its maintenance — a shared index occupies its pages once no matter
    /// how many paths route through it.
    pub size_pages: f64,
    /// Distinct `(candidate, organization)` pairs selected — the number of
    /// physical indexes the plan actually builds.
    pub physical_indexes: usize,
    /// Live physical candidates interned across the workload.
    pub candidates: usize,
    /// Maintenance prices computed since the advisor was created
    /// (cumulative memo misses). Within one epoch this grows by at most
    /// `3 ×` the candidates touched by that epoch's mutations.
    pub maintenance_pricings: u64,
    /// Maintenance prices computed during *this* re-optimization.
    pub epoch_pricings: u64,
    /// Coordinate-descent rounds until the selections stabilized.
    pub sweeps: usize,
    /// 1-based re-optimization epoch (how many plans this advisor built).
    pub epoch: u64,
    /// Mutations applied since the previous plan.
    pub mutations: u64,
    /// Paths whose models were rebuilt this epoch (the dirty set).
    pub repriced_paths: usize,
    /// Per-path DP selections actually run this epoch.
    pub dp_runs: u64,
    /// Per-path DP selections answered from the best-response memo.
    pub dp_memo_hits: u64,
    /// Candidate-sharing components of the workload: groups of paths
    /// connected by chains of shared physical candidates. Paths in
    /// different components share no index, so the descent decomposes
    /// exactly across them (DESIGN.md §5.15).
    pub components: usize,
    /// Paths in the largest component.
    pub largest_component: usize,
    /// `(rank, organization)` matrix cells the dominance pruner removed
    /// from the best-response DPs this epoch.
    pub candidates_pruned: u64,
    /// Singleton components — paths sharing no candidate with any other —
    /// whose descent was skipped outright: nothing can ever cover one of
    /// their cells, so their standalone seed *is* the fixed point. (The
    /// name predates the component descent.)
    pub speculation_skips: u64,
    /// Candidate ranks the mining admission policy dropped across the
    /// live workload (Σ per-path mined-out ranks): subpaths never
    /// interned, priced, or offered to any DP. 0 when mining is off or
    /// nothing falls below the support threshold (DESIGN.md §5.17).
    pub candidates_mined_out: u64,
    /// Matrix cells (rank × organization) the re-pricing phase never
    /// visited this epoch because their rank was mined out — pricing work
    /// the admission policy deleted before it existed. Counted over the
    /// dirty (repriced) paths only, like `epoch_pricings`.
    pub cells_skipped: u64,
    /// Cells struck by the λ-uniform dominance mask while budgeted λ
    /// sweeps actually ran — evidence the budgeted search priced under
    /// pruning. 0 in an unconstrained plan or when the budget was slack.
    pub lambda_pruned: u64,
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
    /// counter like the inner epoch's `dp_runs`: trials answered from the
    /// other components' previous round, and whole rounds answered from
    /// the recorded trail, are not counted — so it is 0 for a call the
    /// trail serves outright and is excluded from the identity asserts.
    pub eviction_trials: u64,
    /// Cost of the unconstrained optimum (the budget-∞ baseline).
    pub unconstrained_cost: f64,
    /// Footprint of the unconstrained optimum.
    pub unconstrained_size: f64,
}

impl BudgetedWorkloadPlan {
    /// `total_cost / unconstrained_cost` — the price of the budget, ≥ 1 up
    /// to float noise (1 when the budget is slack).
    pub fn cost_ratio(&self) -> f64 {
        self.plan.total_cost / self.unconstrained_cost
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
        assert_eq!(self.lambda.to_bits(), other.lambda.to_bits(), "{ctx}: λ");
        assert_eq!(self.lambda_sweeps, other.lambda_sweeps, "{ctx}: λ sweeps");
        assert_eq!(self.repairs, other.repairs, "{ctx}: repairs");
        assert_eq!(self.evictions, other.evictions, "{ctx}: evictions");
        assert_eq!(
            self.unconstrained_cost.to_bits(),
            other.unconstrained_cost.to_bits(),
            "{ctx}: unconstrained cost"
        );
        assert_eq!(
            self.unconstrained_size.to_bits(),
            other.unconstrained_size.to_bits(),
            "{ctx}: unconstrained size"
        );
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
    /// Shared candidate arena + maintenance memo.
    space: CandidateSpace,
    next_id: u32,
    /// Completed re-optimizations.
    epoch: u64,
    /// Mutations applied since the last completed re-optimization.
    mutations: u64,
    /// How the per-path stages run: inline, or fanned out over a pool.
    /// Either way the plan is bit-identical (DESIGN.md §5.13).
    exec: Executor,
    /// Incremental union-find over the live paths, keyed by shared
    /// candidates — the component decomposition of the descent.
    shards: ShardIndex,
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
}

/// The budgeted search's eviction descent from the unconstrained optimum,
/// as far as some call has walked it. The walk reads the budget only in
/// its stop test — which index to evict next depends on the selections and
/// the bans alone — so one trail serves every budget: a looser budget
/// lands on an earlier step, a tighter one extends the walk from the end.
struct EvictionTrail {
    /// Candidate-sharing component of each live path (index into the
    /// advisor's path list → component number).
    comp_of: Vec<usize>,
    /// One step per adopted eviction. Footprints strictly decrease.
    steps: Vec<TrailStep>,
    /// Every index evicted so far; they stay banned so a later owner's
    /// re-selection cannot smuggle one back.
    banned: HashSet<Pair>,
    /// The walk found no eviction that frees a page at the last step: no
    /// budget below that step's footprint is reachable.
    dead_end: bool,
    /// Per component, the re-selections of the trials run against that
    /// component's current selections and bans. An eviction changes both
    /// inside one component only, so it clears that component's entry and
    /// every other trial keeps its re-selection for the next round.
    trials: Vec<HashMap<Pair, Reselection>>,
}

/// One adopted eviction: the owners it re-selected and the workload's
/// true `(cost, size)` afterwards, bit-identical to
/// [`WorkloadAdvisor::selection_totals`] of the resulting selections.
struct TrailStep {
    changed: Vec<(usize, Selection)>,
    cost: f64,
    size: f64,
}

impl EvictionTrail {
    /// An unwalked trail over `paths` live paths grouped into `components`.
    fn new(components: &[Vec<usize>], paths: usize) -> Self {
        let mut comp_of = vec![0; paths];
        for (c, comp) in components.iter().enumerate() {
            for &i in comp {
                comp_of[i] = c;
            }
        }
        EvictionTrail {
            comp_of,
            steps: Vec::new(),
            banned: HashSet::new(),
            dead_end: false,
            trials: vec![HashMap::new(); components.len()],
        }
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

/// The bans one eviction trial prices under: every index the descent
/// evicted so far plus the one on trial.
struct Bans<'a> {
    evicted: &'a HashSet<Pair>,
    trial: Pair,
}

impl Bans<'_> {
    fn contains(&self, pair: Pair) -> bool {
        pair == self.trial || self.evicted.contains(&pair)
    }
}

/// What every trial of one descent round shares, built once per round
/// from the round's selections: who owns which physical index, and the
/// three operand sequences of [`WorkloadAdvisor::selection_totals`] — so a
/// trial derives its totals from what it changed (see
/// [`WorkloadAdvisor::trial_totals`]).
struct RoundBase {
    /// Owning paths per selected physical index, ascending.
    owners: HashMap<Pair, Vec<usize>>,
    /// Maintenance price of each distinct selected index, `total_cmp`-sorted.
    maint: Vec<f64>,
    /// Footprint of each distinct selected index, `total_cmp`-sorted.
    sizes: Vec<f64>,
    /// Query share of every selected pair, in path then selection order.
    terms: Vec<f64>,
    /// `terms[starts[i]..starts[i + 1]]` are path `i`'s.
    starts: Vec<usize>,
    /// `prefix[i]` is the running query sum before path `i`'s first term;
    /// `prefix[paths]` the whole query total.
    prefix: Vec<f64>,
}

/// Adds `by` to `pair`'s entry of a small ownership delta.
fn bump(delta: &mut Vec<(Pair, isize)>, pair: Pair, by: isize) {
    match delta.iter_mut().find(|(p, _)| *p == pair) {
        Some((_, d)) => *d += by,
        None => delta.push((pair, by)),
    }
}

/// Inserts `value` into a `total_cmp`-sorted vector, keeping it sorted.
fn insert_sorted(sorted: &mut Vec<f64>, value: f64) {
    let at = sorted.partition_point(|x| x.total_cmp(&value).is_lt());
    sorted.insert(at, value);
}

/// Removes one occurrence of `value` from a `total_cmp`-sorted vector.
fn remove_sorted(sorted: &mut Vec<f64>, value: f64) {
    let at = sorted.partition_point(|x| x.total_cmp(&value).is_lt());
    debug_assert_eq!(sorted[at].to_bits(), value.to_bits());
    sorted.remove(at);
}

impl RoundBase {
    /// How many paths own `pair`: the round's count plus a trial's delta.
    fn count(&self, pair: Pair, delta: &[(Pair, isize)]) -> isize {
        let base = self.owners.get(&pair).map_or(0, Vec::len) as isize;
        base + delta.iter().find(|(p, _)| *p == pair).map_or(0, |d| d.1)
    }

    /// The round's own `(cost, size)`, in `selection_totals`' order.
    fn totals(&self) -> (f64, f64) {
        let query = *self.prefix.last().expect("prefix holds the total");
        (
            query + self.maint.iter().sum::<f64>(),
            self.sizes.iter().sum::<f64>(),
        )
    }
}

/// One dirty path's buffered re-pricing output, computed read-only on a
/// worker and merged into the advisor (memo installs in path-id order) on
/// the caller — see `WorkloadAdvisor::reprice_compute`.
struct RepriceOut {
    /// Fresh query shares, when the path's were stale.
    query_costs: Option<Vec<[f64; 3]>>,
    /// `(maintenance, size)` of each cell the path claimed, in claim order.
    cells: Vec<(f64, f64)>,
}

/// One component's buffered descent output, computed read-only on a worker
/// and installed into the advisor (selections, sweep memos, work counters)
/// by the caller in component order — see
/// `WorkloadAdvisor::descend_component`.
struct CompOut {
    /// Converged selection per member, in component order.
    sels: Vec<Selection>,
    /// Final sweep memo per member, in component order.
    memos: Vec<SweepMemo>,
    /// Sweeps this component ran until convergence.
    sweeps: usize,
    /// Context-keyed DP invocations inside this component.
    dp_runs: u64,
    /// Context-keyed memo hits inside this component.
    dp_memo_hits: u64,
}

/// Per-signature query-retrieval basis: the per-slot retrieval
/// coefficients of one path *shape*, priced once and re-evaluated against
/// any path of the same signature under any query rates.
///
/// Query retrieval costs (`model.retrieval*`) depend only on the path's
/// class statistics and the physical parameters — never on query,
/// insert/delete, or maintenance rates — so every path sharing a signature
/// (same classes step for step, hence the same characteristics and cost
/// model) shares these coefficients exactly. [`QueryBasis::eval`] replays
/// the from-scratch per-path pricing arithmetic (the fallback arm of
/// `reprice_compute`) — same slot order, same guards, same fold — term for
/// term, so the shares it produces are **bitwise** the ones that arm
/// computes (DESIGN.md §5.15).
struct QueryBasis {
    /// The representative path's scope (sorted class ids) — the
    /// invalidation key: `update_stats(c, ..)` evicts every basis whose
    /// scope contains `c`.
    scope: Vec<ClassId>,
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
    /// Prices the retrieval coefficients of `st`'s path shape: one cost
    /// model build, then every `(rank, org, slot)` retrieval unit cost in
    /// the exact order `pc::processing_cost` visits them.
    fn build(schema: &Schema, params: CostParams, stats: &[ClassStats], st: &PathState) -> Self {
        let chars = PathCharacteristics::build(schema, &st.path, |c| stats[c.index()]);
        let model = CostModel::new(schema, &st.path, &chars, params);
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
            space: CandidateSpace::new(),
            next_id: 0,
            epoch: 0,
            mutations: 0,
            exec: Executor::from_env(),
            shards: ShardIndex::new(),
            basis: HashMap::new(),
            mining: MiningPolicy::default(),
            trail: None,
        }
    }

    /// Replaces the executor the per-path stages run on (chainable). The
    /// default is [`Executor::from_env`]; the plan is bit-identical for
    /// any choice, so this is purely a wall-clock knob.
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// [`Self::with_executor`] by lane count: `1` is the sequential
    /// engine, `n ≥ 2` recruits `n - 1` shared pool workers.
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_executor(Executor::with_threads(threads))
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
        assert_eq!(alphas.len(), self.schema.class_count());
        let id = PathId(self.next_id);
        self.next_id += 1;
        let admitted = Self::admitted_ranks(self.schema, self.mining, &path, &alphas);
        let cands = self
            .space
            .intern_path_admitted(self.schema, &path, &admitted);
        let live_cands: Vec<CandidateId> = cands.iter().filter_map(|&c| c).collect();
        self.shards.add_path(id.0, &live_cands);
        let n = path.len();
        self.paths.push(PathState {
            id,
            signature: path.signature(),
            scope: oic_cost::invalidation::query_dependencies(self.schema, &path),
            alphas,
            cands,
            live_cands,
            query_costs: vec![[0.0; 3]; SubpathId::count(n)],
            standalone: None,
            sweep_memo: None,
            pruned: None,
            dirty_query: true,
            dirty_maint: true,
            path,
        });
        self.mutations += 1;
        id
    }

    /// Removes a path, releasing its candidate references; candidates it
    /// alone exposed are freed from the space (their ids recycle) and can
    /// never be cited by a subsequent plan. Returns the removed path, or
    /// `None` for an unknown/already-removed handle.
    pub fn remove_path(&mut self, id: PathId) -> Option<Path> {
        let i = self.find(id)?;
        let st = self.paths.remove(i);
        self.space.release_path(&st.live_cands);
        self.shards.remove_path();
        self.mutations += 1;
        Some(st.path)
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
            if st.scope.binary_search(&class).is_ok() {
                st.dirty_query = true;
                st.dirty_maint = true;
                st.standalone = None;
                st.sweep_memo = None;
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
            if st.scope.binary_search(&class).is_ok() {
                st.dirty_maint = true;
                st.standalone = None;
                st.sweep_memo = None;
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
        st.dirty_query = true;
        st.standalone = None;
        st.sweep_memo = None;
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
    /// owner), newly admitted ranks are interned in rank order, the shard
    /// index is dirty-marked (its next `components()` call rebuilds from
    /// the live slices), and every cached artifact of the path is
    /// invalidated. An unchanged verdict is a recognized no-op.
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
        let old = std::mem::take(&mut self.paths[i].live_cands);
        self.space.release_path(&old);
        let cands = self
            .space
            .intern_path_admitted(self.schema, &self.paths[i].path, &admitted);
        let live_cands: Vec<CandidateId> = cands.iter().filter_map(|&c| c).collect();
        // The shard index keys components by candidate identity; a moved
        // admission set invalidates it wholesale (dirty-mark — the
        // rebuild happens lazily at the next components() call, against
        // every path's live slice).
        self.shards.remove_path();
        let st = &mut self.paths[i];
        st.cands = cands;
        st.live_cands = live_cands;
        st.dirty_query = true;
        st.dirty_maint = true;
        st.standalone = None;
        st.sweep_memo = None;
        st.pruned = None;
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
        self.find(id).map(|i| &self.paths[i].path)
    }

    /// The epoch-stable physical identity of a live path — equal for any
    /// later re-arrival of the same step sequence.
    pub fn path_signature(&self, id: PathId) -> Option<&PathSignature> {
        self.find(id).map(|i| &self.paths[i].signature)
    }

    /// The shared candidate space (read-only: epoch mutations must go
    /// through the advisor API so invalidation stays sound).
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

    /// The adopted query share of one `(subpath, organization)` cell of a
    /// live path — the exact memo value [`Self::selection_totals`] folds,
    /// read without any recomputation. `None` for an unknown handle or
    /// while the path's shares are stale (pending mutations not yet
    /// repriced). The migration planner captures interim prices through
    /// this so its endpoint costs equal [`Self::price_plan`] bitwise.
    pub(crate) fn query_share(&self, id: PathId, sub: SubpathId, org: Org) -> Option<f64> {
        let st = &self.paths[self.find(id)?];
        if st.dirty_query {
            return None;
        }
        Some(st.query_costs[sub.rank(st.path.len())][org.index()])
    }

    /// The adopted `(maintenance, footprint)` memos of a live candidate,
    /// per organization — `None` unless all three are priced. What
    /// [`Self::what_if`]'s adopted arm reports, without its subscriber
    /// scan; the migration planner captures index prices through this.
    pub(crate) fn adopted_prices(&self, id: CandidateId) -> Option<([f64; 3], [f64; 3])> {
        let mut m = [0.0; 3];
        let mut s = [0.0; 3];
        for org in Org::ALL {
            m[org.index()] = self.space.priced_maintenance(id, org)?;
            s[org.index()] = self.space.priced_size(id, org)?;
        }
        Some((m, s))
    }

    /// A cold copy: a fresh advisor over the same schema, parameters,
    /// statistics, rates, live paths (same order) and executor, with every
    /// cache empty. `rebuild().optimize()` is the from-scratch baseline
    /// that [`Self::reoptimize`] must match — benches time the two against
    /// each other; the property tests pin the cost equality.
    pub fn rebuild(&self) -> WorkloadAdvisor<'a> {
        let mut adv = WorkloadAdvisor::new(self.schema, self.params)
            .with_executor(self.exec.clone())
            .with_mining(self.mining);
        adv.stats.clone_from(&self.stats);
        adv.maint.clone_from(&self.maint);
        for st in &self.paths {
            adv.add_path_dense(st.path.clone(), st.alphas.clone());
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
    ///    maintenance memo turns shared-candidate pricing into hits except
    ///    for invalidated cells.
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

        // Phase 1 — re-price dirty paths: a sequential claim pass hands
        // every unpriced cell to its first dirty owner, the owners price
        // their claims read-only on the executor, and the merge installs
        // each cell once, in path order — same memo contents and pricing
        // counter for any thread count.
        let pricings_before = self.space.maintenance_pricings();
        let dirty: Vec<usize> = (0..self.paths.len())
            .filter(|&i| self.paths[i].dirty_query || self.paths[i].dirty_maint)
            .collect();
        let repriced = dirty.len();
        // The recorded eviction descent was walked over this state's
        // selections and prices: any mutation or re-pricing retires it.
        if mutations > 0 || repriced > 0 {
            self.trail = None;
        }

        // Basis prepass: among the query-dirty paths, find the distinct
        // signatures the per-signature basis cache does not hold yet and
        // price each **once** — instead of rebuilding a full cost model
        // per path. Only signatures shared by ≥ 2 dirty paths are worth a
        // basis (building one costs a full model pass; a lone path prices
        // cheaper from scratch, and does so in the fallback arm of
        // `reprice_compute`). Representatives are the first dirty path of
        // each qualifying signature, in path order, and the merge installs
        // in that same order, so the cache contents are
        // executor-independent.
        let reps: Vec<usize> = {
            let mut members: HashMap<&PathSignature, (usize, usize)> = HashMap::new();
            for &i in &dirty {
                let st = &self.paths[i];
                if st.dirty_query && !self.basis.contains_key(&st.signature) {
                    members.entry(&st.signature).or_insert((i, 0)).1 += 1;
                }
            }
            let mut firsts: Vec<usize> = members
                .into_values()
                .filter(|&(_, count)| count >= 2)
                .map(|(first, _)| first)
                .collect();
            firsts.sort_unstable();
            firsts
        };
        let built: Vec<QueryBasis> = self.exec.par_map(&reps, |_, &i| {
            QueryBasis::build(self.schema, self.params, &self.stats, &self.paths[i])
        });
        for (b, &i) in built.into_iter().zip(&reps) {
            self.basis.insert(self.paths[i].signature.clone(), b);
        }

        // Claim pass, in path order: an unpriced `(candidate, org)` goes to
        // the first dirty path that exposes it — the cells a sequential
        // first-owner walk would price, each exactly once. (A cell's
        // maintenance and footprint are invalidated together and priced
        // together.)
        let mut claimed = vec![[false; 3]; self.space.slot_count()];
        let claims: Vec<Vec<(usize, CandidateId, Org)>> = dirty
            .iter()
            .map(|&i| {
                let mut mine = Vec::new();
                for (r, cand) in self.paths[i].cands.iter().enumerate() {
                    let Some(cand) = *cand else {
                        continue; // mined out: no cells exist for this rank
                    };
                    for org in Org::ALL {
                        let taken = &mut claimed[cand.index()][org.index()];
                        if !*taken
                            && (self.space.priced_maintenance(cand, org).is_none()
                                || self.space.priced_size(cand, org).is_none())
                        {
                            *taken = true;
                            mine.push((r, cand, org));
                        }
                    }
                }
                mine
            })
            .collect();
        let outs: Vec<RepriceOut> = self.exec.par_map(&dirty, |k, &i| {
            let st = &self.paths[i];
            Self::reprice_compute(
                self.schema,
                self.params,
                &self.stats,
                &self.maint,
                self.basis.get(&st.signature),
                st,
                &claims[k],
            )
        });
        for ((out, &i), mine) in outs.into_iter().zip(&dirty).zip(&claims) {
            for (&(_, cand, org), (m, s)) in mine.iter().zip(out.cells) {
                debug_assert!(
                    self.space.priced_maintenance(cand, org).is_none(),
                    "cell ({cand:?}, {org}) priced twice"
                );
                self.space.maintenance_cost(cand, org, || m);
                self.space.size_cost(cand, org, || s);
            }
            let st = &mut self.paths[i];
            if let Some(q) = out.query_costs {
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

        // Dominance pruning: refresh the per-rank prune masks of paths
        // whose prices moved this epoch, or that never had one. Masks read
        // the **installed** maintenance and size prices — exactly the
        // values the best responses and the λ sweeps are priced from — so
        // the strict dominance argument (DESIGN.md §5.15) holds bitwise,
        // at λ = 0 and under every λ-priced sweep.
        for i in 0..self.paths.len() {
            if self.paths[i].pruned.is_none() || dirty.binary_search(&i).is_ok() {
                let mask = {
                    let st = &self.paths[i];
                    let mut maint = Vec::with_capacity(st.cands.len());
                    let mut sizes = Vec::with_capacity(st.cands.len());
                    for &cand in &st.cands {
                        // A mined-out rank prices at ∞ in both planes:
                        // it can neither be struck nor serve as a
                        // dominator or replacement (singleton ranks —
                        // the replacement pool — are always admitted).
                        let (mut m, mut s) = ([f64::INFINITY; 3], [f64::INFINITY; 3]);
                        if let Some(cand) = cand {
                            for org in Org::ALL {
                                m[org.index()] = self
                                    .space
                                    .priced_maintenance(cand, org)
                                    .expect("maintenance priced during reprice");
                                s[org.index()] = self
                                    .space
                                    .priced_size(cand, org)
                                    .expect("size priced during reprice");
                            }
                        }
                        maint.push(m);
                        sizes.push(s);
                    }
                    let mut mask = prune_dominated(&st.query_costs, &maint, &sizes, st.path.len());
                    // Mined-out ranks are absent, not pruned: zero
                    // their bits so the pruning telemetry counts only
                    // real strikes.
                    for (m, c) in mask.iter_mut().zip(&st.cands) {
                        if c.is_none() {
                            *m = 0;
                        }
                    }
                    mask
                };
                self.paths[i].pruned = Some(mask);
            }
        }
        let candidates_pruned: u64 = self
            .paths
            .iter()
            .map(|st| {
                st.pruned
                    .as_deref()
                    .map_or(0, |m| m.iter().map(|b| u64::from(b.count_ones())).sum())
            })
            .sum();

        // Phase 2 — standalone optima (maintenance unshared). Per-path
        // independent DPs over the now-frozen memo: embarrassingly
        // parallel, results written back in path order.
        let mut dp_runs = 0u64;
        let stale: Vec<usize> = (0..self.paths.len())
            .filter(|&i| self.paths[i].standalone.is_none())
            .collect();
        dp_runs += stale.len() as u64;
        let results = self.exec.par_map(&stale, |_, &i| {
            let st = &self.paths[i];
            Self::best_response(st, &self.space, None, st.pruned.as_deref())
        });
        for (result, &i) in results.into_iter().zip(&stale) {
            self.paths[i].standalone = Some(result);
        }
        let independent_cost: f64 = self
            .paths
            .iter()
            .map(|st| st.standalone.as_ref().expect("phase 2 filled it").1)
            .sum();

        let comps = self.components();
        let components = comps.len();
        let largest_component = comps.iter().map(Vec::len).max().unwrap_or(0);

        // Phase 3 — coordinate descent from the standalone seed, per
        // component (DESIGN.md §5.15): components share no candidate, so
        // the descent decomposes exactly. A singleton's context is
        // permanently all-zero — its standalone seed *is* the fixed point —
        // so only multi-path components run.
        let mut selections: Vec<Selection> = self
            .paths
            .iter()
            .map(|st| st.standalone.as_ref().expect("phase 2 filled it").0.clone())
            .collect();
        let outs = self.descend_components(&comps, 0.0, &selections, |i| {
            self.paths[i].sweep_memo.clone()
        });
        let speculation_skips = (components - outs.len()) as u64;
        // An all-singleton (or empty) workload converges in one no-change
        // round.
        let mut sweeps = 1;
        let mut dp_memo_hits = 0u64;
        for (comp, out) in outs {
            for ((&i, sel), memo) in comp.iter().zip(out.sels).zip(out.memos) {
                selections[i] = sel;
                self.paths[i].sweep_memo = memo;
            }
            sweeps = sweeps.max(out.sweeps);
            dp_runs += out.dp_runs;
            dp_memo_hits += out.dp_memo_hits;
        }
        let mut plan = self.assemble_plan(&selections, independent_cost);
        debug_assert!(
            plan.total_cost <= independent_cost + 1e-6 * independent_cost.abs().max(1.0),
            "sharing can only reduce the objective: {} vs {independent_cost}",
            plan.total_cost
        );
        plan.epoch_pricings = epoch_pricings;
        plan.sweeps = sweeps;
        plan.mutations = mutations;
        plan.repriced_paths = repriced;
        plan.dp_runs = dp_runs;
        plan.dp_memo_hits = dp_memo_hits;
        plan.components = components;
        plan.largest_component = largest_component;
        plan.candidates_pruned = candidates_pruned;
        plan.speculation_skips = speculation_skips;
        plan.candidates_mined_out = self
            .paths
            .iter()
            .map(|st| st.cands.iter().filter(|c| c.is_none()).count() as u64)
            .sum();
        // Cells the admission policy deleted from this epoch's re-pricing:
        // 3 organizations per mined-out rank, over the dirty paths the
        // phase actually visited (clean paths priced nothing either way).
        plan.cells_skipped = dirty
            .iter()
            .map(|&i| 3 * self.paths[i].cands.iter().filter(|c| c.is_none()).count() as u64)
            .sum();
        plan
    }

    /// The candidate-sharing components of the live paths (indices into
    /// the path list, grouped in first-member order).
    fn components(&mut self) -> Vec<Vec<usize>> {
        let live: Vec<(u32, &[CandidateId])> = self
            .paths
            .iter()
            .map(|st| (st.id.0, st.live_cands.as_slice()))
            .collect();
        self.shards.components(&live)
    }

    /// Descends every multi-path component of `comps` under `cost +
    /// λ·size` pricing, from the per-path `selections`; `memo_of(i)` is
    /// path `i`'s last best response at this λ. Components fan out over
    /// the executor weighted by member count; each job comes back with its
    /// members, in component order, for the caller to install.
    fn descend_components<'c>(
        &self,
        comps: &'c [Vec<usize>],
        lambda: f64,
        selections: &[Selection],
        memo_of: impl Fn(usize) -> SweepMemo + Sync,
    ) -> Vec<(&'c [usize], CompOut)> {
        let jobs: Vec<&'c [usize]> = comps
            .iter()
            .filter(|c| c.len() > 1)
            .map(Vec::as_slice)
            .collect();
        let (paths, space) = (&self.paths, &self.space);
        let outs = self.exec.par_map_chunked(
            &jobs,
            |comp| comp.len(),
            |_, comp| {
                let seeds = comp.iter().map(|&i| selections[i].clone()).collect();
                let memos = comp.iter().map(|&i| memo_of(i)).collect();
                Self::descend_component(paths, space, comp, lambda, seeds, memos)
            },
        );
        jobs.into_iter().zip(outs).collect()
    }

    /// One candidate-disjoint component's coordinate descent under `cost +
    /// λ·size` pricing — the engine's only descent loop: λ = 0 is the
    /// unconstrained selection (`m + 0.0·s` is bit-identical to `m`), λ > 0
    /// a budgeted sweep. Self-contained: members share no candidate with
    /// any other path, so a local ownership map over the members alone is
    /// the **exact** sharing context, for every λ. Sequential Gauss–Seidel
    /// in ascending member order; a member whose context matches its memo
    /// is a hit, not a matrix build and a DP. Read-only against the
    /// advisor (runs on pool workers); selections, memo updates and work
    /// counters are buffered in the output and installed by the caller in
    /// component order.
    fn descend_component(
        paths: &[PathState],
        space: &CandidateSpace,
        comp: &[usize],
        lambda: f64,
        mut sels: Vec<Selection>,
        mut memos: Vec<SweepMemo>,
    ) -> CompOut {
        let mut owned: HashMap<(CandidateId, Org), usize> = HashMap::new();
        for (k, &i) in comp.iter().enumerate() {
            let st = &paths[i];
            for &(sub, org) in &sels[k] {
                *owned.entry((st.cand(sub), org)).or_default() += 1;
            }
        }
        let mut sweeps = 0;
        let mut dp_runs = 0u64;
        let mut dp_memo_hits = 0u64;
        for _ in 0..MAX_SWEEPS {
            sweeps += 1;
            let mut changed = false;
            for (k, &i) in comp.iter().enumerate() {
                let st = &paths[i];
                for &(sub, org) in sels[k].iter() {
                    let key = (st.cand(sub), org);
                    let count = owned.get_mut(&key).expect("selection was registered");
                    *count -= 1;
                    if *count == 0 {
                        owned.remove(&key);
                    }
                }
                let context = Self::context_key(st, &owned);
                let pairs = match &memos[k] {
                    Some((key, pairs)) if *key == context => {
                        dp_memo_hits += 1;
                        pairs.clone()
                    }
                    _ => {
                        dp_runs += 1;
                        let pairs = Self::matrix_selection(&Self::priced_matrix(
                            st,
                            space,
                            Some(&context),
                            lambda,
                            st.pruned.as_deref(),
                        ));
                        memos[k] = Some((context, pairs.clone()));
                        pairs
                    }
                };
                changed |= pairs != sels[k];
                for &(sub, org) in &pairs {
                    *owned.entry((st.cand(sub), org)).or_default() += 1;
                }
                sels[k] = pairs;
            }
            if !changed {
                break;
            }
        }
        CompOut {
            sels,
            memos,
            sweeps,
            dp_runs,
            dp_memo_hits,
        }
    }

    /// Assembles a [`WorkloadPlan`] from per-path selections: query shares
    /// per path, each distinct physical index's maintenance **and
    /// footprint** exactly once. Epoch telemetry fields are zeroed; the
    /// caller fills them. Used by [`Self::reoptimize`] and by the budgeted
    /// selection, whose constrained selections price identically.
    fn assemble_plan(&self, selections: &[Selection], independent_cost: f64) -> WorkloadPlan {
        let mut owners: HashMap<(CandidateId, Org), Vec<usize>> = HashMap::new();
        let mut paths_out = Vec::with_capacity(self.paths.len());
        for (i, (st, sel)) in self.paths.iter().zip(selections).enumerate() {
            let n = st.path.len();
            let mut query_cost = 0.0;
            let mut pairs = Vec::with_capacity(sel.len());
            for &(sub, org) in sel {
                query_cost += st.query_costs[sub.rank(n)][org.index()];
                owners.entry((st.cand(sub), org)).or_default().push(i);
                pairs.push((sub, Choice::Index(org)));
            }
            paths_out.push(PathOutcome {
                id: st.id,
                path: st.path.clone(),
                selection: IndexConfiguration::new(pairs, n)
                    .expect("DP selections concatenate to the full path"),
                query_cost,
                standalone_cost: st.standalone.as_ref().expect("phase 2 filled it").1,
            });
        }
        let priced = |cand, org| {
            self.space
                .priced_maintenance(cand, org)
                .expect("selected pairs were priced in phase 1")
        };
        let sized = |cand, org| {
            self.space
                .priced_size(cand, org)
                .expect("selected pairs were sized in phase 1")
        };
        let mut shared: Vec<SharedIndexOutcome> = owners
            .iter()
            .filter(|(_, own)| own.len() >= 2)
            .map(|(&(cand, org), own)| {
                let maintenance = priced(cand, org);
                SharedIndexOutcome {
                    candidate: cand,
                    org,
                    owners: own.clone(),
                    maintenance,
                    saving: maintenance * (own.len() - 1) as f64,
                }
            })
            .collect();
        // Candidate ids depend on interning history (recycled slots), so a
        // warm advisor and its cold rebuild may disagree on them; order and
        // sum by history-independent keys to keep plans comparable.
        shared.sort_by(|a, b| {
            (&a.owners, a.org).cmp(&(&b.owners, b.org)).then_with(|| {
                self.space
                    .steps(a.candidate)
                    .cmp(self.space.steps(b.candidate))
            })
        });
        let mut maint_prices: Vec<f64> = owners.keys().map(|&(c, o)| priced(c, o)).collect();
        maint_prices.sort_by(f64::total_cmp);
        let maintenance_total: f64 = maint_prices.iter().sum();
        let mut size_prices: Vec<f64> = owners.keys().map(|&(c, o)| sized(c, o)).collect();
        size_prices.sort_by(f64::total_cmp);
        let size_pages: f64 = size_prices.iter().sum();
        let total_cost = paths_out.iter().map(|p| p.query_cost).sum::<f64>() + maintenance_total;
        WorkloadPlan {
            paths: paths_out,
            shared,
            independent_cost,
            total_cost,
            size_pages,
            physical_indexes: owners.len(),
            candidates: self.space.len(),
            maintenance_pricings: self.space.maintenance_pricings(),
            epoch_pricings: 0,
            sweeps: 0,
            epoch: self.epoch,
            mutations: 0,
            repriced_paths: 0,
            dp_runs: 0,
            dp_memo_hits: 0,
            components: 0,
            largest_component: 0,
            candidates_pruned: 0,
            speculation_skips: 0,
            candidates_mined_out: 0,
            cells_skipped: 0,
            lambda_pruned: 0,
        }
    }

    /// The read-only half of re-pricing one dirty path: recompute stale
    /// query shares and price the cells the claim pass assigned to it
    /// (`claims`: rank, candidate, organization). Runs on pool workers; the
    /// caller installs the buffers in path order.
    ///
    /// Stale query shares replay from the path's per-signature
    /// [`QueryBasis`] when the prepass cached one — bitwise the
    /// from-scratch values — and price from scratch otherwise (a signature
    /// with fewer than two dirty members). The cost model is built only
    /// for that fallback or for a claimed cell.
    fn reprice_compute(
        schema: &Schema,
        params: CostParams,
        stats: &[ClassStats],
        maint: &[(f64, f64)],
        basis: Option<&QueryBasis>,
        st: &PathState,
        claims: &[(usize, CandidateId, Org)],
    ) -> RepriceOut {
        let n = st.path.len();
        let mut query_costs = match basis {
            Some(basis) if st.dirty_query => Some(basis.eval(&st.alphas, n, &st.cands)),
            _ => None,
        };
        let from_scratch = st.dirty_query && query_costs.is_none();
        let mut cells = Vec::with_capacity(claims.len());
        if from_scratch || !claims.is_empty() {
            let chars = PathCharacteristics::build(schema, &st.path, |c| stats[c.index()]);
            let model = CostModel::new(schema, &st.path, &chars, params);
            if from_scratch {
                let alphas = &st.alphas;
                let qld = LoadDistribution::build(schema, &st.path, |c| {
                    Triplet::new(alphas[c.index()], 0.0, 0.0)
                });
                let shares = (0..SubpathId::count(n)).map(|r| {
                    // Mined out: no cell to price.
                    if st.cands[r].is_none() {
                        return [0.0; 3];
                    }
                    let sub = SubpathId::from_rank(n, r);
                    Org::ALL.map(|org| pc::processing_cost(&model, &qld, sub, Choice::Index(org)))
                });
                query_costs = Some(shares.collect());
            }
            if !claims.is_empty() {
                let mld = LoadDistribution::build(schema, &st.path, |c| {
                    let (beta, gamma) = maint[c.index()];
                    Triplet::new(0.0, beta, gamma)
                });
                for &(r, _, org) in claims {
                    let sub = SubpathId::from_rank(n, r);
                    cells.push((
                        pc::processing_cost(&model, &mld, sub, Choice::Index(org)),
                        model.size_pages(org, sub),
                    ));
                }
            }
        }
        RepriceOut { query_costs, cells }
    }

    /// The 3-bit-per-rank mask of this path's `(candidate, org)` cells that
    /// some *other* path currently covers — the sharing context a best
    /// response depends on.
    fn context_key(st: &PathState, owned: &HashMap<(CandidateId, Org), usize>) -> Vec<u8> {
        Self::context_key_by(st, |pair| owned.get(&pair).is_some_and(|&c| c > 0))
    }

    /// [`Self::context_key`] over any ownership view: `covered(pair)` says
    /// whether some other path currently owns `pair`.
    fn context_key_by(st: &PathState, covered: impl Fn(Pair) -> bool) -> Vec<u8> {
        st.cands
            .iter()
            .map(|&cand| {
                // A mined-out rank has no candidate anyone could cover.
                let Some(cand) = cand else { return 0 };
                let mut mask = 0u8;
                for org in Org::ALL {
                    if covered((cand, org)) {
                        mask |= 1 << org.index();
                    }
                }
                mask
            })
            .collect()
    }

    /// One path's optimal configuration under a sharing context: a covered
    /// candidate contributes its query share only (`None` = standalone, no
    /// sharing). All maintenance cells must already be priced. This is the
    /// λ = 0 case of the priced sweep — one implementation of the coverage
    /// rule serves the unconstrained and the budgeted machinery (`m +
    /// 0.0·s` is bit-identical to `m`, and the scalar DP never reads the
    /// size plane).
    ///
    /// `pruned` is the path's dominance mask
    /// ([`crate::select::prune_dominated`]): pruned cells become
    /// unselectable. The mask is **λ-uniform** — a struck cell is beaten
    /// in both cost and size, so it is absent from the optimum of `cost +
    /// λ·size` for every λ ≥ 0 — which lets the λ-priced sweeps, the
    /// eviction descent and the frontier machinery price under it too;
    /// the eviction path additionally re-validates the mask against its
    /// bans per rank (see `priced_matrix_inner`).
    fn best_response(
        st: &PathState,
        space: &CandidateSpace,
        context: Option<&[u8]>,
        pruned: Option<&[u8]>,
    ) -> (Vec<(SubpathId, Org)>, f64) {
        let matrix = Self::priced_matrix_inner(st, space, context, 0.0, None, pruned);
        let result = opt_ind_con_dp(&matrix);
        (Self::to_selection(&result.best), result.cost)
    }

    // ---- budgeted selection ----------------------------------------------

    /// One path's λ-priced cost matrix under a sharing context, with its
    /// size plane: an uncovered cell pays `query + maintenance + λ·size`, a
    /// covered cell pays its query share only — another path already
    /// maintains *and stores* that physical index, so both its maintenance
    /// and its footprint are counted once, by the first owner.
    fn priced_matrix(
        st: &PathState,
        space: &CandidateSpace,
        context: Option<&[u8]>,
        lambda: f64,
        pruned: Option<&[u8]>,
    ) -> CostMatrix {
        Self::priced_matrix_inner(st, space, context, lambda, None, pruned)
    }

    /// [`Self::priced_matrix`] with a set of banned physical indexes whose
    /// cells become unselectable (`INFINITY` cost) — the eviction descent's
    /// instrument.
    fn priced_matrix_banned(
        st: &PathState,
        space: &CandidateSpace,
        context: Option<&[u8]>,
        banned: &Bans<'_>,
        pruned: Option<&[u8]>,
    ) -> CostMatrix {
        Self::priced_matrix_inner(st, space, context, 0.0, Some(banned), pruned)
    }

    fn priced_matrix_inner(
        st: &PathState,
        space: &CandidateSpace,
        context: Option<&[u8]>,
        lambda: f64,
        banned: Option<&Bans<'_>>,
        pruned: Option<&[u8]>,
    ) -> CostMatrix {
        let n = st.path.len();
        // The dominance mask is λ-uniform — a struck cell is beaten in
        // both cost and size, so `cost + λ·size` loses for every λ ≥ 0
        // (DESIGN.md §5.15/§5.17) — but it is *not* ban-aware: a bound
        // whose dominating cells are banned proves nothing. Org-dominance
        // bits lean on cells of their own rank, so they apply only when
        // the rank is ban-free; the whole-rank (0b111) bound leans on
        // singleton replacements anywhere in the span, so it applies only
        // when the entire path is.
        let ban_in_rank = |r: usize| {
            banned.is_some_and(|b| {
                st.cands[r].is_some_and(|cand| Org::ALL.iter().any(|&o| b.contains((cand, o))))
            })
        };
        let ban_in_path = banned.is_some() && (0..SubpathId::count(n)).any(ban_in_rank);
        let values: Vec<(SubpathId, [f64; 3], [f64; 3])> = (0..SubpathId::count(n))
            .map(|r| {
                let sub = SubpathId::from_rank(n, r);
                // A mined-out rank is absent from the candidate space:
                // never priced, never selectable, no pages.
                let Some(cand) = st.cands[r] else {
                    return (sub, [f64::INFINITY; 3], [0.0; 3]);
                };
                let covered = context.map_or(0, |ctx| ctx[r]);
                let cut = match pruned.map_or(0, |p| p[r]) {
                    0b111 if ban_in_path => 0,
                    cut if cut != 0b111 && ban_in_rank(r) => 0,
                    cut => cut,
                };
                let mut cell = [0.0; 3];
                let mut sizes = [0.0; 3];
                for org in Org::ALL {
                    if banned.is_some_and(|b| b.contains((cand, org))) {
                        cell[org.index()] = f64::INFINITY;
                        sizes[org.index()] = 0.0;
                        continue;
                    }
                    // Coverage outranks the prune mask: a covered cell
                    // costs its query share only — which can beat the
                    // mask's uncovered-price dominance argument — so it
                    // stays selectable.
                    let (m, s) = if covered & (1 << org.index()) != 0 {
                        (0.0, 0.0)
                    } else if cut & (1 << org.index()) != 0 {
                        (f64::INFINITY, 0.0)
                    } else {
                        (
                            space
                                .priced_maintenance(cand, org)
                                .expect("maintenance priced during reprice"),
                            space
                                .priced_size(cand, org)
                                .expect("size priced during reprice"),
                        )
                    };
                    cell[org.index()] = st.query_costs[r][org.index()] + m + lambda * s;
                    sizes[org.index()] = s;
                }
                (sub, cell, sizes)
            })
            .collect();
        CostMatrix::from_values_with_sizes(n, &values)
    }

    /// One full coordinate-descent pass pricing `cost + λ·size` — the
    /// unconstrained sweep in a Lagrangian-relaxed objective, over the
    /// same component kernel. Read-only: neither the sweep memos nor the
    /// standalone caches are touched (they hold λ = 0 artifacts); each
    /// path's starting memo is its context-free response instead (no
    /// context prices like the all-zero one), so a path whose sharing
    /// context did not move — every path, in the confirming no-change
    /// round — is a memo hit. `comps` are the advisor's current
    /// [`Self::components`]; singletons keep their context-free response,
    /// which no other path can ever perturb.
    fn lambda_sweep(&self, lambda: f64, comps: &[Vec<usize>]) -> Vec<Selection> {
        let seed = |_: usize, st: &PathState| {
            let m = Self::priced_matrix(st, &self.space, None, lambda, st.pruned.as_deref());
            Self::matrix_selection(&m)
        };
        let mut selections: Vec<Selection> = self.exec.par_map(&self.paths, seed);
        let outs = self.descend_components(comps, lambda, &selections, |i| {
            Some((vec![0; self.paths[i].cands.len()], selections[i].clone()))
        });
        for (comp, out) in outs {
            for (&i, sel) in comp.iter().zip(out.sels) {
                selections[i] = sel;
            }
        }
        selections
    }

    /// The scalar optimum of a priced matrix as a `(subpath, org)` list.
    fn matrix_selection(matrix: &CostMatrix) -> Selection {
        Self::to_selection(&opt_ind_con_dp(matrix).best)
    }

    /// Converts a configuration into a workload [`Selection`] (workload
    /// matrices never build the no-index column).
    fn to_selection(config: &IndexConfiguration) -> Selection {
        config
            .pairs()
            .iter()
            .map(|&(sub, choice)| match choice {
                Choice::Index(org) => (sub, org),
                Choice::NoIndex => unreachable!("no no-index column at workload scale"),
            })
            .collect()
    }

    /// The true `(cost, size)` of per-path selections: query shares plus
    /// each distinct physical `(candidate, org)`'s maintenance and
    /// footprint once. Sums run over value-sorted vectors so the totals are
    /// independent of hash-map iteration order.
    fn selection_totals(&self, selections: &[Selection]) -> (f64, f64) {
        let mut distinct: HashSet<Pair> = HashSet::new();
        let mut query = 0.0;
        for (st, sel) in self.paths.iter().zip(selections) {
            let n = st.path.len();
            for &(sub, org) in sel {
                query += st.query_costs[sub.rank(n)][org.index()];
                distinct.insert((st.cand(sub), org));
            }
        }
        let mut maint: Vec<f64> = distinct.iter().map(|&p| self.maintenance_of(p)).collect();
        maint.sort_by(f64::total_cmp);
        let mut sizes: Vec<f64> = distinct.iter().map(|&p| self.size_of(p)).collect();
        sizes.sort_by(f64::total_cmp);
        (query + maint.iter().sum::<f64>(), sizes.iter().sum::<f64>())
    }

    /// The marginal `(cost, size)` of one path's *existing* selection
    /// under a sharing context, read from the installed prices and never
    /// through the dominance mask — bit-identical to summing the matching
    /// unmasked matrix cells (the arithmetic mirrors
    /// [`Self::priced_matrix_inner`] at λ = 0, in selection order).
    fn true_marginal(
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
                (
                    space
                        .priced_maintenance(st.cand(sub), org)
                        .expect("maintenance priced during reprice"),
                    space
                        .priced_size(st.cand(sub), org)
                        .expect("size priced during reprice"),
                )
            };
            cost += st.query_costs[r][org.index()] + m + 0.0 * s;
            size += s;
        }
        (cost, size)
    }

    /// Frontier-based greedy repair: round-robin over the paths, replacing
    /// each path's selection by the cheapest point of its *marginal*
    /// `(cost, size)` frontier that fits the budget slack the other paths
    /// leave. Marginal means count-once-aware: cells other paths cover cost
    /// no maintenance and no pages. Each adoption strictly lowers the total
    /// cost while preserving feasibility, so the pass closes (part of) the
    /// duality gap the λ discretization leaves open. Returns the number of
    /// adoptions.
    fn repair(&self, selections: &mut [Selection], budget_pages: f64) -> usize {
        let mut owned: HashMap<(CandidateId, Org), usize> = HashMap::new();
        for (st, sel) in self.paths.iter().zip(selections.iter()) {
            for &(sub, org) in sel {
                *owned.entry((st.cand(sub), org)).or_default() += 1;
            }
        }
        let mut repairs = 0;
        for _ in 0..MAX_SWEEPS {
            let mut changed = false;
            for (st, sel) in self.paths.iter().zip(selections.iter_mut()) {
                for &(sub, org) in sel.iter() {
                    let key = (st.cand(sub), org);
                    let count = owned.get_mut(&key).expect("selection was registered");
                    *count -= 1;
                    if *count == 0 {
                        owned.remove(&key);
                    }
                }
                let mut other_sizes: Vec<f64> = owned
                    .keys()
                    .map(|&(c, o)| self.space.priced_size(c, o).expect("sized"))
                    .collect();
                other_sizes.sort_by(f64::total_cmp);
                let slack = budget_pages - other_sizes.iter().sum::<f64>();
                let context = Self::context_key(st, &owned);
                let matrix =
                    Self::priced_matrix(st, &self.space, Some(&context), 0.0, st.pruned.as_deref());
                // Marginal (cost, size) of the current selection, for the
                // strict-improvement guard — priced mask-blind: the mask
                // certifies a struck cell belongs to no *optimum*, not
                // that the current selection avoids one (a cell adopted
                // while covered can be struck once its sharer moved away),
                // and an ∞ old price would turn the guard into an
                // unconditional adoption.
                let (old_cost, old_size) = Self::true_marginal(st, &self.space, &context, sel);
                let frontier = crate::select::frontier_dp(&matrix);
                if let Some(point) = frontier.within_budget(slack) {
                    let tol = 1e-9 * old_cost.abs().max(1.0);
                    let stol = 1e-9 * old_size.abs().max(1.0);
                    // Lexicographic improvement: strictly cheaper, or
                    // equally cheap and strictly leaner (frees slack for
                    // later paths without giving anything up). Strictness
                    // guarantees termination.
                    if point.cost < old_cost - tol
                        || (point.cost <= old_cost + tol && point.size < old_size - stol)
                    {
                        *sel = Self::to_selection(&point.config);
                        repairs += 1;
                        changed = true;
                    }
                }
                for &(sub, org) in sel.iter() {
                    *owned.entry((st.cand(sub), org)).or_default() += 1;
                }
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
    /// §5.12): a round rebuilds the shared [`RoundBase`] once, runs trials
    /// only for the component the previous eviction touched, and
    /// re-derives every other trial's totals from its kept re-selection.
    fn evict_to_budget(
        &self,
        trail: &mut EvictionTrail,
        base: &[Selection],
        budget_pages: f64,
    ) -> (usize, u64) {
        if let Some(k) = trail.steps.iter().position(|s| s.size <= budget_pages) {
            return (k + 1, 0);
        }
        let mut selections = trail.selections_at(base, trail.steps.len());
        let mut trials_run = 0u64;
        while !trail.dead_end {
            let round = self.round_base(&selections);
            let (cost0, size0) = round.totals();
            debug_assert!(size0 > budget_pages, "the walk stops at the first fit");
            // Deterministic candidate order (hash maps iterate randomly).
            let mut pairs: Vec<Pair> = round.owners.keys().copied().collect();
            pairs.sort_unstable();
            // Each trial is read-only given the round's selections, so the
            // fan-out is free of coordination; the fold below walks the
            // sorted pair order, which keeps the chosen eviction — and the
            // whole descent — bit-identical to the sequential engine.
            let comp = |pair: &Pair| trail.comp_of[round.owners[pair][0]];
            let fresh: Vec<Pair> = pairs
                .iter()
                .copied()
                .filter(|pair| !trail.trials[comp(pair)].contains_key(pair))
                .collect();
            trials_run += fresh.len() as u64;
            let trial_of = |_: usize, pair: &Pair| {
                self.eviction_trial(&round, &selections, &trail.banned, *pair)
            };
            let outcomes: Vec<Reselection> = if self.exec.is_parallel() && fresh.len() > 1 {
                self.exec.par_map(&fresh, trial_of)
            } else {
                fresh
                    .iter()
                    .enumerate()
                    .map(|(k, pair)| trial_of(k, pair))
                    .collect()
            };
            for (pair, outcome) in fresh.iter().zip(outcomes) {
                let c = comp(pair);
                trail.trials[c].insert(*pair, outcome);
            }
            let stol = 1e-9 * size0.abs().max(1.0);
            // (regret per page, evicted index, cost, size)
            let mut best: Option<(f64, Pair, f64, f64)> = None;
            for &pair in &pairs {
                let Some(changed) = &trail.trials[comp(&pair)][&pair] else {
                    continue; // the ban left some owner uncoverable
                };
                let (cost, size) = self.trial_totals(&round, &selections, changed);
                // The incremental totals ARE selection_totals of the
                // applied trial, bit for bit: debug builds re-derive every
                // trial of every round the slow way.
                debug_assert_eq!(
                    (cost.to_bits(), size.to_bits()),
                    {
                        let mut applied = selections.clone();
                        for (i, sel) in changed {
                            applied[*i].clone_from(sel);
                        }
                        let (c, s) = self.selection_totals(&applied);
                        (c.to_bits(), s.to_bits())
                    },
                    "incremental trial totals diverged from selection_totals"
                );
                if size >= size0 - stol {
                    continue; // evicting this index frees nothing
                }
                let regret = (cost - cost0) / (size0 - size);
                let better = best
                    .as_ref()
                    .map_or(true, |b| regret < b.0 || (regret == b.0 && size < b.3));
                if better {
                    best = Some((regret, pair, cost, size));
                }
            }
            let Some((_, pair, cost, size)) = best else {
                trail.dead_end = true; // nothing left to evict
                break;
            };
            // The eviction re-selects and bans inside one component only:
            // that component's trials are stale, all others carry over.
            let c = comp(&pair);
            let changed = trail.trials[c]
                .remove(&pair)
                .flatten()
                .expect("the adopted trial re-selected its owners");
            trail.trials[c].clear();
            for (i, sel) in &changed {
                selections[*i].clone_from(sel);
            }
            trail.banned.insert(pair);
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

    /// The [`RoundBase`] of one descent round: ownership and the operand
    /// sequences of [`Self::selection_totals`] for `selections`.
    fn round_base(&self, selections: &[Selection]) -> RoundBase {
        let mut owners: HashMap<Pair, Vec<usize>> = HashMap::new();
        let mut terms = Vec::new();
        let mut starts = Vec::with_capacity(selections.len() + 1);
        let mut prefix = Vec::with_capacity(selections.len() + 1);
        let mut query = 0.0;
        for (i, (st, sel)) in self.paths.iter().zip(selections).enumerate() {
            starts.push(terms.len());
            prefix.push(query);
            let n = st.path.len();
            for &(sub, org) in sel {
                let q = st.query_costs[sub.rank(n)][org.index()];
                query += q;
                terms.push(q);
                owners.entry((st.cand(sub), org)).or_default().push(i);
            }
        }
        starts.push(terms.len());
        prefix.push(query);
        let mut maint: Vec<f64> = owners.keys().map(|&p| self.maintenance_of(p)).collect();
        maint.sort_by(f64::total_cmp);
        let mut sizes: Vec<f64> = owners.keys().map(|&p| self.size_of(p)).collect();
        sizes.sort_by(f64::total_cmp);
        RoundBase {
            owners,
            maint,
            sizes,
            terms,
            starts,
            prefix,
        }
    }

    /// The installed maintenance price of a selected physical index.
    fn maintenance_of(&self, (cand, org): Pair) -> f64 {
        self.space.priced_maintenance(cand, org).expect("priced")
    }

    /// The installed footprint of a selected physical index.
    fn size_of(&self, (cand, org): Pair) -> f64 {
        self.space.priced_size(cand, org).expect("sized")
    }

    /// One eviction trial: ban `pair` on top of `banned` and let all of
    /// its owner paths re-select without it, one after the other, each
    /// under the sharing context the earlier ones left. Returns the
    /// re-selected owners, or `None` when the ban leaves some owner
    /// uncoverable. Read-only (runs on pool workers during the parallel
    /// descent), and it touches nothing but the owners: ownership is the
    /// round's counts plus a delta over the few pairs the owners drop and
    /// pick up.
    fn eviction_trial(
        &self,
        round: &RoundBase,
        selections: &[Selection],
        banned: &HashSet<Pair>,
        pair: Pair,
    ) -> Reselection {
        let bans = Bans {
            evicted: banned,
            trial: pair,
        };
        let mut delta: Vec<(Pair, isize)> = Vec::new();
        let mut changed: Vec<(usize, Selection)> = Vec::new();
        for &i in &round.owners[&pair] {
            let st = &self.paths[i];
            for &(sub, org) in &selections[i] {
                bump(&mut delta, (st.cand(sub), org), -1);
            }
            let context = Self::context_key_by(st, |p| round.count(p, &delta) > 0);
            let matrix = Self::priced_matrix_banned(
                st,
                &self.space,
                Some(&context),
                &bans,
                st.pruned.as_deref(),
            );
            // frontier_dp rather than the scalar DP, deliberately:
            // its empty point set detects a ban that left the path
            // uncoverable (the scalar DP panics there), and its
            // first point breaks exact cost ties toward the leaner
            // configuration — the right bias while evicting pages.
            let frontier = crate::select::frontier_dp(&matrix);
            let sel = Self::to_selection(&frontier.points.first()?.config);
            for &(sub, org) in &sel {
                bump(&mut delta, (st.cand(sub), org), 1);
            }
            changed.push((i, sel));
        }
        Some(changed)
    }

    /// The true `(cost, size)` of the round's selections with `changed`
    /// substituted — bit-identical to [`Self::selection_totals`] of the
    /// applied trial, because it feeds the same operands to the same
    /// additions in the same order: the query accumulator resumes from the
    /// round's running sum at the first changed path and adds the later
    /// terms one by one with the changed rows swapped in; the maintenance
    /// and size sums run over the round's sorted vectors minus the pairs
    /// whose last owner left plus the newly owned ones, re-inserted in
    /// `total_cmp` order (the sorted sequence of a multiset of floats is
    /// unique, bit patterns included).
    fn trial_totals(
        &self,
        round: &RoundBase,
        selections: &[Selection],
        changed: &[(usize, Selection)],
    ) -> (f64, f64) {
        let mut delta: Vec<(Pair, isize)> = Vec::new();
        for (i, sel) in changed {
            let st = &self.paths[*i];
            for &(sub, org) in &selections[*i] {
                bump(&mut delta, (st.cand(sub), org), -1);
            }
            for &(sub, org) in sel {
                bump(&mut delta, (st.cand(sub), org), 1);
            }
        }
        let (mut maint, mut sizes) = (round.maint.clone(), round.sizes.clone());
        for &(pair, d) in &delta {
            let before = round.count(pair, &[]);
            let after = before + d;
            if before > 0 && after == 0 {
                remove_sorted(&mut maint, self.maintenance_of(pair));
                remove_sorted(&mut sizes, self.size_of(pair));
            } else if before == 0 && after > 0 {
                insert_sorted(&mut maint, self.maintenance_of(pair));
                insert_sorted(&mut sizes, self.size_of(pair));
            }
        }
        let first = changed[0].0;
        let mut query = round.prefix[first];
        let mut swapped = changed.iter().peekable();
        for i in first..selections.len() {
            match swapped.next_if(|(j, _)| *j == i) {
                Some((_, sel)) => {
                    let st = &self.paths[i];
                    let n = st.path.len();
                    for &(sub, org) in sel {
                        query += st.query_costs[sub.rank(n)][org.index()];
                    }
                }
                None => {
                    for &q in &round.terms[round.starts[i]..round.starts[i + 1]] {
                        query += q;
                    }
                }
            }
        }
        (query + maint.iter().sum::<f64>(), sizes.iter().sum::<f64>())
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
    ///    bit, as a cold call.
    /// 3. Close the duality gap with a frontier-based greedy
    ///    *repair* pass from the cheapest feasible plan
    ///    found.
    ///
    /// When even the most size-averse sweep cannot fit (a budget below the
    /// workload's minimum footprint), the returned plan is that leanest
    /// plan and `feasible` is `false`.
    ///
    /// The unconstrained `optimize()` is itself a coordinate-descent
    /// heuristic, and the budget search explores strictly harder
    /// (candidate-level evictions plus per-path frontier repairs), so a
    /// *nearly*-slack budget can occasionally return a plan slightly
    /// **cheaper** than the unconstrained one — a bonus, reported as a
    /// [`BudgetedWorkloadPlan::cost_ratio`] just under 1.
    pub fn optimize_with_budget(&mut self, budget_pages: f64) -> BudgetedWorkloadPlan {
        assert!(!budget_pages.is_nan(), "budget must be a page count or ∞");
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

        // Both search directions work per candidate-sharing component.
        let comps = self.components();
        // Bracket λ: grow until the sweep fits the budget.
        let mut lambda_sweeps = 0usize;
        let mut lo = 0.0f64;
        let mut hi = (unconstrained_cost / unconstrained_size.max(1e-12)).max(1e-9);
        // Best feasible (cost-minimal) and leanest (size-minimal) probes;
        // each records the λ that produced it (0 = not from a λ sweep).
        let mut best: Option<(Vec<Selection>, f64, f64, f64)> = None;
        let mut leanest: Option<(Vec<Selection>, f64, f64, f64)> = None;
        let probe = |advisor: &Self,
                     l: f64,
                     best: &mut Option<(Vec<Selection>, f64, f64, f64)>,
                     leanest: &mut Option<(Vec<Selection>, f64, f64, f64)>|
         -> (f64, f64) {
            let sel = advisor.lambda_sweep(l, &comps);
            let (cost, size) = advisor.selection_totals(&sel);
            if size <= budget_pages && best.as_ref().map_or(true, |b| cost < b.1) {
                *best = Some((sel.clone(), cost, size, l));
            }
            if leanest
                .as_ref()
                .map_or(true, |b| size < b.2 || (size == b.2 && cost < b.1))
            {
                *leanest = Some((sel, cost, size, l));
            }
            (cost, size)
        };
        let mut plateau = 0u32;
        let mut prev_size = f64::NAN;
        for _ in 0..48 {
            lambda_sweeps += 1;
            let (_, size) = probe(self, hi, &mut best, &mut leanest);
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
        if best.is_some() {
            // Bisect toward the smallest λ whose sweep still fits — smaller
            // λ weighs cost more, so it can only find cheaper feasible
            // plans.
            for _ in 0..24 {
                let mid = 0.5 * (lo + hi);
                lambda_sweeps += 1;
                let (_, size) = probe(self, mid, &mut best, &mut leanest);
                if size <= budget_pages {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
        }
        // Second search direction: greedy eviction descent from the
        // unconstrained selections. The λ sweep can overshoot (shared
        // candidates couple the paths, so its footprint jumps
        // discontinuously in λ); the descent walks down one cheapest-regret
        // move at a time and lands just under the budget.
        // The walk never reads the budget except to stop, so it is
        // recorded on the advisor and a later call on the same state lands
        // on, or extends, the same trail.
        let base: Vec<Selection> = unconstrained
            .paths
            .iter()
            .map(|p| Self::to_selection(&p.selection))
            .collect();
        let mut trail = match self.trail.take() {
            Some(trail) => trail,
            None => EvictionTrail::new(&comps, self.paths.len()),
        };
        let (evictions, eviction_trials) = self.evict_to_budget(&mut trail, &base, budget_pages);
        let evicted = trail.selections_at(&base, evictions);
        let (cost, size) = match evictions.checked_sub(1) {
            Some(last) => (trail.steps[last].cost, trail.steps[last].size),
            None => self.selection_totals(&evicted),
        };
        self.trail = Some(trail);
        if size <= budget_pages {
            if best.as_ref().map_or(true, |b| cost < b.1) {
                best = Some((evicted, cost, size, 0.0));
            }
        } else if leanest
            .as_ref()
            .map_or(true, |b| size < b.2 || (size == b.2 && cost < b.1))
        {
            leanest = Some((evicted, cost, size, 0.0));
        }
        let (mut selections, feasible, lambda) = match best {
            Some((sel, _, _, l)) => (sel, true, l),
            None => {
                // Even the leanest search result exceeds the budget: report
                // that plan, flagged infeasible, under the λ that found it
                // (0 when the eviction descent produced it).
                let lean = leanest.expect("at least one probe ran");
                (lean.0, false, lean.3)
            }
        };
        let repairs = if feasible {
            self.repair(&mut selections, budget_pages)
        } else {
            0
        };
        let independent_cost: f64 = self
            .paths
            .iter()
            .map(|st| st.standalone.as_ref().expect("reoptimize filled it").1)
            .sum();
        let mut plan = self.assemble_plan(&selections, independent_cost);
        // The real epoch work happened inside the inner reoptimize(): carry
        // its telemetry over instead of reporting the budgeted epoch as
        // free (the λ sweeps and evictions are read-only w.r.t. the memos
        // and are reported separately via lambda_sweeps / evictions /
        // repairs).
        plan.epoch_pricings = unconstrained.epoch_pricings;
        plan.sweeps = unconstrained.sweeps;
        plan.mutations = unconstrained.mutations;
        plan.repriced_paths = unconstrained.repriced_paths;
        plan.dp_runs = unconstrained.dp_runs;
        plan.dp_memo_hits = unconstrained.dp_memo_hits;
        plan.components = unconstrained.components;
        plan.largest_component = unconstrained.largest_component;
        plan.candidates_pruned = unconstrained.candidates_pruned;
        plan.speculation_skips = unconstrained.speculation_skips;
        plan.candidates_mined_out = unconstrained.candidates_mined_out;
        plan.cells_skipped = unconstrained.cells_skipped;
        // λ sweeps ran against the live masks: report the cells the
        // budgeted search priced without (the λ-uniform dominance bound).
        plan.lambda_pruned = if lambda_sweeps > 0 {
            unconstrained.candidates_pruned
        } else {
            0
        };
        debug_assert!(
            !feasible || plan.size_pages <= budget_pages * (1.0 + 1e-12) + 1e-9,
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

    // ---- what-if & cross-plan pricing -------------------------------------

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
        let chars = PathCharacteristics::build(self.schema, path, |c| self.stats[c.index()]);
        let model = CostModel::new(self.schema, path, &chars, self.params);
        let mld = LoadDistribution::build(self.schema, path, |c| {
            let (beta, gamma) = self.maint[c.index()];
            Triplet::new(0.0, beta, gamma)
        });
        let mut maintenance = [0.0; 3];
        let mut size_pages = [0.0; 3];
        for org in Org::ALL {
            maintenance[org.index()] = pc::processing_cost(&model, &mld, sub, Choice::Index(org));
            size_pages[org.index()] = model.size_pages(org, sub);
        }
        WhatIfReport {
            steps,
            embedded,
            candidate,
            adopted: false,
            maintenance,
            size_pages,
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
    /// priced) and the same live path set (matched by [`PathId`], which
    /// congruent mutation histories keep aligned).
    pub fn price_plan(&self, plan: &WorkloadPlan) -> f64 {
        assert_eq!(
            plan.paths.len(),
            self.paths.len(),
            "price_plan: plan and advisor hold different path sets"
        );
        let by_id: HashMap<PathId, &PathOutcome> = plan.paths.iter().map(|p| (p.id, p)).collect();
        let selections: Vec<Selection> = self
            .paths
            .iter()
            .map(|st| {
                let p = by_id
                    .get(&st.id)
                    .unwrap_or_else(|| panic!("price_plan: plan misses live path {:?}", st.id));
                assert_eq!(
                    p.path.signature(),
                    st.signature,
                    "price_plan: path {:?} changed identity",
                    st.id
                );
                Self::to_selection(&p.selection)
            })
            .collect();
        self.selection_totals(&selections).0
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
                        st.query_costs[r][org.index()]
                            + self
                                .space
                                .priced_maintenance(cand, org)
                                .expect("priced after (re)optimize")
                    })
                    .fold(f64::INFINITY, f64::min);
                bound += cheapest;
            }
        }
        bound
    }
}

impl WorkloadPlan {
    /// Asserts this plan **bit-identical** to `other` — the canonical
    /// spelling of the parallel determinism contract (DESIGN.md §5.13),
    /// used by the cross-thread-count property tests, the scaling bench
    /// and the parallel example so their coverage cannot drift apart.
    /// Floats compare via `to_bits`; selections, shared-index outcomes
    /// and the work-audit telemetry (sweeps, pricings, DP runs, memo
    /// hits) must all match. Panics with `ctx` on the first divergence.
    ///
    /// Only [`WorkloadPlan::epoch`] and [`WorkloadPlan::mutations`] are
    /// exempt: they describe the advisor's history, not the plan, so
    /// e.g. a warm plan may be compared against its cold rebuild.
    pub fn assert_bit_identical_to(&self, other: &WorkloadPlan, ctx: &str) {
        self.assert_same_plan(other, ctx);
        assert_eq!(self.sweeps, other.sweeps, "{ctx}: sweeps");
        assert_eq!(
            self.repriced_paths, other.repriced_paths,
            "{ctx}: repriced paths"
        );
        assert_eq!(
            self.epoch_pricings, other.epoch_pricings,
            "{ctx}: epoch pricings"
        );
        assert_eq!(
            self.maintenance_pricings, other.maintenance_pricings,
            "{ctx}: cumulative pricings"
        );
        assert_eq!(self.dp_runs, other.dp_runs, "{ctx}: dp runs");
        assert_eq!(self.dp_memo_hits, other.dp_memo_hits, "{ctx}: dp memo hits");
        assert_eq!(
            self.candidates_pruned, other.candidates_pruned,
            "{ctx}: candidates pruned"
        );
        assert_eq!(
            self.speculation_skips, other.speculation_skips,
            "{ctx}: speculation skips"
        );
        assert_eq!(
            self.candidates_mined_out, other.candidates_mined_out,
            "{ctx}: candidates mined out"
        );
        assert_eq!(
            self.cells_skipped, other.cells_skipped,
            "{ctx}: cells skipped"
        );
        assert_eq!(
            self.lambda_pruned, other.lambda_pruned,
            "{ctx}: λ-pruned cells"
        );
    }

    /// Asserts this plan selects the **same physical design** as `other`,
    /// ignoring the work-audit counters: two advisors that reached one
    /// workload state by different histories (a warm advisor and its cold
    /// rebuild, a tuned advisor and its oracle) produce the same
    /// selections, costs (bitwise), footprint, shared-index outcomes and
    /// shape telemetry, but legitimately differ in how much work they did
    /// to get there (sweeps, DP runs, memo hits, pricings, pruning
    /// counters). Panics with `ctx` on the first divergence.
    pub fn assert_same_plan(&self, other: &WorkloadPlan, ctx: &str) {
        assert_eq!(
            self.total_cost.to_bits(),
            other.total_cost.to_bits(),
            "{ctx}: total_cost {} vs {}",
            self.total_cost,
            other.total_cost
        );
        assert_eq!(
            self.independent_cost.to_bits(),
            other.independent_cost.to_bits(),
            "{ctx}: independent_cost"
        );
        assert_eq!(
            self.size_pages.to_bits(),
            other.size_pages.to_bits(),
            "{ctx}: size_pages"
        );
        assert_eq!(self.physical_indexes, other.physical_indexes, "{ctx}");
        assert_eq!(self.candidates, other.candidates, "{ctx}");
        assert_eq!(self.components, other.components, "{ctx}: components");
        assert_eq!(
            self.largest_component, other.largest_component,
            "{ctx}: largest component"
        );
        assert_eq!(self.paths.len(), other.paths.len(), "{ctx}: path count");
        for (a, b) in self.paths.iter().zip(&other.paths) {
            assert_eq!(a.id, b.id, "{ctx}");
            assert_eq!(
                a.selection.pairs(),
                b.selection.pairs(),
                "{ctx}: selections diverged for path {:?}",
                a.id
            );
            assert_eq!(a.query_cost.to_bits(), b.query_cost.to_bits(), "{ctx}");
            assert_eq!(
                a.standalone_cost.to_bits(),
                b.standalone_cost.to_bits(),
                "{ctx}"
            );
        }
        assert_eq!(self.shared.len(), other.shared.len(), "{ctx}: shared count");
        for (a, b) in self.shared.iter().zip(&other.shared) {
            assert_eq!(a.candidate, b.candidate, "{ctx}");
            assert_eq!(a.org, b.org, "{ctx}");
            assert_eq!(a.owners, b.owners, "{ctx}");
            assert_eq!(a.maintenance.to_bits(), b.maintenance.to_bits(), "{ctx}");
            assert_eq!(a.saving.to_bits(), b.saving.to_bits(), "{ctx}");
        }
    }

    /// Human-readable report.
    pub fn render(&self, schema: &Schema) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload plan (epoch {}): {} paths, {} physical indexes over {} candidates",
            self.epoch,
            self.paths.len(),
            self.physical_indexes,
            self.candidates
        );
        for (i, p) in self.paths.iter().enumerate() {
            let _ = writeln!(
                out,
                "  path {}: {}  (queries {:.2}, standalone {:.2})",
                i + 1,
                p.selection.render(schema, &p.path),
                p.query_cost,
                p.standalone_cost
            );
        }
        for s in &self.shared {
            let _ = writeln!(
                out,
                "  shared {} × {} paths: maintenance {:.2} paid once (saves {:.2})",
                s.org,
                s.owners.len(),
                s.maintenance,
                s.saving
            );
        }
        let _ = writeln!(
            out,
            "total {:.2} vs independent {:.2}, footprint {:.0} pages \
             ({} sweeps, {} repriced paths, {} pricings this epoch, \
             {} DP runs, {} memo hits)",
            self.total_cost,
            self.independent_cost,
            self.size_pages,
            self.sweeps,
            self.repriced_paths,
            self.epoch_pricings,
            self.dp_runs,
            self.dp_memo_hits
        );
        let _ = writeln!(
            out,
            "{} components (largest {}), {} cells pruned, {} singletons skipped, \
             {} ranks mined out ({} cells skipped)",
            self.components,
            self.largest_component,
            self.candidates_pruned,
            self.speculation_skips,
            self.candidates_mined_out,
            self.cells_skipped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_schema::fixtures;

    fn fig7_stats(schema: &Schema) -> impl FnMut(ClassId) -> ClassStats + '_ {
        |c| match schema.class_name(c) {
            "Person" => ClassStats::new(200_000.0, 20_000.0, 1.0),
            "Vehicle" => ClassStats::new(10_000.0, 5_000.0, 3.0),
            "Bus" | "Truck" => ClassStats::new(5_000.0, 2_500.0, 2.0),
            "Company" => ClassStats::new(1_000.0, 250.0, 4.0),
            "Division" => ClassStats::new(1_000.0, 1_000.0, 1.0),
            _ => ClassStats::new(1.0, 1.0, 1.0),
        }
    }

    fn two_path_advisor(schema: &Schema) -> WorkloadAdvisor<'_> {
        let pexa = fixtures::paper_path_pexa(schema);
        let pe = fixtures::paper_path_pe(schema);
        let mut adv = WorkloadAdvisor::new(schema, CostParams::default())
            .with_stats(fig7_stats(schema))
            .with_maintenance(|_| (0.1, 0.1));
        adv.add_path(pexa, |_| 0.2);
        adv.add_path(pe, |_| 0.3);
        adv
    }

    fn assert_costs_match(a: &WorkloadPlan, b: &WorkloadPlan) {
        assert!(
            (a.total_cost - b.total_cost).abs() < 1e-9 * a.total_cost.abs().max(1.0),
            "warm {} vs cold {}",
            a.total_cost,
            b.total_cost
        );
        assert!(
            (a.independent_cost - b.independent_cost).abs()
                < 1e-9 * a.independent_cost.abs().max(1.0),
            "warm independent {} vs cold {}",
            a.independent_cost,
            b.independent_cost
        );
    }

    #[test]
    fn single_path_matches_the_standalone_advisor() {
        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema);
        let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
            .with_stats(fig7_stats(&schema))
            .with_maintenance(|_| (0.1, 0.1));
        adv.add_path(pexa.clone(), |_| 0.25);
        let plan = adv.optimize();
        // Cross-check against the single-path pipeline on the same inputs.
        let chars = PathCharacteristics::build(&schema, &pexa, |c| fig7_stats(&schema)(c));
        let ld = LoadDistribution::build(&schema, &pexa, |c| {
            let _ = c;
            Triplet::new(0.25, 0.1, 0.1)
        });
        let model = CostModel::new(&schema, &pexa, &chars, CostParams::default());
        let single = crate::select::opt_ind_con(&CostMatrix::build(&model, &ld));
        assert!((plan.total_cost - single.cost).abs() < 1e-6);
        assert_eq!(plan.paths[0].selection.pairs(), single.best.pairs());
        assert!(plan.shared.is_empty());
    }

    #[test]
    fn shared_prefix_is_priced_once() {
        let (schema, _) = fixtures::paper_schema();
        let plan = two_path_advisor(&schema).optimize();
        assert_eq!(plan.paths.len(), 2);
        // 10 Pexa subpaths + 3 Pe-only ones; priced at most once per org.
        assert_eq!(plan.candidates, 13);
        assert!(plan.maintenance_pricings <= 3 * plan.candidates as u64);
        assert_eq!(plan.maintenance_pricings, plan.epoch_pricings);
        assert!(plan.total_cost <= plan.independent_cost + 1e-9);
    }

    #[test]
    fn identical_paths_collapse_to_one_physical_design() {
        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema);
        let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
            .with_stats(fig7_stats(&schema))
            .with_maintenance(|_| (0.1, 0.1));
        for _ in 0..5 {
            adv.add_path(pexa.clone(), |_| 0.2);
        }
        let plan = adv.optimize();
        // Five copies of the path expose exactly one path's candidates, and
        // pricing them never repeats per (candidate, org).
        assert_eq!(plan.candidates, SubpathId::count(4));
        assert_eq!(plan.maintenance_pricings, 3 * SubpathId::count(4) as u64);
        // All five paths select the same configuration; its indexes are
        // shared by all of them and maintenance is paid once.
        let first = plan.paths[0].selection.pairs().to_vec();
        for p in &plan.paths {
            assert_eq!(p.selection.pairs(), &first[..]);
        }
        for s in &plan.shared {
            assert_eq!(s.owners.len(), 5);
        }
        let expected: f64 = plan.paths.iter().map(|p| p.query_cost).sum::<f64>()
            + plan.shared.iter().map(|s| s.maintenance).sum::<f64>();
        assert!((plan.total_cost - expected).abs() < 1e-9);
        // Sharing 4 extra copies of the maintenance is a strict win.
        assert!(plan.total_cost < plan.independent_cost - 1e-9);
    }

    #[test]
    fn terminal_and_embedded_spellings_do_not_cross_contaminate() {
        // Person.owns as a complete path spells the same steps as the
        // first subpath of Pexa, but the embedded role pays the Vehicle
        // boundary-CMD and must be priced separately — whichever the
        // advisor prices first must not leak into the other. Verify the
        // workload totals re-derive from independently computed shares.
        let (schema, _) = fixtures::paper_schema();
        let owns = Path::parse(&schema, "Person", &["owns"]).unwrap();
        let pexa = fixtures::paper_path_pexa(&schema);
        let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
            .with_stats(fig7_stats(&schema))
            .with_maintenance(|_| (0.1, 0.1));
        adv.add_path(owns.clone(), |_| 0.4);
        adv.add_path(pexa.clone(), |_| 0.2);
        let plan = adv.optimize();
        // The len-1 path optimizing alone must cost exactly its standalone
        // single-path optimum — no contamination from Pexa's embedded
        // Person.owns pricing (and vice versa).
        for (path, alpha, outcome) in [(&owns, 0.4, &plan.paths[0]), (&pexa, 0.2, &plan.paths[1])] {
            let chars = PathCharacteristics::build(&schema, path, |c| fig7_stats(&schema)(c));
            let ld = LoadDistribution::build(&schema, path, |_| Triplet::new(alpha, 0.1, 0.1));
            let model = CostModel::new(&schema, path, &chars, CostParams::default());
            let single = crate::select::opt_ind_con(&CostMatrix::build(&model, &ld));
            assert!(
                (outcome.standalone_cost - single.cost).abs() < 1e-9 * single.cost.max(1.0),
                "standalone {} vs single-path optimum {}",
                outcome.standalone_cost,
                single.cost
            );
        }
        // The two spellings are distinct candidates; nothing is shared, so
        // the workload total equals the independent total.
        assert!(plan.shared.is_empty());
        assert!((plan.total_cost - plan.independent_cost).abs() < 1e-9);
    }

    #[test]
    fn maintenance_price_is_owner_independent() {
        // The decomposition hinges on M(candidate, org) being the same
        // through any owner's model; verify it directly for the shared
        // Per.owns.man prefix of Pexa and Pe.
        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema);
        let pe = fixtures::paper_path_pe(&schema);
        let mut stats = fig7_stats(&schema);
        let chars_a = PathCharacteristics::build(&schema, &pexa, &mut stats);
        let chars_b = PathCharacteristics::build(&schema, &pe, &mut stats);
        let maint = |_: ClassId| Triplet::new(0.0, 0.1, 0.1);
        let ld_a = LoadDistribution::build(&schema, &pexa, maint);
        let ld_b = LoadDistribution::build(&schema, &pe, maint);
        let model_a = CostModel::new(&schema, &pexa, &chars_a, CostParams::default());
        let model_b = CostModel::new(&schema, &pe, &chars_b, CostParams::default());
        let sub = SubpathId { start: 1, end: 2 };
        for org in Org::ALL {
            let via_a = pc::processing_cost(&model_a, &ld_a, sub, Choice::Index(org));
            let via_b = pc::processing_cost(&model_b, &ld_b, sub, Choice::Index(org));
            assert!(
                (via_a - via_b).abs() < 1e-9 * via_a.abs().max(1.0),
                "{org}: {via_a} vs {via_b}"
            );
        }
    }

    // ---- budgeted selection tests -----------------------------------------

    #[test]
    fn infinite_budget_is_bit_identical_to_optimize() {
        let (schema, _) = fixtures::paper_schema();
        let plan = two_path_advisor(&schema).optimize();
        let budgeted = two_path_advisor(&schema).optimize_with_budget(f64::INFINITY);
        assert!(budgeted.feasible);
        assert_eq!(budgeted.lambda, 0.0);
        assert_eq!(budgeted.lambda_sweeps, 0);
        assert_eq!(
            budgeted.plan.total_cost.to_bits(),
            plan.total_cost.to_bits()
        );
        assert_eq!(
            budgeted.plan.size_pages.to_bits(),
            plan.size_pages.to_bits()
        );
        for (a, b) in budgeted.plan.paths.iter().zip(&plan.paths) {
            assert_eq!(a.selection.pairs(), b.selection.pairs());
        }
        // Any budget at or above the unconstrained footprint behaves the
        // same way (the constraint is slack).
        let relaxed = two_path_advisor(&schema).optimize_with_budget(plan.size_pages);
        assert_eq!(relaxed.plan.total_cost.to_bits(), plan.total_cost.to_bits());
    }

    #[test]
    fn plans_report_the_count_once_footprint() {
        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema);
        let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
            .with_stats(fig7_stats(&schema))
            .with_maintenance(|_| (0.1, 0.1));
        for _ in 0..5 {
            adv.add_path(pexa.clone(), |_| 0.2);
        }
        let plan = adv.optimize();
        // Five copies select identically; the plan stores each physical
        // index once, so the footprint equals one path's configuration
        // size under the same model.
        let chars = PathCharacteristics::build(&schema, &pexa, |c| fig7_stats(&schema)(c));
        let model = CostModel::new(&schema, &pexa, &chars, CostParams::default());
        let expected: f64 = plan.paths[0]
            .selection
            .pairs()
            .iter()
            .map(|&(sub, choice)| match choice {
                Choice::Index(org) => model.size_pages(org, sub),
                Choice::NoIndex => 0.0,
            })
            .sum();
        assert!(
            (plan.size_pages - expected).abs() < 1e-9 * expected.max(1.0),
            "plan footprint {} vs one copy's {}",
            plan.size_pages,
            expected
        );
    }

    #[test]
    fn tight_budget_trades_cost_for_pages() {
        let (schema, _) = fixtures::paper_schema();
        let unconstrained = two_path_advisor(&schema).optimize();
        assert!(unconstrained.size_pages > 0.0);
        let budget = unconstrained.size_pages * 0.5;
        let budgeted = two_path_advisor(&schema).optimize_with_budget(budget);
        assert!(budgeted.feasible, "half the footprint should be reachable");
        assert!(
            budgeted.plan.size_pages <= budget + 1e-9,
            "{} > {budget}",
            budgeted.plan.size_pages
        );
        assert!(
            budgeted.plan.total_cost >= unconstrained.total_cost - 1e-9,
            "a constrained plan cannot beat the unconstrained optimum"
        );
        assert!(budgeted.cost_ratio() >= 1.0 - 1e-12);
        // λ is the multiplier of the winning sweep — 0 when the eviction
        // descent produced the plan instead.
        assert!(budgeted.lambda >= 0.0);
        assert!(budgeted.lambda_sweeps > 0);
    }

    #[test]
    fn budget_below_minimum_footprint_is_flagged_infeasible() {
        let (schema, _) = fixtures::paper_schema();
        let budgeted = two_path_advisor(&schema).optimize_with_budget(1.0);
        assert!(!budgeted.feasible, "one page cannot hold any plan");
        assert!(budgeted.plan.size_pages > 1.0);
        // The returned plan is the leanest sweep: no feasible-side λ was
        // found, and its footprint undercuts the unconstrained one.
        assert!(budgeted.plan.size_pages <= budgeted.unconstrained_size + 1e-9);
    }

    #[test]
    fn budgeted_plans_are_monotone_in_the_budget() {
        // A wider budget can only help: sweep a few budgets and check the
        // realized costs never increase with the budget.
        let (schema, _) = fixtures::paper_schema();
        let unconstrained = two_path_advisor(&schema).optimize();
        let mut last_cost = f64::INFINITY;
        for frac in [0.4, 0.6, 0.8, 1.0] {
            let b = two_path_advisor(&schema).optimize_with_budget(unconstrained.size_pages * frac);
            if !b.feasible {
                continue;
            }
            assert!(
                b.plan.total_cost <= last_cost + 1e-6 * last_cost.abs().max(1.0),
                "budget {frac}: cost {} after cheaper {last_cost}",
                b.plan.total_cost
            );
            last_cost = b.plan.total_cost;
        }
        assert!(
            (last_cost - unconstrained.total_cost).abs() < 1e-9 * unconstrained.total_cost.max(1.0),
            "the full budget recovers the unconstrained optimum"
        );
    }

    // ---- evolving-workload engine tests -----------------------------------

    #[test]
    fn clean_reoptimize_is_all_cache_hits() {
        let (schema, _) = fixtures::paper_schema();
        let mut adv = two_path_advisor(&schema);
        let first = adv.optimize();
        assert_eq!(first.epoch, 1);
        assert_eq!(first.repriced_paths, 2);
        // No mutations: the second plan re-derives from caches alone.
        let second = adv.reoptimize();
        assert_eq!(second.epoch, 2);
        assert_eq!(second.mutations, 0);
        assert_eq!(second.repriced_paths, 0, "no model rebuilds");
        assert_eq!(second.epoch_pricings, 0, "no maintenance pricings");
        assert!(
            second.dp_runs < first.dp_runs,
            "standalone optima cached, sweep responses partly memoized: {} vs {}",
            second.dp_runs,
            first.dp_runs
        );
        // Every sweep selection is either a DP run or a memo hit.
        assert_eq!(
            second.dp_runs + second.dp_memo_hits,
            2 * second.sweeps as u64
        );
        assert_eq!(second.total_cost.to_bits(), first.total_cost.to_bits());
    }

    #[test]
    fn stat_mutation_reprices_only_scoped_paths() {
        let (schema, _) = fixtures::paper_schema();
        let owns = Path::parse(&schema, "Person", &["owns"]).unwrap();
        let divs = Path::parse(&schema, "Company", &["divs", "name"]).unwrap();
        let mut adv = WorkloadAdvisor::new(&schema, CostParams::default())
            .with_stats(fig7_stats(&schema))
            .with_maintenance(|_| (0.1, 0.1));
        adv.add_path(owns, |_| 0.4);
        adv.add_path(divs, |_| 0.2);
        adv.optimize();
        // Division stats touch only the Company.divs.name path.
        let division = schema.class_by_name("Division").unwrap();
        assert!(adv.update_stats(division, ClassStats::new(2_000.0, 1_500.0, 1.0)));
        let plan = adv.reoptimize();
        assert_eq!(plan.mutations, 1);
        assert_eq!(plan.repriced_paths, 1, "Person.owns is out of scope");
        assert_costs_match(&plan, &adv.rebuild().optimize());
        // Re-applying the same value is a recognized no-op.
        assert!(!adv.update_stats(division, ClassStats::new(2_000.0, 1_500.0, 1.0)));
        let plan = adv.reoptimize();
        assert_eq!((plan.mutations, plan.repriced_paths), (0, 0));
    }

    #[test]
    fn warm_reoptimize_matches_cold_rebuild_across_mutation_kinds() {
        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema);
        let pe = fixtures::paper_path_pe(&schema);
        let owns = Path::parse(&schema, "Person", &["owns"]).unwrap();
        let mut adv = two_path_advisor(&schema);
        adv.optimize();

        // Arrival.
        let owns_id = adv.add_path(owns.clone(), |_| 0.4);
        assert_costs_match(&adv.reoptimize(), &adv.rebuild().optimize());
        // Stat drift.
        let vehicle = schema.class_by_name("Vehicle").unwrap();
        adv.update_stats(vehicle, ClassStats::new(40_000.0, 9_000.0, 2.0));
        assert_costs_match(&adv.reoptimize(), &adv.rebuild().optimize());
        // Rate churn.
        let person = schema.class_by_name("Person").unwrap();
        adv.update_rates(person, (0.4, 0.02));
        assert_costs_match(&adv.reoptimize(), &adv.rebuild().optimize());
        // Per-path query churn.
        let first = adv.path_ids().next().unwrap();
        adv.update_query_rates(first, |_| 0.05);
        assert_costs_match(&adv.reoptimize(), &adv.rebuild().optimize());
        // Departure + re-arrival under a fresh handle, same signature.
        let removed = adv.remove_path(owns_id).expect("live handle");
        assert_eq!(removed.signature(), owns.signature());
        assert!(adv.remove_path(owns_id).is_none(), "handles are single-use");
        let owns_id2 = adv.add_path(owns.clone(), |_| 0.1);
        assert_ne!(owns_id, owns_id2);
        assert_eq!(
            adv.path_signature(owns_id2),
            Some(&owns.signature()),
            "re-arrival carries the same physical identity"
        );
        assert_costs_match(&adv.reoptimize(), &adv.rebuild().optimize());
        // Several batched mutations at once.
        adv.update_stats(person, ClassStats::new(150_000.0, 30_000.0, 1.0));
        adv.update_rates(vehicle, (0.0, 0.3));
        adv.remove_path(owns_id2);
        adv.add_path(pe.clone(), |_| 0.15);
        adv.add_path(pexa.clone(), |_| 0.05);
        let warm = adv.reoptimize();
        let cold = adv.rebuild().optimize();
        assert_costs_match(&warm, &cold);
        assert_eq!(warm.physical_indexes, cold.physical_indexes);
        assert_eq!(warm.paths.len(), cold.paths.len());
        for (w, c) in warm.paths.iter().zip(&cold.paths) {
            assert_eq!(w.selection.pairs(), c.selection.pairs());
        }
    }

    #[test]
    fn removing_the_last_owner_frees_candidates_and_plans_cite_live_ids() {
        let (schema, _) = fixtures::paper_schema();
        let mut adv = two_path_advisor(&schema);
        let plan = adv.optimize();
        assert_eq!(plan.candidates, 13);
        let pexa_id = adv.path_ids().next().unwrap();
        // Dropping Pexa frees its 7 exclusive candidates (3 are shared
        // with Pe).
        adv.remove_path(pexa_id);
        let plan = adv.reoptimize();
        assert_eq!(plan.paths.len(), 1);
        assert_eq!(plan.candidates, 6, "Pe's own subpaths only");
        assert_eq!(adv.candidate_space().len(), 6);
        // Every candidate the surviving plan cites is live, with a live
        // maintenance price.
        let pe_state_cands: Vec<CandidateId> = {
            let st = &adv.paths[0];
            plan.paths[0]
                .selection
                .pairs()
                .iter()
                .map(|&(sub, _)| st.cand(sub))
                .collect()
        };
        for (id, &(_, choice)) in pe_state_cands.iter().zip(plan.paths[0].selection.pairs()) {
            assert!(adv.candidate_space().is_live(*id));
            let Choice::Index(org) = choice else {
                unreachable!()
            };
            assert!(adv.candidate_space().priced_maintenance(*id, org).is_some());
        }
        // Removing the last path yields an empty plan, an empty space.
        let pe_id = adv.path_ids().next().unwrap();
        adv.remove_path(pe_id);
        let plan = adv.reoptimize();
        assert!(plan.paths.is_empty());
        assert_eq!(plan.total_cost, 0.0);
        assert_eq!(plan.physical_indexes, 0);
        assert!(adv.candidate_space().is_empty());
    }

    #[test]
    fn rate_churn_skips_query_share_recomputation() {
        let (schema, _) = fixtures::paper_schema();
        let mut adv = two_path_advisor(&schema);
        adv.optimize();
        let before: Vec<Vec<[f64; 3]>> =
            adv.paths.iter().map(|st| st.query_costs.clone()).collect();
        let person = schema.class_by_name("Person").unwrap();
        adv.update_rates(person, (0.9, 0.9));
        let plan = adv.reoptimize();
        assert_eq!(plan.repriced_paths, 2, "both paths scope Person");
        assert!(plan.epoch_pricings > 0, "invalidated cells repriced");
        for (st, old) in adv.paths.iter().zip(&before) {
            assert_eq!(&st.query_costs, old, "query shares are rate-blind");
        }
        assert_costs_match(&plan, &adv.rebuild().optimize());
    }
}
