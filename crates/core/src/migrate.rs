//! Migration planning: from a target [`WorkloadPlan`] to an ordered,
//! budgeted index deployment (DESIGN.md §5.18).
//!
//! The advisor emits a *target* configuration as if every build landed
//! atomically; production cannot build a hundred indexes at once. Kimura
//! et al. ("Optimizing Index Deployment Order for Evolving OLAP") show
//! deployment *order* dominates interim performance: while the migration
//! is in flight the workload keeps running, and every hour spent under the
//! wrong interim configuration is real cost. [`MigrationPlanner`] turns a
//! `(current, target)` plan pair into a build/drop schedule that maximizes
//! cumulative interim benefit under a concurrency-and-space
//! [`MigrationEnvelope`]:
//!
//! * **Per-path switch semantics** — a path keeps running its current
//!   selection until *all* of its target pieces are built, then switches
//!   atomically. A half-built configuration is never active.
//! * **Greedy benefit-per-build-page ordering** — paths are ranked by
//!   `(query saving + maintenance freed by the switch) / unbuilt build
//!   pages` and their missing pieces are packed into waves of at most
//!   `concurrent_builds` concurrent builds. A wave's duration is its
//!   largest build (pages ≈ build I/O, the PR-4 size model).
//! * **Drop-before-build repair** — an index that no active arm and no
//!   target arm references is dropped *eagerly* at wave start, so its
//!   pages fund later builds under a tight space envelope. If no build
//!   fits even after every drop, scheduling fails with
//!   [`MigrationError::SpaceExceeded`] instead of silently violating the
//!   envelope.
//!
//! **Bit-consistent pricing.** Every interim state is priced through the
//! same memo machinery as [`WorkloadAdvisor::price_plan`]: per-piece query
//! shares are read from the adopted query-cost memos and per-index
//! maintenance from the [`WhatIfReport`](crate::WhatIfReport) memo arm,
//! and the interim fold is the advisor's own ledger fold (per-path query
//! subtotals in live-path order, distinct maintenance summed in value
//! order). The schedule's `initial_cost` equals `price_plan(current)` and
//! `final_cost` equals `price_plan(target)` — which is the target's own
//! `total_cost` — **bitwise**: the planner never invents a number
//! `optimize()` would not quote.
//!
//! **Mid-migration churn.** The planner survives the workload evolving
//! under it: [`MigrationPlanner::retarget`] re-syncs the path set and
//! re-prices every arm after an [`OnlineTuner`](crate::OnlineTuner)
//! retune (built indexes are carried across by their durable physical
//! identity, not by recyclable [`CandidateId`]s), and
//! [`MigrationPlanner::remove_path`] cancels scheduled-but-unbuilt builds
//! a departing path no longer justifies.

use crate::space::{CandidateId, CandidateStep};
use crate::workload_advisor::{ledger, AdoptedPath, PathId, WorkloadAdvisor, WorkloadPlan};
use oic_cost::Org;
use oic_schema::SubpathId;
use MigrationError::PathSetMismatch;

/// Durable physical identity of one index: the step sequence, the
/// embedded-vs-terminal role, and the organization. Unlike
/// [`CandidateId`] (recycled when the last owning path
/// departs), this key survives arbitrary workload churn, so a half-run
/// migration can be re-targeted without losing track of what is built.
pub type IndexKey = (Vec<CandidateStep>, bool, Org);

/// The resource envelope a schedule must respect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationEnvelope {
    /// Maximum index builds in flight at once (one *wave*). Builds are
    /// page-dominated scans, so this caps the I/O parallelism spent on
    /// migration. Must be ≥ 1.
    pub concurrent_builds: usize,
    /// Maximum total footprint (pages) of built indexes at any instant,
    /// *including* builds in flight. The drop-before-build repair frees
    /// unused pages before each wave to stay inside this.
    pub space_pages: f64,
}

impl Default for MigrationEnvelope {
    fn default() -> Self {
        MigrationEnvelope {
            concurrent_builds: 1,
            space_pages: f64::INFINITY,
        }
    }
}

/// Why a schedule could not be produced.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrationError {
    /// `concurrent_builds == 0`: nothing can ever be built.
    ZeroConcurrency,
    /// Even after dropping every unused index, the next cheapest build
    /// would exceed the space envelope.
    SpaceExceeded {
        /// Live pages plus the smallest pending build.
        need: f64,
        /// The envelope that was exceeded.
        envelope: f64,
    },
    /// A plan does not cover exactly the advisor's live path set (or a
    /// path's prices were stale — mutate, then `reoptimize()` first).
    PathSetMismatch,
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::ZeroConcurrency => {
                write!(f, "migration envelope allows zero concurrent builds")
            }
            MigrationError::SpaceExceeded { need, envelope } => write!(
                f,
                "next build needs {need} pages but the envelope allows {envelope}"
            ),
            MigrationError::PathSetMismatch => {
                write!(f, "plan does not match the advisor's live path set")
            }
        }
    }
}

impl std::error::Error for MigrationError {}

/// What one schedule step does to its physical index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationAction {
    /// Build the index (costs `pages` of I/O, occupies `pages`).
    Build,
    /// Drop the index (instantaneous, frees `pages`).
    Drop,
}

/// One build or drop in a [`MigrationSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationStep {
    /// The wave this step belongs to (0-based; a wave's builds run
    /// concurrently, its drops precede them).
    pub wave: usize,
    /// Build or drop.
    pub action: MigrationAction,
    /// The physical step sequence of the index.
    pub steps: Vec<CandidateStep>,
    /// Its embedded-vs-terminal role.
    pub embedded: bool,
    /// Its organization.
    pub org: Org,
    /// Its footprint in pages (≈ build I/O for a build).
    pub pages: f64,
}

/// An ordered deployment: the steps, the per-wave switch points, and the
/// interim-cost ledger.
#[derive(Debug, Clone)]
pub struct MigrationSchedule {
    /// Builds and drops in execution order.
    pub steps: Vec<MigrationStep>,
    /// `(wave, path)` switch points: the wave at whose start the path's
    /// target pieces were all built and it switched arms.
    pub switches: Vec<(usize, PathId)>,
    /// Number of build waves.
    pub waves: usize,
    /// Indexes built.
    pub builds: usize,
    /// Indexes dropped.
    pub drops: usize,
    /// Builds cancelled by path churn before this schedule (planner
    /// lifetime telemetry, not per call).
    pub cancelled: u64,
    /// Total pages built (Σ build I/O).
    pub build_pages: f64,
    /// Total duration: Σ per-wave max build pages.
    pub duration: f64,
    /// Unit workload cost before any step — `price_plan(current)`, bitwise.
    pub initial_cost: f64,
    /// Unit workload cost after the last step — `price_plan(target)`,
    /// bitwise.
    pub final_cost: f64,
    /// `Σ wave duration × unit cost during that wave` — the cumulative
    /// cost of the workload while the migration is in flight.
    pub interim_cost: f64,
    /// `interim_cost − duration × final_cost`: the regret integral, what
    /// the migration's *ordering* cost on top of the unavoidable
    /// steady-state floor. This is the number deployment order moves.
    pub interim_excess: f64,
}

/// One selected piece of one path's arm: its index, its subpath rank, and
/// the path's query share under it — the adopted memo value.
#[derive(Debug, Clone, Copy)]
struct Piece {
    index: u32,
    rank: u32,
    query: f64,
}

/// A path's arm: a range of the planner's piece table.
type Arm = (u32, u32);

/// One path mid-migration: the arm it runs and the arm it is headed to,
/// with the ledger's query subtotal of each. A departed path keeps its
/// place as a switched path with two empty arms.
#[derive(Debug, Clone, Copy)]
struct PathArm {
    id: PathId,
    current: Arm,
    target: Arm,
    current_query: f64,
    target_query: f64,
    /// `true` once every target piece is built and the path switched.
    switched: bool,
    departed: bool,
    /// Target pieces whose index is not built.
    missing: u32,
}

impl PathArm {
    fn new(id: PathId, current: Arm, target: Arm) -> PathArm {
        PathArm {
            id,
            current,
            target,
            current_query: 0.0,
            target_query: 0.0,
            switched: false,
            departed: false,
            missing: 0,
        }
    }

    fn active(&self) -> Arm {
        [self.current, self.target][usize::from(self.switched)]
    }
}

/// One physical index: its captured prices, whether it is built, and how
/// many pieces of the present paths' current, active and target arms cite
/// it.
#[derive(Debug, Clone, Copy, Default)]
struct Index {
    maintenance: f64,
    pages: f64,
    built: bool,
    in_current: u32,
    in_active: u32,
    in_target: u32,
}

impl Index {
    /// Built, and cited by no active arm and no target arm.
    fn droppable(&self) -> bool {
        self.built && self.in_active == 0 && self.in_target == 0
    }
}

/// The steps and switch points a run of waves performed, and its wave.
#[derive(Debug, Default)]
struct Log {
    wave: usize,
    steps: Vec<MigrationStep>,
    switches: Vec<(usize, PathId)>,
}

/// Scheduling mode: the planner's ordering or the naive baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Benefit-per-page path ordering with eager drop-before-build.
    Greedy,
    /// Lexicographic build order, every drop deferred to the end.
    Naive,
}

/// What a capture fixed: each index's durable key and every arm's pieces.
/// Index ids ascend in lexicographic [`IndexKey`] order.
#[derive(Debug, Clone, Default)]
struct Capture {
    keys: Vec<IndexKey>,
    pieces: Vec<Piece>,
}

impl Capture {
    fn arm(&self, (start, end): Arm) -> &[Piece] {
        &self.pieces[start as usize..end as usize]
    }

    /// Logs one step on index `i`.
    fn step(&self, log: &mut Log, action: MigrationAction, i: u32, pages: f64) {
        let (steps, embedded, org) = self.keys[i as usize].clone();
        log.steps.push(MigrationStep {
            wave: log.wave,
            action,
            steps,
            embedded,
            org,
            pages,
        });
    }
}

/// The distinct indexes an arm cites, in first-citation order.
fn distinct(arm: &[Piece]) -> impl Iterator<Item = u32> + '_ {
    let first = |&(k, pc): &(usize, &Piece)| arm[..k].iter().all(|q| q.index != pc.index);
    arm.iter().enumerate().filter(first).map(|(_, pc)| pc.index)
}

/// What the wave engine advances: `schedule` runs on a copy, `advance` in place.
#[derive(Debug, Clone)]
struct State {
    paths: Vec<PathArm>,
    indexes: Vec<Index>,
    /// Maintenance of every built index, in the ledger's summation order.
    maintenance: Vec<f64>,
}

/// The migration planner: captured `(current, target)` arms per path, the
/// physical index ledger, and the wave engine. See the module docs for
/// the objective and the envelope semantics.
#[derive(Debug, Clone)]
pub struct MigrationPlanner {
    capture: Capture,
    state: State,
    cancelled: u64,
}

impl MigrationPlanner {
    /// Captures a migration from `current` to `target` under `advisor`'s
    /// *present* pricing state (call right after the `reoptimize()` that
    /// produced `target`, so every memo is clean). Both plans must cover
    /// exactly the advisor's live path set.
    ///
    /// The interim costs the planner quotes price the *old* configuration
    /// under the *new* statistics and rates — the true cost of keeping
    /// stale indexes while the migration runs.
    pub fn new(
        advisor: &WorkloadAdvisor<'_>,
        current: &WorkloadPlan,
        target: &WorkloadPlan,
    ) -> Result<MigrationPlanner, MigrationError> {
        let cur = advisor.outcome_order(current).ok_or(PathSetMismatch)?;
        let tgt = advisor.outcome_order(target).ok_or(PathSetMismatch)?;
        let mut interner = Interner::new(advisor);
        let mut paths = Vec::with_capacity(advisor.path_count());
        for (k, p) in advisor.adopted_paths().enumerate() {
            let current = interner.arm(&p, p.pieces(&current.paths[cur[k]]), true)?;
            let target = interner.arm(&p, p.pieces(&target.paths[tgt[k]]), false)?;
            paths.push(PathArm::new(p.id, current, target));
        }
        Ok(interner.finish(paths, 0))
    }

    /// Builds cancelled by path churn so far.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Whether the migration has fully landed: every path switched to its
    /// target arm and no stale index remains built.
    pub fn is_complete(&self) -> bool {
        let st = &self.state;
        !st.has_unbuilt() && st.indexes.iter().all(|i| !i.built || i.in_target > 0)
    }

    /// The unit workload cost of the planner's present interim state:
    /// every path's active arm's query shares plus the maintenance of
    /// every *built* index, once — through the advisor's ledger fold, so a
    /// state where every path runs one plan consistently prices bit-equal
    /// to [`WorkloadAdvisor::price_plan`] on that plan, and to the plan's
    /// own `total_cost` when this advisor quoted it.
    pub fn current_cost(&self) -> f64 {
        self.state.cost()
    }

    /// The planner's schedule: benefit-per-page ordering with the
    /// drop-before-build repair. Pure — the planner is not advanced; use
    /// [`MigrationPlanner::advance`] to actually walk the migration.
    pub fn schedule(
        &self,
        envelope: MigrationEnvelope,
    ) -> Result<MigrationSchedule, MigrationError> {
        self.run(envelope, Mode::Greedy)
    }

    /// The naive baseline: builds in lexicographic physical-key order,
    /// every drop deferred until all builds land. Same wave machinery and
    /// the same pricing, so [`MigrationSchedule::interim_excess`] is
    /// directly comparable with [`MigrationPlanner::schedule`] — the
    /// difference is purely the ordering.
    pub fn naive_schedule(
        &self,
        envelope: MigrationEnvelope,
    ) -> Result<MigrationSchedule, MigrationError> {
        self.run(envelope, Mode::Naive)
    }

    fn run(
        &self,
        envelope: MigrationEnvelope,
        mode: Mode,
    ) -> Result<MigrationSchedule, MigrationError> {
        if envelope.concurrent_builds == 0 {
            return Err(MigrationError::ZeroConcurrency);
        }
        let (cap, mut sim, mut log) = (&self.capture, self.state.clone(), Log::default());
        let initial_cost = sim.cost();
        let (mut duration, mut interim_cost) = (0.0f64, 0.0f64);
        loop {
            sim.settle(cap, mode == Mode::Greedy, &mut log);
            if !sim.has_unbuilt() {
                if mode == Mode::Naive {
                    sim.drop_idle(cap, &mut log);
                }
                break;
            }
            let unit_before = sim.cost();
            let chosen = sim.pick_builds(cap, envelope, mode)?;
            let wave_pages = chosen.iter().map(|&i| sim.indexes[i as usize].pages);
            let wave_pages = wave_pages.fold(0.0, f64::max);
            interim_cost += wave_pages * unit_before;
            duration += wave_pages;
            sim.build(cap, chosen, &mut log);
            log.wave += 1;
        }
        let final_cost = sim.cost();
        let steps = &log.steps;
        let built = || steps.iter().filter(|s| s.action == MigrationAction::Build);
        let builds = built().count();
        let build_pages = built().fold(0.0, |pages, s| pages + s.pages);
        let drops = steps.len() - builds;
        Ok(MigrationSchedule {
            steps: log.steps,
            switches: log.switches,
            waves: log.wave,
            builds,
            drops,
            cancelled: self.cancelled,
            build_pages,
            duration,
            initial_cost,
            final_cost,
            interim_cost,
            interim_excess: interim_cost - duration * final_cost,
        })
    }

    /// Advances the live migration by one wave under the planner's own
    /// ordering: wave-start switches and eager drops, then up to
    /// `concurrent_builds` builds marked built. Returns the steps the wave
    /// performed, or `None` when the migration is already complete. A
    /// driver alternates `advance` with tuner epochs and calls
    /// [`MigrationPlanner::retarget`] when a retune moves the target.
    ///
    /// An `Err` leaves the planner as it was: when no build fits the
    /// envelope, the wave's switches and drops are not applied either, so
    /// every step the planner takes is one an `Ok` reported.
    pub fn advance(
        &mut self,
        envelope: MigrationEnvelope,
    ) -> Result<Option<Vec<MigrationStep>>, MigrationError> {
        if envelope.concurrent_builds == 0 {
            return Err(MigrationError::ZeroConcurrency);
        }
        let (cap, mut next, mut log) = (&self.capture, self.state.clone(), Log::default());
        next.settle(cap, true, &mut log);
        if next.has_unbuilt() {
            let chosen = next.pick_builds(cap, envelope, Mode::Greedy)?;
            next.build(cap, chosen, &mut log);
        }
        self.state = next;
        Ok((!log.steps.is_empty()).then_some(log.steps))
    }

    /// Re-targets a half-run migration after the workload moved under it:
    /// re-syncs the path set against `advisor` and re-prices every arm
    /// under its present memos (call right after the `reoptimize()` that
    /// produced `target`). Built indexes are carried across by their
    /// durable [`IndexKey`] — what is physically on disk does not change
    /// because the optimizer changed its mind. A refused plan leaves the
    /// planner as it was.
    ///
    /// * A **switched** path's current arm becomes its old target (that is
    ///   what it runs now); an unswitched path keeps its old current arm.
    /// * A **departed** path cancels its scheduled-but-unbuilt builds
    ///   (counted in [`MigrationPlanner::cancelled`]) unless another
    ///   path's new target still needs them; its built indexes stay until
    ///   the eager drop pass collects them.
    /// * An **arriving** path is adopted at its target arm directly
    ///   (`current = target`) — it has no deployed old configuration to
    ///   price, so it contributes no interim switch of its own. Its
    ///   missing indexes are scheduled like any other build.
    pub fn retarget(
        &mut self,
        advisor: &WorkloadAdvisor<'_>,
        target: &WorkloadPlan,
    ) -> Result<(), MigrationError> {
        let tgt = advisor.outcome_order(target).ok_or(PathSetMismatch)?;
        let (old, prior) = (&self.capture, &self.state);
        let mut interner = Interner::new(advisor);
        let mut paths = Vec::with_capacity(advisor.path_count());
        // Both path lists ascend by handle: a merge pairs them up.
        let mut olds = prior.paths.iter().filter(|p| !p.departed).peekable();
        let mut departed: Vec<&PathArm> = Vec::new();
        for (k, p) in advisor.adopted_paths().enumerate() {
            let target = interner.arm(&p, p.pieces(&target.paths[tgt[k]]), false)?;
            departed.extend(std::iter::from_fn(|| olds.next_if(|q| q.id < p.id)));
            let current = match olds.next_if(|q| q.id == p.id) {
                Some(prev) => {
                    let running = old.arm(prev.active()).iter();
                    let org = |pc: &Piece| old.keys[pc.index as usize].2;
                    interner.arm(&p, running.map(|pc| (pc.rank as usize, org(pc))), false)?
                }
                None => target,
            };
            paths.push(PathArm::new(p.id, current, target));
        }
        departed.extend(olds);
        // Carry the built set across by durable key; re-captured entries
        // keep the freshly-captured prices, stale built leftovers keep
        // their old ones (they only live until the next eager drop).
        for (key, index) in old.keys.iter().zip(&prior.indexes) {
            if index.built {
                interner.carry(key, index);
            }
        }
        // Departed paths cancel the unbuilt builds no new arm cites, each
        // once per departed path that wanted it.
        let wanted = departed.iter().flat_map(|q| distinct(old.arm(q.target)));
        let unbuilt = wanted.filter(|&i| !prior.indexes[i as usize].built);
        let cancelled = unbuilt.filter(|&i| interner.find(&old.keys[i as usize]).1.is_none());
        let cancelled = cancelled.count() as u64;
        *self = interner.finish(paths, self.cancelled + cancelled);
        Ok(())
    }

    /// Removes a departing path mid-migration (mirror of
    /// [`WorkloadAdvisor::remove_path`]): its scheduled-but-unbuilt builds
    /// are cancelled unless another path's arm still cites them, its
    /// built indexes stay until the eager drop pass collects them. Returns
    /// the number of builds cancelled. Unknown handles are a no-op.
    pub fn remove_path(&mut self, id: PathId) -> usize {
        let (cap, st) = (&self.capture, &mut self.state);
        let Ok(at) = st.paths.binary_search_by_key(&id, |p| p.id) else {
            return 0;
        };
        let p = st.paths[at];
        let gone = &mut st.paths[at];
        (gone.current, gone.target, gone.missing) = ((0, 0), (0, 0), 0);
        (gone.switched, gone.departed) = (true, true);
        for pc in cap.arm(p.current) {
            st.indexes[pc.index as usize].in_current -= 1;
            st.indexes[pc.index as usize].in_active -= u32::from(!p.switched);
        }
        for pc in cap.arm(p.target) {
            st.indexes[pc.index as usize].in_target -= 1;
            st.indexes[pc.index as usize].in_active -= u32::from(p.switched);
        }
        let cancelled = distinct(cap.arm(p.target)).filter(|&i| {
            let index = &st.indexes[i as usize];
            !index.built && index.in_current == 0 && index.in_target == 0
        });
        let cancelled = cancelled.count();
        self.cancelled += cancelled as u64;
        cancelled
    }
}

/// Interns the indexes a capture's arms cite, each once: by its
/// candidate's dense slot ([`ledger::slot`]), or by durable key among the
/// few with no live candidate.
struct Interner<'a, 'b> {
    advisor: &'a WorkloadAdvisor<'b>,
    by_slot: Vec<Option<u32>>,
    keyed: Vec<u32>,
    capture: Capture,
    indexes: Vec<Index>,
}

impl<'a, 'b> Interner<'a, 'b> {
    fn new(advisor: &'a WorkloadAdvisor<'b>) -> Self {
        Interner {
            advisor,
            by_slot: vec![None; ledger::slots(advisor.candidate_space())],
            keyed: Vec::new(),
            capture: Capture::default(),
            indexes: Vec::new(),
        }
    }

    /// Captures one arm of path `p`, pricing it from the adopted memos (a
    /// candidate absent or not fully priced takes `what_if`'s standalone
    /// arm); `mark_built` records its indexes as deployed.
    fn arm(
        &mut self,
        p: &AdoptedPath<'_>,
        pieces: impl Iterator<Item = (usize, Org)>,
        mark_built: bool,
    ) -> Result<Arm, MigrationError> {
        let start = self.capture.pieces.len() as u32;
        for (rank, org) in pieces {
            let shares = p.shares.ok_or(PathSetMismatch)?;
            let interned = p.cands[rank].and_then(|cand| self.by_slot[ledger::slot((cand, org))]);
            let index = interned.unwrap_or_else(|| self.intern(p, rank, org));
            self.indexes[index as usize].built |= mark_built;
            let (rank, query) = (rank as u32, shares[rank][org.index()]);
            self.capture.pieces.push(Piece { index, rank, query });
        }
        Ok((start, self.capture.pieces.len() as u32))
    }

    /// The index of `org` over rank `rank` of `p`, interned on first sight
    /// (a mined-out rank may be interned already, through another path).
    fn intern(&mut self, p: &AdoptedPath<'_>, rank: usize, org: Org) -> u32 {
        let (n, sub) = (p.path.len(), SubpathId::from_rank(p.path.len(), rank));
        let key: IndexKey = (p.path.step_keys(sub), sub.end < n, org);
        let (cand, found) = self.find(&key);
        if let Some(index) = found {
            return index;
        }
        let prices = cand.and_then(|cand| self.advisor.adopted_prices(cand));
        let (maintenance, pages) = prices.unwrap_or_else(|| {
            let report = self.advisor.what_if(p.path, sub);
            (report.maintenance, report.size_pages)
        });
        self.add(key, cand, (maintenance[org.index()], pages[org.index()]))
    }

    /// The live candidate of `key`, and the index it is interned as.
    fn find(&self, key: &IndexKey) -> (Option<CandidateId>, Option<u32>) {
        let cand = self.advisor.candidate_space().find(&key.0, key.1);
        let (keys, mut keyed) = (&self.capture.keys, self.keyed.iter().copied());
        let slotted = |cand| self.by_slot[ledger::slot((cand, key.2))];
        let index = cand.map_or_else(|| keyed.find(|&i| keys[i as usize] == *key), slotted);
        (cand, index)
    }

    /// Interns `key` as an unbuilt index nothing cites yet.
    fn add(&mut self, key: IndexKey, cand: Option<CandidateId>, prices: (f64, f64)) -> u32 {
        let id = self.capture.keys.len() as u32;
        match cand {
            Some(cand) => self.by_slot[ledger::slot((cand, key.2))] = Some(id),
            None => self.keyed.push(id),
        }
        self.capture.keys.push(key);
        let mut index = Index::default();
        (index.maintenance, index.pages) = prices;
        self.indexes.push(index);
        id
    }

    /// Carries an index built under the previous capture across: marks it
    /// built if re-captured, else keeps it as a stale built leftover.
    fn carry(&mut self, key: &IndexKey, old: &Index) {
        let index = match self.find(key) {
            (_, Some(index)) => index,
            (cand, None) => self.add(key.clone(), cand, (old.maintenance, old.pages)),
        };
        self.indexes[index as usize].built = true;
    }

    /// Numbers the indexes in key order and counts every captured
    /// (unswitched) arm's citations, once.
    fn finish(self, mut paths: Vec<PathArm>, cancelled: u64) -> MigrationPlanner {
        let mut keyed: Vec<(IndexKey, u32)> = self.capture.keys.into_iter().zip(0..).collect();
        keyed.sort_unstable();
        let (keys, order): (Vec<IndexKey>, Vec<u32>) = keyed.into_iter().unzip();
        let mut renumber = vec![0; order.len()];
        for (id, &old) in (0..).zip(&order) {
            renumber[old as usize] = id;
        }
        let mut pieces = self.capture.pieces;
        for pc in &mut pieces {
            pc.index = renumber[pc.index as usize];
        }
        let capture = Capture { keys, pieces };
        let mut indexes: Vec<Index> = order
            .iter()
            .map(|&old| self.indexes[old as usize])
            .collect();
        for p in &mut paths {
            let arm = |arm| capture.arm(arm).iter();
            for pc in arm(p.current) {
                indexes[pc.index as usize].in_current += 1;
                indexes[pc.index as usize].in_active += 1;
            }
            for pc in arm(p.target) {
                indexes[pc.index as usize].in_target += 1;
                p.missing += u32::from(!indexes[pc.index as usize].built);
            }
            p.current_query = ledger::subtotal(arm(p.current).map(|pc| pc.query));
            p.target_query = ledger::subtotal(arm(p.target).map(|pc| pc.query));
        }
        let built = indexes.iter().filter(|i| i.built);
        let maintenance = ledger::sorted(built.map(|i| i.maintenance).collect());
        let state = State {
            paths,
            indexes,
            maintenance,
        };
        MigrationPlanner {
            capture,
            state,
            cancelled,
        }
    }
}

impl State {
    /// The ledger fold of the active arms' query subtotals and the built
    /// indexes' maintenance.
    fn cost(&self) -> f64 {
        let present = self.paths.iter().filter(|p| !p.departed);
        let query = present.map(|p| [p.current_query, p.target_query][usize::from(p.switched)]);
        ledger::objective(query, self.maintenance.iter().copied())
    }

    /// Whether some path still misses a target piece.
    fn has_unbuilt(&self) -> bool {
        self.paths.iter().any(|p| p.missing > 0)
    }

    /// Marks a wave's `chosen` indexes built, one `Build` step each, and
    /// recounts what the incomplete paths miss.
    fn build(&mut self, cap: &Capture, chosen: Vec<u32>, log: &mut Log) {
        for i in chosen {
            let index = &mut self.indexes[i as usize];
            index.built = true;
            ledger::insert_sorted(&mut self.maintenance, index.maintenance);
            cap.step(log, MigrationAction::Build, i, index.pages);
        }
        let indexes = &self.indexes;
        for p in self.paths.iter_mut().filter(|p| p.missing > 0) {
            let unbuilt = cap.arm(p.target).iter();
            let unbuilt = unbuilt.filter(|pc| !indexes[pc.index as usize].built);
            p.missing = unbuilt.count() as u32;
        }
    }

    /// Instantaneous wave-start transitions: switch every path whose
    /// target pieces are all built; when `eager`, then drop every built
    /// index no active arm and no target arm references. That is the
    /// fixpoint: switching frees indexes, but dropping one enables no
    /// switch and frees no other index.
    fn settle(&mut self, cap: &Capture, eager: bool, log: &mut Log) {
        for at in 0..self.paths.len() {
            let p = self.paths[at];
            if p.switched || p.missing > 0 {
                continue;
            }
            self.paths[at].switched = true;
            for pc in cap.arm(p.target) {
                self.indexes[pc.index as usize].in_active += 1;
            }
            for pc in cap.arm(p.current) {
                self.indexes[pc.index as usize].in_active -= 1;
            }
            log.switches.push((log.wave, p.id));
        }
        if eager {
            self.drop_idle(cap, log);
        }
    }

    /// Drops every droppable index, in key order.
    fn drop_idle(&mut self, cap: &Capture, log: &mut Log) {
        for (i, index) in (0..).zip(&mut self.indexes) {
            if index.droppable() {
                index.built = false;
                ledger::remove_sorted(&mut self.maintenance, index.maintenance);
                cap.step(log, MigrationAction::Drop, i, index.pages);
            }
        }
    }

    /// Distinct target indexes not yet built, in lexicographic key order.
    fn unbuilt_targets(&self, cap: &Capture) -> Vec<u32> {
        let incomplete = self.paths.iter().filter(|p| p.missing > 0);
        let cited = incomplete.flat_map(|p| cap.arm(p.target).iter().map(|pc| pc.index));
        let mut unbuilt: Vec<u32> = cited.filter(|&i| !self.indexes[i as usize].built).collect();
        unbuilt.sort_unstable();
        unbuilt.dedup();
        unbuilt
    }

    /// Pages of every built index, summed in key order as the ledger once
    /// iterated them.
    fn live_pages(&self) -> f64 {
        let built = self.indexes.iter().filter(|i| i.built);
        built.map(|i| i.pages).sum()
    }

    /// Packs the next wave: up to `concurrent_builds` unbuilt indexes
    /// that fit the space envelope, in benefit-per-page path order
    /// (greedy) or lexicographic key order (naive). Errs with
    /// `SpaceExceeded` when nothing fits — the caller's drops already ran,
    /// so there is nothing left to repair with.
    fn pick_builds(
        &self,
        cap: &Capture,
        envelope: MigrationEnvelope,
        mode: Mode,
    ) -> Result<Vec<u32>, MigrationError> {
        let live_pages = self.live_pages();
        let targets = |at: usize| distinct(cap.arm(self.paths[at].target));
        let ordered: Vec<u32> = match mode {
            Mode::Naive => self.unbuilt_targets(cap),
            Mode::Greedy => self
                .ranked_paths(cap)
                .into_iter()
                .flat_map(targets)
                .collect(),
        };
        // An index that did not fit when first offered fits no better
        // later: the wave only grows.
        let mut chosen: Vec<u32> = Vec::new();
        let mut chosen_pages = 0.0f64;
        for i in ordered {
            if chosen.len() == envelope.concurrent_builds {
                break;
            }
            let index = &self.indexes[i as usize];
            if index.built || chosen.contains(&i) {
                continue;
            }
            if live_pages + chosen_pages + index.pages <= envelope.space_pages {
                chosen_pages += index.pages;
                chosen.push(i);
            }
        }
        if chosen.is_empty() {
            let unbuilt = self.unbuilt_targets(cap);
            let smallest = unbuilt.iter().map(|&i| self.indexes[i as usize].pages);
            let smallest = smallest.fold(f64::INFINITY, f64::min);
            return Err(MigrationError::SpaceExceeded {
                need: live_pages + smallest,
                envelope: envelope.space_pages,
            });
        }
        Ok(chosen)
    }

    /// Unswitched paths with unbuilt target pieces, ranked by the benefit
    /// their switch buys per page their missing builds cost: query saving
    /// `(current − target)` plus the maintenance of every index their
    /// switch would free, over the pages still to build. Ties break by
    /// `PathId` ascending, so the order is fully deterministic.
    fn ranked_paths(&self, cap: &Capture) -> Vec<usize> {
        let mut scored: Vec<(f64, usize)> = Vec::new();
        for (at, p) in self.paths.iter().enumerate() {
            if p.switched || p.missing == 0 {
                continue;
            }
            let unbuilt = distinct(cap.arm(p.target)).map(|i| self.indexes[i as usize]);
            let unbuilt = unbuilt.filter(|index| !index.built);
            let pages = unbuilt.fold(0.0f64, |pages, index| pages + index.pages);
            if pages == 0.0 {
                continue; // settles instantly at the next wave start
            }
            let cur_q: f64 = cap.arm(p.current).iter().map(|pc| pc.query).sum();
            let tgt_q: f64 = cap.arm(p.target).iter().map(|pc| pc.query).sum();
            let freed = self.freed_by_switch(cap, at);
            scored.push(((cur_q - tgt_q + freed) / pages, at));
        }
        scored.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| self.paths[a.1].id.cmp(&self.paths[b.1].id))
        });
        scored.into_iter().map(|(_, at)| at).collect()
    }

    /// Maintenance freed if path `at` switched now: its current-arm
    /// indexes that are built and that no other active arm and no target
    /// arm references — exactly what the eager drop pass would then
    /// collect.
    fn freed_by_switch(&self, cap: &Capture, at: usize) -> f64 {
        let p = &self.paths[at];
        let own = |i: u32| cap.arm(p.active()).iter().filter(|q| q.index == i).count() as u32;
        let current = distinct(cap.arm(p.current)).map(|i| (i, &self.indexes[i as usize]));
        let freed = current.filter(|&(i, x)| x.built && x.in_target == 0 && x.in_active <= own(i));
        freed.fold(0.0, |freed, (_, index)| freed + index.maintenance)
    }
}

#[cfg(test)]
mod tests;
