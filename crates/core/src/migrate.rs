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
//! identity, not by recyclable [`CandidateId`](crate::CandidateId)s), and
//! [`MigrationPlanner::remove_path`] cancels scheduled-but-unbuilt builds
//! a departing path no longer justifies.

use crate::space::CandidateStep;
use crate::workload_advisor::{ledger, PathId, WorkloadAdvisor, WorkloadPlan};
use crate::Choice;
use oic_cost::Org;
use oic_schema::SubpathId;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Durable physical identity of one index: the step sequence, the
/// embedded-vs-terminal role, and the organization. Unlike
/// [`CandidateId`](crate::CandidateId) (recycled when the last owning path
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

/// One selected piece of one path's arm, with its captured prices.
#[derive(Debug, Clone)]
struct Piece {
    sub: SubpathId,
    org: Org,
    key: IndexKey,
    /// The path's query share under this piece — the adopted memo value.
    query: f64,
}

/// One path mid-migration: the arm it runs and the arm it is headed to.
#[derive(Debug, Clone)]
struct PathArm {
    id: PathId,
    current: Vec<Piece>,
    target: Vec<Piece>,
    /// `true` once every target piece is built and the path switched.
    switched: bool,
}

impl PathArm {
    fn active(&self) -> &[Piece] {
        if self.switched {
            &self.target
        } else {
            &self.current
        }
    }
}

/// Captured prices of one physical index.
#[derive(Debug, Clone)]
struct IndexInfo {
    maintenance: f64,
    pages: f64,
    built: bool,
}

/// Scheduling mode: the planner's ordering or the naive baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Benefit-per-page path ordering with eager drop-before-build.
    Greedy,
    /// Lexicographic build order, every drop deferred to the end.
    Naive,
}

/// The migration planner: captured `(current, target)` arms per path, the
/// physical index ledger, and the wave engine. See the module docs for
/// the objective and the envelope semantics.
#[derive(Debug, Clone)]
pub struct MigrationPlanner {
    paths: Vec<PathArm>,
    indexes: BTreeMap<IndexKey, IndexInfo>,
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
        if current.paths.len() != advisor.path_count() || target.paths.len() != advisor.path_count()
        {
            return Err(MigrationError::PathSetMismatch);
        }
        let cur_by_id: HashMap<PathId, usize> = current
            .paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p.id, i))
            .collect();
        let tgt_by_id: HashMap<PathId, usize> = target
            .paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p.id, i))
            .collect();
        let mut indexes = BTreeMap::new();
        let mut paths = Vec::with_capacity(advisor.path_count());
        for id in advisor.path_ids().collect::<Vec<_>>() {
            let cur = *cur_by_id.get(&id).ok_or(MigrationError::PathSetMismatch)?;
            let tgt = *tgt_by_id.get(&id).ok_or(MigrationError::PathSetMismatch)?;
            let current_arm = Self::capture_arm(
                advisor,
                id,
                &selection_of(&current.paths[cur].selection),
                &mut indexes,
                true,
            )?;
            let target_arm = Self::capture_arm(
                advisor,
                id,
                &selection_of(&target.paths[tgt].selection),
                &mut indexes,
                false,
            )?;
            paths.push(PathArm {
                id,
                current: current_arm,
                target: target_arm,
                switched: false,
            });
        }
        Ok(MigrationPlanner {
            paths,
            indexes,
            cancelled: 0,
        })
    }

    /// Prices one arm of one path through the memo machinery: query shares
    /// from the adopted query-cost memos, maintenance and footprint from
    /// the adopted candidate memos — the numbers
    /// [`WorkloadAdvisor::what_if`] reports, read without its subscriber
    /// scan (one per piece made capture quadratic in the path count);
    /// a candidate that is absent or not fully priced takes `what_if`'s
    /// standalone arm. `mark_built` records the arm's indexes as
    /// physically present (the deployed current arms).
    fn capture_arm(
        advisor: &WorkloadAdvisor<'_>,
        id: PathId,
        arm: &[(SubpathId, Org)],
        indexes: &mut BTreeMap<IndexKey, IndexInfo>,
        mark_built: bool,
    ) -> Result<Vec<Piece>, MigrationError> {
        let path = advisor.path(id).ok_or(MigrationError::PathSetMismatch)?;
        let n = path.len();
        let mut pieces = Vec::with_capacity(arm.len());
        for &(sub, org) in arm {
            let steps = path.step_keys(sub);
            let embedded = sub.end < n;
            let key: IndexKey = (steps, embedded, org);
            let query = advisor
                .query_share(id, sub, org)
                .ok_or(MigrationError::PathSetMismatch)?;
            let entry = indexes.entry(key.clone()).or_insert_with(|| {
                let (maintenance, pages) = advisor
                    .candidate_space()
                    .find(&key.0, embedded)
                    .and_then(|cand| advisor.adopted_prices(cand))
                    .unwrap_or_else(|| {
                        let report = advisor.what_if(path, sub);
                        (report.maintenance, report.size_pages)
                    });
                IndexInfo {
                    maintenance: maintenance[org.index()],
                    pages: pages[org.index()],
                    built: false,
                }
            });
            if mark_built {
                entry.built = true;
            }
            pieces.push(Piece {
                sub,
                org,
                key,
                query,
            });
        }
        Ok(pieces)
    }

    /// Builds cancelled by path churn so far.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Whether the migration has fully landed: every path switched to its
    /// target arm and no stale index remains built.
    pub fn is_complete(&self) -> bool {
        let targets: BTreeSet<&IndexKey> = self
            .paths
            .iter()
            .flat_map(|p| p.target.iter().map(|pc| &pc.key))
            .collect();
        self.paths
            .iter()
            .all(|p| p.target.iter().all(|pc| self.indexes[&pc.key].built))
            && self
                .indexes
                .iter()
                .all(|(k, i)| !i.built || targets.contains(k))
    }

    /// The unit workload cost of the planner's present interim state:
    /// every path's active arm's query shares plus the maintenance of
    /// every *built* index, once — through the advisor's ledger fold, so a
    /// state where every path runs one plan consistently prices bit-equal
    /// to [`WorkloadAdvisor::price_plan`] on that plan, and to the plan's
    /// own `total_cost` when this advisor quoted it.
    pub fn current_cost(&self) -> f64 {
        let built = self.indexes.values().filter(|i| i.built);
        let maintenance = ledger::sorted(built.map(|i| i.maintenance).collect());
        let query = |p: &PathArm| ledger::subtotal(p.active().iter().map(|piece| piece.query));
        ledger::objective(self.paths.iter().map(query), maintenance.into_iter())
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
        let mut sim = self.clone();
        let initial_cost = sim.current_cost();
        let mut steps = Vec::new();
        let mut switches = Vec::new();
        let mut wave = 0usize;
        let mut duration = 0.0f64;
        let mut interim_cost = 0.0f64;
        loop {
            sim.settle(mode == Mode::Greedy, wave, &mut steps, &mut switches);
            if sim.unbuilt_targets().is_empty() {
                if mode == Mode::Naive {
                    sim.drop_stale(wave, &mut steps);
                }
                break;
            }
            let unit_before = sim.current_cost();
            let chosen = sim.pick_builds(envelope, mode)?;
            let wave_pages = chosen
                .iter()
                .map(|k| sim.indexes[k].pages)
                .fold(0.0, f64::max);
            interim_cost += wave_pages * unit_before;
            duration += wave_pages;
            sim.build(chosen, wave, &mut steps);
            wave += 1;
        }
        let final_cost = sim.current_cost();
        let built = || steps.iter().filter(|s| s.action == MigrationAction::Build);
        let builds = built().count();
        let build_pages = built().fold(0.0, |pages, s| pages + s.pages);
        let drops = steps.len() - builds;
        Ok(MigrationSchedule {
            steps,
            switches,
            waves: wave,
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
    pub fn advance(
        &mut self,
        envelope: MigrationEnvelope,
    ) -> Result<Option<Vec<MigrationStep>>, MigrationError> {
        if envelope.concurrent_builds == 0 {
            return Err(MigrationError::ZeroConcurrency);
        }
        let mut steps = Vec::new();
        let mut switches = Vec::new();
        self.settle(true, 0, &mut steps, &mut switches);
        if self.unbuilt_targets().is_empty() {
            return Ok(if steps.is_empty() { None } else { Some(steps) });
        }
        let chosen = self.pick_builds(envelope, Mode::Greedy)?;
        self.build(chosen, 0, &mut steps);
        Ok(Some(steps))
    }

    /// Re-targets a half-run migration after the workload moved under it:
    /// re-syncs the path set against `advisor` and re-prices every arm
    /// under its present memos (call right after the `reoptimize()` that
    /// produced `target`). Built indexes are carried across by their
    /// durable [`IndexKey`] — what is physically on disk does not change
    /// because the optimizer changed its mind.
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
        if target.paths.len() != advisor.path_count() {
            return Err(MigrationError::PathSetMismatch);
        }
        let tgt_by_id: HashMap<PathId, usize> = target
            .paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p.id, i))
            .collect();
        let mut old_paths: HashMap<PathId, PathArm> =
            self.paths.drain(..).map(|p| (p.id, p)).collect();
        let old_indexes = std::mem::take(&mut self.indexes);
        let mut indexes = BTreeMap::new();
        let mut paths = Vec::with_capacity(advisor.path_count());
        for id in advisor.path_ids().collect::<Vec<_>>() {
            let t = *tgt_by_id.get(&id).ok_or(MigrationError::PathSetMismatch)?;
            let target_sel = selection_of(&target.paths[t].selection);
            let target_arm = Self::capture_arm(advisor, id, &target_sel, &mut indexes, false)?;
            let (current_arm, switched) = match old_paths.remove(&id) {
                Some(prev) => {
                    let running = if prev.switched {
                        prev.target
                    } else {
                        prev.current
                    };
                    let sel: Vec<(SubpathId, Org)> =
                        running.iter().map(|pc| (pc.sub, pc.org)).collect();
                    (
                        Self::capture_arm(advisor, id, &sel, &mut indexes, false)?,
                        false,
                    )
                }
                None => (target_arm.clone(), false),
            };
            paths.push(PathArm {
                id,
                current: current_arm,
                target: target_arm,
                switched,
            });
        }
        // Carry the built set across by durable key; re-captured entries
        // keep the freshly-captured prices, stale built leftovers keep
        // their old ones (they only live until the next eager drop).
        for (key, old) in old_indexes {
            if !old.built {
                continue;
            }
            indexes
                .entry(key)
                .and_modify(|e| e.built = true)
                .or_insert(IndexInfo { built: true, ..old });
        }
        // Departed paths cancel the unbuilt builds nobody else wants.
        self.cancelled += Self::cancel_departed(&mut indexes, &paths, old_paths.values()) as u64;
        self.paths = paths;
        self.indexes = indexes;
        Ok(())
    }

    /// Removes a departing path mid-migration (mirror of
    /// [`WorkloadAdvisor::remove_path`]): its scheduled-but-unbuilt builds
    /// are cancelled unless another path's target still needs them, its
    /// built indexes stay until the eager drop pass collects them. Returns
    /// the number of builds cancelled. Unknown handles are a no-op.
    pub fn remove_path(&mut self, id: PathId) -> usize {
        let Some(pos) = self.paths.iter().position(|p| p.id == id) else {
            return 0;
        };
        let departed = self.paths.remove(pos);
        let cancelled = Self::cancel_departed(&mut self.indexes, &self.paths, [&departed]);
        self.cancelled += cancelled as u64;
        cancelled
    }

    /// Un-ledgers each departed path's unbuilt target indexes that no arm
    /// of a `remaining` path references, and returns how many it cancelled
    /// (an index counts once per departed path that wanted it).
    fn cancel_departed<'p>(
        indexes: &mut BTreeMap<IndexKey, IndexInfo>,
        remaining: &[PathArm],
        departed: impl IntoIterator<Item = &'p PathArm>,
    ) -> usize {
        let needed: BTreeSet<&IndexKey> = remaining
            .iter()
            .flat_map(|p| p.target.iter().chain(p.current.iter()).map(|pc| &pc.key))
            .collect();
        let mut cancelled = 0;
        for prev in departed {
            let mut seen = BTreeSet::new();
            for piece in &prev.target {
                let unbuilt = !indexes.get(&piece.key).is_some_and(|i| i.built);
                if unbuilt && !needed.contains(&piece.key) && seen.insert(&piece.key) {
                    indexes.remove(&piece.key);
                    cancelled += 1;
                }
            }
        }
        cancelled
    }

    // ---- wave engine ------------------------------------------------------

    /// Marks a wave's `chosen` keys built, one `Build` step each.
    fn build(&mut self, chosen: Vec<IndexKey>, wave: usize, steps: &mut Vec<MigrationStep>) {
        for key in chosen {
            let info = self.indexes.get_mut(&key).expect("chosen key is ledgered");
            info.built = true;
            steps.push(step(wave, MigrationAction::Build, key, info.pages));
        }
    }

    /// Instantaneous wave-start transitions to fixpoint: switch every path
    /// whose target pieces are all built; when `eager`, drop every built
    /// index no active arm and no target arm references (switching frees
    /// indexes, so the two interleave until quiescent).
    fn settle(
        &mut self,
        eager: bool,
        wave: usize,
        steps: &mut Vec<MigrationStep>,
        switches: &mut Vec<(usize, PathId)>,
    ) {
        loop {
            let mut changed = false;
            let ready: Vec<usize> = self
                .paths
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    !p.switched && p.target.iter().all(|pc| self.indexes[&pc.key].built)
                })
                .map(|(i, _)| i)
                .collect();
            for i in ready {
                self.paths[i].switched = true;
                switches.push((wave, self.paths[i].id));
                changed = true;
            }
            if eager {
                for key in self.droppable() {
                    let info = self.indexes.remove(&key).expect("droppable is ledgered");
                    steps.push(step(wave, MigrationAction::Drop, key, info.pages));
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Built indexes no active arm and no target arm references.
    fn droppable(&self) -> Vec<IndexKey> {
        let referenced: BTreeSet<&IndexKey> = self
            .paths
            .iter()
            .flat_map(|p| p.active().iter().chain(p.target.iter()).map(|pc| &pc.key))
            .collect();
        self.indexes
            .iter()
            .filter(|(k, i)| i.built && !referenced.contains(k))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Terminal drop pass of the naive baseline: everything built that no
    /// target references goes at once, after the last build.
    fn drop_stale(&mut self, wave: usize, steps: &mut Vec<MigrationStep>) {
        let targets: BTreeSet<&IndexKey> = self
            .paths
            .iter()
            .flat_map(|p| p.target.iter().map(|pc| &pc.key))
            .collect();
        let stale: Vec<IndexKey> = self
            .indexes
            .iter()
            .filter(|(k, i)| i.built && !targets.contains(k))
            .map(|(k, _)| k.clone())
            .collect();
        for key in stale {
            let info = self.indexes.remove(&key).expect("stale is ledgered");
            steps.push(step(wave, MigrationAction::Drop, key, info.pages));
        }
    }

    /// Distinct target keys not yet built, in lexicographic order.
    fn unbuilt_targets(&self) -> Vec<IndexKey> {
        let mut out = BTreeSet::new();
        for p in &self.paths {
            for piece in &p.target {
                if !self.indexes[&piece.key].built {
                    out.insert(piece.key.clone());
                }
            }
        }
        out.into_iter().collect()
    }

    /// Packs the next wave: up to `concurrent_builds` unbuilt keys that
    /// fit the space envelope, in benefit-per-page path order (greedy) or
    /// lexicographic key order (naive). Errs with `SpaceExceeded` when
    /// nothing fits — the caller's drops already ran, so there is nothing
    /// left to repair with.
    fn pick_builds(
        &self,
        envelope: MigrationEnvelope,
        mode: Mode,
    ) -> Result<Vec<IndexKey>, MigrationError> {
        let live_pages: f64 = self
            .indexes
            .values()
            .filter(|i| i.built)
            .map(|i| i.pages)
            .sum();
        let ordered: Vec<IndexKey> = match mode {
            Mode::Naive => self.unbuilt_targets(),
            Mode::Greedy => {
                let mut out = Vec::new();
                for i in self.ranked_paths() {
                    for piece in &self.paths[i].target {
                        if !self.indexes[&piece.key].built && !out.contains(&piece.key) {
                            out.push(piece.key.clone());
                        }
                    }
                }
                out
            }
        };
        let mut chosen: Vec<IndexKey> = Vec::new();
        let mut chosen_pages = 0.0f64;
        for key in ordered {
            if chosen.len() == envelope.concurrent_builds {
                break;
            }
            if chosen.contains(&key) {
                continue;
            }
            let pages = self.indexes[&key].pages;
            if live_pages + chosen_pages + pages <= envelope.space_pages {
                chosen_pages += pages;
                chosen.push(key);
            }
        }
        if chosen.is_empty() {
            let smallest = self
                .unbuilt_targets()
                .iter()
                .map(|k| self.indexes[k].pages)
                .fold(f64::INFINITY, f64::min);
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
    fn ranked_paths(&self) -> Vec<usize> {
        let mut scored: Vec<(f64, usize)> = Vec::new();
        for (i, p) in self.paths.iter().enumerate() {
            if p.switched {
                continue;
            }
            let mut pages = 0.0f64;
            let mut missing = BTreeSet::new();
            for piece in &p.target {
                if !self.indexes[&piece.key].built && missing.insert(&piece.key) {
                    pages += self.indexes[&piece.key].pages;
                }
            }
            if pages == 0.0 {
                continue; // settles instantly at the next wave start
            }
            let cur_q: f64 = p.current.iter().map(|pc| pc.query).sum();
            let tgt_q: f64 = p.target.iter().map(|pc| pc.query).sum();
            let freed = self.freed_by_switch(i);
            scored.push(((cur_q - tgt_q + freed) / pages, i));
        }
        scored.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| self.paths[a.1].id.cmp(&self.paths[b.1].id))
        });
        scored.into_iter().map(|(_, i)| i).collect()
    }

    /// Maintenance freed if path `i` switched now: its current-arm indexes
    /// that are built and that no other active arm and no target arm
    /// references — exactly what the eager drop pass would then collect.
    fn freed_by_switch(&self, i: usize) -> f64 {
        let referenced: BTreeSet<&IndexKey> = self
            .paths
            .iter()
            .enumerate()
            .flat_map(|(j, p)| {
                let active = if j == i { &[][..] } else { p.active() };
                active.iter().chain(p.target.iter()).map(|pc| &pc.key)
            })
            .collect();
        let mut freed = 0.0;
        let mut seen = BTreeSet::new();
        for piece in &self.paths[i].current {
            if referenced.contains(&piece.key) || !seen.insert(&piece.key) {
                continue;
            }
            if let Some(info) = self.indexes.get(&piece.key) {
                if info.built {
                    freed += info.maintenance;
                }
            }
        }
        freed
    }
}

/// One schedule step on the index `key`.
fn step(wave: usize, action: MigrationAction, key: IndexKey, pages: f64) -> MigrationStep {
    let (steps, embedded, org) = key;
    MigrationStep {
        wave,
        action,
        steps,
        embedded,
        org,
        pages,
    }
}

/// The `(subpath, organization)` pieces of a selection, in its own order
/// (no-index choices never appear at workload scale; skipped defensively).
fn selection_of(config: &crate::IndexConfiguration) -> Vec<(SubpathId, Org)> {
    config
        .pairs()
        .iter()
        .filter_map(|&(sub, choice)| match choice {
            Choice::Index(org) => Some((sub, org)),
            Choice::NoIndex => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
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
            .indexes
            .values()
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
}
