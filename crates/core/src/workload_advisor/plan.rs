//! The advisor's answer: [`WorkloadPlan`] and its outcomes, assembled
//! from per-path selections through the ledger, with the bit-identity
//! asserts and the human-readable report.

use super::ledger::{Holders, Ledger, Pair};
use super::pricing::installed;
use super::state::PathState;
use super::{PathId, Selection, WorkloadAdvisor};
use crate::space::CandidateId;
use crate::{Choice, IndexConfiguration};
use oic_cost::Org;
use oic_schema::{Path, Schema};
use std::sync::Arc;

/// One path's outcome in a [`WorkloadPlan`].
#[derive(Debug, Clone)]
pub struct PathOutcome {
    /// The advisor handle of the path.
    pub id: PathId,
    /// The path — the advisor's own copy, shared, so a plan over N paths
    /// holds N pointers rather than N copies of the workload. It stays
    /// valid after the advisor drops the path.
    pub path: Arc<Path>,
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

impl WorkloadAdvisor<'_> {
    /// The ledger of per-path `selections` (one per live path, in path
    /// order) under the installed prices.
    pub(super) fn ledger(&self, selections: &[Selection]) -> Ledger {
        let pieces = self.paths.iter().zip(selections);
        Ledger::new(&self.space, pieces.map(|(st, sel)| st.pieces(sel)))
    }

    /// Assembles a [`WorkloadPlan`] from per-path selections — `None`
    /// for each path's current one — from scratch: a fresh ledger, query
    /// shares per path, each distinct physical index's maintenance **and
    /// footprint** exactly once, a fresh configuration per path, and fresh
    /// holders of every index for the shared ones. Epoch telemetry
    /// fields are zeroed; the caller fills them. The budgeted selection
    /// assembles its plans here; [`Self::reoptimize`] assembles the same
    /// plan from the state it keeps ([`Self::adopted_plan`]).
    pub(super) fn assemble_plan(
        &self,
        selections: Option<&[Selection]>,
        independent_cost: f64,
    ) -> WorkloadPlan {
        let sel = |i: usize| selections.map_or(&self.paths[i].selection, |s| &s[i]);
        let pieces = || {
            self.paths
                .iter()
                .enumerate()
                .map(|(i, st)| st.pieces(sel(i)))
        };
        let ledger = Ledger::new(&self.space, pieces());
        let holders = Holders::new(&self.space, 2, pieces());
        let shared = holders
            .listed()
            .map(|(pair, owners)| self.shared_index(pair, owners.to_vec()));
        let shared = shared.collect();
        let config = |i: usize| configuration(&self.paths[i], sel(i));
        self.plan_of(&ledger, config, shared, independent_cost)
    }

    /// The plan of the paths' current selections from what the advisor
    /// keeps across epochs: the adopted ledger, each path's configuration
    /// — shared with the plans that reported it before — and the holders
    /// of each index. Bit for bit [`Self::assemble_plan`]`(None, ..)`.
    pub(super) fn adopted_plan(&self, independent_cost: f64) -> WorkloadPlan {
        let config = |i: usize| {
            let st = &self.paths[i];
            let cites = st
                .selection
                .iter()
                .map(|&(sub, org)| (sub, Choice::Index(org)));
            debug_assert!(
                st.configuration.pairs().iter().copied().eq(cites),
                "every adopted selection has its configuration"
            );
            st.configuration.clone()
        };
        let shared = self
            .holders
            .listed()
            .map(|(pair, holders)| self.shared_index(pair, holders.to_vec()));
        self.plan_of(&self.ledger, config, shared.collect(), independent_cost)
    }

    /// The shared index `pair` of a plan, held by `owners`.
    fn shared_index(&self, (candidate, org): Pair, owners: Vec<usize>) -> SharedIndexOutcome {
        let maintenance = installed(&self.space, (candidate, org)).0;
        SharedIndexOutcome {
            candidate,
            org,
            saving: maintenance * (owners.len() - 1) as f64,
            owners,
            maintenance,
        }
    }

    /// The plan of the per-path selections registered in `ledger`, each
    /// reported as `config`, with the `shared` indexes, ascending by slot.
    fn plan_of(
        &self,
        ledger: &Ledger,
        config: impl Fn(usize) -> IndexConfiguration,
        mut shared: Vec<SharedIndexOutcome>,
        independent_cost: f64,
    ) -> WorkloadPlan {
        let outcomes = self.paths.iter().enumerate().map(|(i, st)| PathOutcome {
            id: st.id,
            path: Arc::clone(&st.path),
            selection: config(i),
            query_cost: ledger.query(i),
            standalone_cost: st.standalone.as_ref().expect("phase 2 filled it").1,
        });
        // Candidate ids depend on interning history (recycled slots), so a
        // warm advisor and its cold rebuild may disagree on them; order by
        // history-independent keys to keep plans comparable.
        shared.sort_by(|a, b| {
            (&a.owners, a.org).cmp(&(&b.owners, b.org)).then_with(|| {
                self.space
                    .steps(a.candidate)
                    .cmp(self.space.steps(b.candidate))
            })
        });
        let (total_cost, size_pages) = ledger.totals();
        WorkloadPlan {
            paths: outcomes.collect(),
            shared,
            independent_cost,
            total_cost,
            size_pages,
            physical_indexes: ledger.distinct(),
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
}

/// The configuration a plan reports for `sel`, a selection of `st`.
pub(super) fn configuration(st: &PathState, sel: &Selection) -> IndexConfiguration {
    let pairs = sel.iter().map(|&(sub, org)| (sub, Choice::Index(org)));
    IndexConfiguration::collect(pairs, st.path.len())
        .expect("DP selections concatenate to the full path")
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
        let counters = |p: &WorkloadPlan| {
            [
                ("sweeps", p.sweeps as u64),
                ("repriced paths", p.repriced_paths as u64),
                ("epoch pricings", p.epoch_pricings),
                ("cumulative pricings", p.maintenance_pricings),
                ("dp runs", p.dp_runs),
                ("dp memo hits", p.dp_memo_hits),
                ("candidates pruned", p.candidates_pruned),
                ("speculation skips", p.speculation_skips),
                ("candidates mined out", p.candidates_mined_out),
                ("cells skipped", p.cells_skipped),
                ("λ-pruned cells", p.lambda_pruned),
            ]
        };
        for ((what, a), (_, b)) in counters(self).into_iter().zip(counters(other)) {
            assert_eq!(a, b, "{ctx}: {what}");
        }
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
        for (what, a, b) in [
            ("total_cost", self.total_cost, other.total_cost),
            (
                "independent_cost",
                self.independent_cost,
                other.independent_cost,
            ),
            ("size_pages", self.size_pages, other.size_pages),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: {what} {a} vs {b}");
        }
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
    use super::super::tests::Churn;
    use super::*;
    use oic_schema::fixtures;

    /// Through seeded arrivals, departures (which move the later paths up a
    /// place), re-minings, statistics, update-rate and query-rate churn, at
    /// lanes {1, 2}, every epoch's plan — assembled from the ledger and the
    /// configurations the advisor keeps across epochs — is the plan a fresh
    /// ledger assembles from scratch over the same selections, bit for bit:
    /// totals, every outcome and query share, the shared list. It is also the
    /// cold rebuild's plan, its independent cost is the path-order fold of
    /// the standalone costs, and its mined-out count a fresh recount. An
    /// outcome whose path's selection did not move shares its configuration
    /// with the previous plan; one whose selection moved gets a new one.
    #[test]
    fn the_kept_plan_equals_a_fresh_assembly_through_churn() {
        let (schema, _) = fixtures::paper_schema();
        let bits = |x: f64| x.to_bits();
        for lanes in [1, 2] {
            let mut churn = Churn::new(&schema);
            let mut adv = churn.advisor().with_threads(lanes);
            let (mut epochs, mut reused, mut rebuilt) = (0, 0, 0);
            let mut last: Option<WorkloadPlan> = None;
            for step in 0..300 {
                churn.step(&mut adv);
                if churn.next(3) != 0 {
                    continue;
                }
                let plan = adv.reoptimize();
                let ctx = format!("lanes {lanes}, step {step}");
                let fresh = adv.assemble_plan(None, plan.independent_cost);
                let totals = |p: &WorkloadPlan| [p.total_cost, p.size_pages].map(bits);
                assert_eq!(totals(&plan), totals(&fresh), "{ctx}");
                assert_eq!(plan.physical_indexes, fresh.physical_indexes, "{ctx}");
                assert_eq!(plan.paths.len(), fresh.paths.len(), "{ctx}");
                for (a, b) in plan.paths.iter().zip(&fresh.paths) {
                    assert_eq!(a.id, b.id, "{ctx}");
                    assert_eq!(a.selection, b.selection, "{ctx}: path {:?}", a.id);
                    assert_eq!(bits(a.query_cost), bits(b.query_cost), "{ctx}");
                    assert_eq!(bits(a.standalone_cost), bits(b.standalone_cost), "{ctx}");
                }
                let shared = |p: &WorkloadPlan| -> Vec<_> {
                    let entry = |s: &SharedIndexOutcome| {
                        let prices = [s.maintenance, s.saving].map(bits);
                        (s.candidate, s.org, s.owners.clone(), prices)
                    };
                    p.shared.iter().map(entry).collect()
                };
                assert_eq!(shared(&plan), shared(&fresh), "{ctx}");
                let standalone = plan.paths.iter().map(|p| p.standalone_cost);
                assert_eq!(
                    bits(plan.independent_cost),
                    bits(standalone.sum::<f64>()),
                    "{ctx}"
                );
                let mined_out = adv
                    .paths
                    .iter()
                    .map(|st| st.cands.len() - st.live_cands.len());
                assert_eq!(
                    plan.candidates_mined_out,
                    mined_out.sum::<usize>() as u64,
                    "{ctx}"
                );
                // The cold rebuild: its handles and candidate ids are its own.
                let cold = adv.rebuild().optimize();
                let costs = |p: &WorkloadPlan| [p.total_cost, p.size_pages, p.independent_cost];
                assert_eq!(costs(&plan).map(bits), costs(&cold).map(bits), "{ctx}");
                for (a, b) in plan.paths.iter().zip(&cold.paths) {
                    assert_eq!(a.selection, b.selection, "{ctx}");
                    assert_eq!(bits(a.query_cost), bits(b.query_cost), "{ctx}");
                }
                let owners = |p: &WorkloadPlan| -> Vec<_> {
                    let entry = |s: &SharedIndexOutcome| (s.org, s.owners.clone(), bits(s.saving));
                    p.shared.iter().map(entry).collect()
                };
                assert_eq!(owners(&plan), owners(&cold), "{ctx}");
                // An epoch with nothing to do reports every configuration
                // again, shared, not copied.
                let again = adv.reoptimize();
                for (a, b) in again.paths.iter().zip(&plan.paths) {
                    let (a, b) = (a.selection.pairs(), b.selection.pairs());
                    assert!(
                        std::ptr::eq(a, b),
                        "{ctx}: a clean epoch copied a configuration"
                    );
                }
                // Across the churn, a configuration is shared while its path's
                // selection stays and rebuilt when it moves.
                if let Some(last) = &last {
                    for now in &plan.paths {
                        let Ok(k) = last.paths.binary_search_by_key(&now.id, |p| p.id) else {
                            continue;
                        };
                        let (a, b) = (now.selection.pairs(), last.paths[k].selection.pairs());
                        if std::ptr::eq(a, b) {
                            reused += 1;
                        } else if a != b {
                            rebuilt += 1;
                        }
                    }
                }
                last = Some(plan);
                epochs += 1;
            }
            assert!(
                epochs > 50 && reused > 100 && rebuilt > 10,
                "{epochs} epochs, {reused} reused, {rebuilt} rebuilt"
            );
        }
    }
}
