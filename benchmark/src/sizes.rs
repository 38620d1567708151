//! The four workloads: one loop, four size vectors.
//!
//! Every workload runs the **same** loop — advise → readvise → deploy-plan →
//! budget → drift epochs → execute on real indexes → paged lookups — so
//! every metric is measured on every workload. What differs is which phase
//! gets the large input; the other phases run on the small one. A change
//! that helps a phase at scale shows on the workload that enlarges it, and
//! the other three say whether the small case paid for it.

/// Shape of a synthetic advisor input (`oic_sim::workload_gen`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvisorInput {
    /// `synth_forest`: disjoint class trees, many candidate-sharing
    /// components — the sharded engine's regime.
    Forest {
        /// Disjoint class trees.
        roots: usize,
        /// Paths, round-robin over the trees.
        paths: usize,
        /// Depth of each tree.
        depth: usize,
        /// References per non-leaf class.
        fanout: usize,
    },
    /// `synth_workload`: one class tree, a few large components (three of
    /// ~85 paths at 250 paths, fanout 3).
    Tree {
        /// Paths, all from the root.
        paths: usize,
        /// Depth of the tree.
        depth: usize,
        /// References per non-leaf class.
        fanout: usize,
    },
}

/// Everything one loop iteration is sized by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Input of advise / readvise / deploy-plan.
    pub advise: AdvisorInput,
    /// Independent traffic draws of that input per iteration. The small
    /// input is cheap and its timings vary more from draw to draw than from
    /// run to run, so it is drawn several times.
    pub advise_draws: usize,
    /// Mutation batches per iteration, each followed by `reoptimize()`.
    pub readvise_batches: usize,
    /// How many of those batches are followed by a migration plan.
    pub deploys: usize,
    /// Query-rate vectors redrawn per mutation batch.
    pub batch_queries: usize,
    /// Class statistics (and class rates) changed per mutation batch.
    pub batch_classes: usize,
    /// Input of the three budgeted solves.
    pub budget: AdvisorInput,
    /// Independent traffic draws of that input per iteration (as
    /// `advise_draws`: the small frontier is cheap and one sample of it per
    /// iteration leaves the run's median at the mercy of the host).
    pub budget_draws: usize,
    /// Input of the drift loop.
    pub drift: AdvisorInput,
    /// Epochs per iteration; every third is quiet (traffic, no churn).
    pub epochs: usize,
    /// Capture windows per epoch.
    pub ticks: u64,
    /// Scale of the Figure 7 database (1.0 = 222 000 objects).
    pub exec_scale: f64,
    /// Sampled operations executed per iteration.
    pub exec_ops: usize,
    /// Every `twin_stride`-th query is checked against the NoIndex twin.
    pub twin_stride: usize,
    /// Posting lookups per cache size per iteration.
    pub paged_lookups: usize,
    /// Rounds of (50 overwrites + commit) per iteration.
    pub commit_rounds: usize,
    /// Repeats of the paper pipeline (cost matrix + `Opt_Ind_Con`).
    pub paper_repeats: usize,
}

/// How long one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;
/// Page size of the generated database and of the posting tree's pager.
pub const PAGE_SIZE: usize = 1024;
/// The posting tree's small cache: far below the large tree's footprint.
pub const SMALL_CACHE_PAGES: usize = 64;
/// The posting tree's large cache: every workload's tree fits.
pub const FIT_CACHE_PAGES: usize = 8192;
/// Overwrites per commit round.
pub const OVERWRITES_PER_COMMIT: usize = 50;
/// Budget fractions of the unconstrained footprint.
pub const BUDGET_FRACTIONS: [f64; 3] = [0.25, 0.50, 0.75];
/// Per-epoch churn of the drift loop (the `online_tuning` bench's spec).
pub const CHURN: oic_sim::DriftSpec = oic_sim::DriftSpec {
    arrivals: 6,
    departures: 6,
    stat_drifts: 4,
    rate_drifts: 4,
    query_drifts: 10,
    seed: 0, // replaced by the run's seed
};

const SMALL_TREE: AdvisorInput = AdvisorInput::Tree {
    paths: 48,
    depth: 5,
    fanout: 3,
};
const LARGE_TREE: AdvisorInput = AdvisorInput::Tree {
    paths: 250,
    depth: 5,
    fanout: 3,
};

/// The small size of every phase; each workload enlarges one of them.
const BASE: Sizes = Sizes {
    advise: LARGE_TREE,
    advise_draws: 3,
    readvise_batches: 4,
    deploys: 4,
    batch_queries: 100,
    batch_classes: 8,
    budget: SMALL_TREE,
    budget_draws: 3,
    drift: SMALL_TREE,
    epochs: 15,
    ticks: 16,
    exec_scale: 0.05,
    exec_ops: 4_000,
    twin_stride: 100,
    paged_lookups: 1_000,
    commit_rounds: 5,
    paper_repeats: 200,
};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Large advise input: a 64-component forest.
    ColdForest,
    /// Large drift input and many epochs.
    DriftTree,
    /// Large budget input.
    BudgetTree,
    /// Large database, many operations, posting tree ≫ small cache.
    ExecFig7,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdForest,
        Workload::DriftTree,
        Workload::BudgetTree,
        Workload::ExecFig7,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdForest => "cold_forest_3k",
            Workload::DriftTree => "drift_tree_250",
            Workload::BudgetTree => "budget_tree_250",
            Workload::ExecFig7 => "exec_fig7",
        }
    }

    /// Why the workload exists — the one line `BENCHMARK.json` carries.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdForest => {
                "3000 paths over a 64-tree forest: the sharded engine's many-component regime, where \
                 thread fan-out, warm re-pricing and migration-plan capture do most of the work"
            }
            Workload::DriftTree => {
                "250 paths on one class tree (three large components), 36 drift epochs: the continuous \
                 observe/retune/migrate loop, where capture and the estimator dominate"
            }
            Workload::BudgetTree => {
                "the same 250-path tree under three page budgets: 80 full lambda sweeps plus repair \
                 instead of one descent, the advisor layer used the other way"
            }
            Workload::ExecFig7 => {
                "Example 5.1 at a quarter of the Figure 7 load (55 500 objects), 12 000 operations: the \
                 only place index structures, B-tree and pager work; posting tree 100x its small cache"
            }
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The size vector; `quick` shrinks everything to seconds for tests.
    pub fn sizes(self, quick: bool) -> Sizes {
        if quick {
            return self.quick_sizes();
        }
        match self {
            Workload::ColdForest => Sizes {
                advise: AdvisorInput::Forest {
                    roots: 64,
                    paths: 3_000,
                    depth: 8,
                    fanout: 1,
                },
                advise_draws: 1,
                readvise_batches: 3,
                deploys: 1,
                ..BASE
            },
            Workload::DriftTree => Sizes {
                drift: LARGE_TREE,
                epochs: 36,
                ..BASE
            },
            Workload::BudgetTree => Sizes {
                budget: LARGE_TREE,
                budget_draws: 1,
                ..BASE
            },
            Workload::ExecFig7 => Sizes {
                exec_scale: 0.25,
                exec_ops: 12_000,
                twin_stride: 500,
                paged_lookups: 4_000,
                commit_rounds: 20,
                ..BASE
            },
        }
    }

    fn quick_sizes(self) -> Sizes {
        let tiny = AdvisorInput::Tree {
            paths: 16,
            depth: 4,
            fanout: 2,
        };
        let small = AdvisorInput::Tree {
            paths: 40,
            depth: 4,
            fanout: 3,
        };
        let base = Sizes {
            advise: small,
            advise_draws: 2,
            readvise_batches: 2,
            deploys: 2,
            batch_queries: 10,
            batch_classes: 3,
            budget: tiny,
            budget_draws: 2,
            drift: tiny,
            epochs: 6,
            ticks: 16,
            exec_scale: 0.004,
            exec_ops: 300,
            twin_stride: 25,
            paged_lookups: 100,
            commit_rounds: 2,
            paper_repeats: 10,
        };
        match self {
            Workload::ColdForest => Sizes {
                advise: AdvisorInput::Forest {
                    roots: 8,
                    paths: 120,
                    depth: 6,
                    fanout: 1,
                },
                ..base
            },
            Workload::DriftTree => Sizes {
                drift: small,
                epochs: 12,
                ..base
            },
            Workload::BudgetTree => Sizes {
                budget: small,
                ..base
            },
            Workload::ExecFig7 => Sizes {
                exec_scale: 0.01,
                exec_ops: 1_000,
                paged_lookups: 300,
                ..base
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn each_workload_enlarges_exactly_its_own_phase() {
        let [cold, drift, budget, exec] = Workload::ALL.map(|w| w.sizes(false));
        assert!(matches!(cold.advise, AdvisorInput::Forest { .. }));
        assert_eq!(drift.drift, LARGE_TREE);
        assert_eq!(budget.budget, LARGE_TREE);
        assert!(exec.exec_scale > cold.exec_scale);
        // … and leaves the other phases at the shared small size.
        assert_eq!(cold.budget, SMALL_TREE);
        assert_eq!(cold.drift, SMALL_TREE);
        assert_eq!(drift.budget, SMALL_TREE);
        assert_eq!(budget.drift, SMALL_TREE);
        assert_eq!(exec.advise, drift.advise);
        assert_eq!(drift.exec_scale, budget.exec_scale);
    }
}
