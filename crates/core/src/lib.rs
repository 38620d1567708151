//! Optimal index-configuration selection (Sections 4–5 of Choenni et al.,
//! ICDE 1994) — the paper's primary contribution.
//!
//! Pipeline:
//!
//! 1. [`pc::processing_cost`] — the processing cost of one subpath under one
//!    organization: searching costs for the derived workload plus
//!    maintenance, including the Section 4 cross-subpath deletion term
//!    `CMD` (Definition 4.2). Costs are additive across the subpaths of a
//!    configuration (Propositions 4.1/4.2).
//! 2. [`CostMatrix`] — the `Cost_Matrix` procedure: all `n(n+1)/2` subpaths
//!    × the three organizations (Figure 6's layout), with `Min_Cost` row
//!    minima.
//! 3. [`select::opt_ind_con`] — the `Opt_Ind_Con` procedure: branch-and-
//!    bound over the `2^(n-1)` recombinations, counting evaluated
//!    configurations; [`select::opt_ind_con_dp`] — the `O(n²·|Org|)`
//!    interval dynamic program computing the same optimum in polynomial
//!    time; [`select::frontier_dp`] — its two-objective generalization,
//!    carrying `(cost, size)` Pareto label sets through the same recurrence
//!    so selection can answer *"cheapest within a page budget"*;
//!    [`select::exhaustive`] is the brute-force baseline used for
//!    verification and for the complexity experiment.
//! 4. Section 6 extensions: a *no-index* choice per subpath
//!    ([`Advisor::allow_no_index`], a fourth matrix column that
//!    `Opt_Ind_Con` may pick); the paper's other open question, index
//!    configurations for n paths at once, is item 5.
//! 5. Workload scale: [`space::CandidateSpace`] interns physical subpath
//!    candidates across paths (refcounted, with class-keyed invalidation);
//!    [`workload_advisor::WorkloadAdvisor`] is an online engine selecting
//!    configurations for hundreds of paths at once, pricing each shared
//!    physical index's maintenance exactly once during selection, and
//!    re-optimizing incrementally as paths arrive/depart and statistics
//!    drift (`add_path`/`remove_path`/`update_stats`/`update_rates` +
//!    `reoptimize`).
//! 6. Online tuning: [`tuner::OnlineTuner`] closes the loop from *captured*
//!    traffic (`oic_workload::capture`) to the advisor — decayed rate
//!    estimation, a drift-triggered `reoptimize()`, and a
//!    [`workload_advisor::WorkloadAdvisor::what_if`] API pricing a
//!    hypothetical candidate without adopting it (DESIGN.md §5.16).
//! 7. Migration planning: [`migrate::MigrationPlanner`] turns a
//!    `(current, target)` plan pair into an ordered build/drop schedule
//!    under a concurrency-and-space envelope, every interim state priced
//!    bit-consistently with `price_plan` (DESIGN.md §5.18).
//!
//! [`fig6`] reproduces the paper's hypothetical walkthrough matrix;
//! [`Advisor`] is the one-call user-facing API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advisor;
mod config;
pub mod fig6;
mod matrix;
pub mod migrate;
pub mod pc;
pub mod select;
mod shard;
pub mod space;
pub mod trace;
pub mod tuner;
pub mod workload_advisor;

pub use advisor::{Advisor, Recommendation};
pub use config::{Choice, IndexConfiguration};
pub use matrix::CostMatrix;
pub use migrate::{
    IndexKey, MigrationAction, MigrationEnvelope, MigrationError, MigrationPlanner,
    MigrationSchedule, MigrationStep,
};
pub use select::{
    candidate_space_size, exhaustive, exhaustive_frontier, frontier_dp, opt_ind_con,
    opt_ind_con_dp, prune_dominated, FrontierPoint, FrontierResult, SelectionResult,
};
pub use space::{CandidateId, CandidateSpace, CandidateStep};
pub use trace::{opt_ind_con_traced, TraceEvent};
pub use tuner::{OnlineTuner, TuningPolicy};
pub use workload_advisor::{
    BudgetedWorkloadPlan, PathId, PathOutcome, SharedIndexOutcome, WhatIfReport, WhatIfSubscriber,
    WorkloadAdvisor, WorkloadPlan,
};
