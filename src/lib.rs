//! # oo-index-config
//!
//! A reproduction of **“On the Selection of Optimal Index Configuration in
//! OO Databases”** (R.S. Choenni, E. Bertino, H.M. Blanken, T. Chang,
//! *ICDE 1994*): given a path through an object-oriented database's
//! aggregation hierarchy and the workload on its classes, select the
//! cheapest way to index it — splitting the path into subpaths and
//! allocating the best of the MX/MIX/NIX organizations to each.
//!
//! The workspace is re-exported here as a facade:
//!
//! * [`schema`] — classes, inheritance/aggregation hierarchies, paths;
//! * [`storage`] — oids, typed values, the page-access-counting store,
//!   the one-class-per-page object heap, and the [`storage::paged`]
//!   `PageStore` trait the durable stack is generic over;
//! * [`pager`] — durable paged storage: the file-backed pager (header
//!   page, freelist, undo-journal commits) with an LRU page cache, plus
//!   the crash-injection harness;
//! * [`btree`] — the chained-leaf B+-tree with overflow records, and its
//!   durable twin [`btree::PagedBTree`], whose nodes are slotted
//!   `PageStore` pages read and edited in place;
//! * [`index`] — real MX/MIX (one multi-index over per-class SIX or
//!   per-hierarchy IIX trees) and NIX structures and a naive evaluator;
//! * [`cost`] — the analytic page-access model (Yao, `CRL/CML/CRT/CMT`,
//!   per-organization costs, `CMD`);
//! * [`workload`] — load distributions, subpath load derivation, the
//!   capture layer (replayable event logs, decayed rate estimation) behind
//!   the online tuning loop, and the frequent-subpath miner gating
//!   candidate admission;
//! * [`exec`] — the offline-friendly parallel map behind the advisor's
//!   parallel stages: parked workers, one batch at a time per pool, a busy
//!   pool runs the batch inline (bit-identical plans at any lane count);
//! * [`core`] — index configurations, the cost matrix, branch-and-bound and
//!   polynomial-DP selection, the shared candidate space, the workload-scale
//!   advisor (Section 6's "configurations for n paths": one ledger prices
//!   each shared subpath index once, and quotes, re-prices and migrates to
//!   the same number), and the Section 6 no-index extension;
//! * [`sim`] — synthetic databases, synthetic multi-path workloads, and the
//!   analytic-vs-measured validation.
//!
//! Quickstart and tours: `README.md`, whose `rust` blocks run as this crate's doctests.

#![cfg_attr(doctest, doc = include_str!("../README.md"))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use oic_btree as btree;
pub use oic_core as core;
pub use oic_cost as cost;
pub use oic_exec as exec;
pub use oic_index as index;
pub use oic_pager as pager;
pub use oic_schema as schema;
pub use oic_sim as sim;
pub use oic_storage as storage;
pub use oic_workload as workload;

/// Most-used types in one import.
pub mod prelude {
    pub use oic_btree::PagedBTree;
    pub use oic_core::{
        exhaustive, exhaustive_frontier, frontier_dp, opt_ind_con, opt_ind_con_dp, Advisor,
        BudgetedWorkloadPlan, CandidateId, CandidateSpace, Choice, CostMatrix, FrontierPoint,
        FrontierResult, IndexConfiguration, MigrationAction, MigrationEnvelope, MigrationError,
        MigrationPlanner, MigrationSchedule, MigrationStep, OnlineTuner, PathId, Recommendation,
        SelectionResult, TuningPolicy, WhatIfReport, WorkloadAdvisor, WorkloadPlan,
    };
    pub use oic_cost::{ClassStats, CostModel, CostParams, Org, PathCharacteristics};
    pub use oic_exec::Executor;
    pub use oic_pager::{FilePager, MemPager};
    pub use oic_schema::{
        AtomicType, Attribute, Cardinality, ClassId, Path, PathSignature, Schema, SchemaBuilder,
        SubpathId,
    };
    pub use oic_storage::{MemStore, Oid, Value};
    pub use oic_workload::{
        CaptureError, EstimatorConfig, EventLog, LoadDistribution, MiningOutcome, MiningPolicy,
        PathKey, RateEstimator, Triplet, WorkloadEvent,
    };
}
