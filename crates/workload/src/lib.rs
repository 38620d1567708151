//! The workload model of Choenni et al. (ICDE 1994), Section 3.2.
//!
//! The load on a path is distributed over the involved classes: for each
//! class in the scope, a triplet `(α, β, γ)` gives the frequency of queries
//! against the ending attribute with respect to that class, and the
//! frequencies of insertions and deletions on the class.
//!
//! * [`LoadDistribution`] — `LD_{A_n}(scope(P))`, including the paper's
//!   Figure 7 values for Example 5.1.
//! * [`SubpathLoad`] / [`derive_subpath_load`] — the derived load on a
//!   subpath: native triplets for its own positions, the folded upstream
//!   query mass (charged as whole-hierarchy traversals, DESIGN.md §5.8) and
//!   the boundary deletion mass that drives the Section 4 `CMD` term.
//! * [`ops`] — abstract operation streams sampled from a load distribution,
//!   consumed by the `oic-sim` executor.
//! * [`capture`] — the observed direction: weighted query/update event
//!   streams, replayable logs, and decayed per-class / per-path rate
//!   estimation feeding the advisor's online tuning loop (DESIGN.md §5.16).
//! * [`mining`] — frequent-subpath mining over captured or estimated query
//!   mass: the Apriori-style admission layer that decides which candidate
//!   subpaths the optimizer prices at all (DESIGN.md §5.17).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
mod derive;
mod load;
pub mod mining;
pub mod ops;

pub use capture::{
    CaptureError, EstimatorConfig, EventLog, LogEntry, PathKey, RateEstimator, WorkloadEvent,
    MAX_CLASS_INDEX,
};
pub use derive::{derive_subpath_load, SubpathLoad};
pub use load::{example51_load, LoadDistribution, Triplet};
pub use mining::{MiningOutcome, MiningPolicy};
