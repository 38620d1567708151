//! Simulation substrate: synthetic databases, a configured-index executor,
//! and the analytic-vs-measured validation harness.
//!
//! The paper's evaluation is purely analytic; this crate closes the loop the
//! paper left to its references by *running* the index organizations of
//! `oic-index` on generated data and comparing observed page accesses (from
//! the counting `SimStore`) against the `oic-cost` predictions:
//!
//! * [`GenSpec`]/[`generate`] — builds a database whose realized statistics
//!   (`n`, `d`, `nin` per class) match a `PathCharacteristics`, bottom-up so
//!   all references are forward and live;
//! * [`ConfiguredDb`] — materializes an [`IndexConfiguration`](oic_core::IndexConfiguration)
//!   (one physical index per subpath) and executes queries, insertions and
//!   deletions across the subpath chain, measuring page accesses per
//!   operation;
//! * [`validate`] — tabulates measured vs predicted costs per organization
//!   and operation type;
//! * [`workload_gen`] — synthetic N-path workloads (class trees, shared
//!   prefixes, per-path query rates) for workload-scale validation, the
//!   scale benches and the whole-loop benchmark;
//! * [`drift`] — epoch-batched workload churn (path arrivals/departures,
//!   statistic drift, rate and query churn) driving the online
//!   `WorkloadAdvisor`'s incremental re-optimization, for the
//!   warm-equals-cold property tests and the whole-loop benchmark.
//!   Its *traffic mode* (`enable_traffic`/`step_traffic`) hides rate drift
//!   from the advisor and emits it as a captured
//!   [`WorkloadEvent`](oic_workload::WorkloadEvent) stream instead, so an
//!   [`OnlineTuner`](oic_core::OnlineTuner) must rediscover the rates from
//!   observation — the closed loop of DESIGN.md §5.16. [`ConfiguredDb`]
//!   can record the same event stream from real executed operations
//!   (`start_capture`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drift;
mod exec;
mod gendb;
pub mod validate;
pub mod workload_gen;

pub use drift::{DriftSim, DriftSpec, EpochChurn};
pub use exec::ConfiguredDb;
pub use gendb::{generate, scale_chars, GenSpec, GeneratedDb};
pub use workload_gen::{synth_forest, synth_workload, ForestSpec, SynthWorkload, WorkloadSpec};
