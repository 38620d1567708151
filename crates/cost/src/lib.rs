//! Analytic page-access cost model of Choenni et al. (ICDE 1994), Section 3.
//!
//! Everything here computes *expected page accesses* — the paper's only cost
//! factor — from database characteristics (`n`, `d`, `nin` per class) and
//! physical parameters (page size, oid/pointer widths). The crate provides:
//!
//! * [`yao::npa`] — Yao's block-access estimate (Comm. ACM 1977), the
//!   workhorse of `CRT`/`CMT`;
//! * [`primitives`] — the paper's four index-record cost functions `CRL`,
//!   `CML`, `CRT`, `CMT`, plus the auxiliary-index rewrite cost `CRR`;
//! * [`est`] — B+-tree statistics estimation (record length `ln`, leaf pages
//!   `pl`, height `h`, per-level `(n_k, p_k)` profile), reconstructing the
//!   procedure the paper defers to its companion report \[7\];
//! * [`characteristics`] — per-class statistics along a path, including the
//!   paper's Figure 7 values for Example 5.1;
//! * [`derived`] — the derived quantities of Table 2: `k`, `noid`/`noid⁺`,
//!   `par`, `nin̄`, `nar`, `narp`;
//! * [`model`] — retrieval and maintenance costs per organization
//!   ([`Org::Mx`], [`Org::Mix`], [`Org::Nix`]) for any subpath, plus the
//!   cross-subpath deletion adjustment `CMD` of Section 4;
//! * [`size`] — physical index footprints in pages, assembled from the same
//!   level profiles, for selection under a storage budget.
//!
//! Reconstruction decisions for OCR-degraded formulas are listed in
//! DESIGN.md §5 and cross-referenced from the relevant functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characteristics;
pub mod derived;
pub mod est;
pub mod invalidation;
pub mod model;
mod org;
mod params;
pub mod primitives;
pub mod size;
pub mod yao;

pub use characteristics::{ClassStats, PathCharacteristics};
pub use model::CostModel;
pub use org::Org;
pub use params::{
    CostParams, CLASS_DIR_LEN, ENTRY_OVERHEAD, KEY_LEN, NODE_HEADER, NUMCHILD_LEN, OBJ_LEN,
    OID_LEN, PTR_LEN, RECORD_OVERHEAD,
};

// The workload advisor's parallel stages (`oic_core`, DESIGN.md §5.13)
// share priced models and characteristics across worker threads by
// reference. That is sound because every memo in this crate is either
// filled at construction or a `OnceLock` of a pure function of the model
// (the cost model's leaf terms and NIX walks), and these assertions keep
// it that way: adding a `Cell`/`RefCell` lazy cache to any of these types
// is a compile error here, pointing at this contract instead of at a
// distant auto-trait failure in `oic_core`.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    const fn pricing_path_is_shareable() {
        assert_sync_send::<CostModel<'_>>();
        assert_sync_send::<PathCharacteristics>();
        assert_sync_send::<ClassStats>();
        assert_sync_send::<CostParams>();
        assert_sync_send::<Org>();
    }
    _ = pricing_path_is_shareable;
};
