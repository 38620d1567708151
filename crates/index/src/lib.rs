//! The index organizations of Choenni et al. (ICDE 1994), Section 2.2,
//! implemented over the real page-counting B+-tree substrate:
//!
//! * [`MultiIndex`] — MX and MIX, one type with two [`Grouping`]s: per
//!   path position, an index on the position's attribute for each class
//!   (MX, each a SIX) or for the whole inheritance hierarchy (MIX, an IIX).
//!   A SIX is the IIX over one class, so one crate-private inherited index
//!   serves both;
//! * [`NestedInheritedIndex`] (NIX) — a primary index on the ending
//!   attribute over the whole scope plus an auxiliary parent index
//!   (Figures 3–5), with the paper's insertion/deletion algorithms
//!   (Section 3.1, steps 1–4).
//!
//! All organizations implement [`PathIndex`]: equality lookups against the
//! (sub)path's ending attribute and maintenance on object insertion and
//! deletion — including the record removal in the *preceding* index when an
//! object of the ending attribute's domain dies (the measured counterpart
//! of the Section 4 `CMD` term).
//!
//! [`NaivePathEvaluator`] answers the same queries with no index at all by
//! scanning and navigating forward references — the paper's motivating
//! “very expensive” baseline (Section 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod iix;
mod mx;
mod naive;
mod nix;
mod segment;
#[cfg(test)]
pub(crate) mod testutil;
mod traits;

pub use mx::{Grouping, MultiIndex};
pub use naive::NaivePathEvaluator;
pub use nix::NestedInheritedIndex;
pub use segment::Segment;
pub use traits::PathIndex;
