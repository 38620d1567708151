//! Disk-style B+-tree with chained leaves and overflow records.
//!
//! All index organizations of Choenni et al. (ICDE 1994) assume indices
//! “organized as B+-trees \[whose\] leaf nodes are chained” (Section 3.1).
//! Non-leaf records are `(attribute value, pointer)` pairs; leaf nodes hold
//! the index records, and an index record may occupy **more than one page**
//! (NIX primary records and inherited-index records routinely do). This
//! crate provides exactly that structure:
//!
//! * keys are opaque ordered byte strings (see `oic_storage::encode_key`);
//! * an index *record* is a key plus a posting list of opaque entries,
//!   held as the one byte run [`record_len`] prices and read in
//!   place through visitors (DESIGN.md §5.9);
//! * records longer than a page live in a dedicated overflow chain of
//!   `⌈ln/p⌉` pages, and partial reads count only the pages actually
//!   containing the requested entries (the paper's `pr_X < ⌈ln/p⌉` case);
//! * every node visit is accounted against the backing
//!   [`SimStore`](oic_storage::SimStore), so a descent costs `h` page
//!   reads for in-page records and `h − 1 + pr` for spanning records —
//!   matching the paper's `CRL`.
//!
//! Node payloads are materialized in memory (this is a cost-model
//! validation substrate, not a durable engine); capacity and split decisions
//! are made against the real byte sizes of keys and entries, so heights,
//! leaf counts and level profiles are those of a genuine disk tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod layout;
mod node;
pub mod paged;
mod slotted;
mod tree;

pub use layout::{
    chain_pages, node_capacity, record_len, CHILD_PTR, ENTRY_OVERHEAD, NODE_HEADER, RECORD_OVERHEAD,
};
pub use node::LevelProfile;
pub use paged::PagedBTree;
pub use tree::BTreeIndex;
