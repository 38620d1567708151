//! The common interface of all path index organizations.

use crate::Segment;
use oic_btree::BTreeIndex;
use oic_schema::ClassId;
use oic_storage::{Object, Oid, SimStore, Value};

/// A (sub)path index: answers equality lookups against the segment's ending
/// attribute and absorbs object insertions/deletions.
pub trait PathIndex {
    /// The segment this index covers.
    fn segment(&self) -> &Segment;

    /// Oids of `target`-class objects (optionally including subclasses)
    /// whose nested ending-attribute value matches any of `keys`.
    ///
    /// For segments whose ending attribute is a reference, `keys` are the
    /// qualifying child oids delivered by the downstream subpath
    /// (`Value::Ref`); for atomic endings they are the query constants.
    fn lookup(
        &self,
        store: &SimStore,
        keys: &[Value],
        target: ClassId,
        with_subclasses: bool,
    ) -> Vec<Oid>;

    /// Maintains the index for a newly inserted object. Objects outside the
    /// segment's scope are ignored.
    fn on_insert(&mut self, store: &mut SimStore, obj: &Object);

    /// Maintains the index for a deleted object. Handles both scope members
    /// and *boundary* objects (domain of the ending attribute), whose death
    /// removes the record keyed by their oid — the paper's `CMD` effect.
    fn on_delete(&mut self, store: &mut SimStore, obj: &Object);

    /// Total index pages currently allocated (all underlying B-trees).
    fn total_pages(&self) -> u64;
}

/// Helper: deduplicate and sort an oid result set. Posting lists are in
/// insertion order — ascending oids per class — so the input is a few
/// ascending runs, which the run-merging stable sort finishes in about
/// one pass.
pub(crate) fn normalize(mut oids: Vec<Oid>) -> Vec<Oid> {
    oids.sort();
    oids.dedup();
    oids
}

/// Helper: the tree's filtered visitor from a selector and a consumer of
/// the selected entries.
pub(crate) fn selecting<'a>(
    mut pred: impl FnMut(&[u8]) -> bool + 'a,
    mut take: impl FnMut(&[u8]) + 'a,
) -> impl FnMut(&[u8]) -> bool + 'a {
    move |e| {
        let hit = pred(e);
        if hit {
            take(e);
        }
        hit
    }
}

/// Helper: decode an 8-byte posting entry into an oid.
pub(crate) fn entry_to_oid(e: &[u8]) -> Oid {
    let mut b = [0u8; 8];
    b.copy_from_slice(&e[..8]);
    Oid::from_bytes(b)
}

/// Helper: pages allocated by a tree, summed over its level profile.
pub(crate) fn tree_pages(tree: &BTreeIndex) -> u64 {
    tree.level_profile().levels.iter().map(|&(_, p)| p).sum()
}
