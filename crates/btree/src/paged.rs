//! A B+-tree whose nodes are the fixed-size pages of a [`PageStore`].
//!
//! Where [`BTreeIndex`](crate::BTreeIndex) materializes node payloads in
//! memory and *accounts* page touches (the paper's cost-model substrate),
//! [`PagedBTree`] is the durable twin: every node is a page image, every
//! descent step borrows one page from the store, and the tree survives
//! drop/reopen when the store does (its root, height, and record count
//! ride the store's meta blob, committed atomically with the pages). The
//! same type runs over the heap-backed [`MemStore`](oic_storage::MemStore)
//! for tests and over the file-backed `oic-pager` for durability — that
//! polymorphism is what the model-differential harness exploits.
//!
//! ## Nodes are read and edited in the page image
//!
//! The page image is the only node representation (the slotted layout of
//! the `slotted` module). A read borrows it through [`PageStore::page`] —
//! on the pager, the cache frame itself — binary-searches the slot
//! directory in place and hands key and value *slices* to the one read
//! primitive, [`PagedBTree::visit_range`]; `get`, `range` and `scan` are
//! collectors over it that copy only what they return. A write borrows it
//! through [`PageStore::page_mut`] and edits it: slot insert + cell
//! append, an in-place overwrite when the value keeps its length
//! (otherwise remove + insert in the compacted page), a one-pass cell
//! removal. A lookup therefore costs the pages it reads and nothing
//! else: no page copy, no decoded node, no allocation.
//!
//! Leaves are chained both ways through `next`/`prev` (page id 0 is the
//! nil sentinel — the pager's header page can never be a node). An
//! internal node routes `key` to the last separator with `sep ≤ key`, or
//! to `child0` when every separator is greater; a separator is a lower
//! bound for its subtree, and may be *stale-loose* after deletions (less
//! than the subtree's current minimum), which routing tolerates.
//!
//! Splits are by byte size, not record count: a node with no room for a
//! new cell is copied to a scratch image and dealt out again, around the
//! cumulative-size midpoint of its cells *and* the new one, into its own
//! page and a fresh right page. Records are capped at a quarter of a
//! node's payload ([`PagedBTree::max_item`]), so both halves always fit.
//! Deletion frees emptied nodes (pages return to the store's freelist)
//! and collapses single-child roots, but does not rebalance non-empty
//! siblings — the classic lazy scheme: heights only shrink at the root.
//!
//! The format is `OICBT2`; a store holding the decoded-node `OICBT1`
//! layout is refused at [`PagedBTree::open`].

use crate::slotted::{self, child, corrupt, View, INT_CELL, INT_HDR, LEAF_CELL, LEAF_HDR};
use oic_storage::paged::{PageStore, StoreError};
use oic_storage::PageId;

const META_MAGIC: [u8; 8] = *b"OICBT2\0\0";
const META_LEN: usize = 28;

/// An owned key/value record, as returned by [`PagedBTree::range`] and
/// [`PagedBTree::scan`].
pub type Record = (Vec<u8>, Vec<u8>);

/// A separator and the right page it bounds, promoted by a split.
type Promoted = Option<(Vec<u8>, u64)>;

/// A durable B+-tree over any [`PageStore`]; see the module docs.
#[derive(Debug)]
pub struct PagedBTree<S: PageStore> {
    store: S,
    root: u64,
    height: u32,
    count: u64,
    /// The pre-split image of a node being split (page-sized, reused).
    scratch: Vec<u8>,
}

impl<S: PageStore> PagedBTree<S> {
    /// Opens the tree persisted in `store`'s meta blob, or starts an
    /// empty tree if the store carries no meta yet.
    pub fn open(store: S) -> Result<Self, StoreError> {
        let ps = store.page_size();
        if !(64..=usize::from(u16::MAX)).contains(&ps) {
            return Err(StoreError::Invalid(format!(
                "page size {ps} outside the 64..=65535 a slotted node addresses"
            )));
        }
        let mut t = PagedBTree {
            store,
            root: 0,
            height: 0,
            count: 0,
            scratch: vec![0; ps],
        };
        let meta = t.store.meta();
        if meta.is_empty() {
            t.write_meta()?;
        } else if meta.starts_with(b"OICBT1") {
            return Err(corrupt(
                "store holds the retired OICBT1 node format; this build reads OICBT2 only",
            ));
        } else if meta.len() != META_LEN || meta[..8] != META_MAGIC {
            return Err(corrupt("store meta is not a PagedBTree"));
        } else {
            t.root = u64::from_le_bytes(meta[8..16].try_into().expect("8 bytes"));
            t.height = u32::from_le_bytes(meta[16..20].try_into().expect("4 bytes"));
            t.count = u64::from_le_bytes(meta[20..28].try_into().expect("8 bytes"));
        }
        Ok(t)
    }

    /// The backing store (e.g. for [`PageStore::io_stats`]).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the backing store.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consumes the tree, returning the store (meta already up to date).
    pub fn into_store(self) -> S {
        self.store
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the tree holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Tree height in levels (0 = empty, 1 = a single leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Commits the tree (meta and all dirty pages) durably.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        self.store.commit()
    }

    /// Largest `key.len() + value.len()` this tree accepts (a quarter of
    /// a leaf's payload, so splits always succeed; the key alone must
    /// also fit a quarter of an internal node's payload).
    pub fn max_item(&self) -> usize {
        let ps = self.store.page_size();
        let leaf = ((ps - LEAF_HDR) / 4).saturating_sub(LEAF_CELL);
        let key = ((ps - INT_HDR) / 4).saturating_sub(INT_CELL);
        leaf.min(key)
    }

    fn write_meta(&mut self) -> Result<(), StoreError> {
        let mut m = [0u8; META_LEN];
        m[..8].copy_from_slice(&META_MAGIC);
        m[8..16].copy_from_slice(&self.root.to_le_bytes());
        m[16..20].copy_from_slice(&self.height.to_le_bytes());
        m[20..28].copy_from_slice(&self.count.to_le_bytes());
        self.store.set_meta(&m)
    }

    /// Allocates a page and formats it as an empty node.
    fn new_node(&mut self, leaf: bool, links: [u64; 2]) -> Result<(u64, &mut [u8]), StoreError> {
        let page = self.store.alloc()?;
        let img = self.store.page_mut(page)?;
        slotted::init(img, leaf, links);
        Ok((page.0, img))
    }

    // ---- lookup ----------------------------------------------------

    /// Calls `f(key, value)` on every record with `lo ≤ key ≤ hi`, in key
    /// order, until `f` returns `false`: one descent to the start leaf,
    /// then `next` links. The slices borrow the page image — each page on
    /// the way is read once and nothing is copied.
    pub fn visit_range(
        &mut self,
        lo: &[u8],
        hi: &[u8],
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<(), StoreError> {
        self.visit_from(lo, true, |k, v| k <= hi && f(k, v))
    }

    /// [`visit_range`](Self::visit_range) without an upper bound; with
    /// `chain` off it stops at the end of the leaf `lo` routes to (no
    /// later leaf can hold `lo` itself).
    fn visit_from(
        &mut self,
        lo: &[u8],
        chain: bool,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<(), StoreError> {
        let (mut page, mut depth, mut first) = (self.root, self.height, true);
        // A chain can visit every live page once before it must be cyclic.
        let mut leaves_left = self.store.live_pages();
        while page != 0 {
            let node = View::parse(self.store.page(PageId(page))?)?;
            if depth > 1 {
                if node.leaf {
                    return Err(corrupt("leaf above level 1"));
                }
                page = node.route(lo)?.1;
                depth -= 1;
                continue;
            }
            if !node.leaf || leaves_left == 0 {
                return Err(corrupt("leaf chain cycles or links to a non-leaf"));
            }
            leaves_left -= 1;
            // Only the leaf the descent lands on can start mid-node.
            let start = if first { node.bound(lo, false)? } else { 0 };
            first = false;
            for i in start..node.n {
                let (k, v) = node.cell(i)?;
                if !f(k, v) {
                    return Ok(());
                }
            }
            page = if chain { node.link(0) } else { 0 };
        }
        Ok(())
    }

    /// Point lookup.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let mut out = None;
        self.visit_from(key, false, |k, v| {
            out = (k == key).then(|| v.to_vec());
            false
        })?;
        Ok(out)
    }

    /// All records with `lo ≤ key ≤ hi`, in key order.
    pub fn range(&mut self, lo: &[u8], hi: &[u8]) -> Result<Vec<Record>, StoreError> {
        let mut out = Vec::new();
        self.visit_range(lo, hi, |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            true
        })?;
        Ok(out)
    }

    /// Every record in key order (leftmost descent + leaf chain).
    pub fn scan(&mut self) -> Result<Vec<Record>, StoreError> {
        let mut out = Vec::new();
        self.visit_from(&[], true, |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            true
        })?;
        Ok(out)
    }

    // ---- insert ----------------------------------------------------

    /// Inserts (or replaces) a record, returning the previous value.
    pub fn insert(&mut self, key: &[u8], val: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        if key.len() + val.len() > self.max_item() || key.is_empty() {
            return Err(StoreError::Invalid(format!(
                "item of {} bytes exceeds the {}-byte cap (or empty key)",
                key.len() + val.len(),
                self.max_item()
            )));
        }
        let (old, promo) = if self.root == 0 {
            let (page, img) = self.new_node(true, [0, 0])?;
            slotted::push_cell(img, 0, key, val)?;
            (self.root, self.height) = (page, 1);
            (None, None)
        } else {
            self.insert_at(self.root, self.height, key, val)?
        };
        if let Some((sep, right)) = &promo {
            let (page, img) = self.new_node(false, [self.root, 0])?;
            slotted::push_cell(img, 0, sep, &right.to_le_bytes())?;
            self.root = page;
            self.height += 1;
        }
        self.count += u64::from(old.is_none());
        // An overwrite moves neither root, height nor count.
        if old.is_none() || promo.is_some() {
            self.write_meta()?;
        }
        Ok(old)
    }

    /// Recursive insert; returns `(old value, promoted separator)`.
    fn insert_at(
        &mut self,
        page: u64,
        depth: u32,
        key: &[u8],
        val: &[u8],
    ) -> Result<(Option<Vec<u8>>, Promoted), StoreError> {
        let node = View::parse(self.store.page(PageId(page))?)?;
        if node.leaf != (depth <= 1) {
            return Err(corrupt("leaf depth disagrees with the tree height"));
        }
        if !node.leaf {
            let (idx, to) = node.route(key)?;
            let (old, promo) = self.insert_at(to, depth - 1, key, val)?;
            let up = match promo {
                // The promoted separator slots exactly where we routed.
                Some((sep, right)) => self.add_cell(page, idx, &sep, &right.to_le_bytes())?,
                None => None,
            };
            return Ok((old, up));
        }
        let (i, old) = node.find(key)?;
        let old = old.map(<[u8]>::to_vec);
        if let Some(prev) = &old {
            let img = self.store.page_mut(PageId(page))?;
            if prev.len() == val.len() {
                slotted::set_value(img, i, val)?;
                return Ok((old, None));
            }
            slotted::remove_cell(img, i)?;
        }
        Ok((old, self.add_cell(page, i, key, val)?))
    }

    /// Puts a cell at slot `i` of `page`; a node without room for it is
    /// split at its byte midpoint first. Returns the promoted separator
    /// and new right page of such a split.
    fn add_cell(
        &mut self,
        page: u64,
        i: usize,
        key: &[u8],
        val: &[u8],
    ) -> Result<Promoted, StoreError> {
        let img = self.store.page_mut(PageId(page))?;
        if slotted::insert_cell(img, i, key, val)? {
            return Ok(None);
        }
        self.scratch.copy_from_slice(img);
        let old = View::parse(&self.scratch)?;
        // Split the sequence that has the new cell at `i`: `sp` is its
        // first right-half index, `l` old cells stay left.
        let sp = old.split_point(i, old.cell_len(key, val))?;
        let l = sp - usize::from(i < sp);
        let (sep, first_right) = if i == sp { (key, val) } else { old.cell(l)? };
        let right = self.store.alloc()?.0;
        // A leaf keeps every cell; an internal node promotes the cell at
        // `sp`, whose child becomes the right half's child0.
        let (skip, right_links, left_links) = if old.leaf {
            (0, [old.link(0), page], [right, old.link(1)])
        } else {
            (1, [child(first_right), 0], [old.link(0), 0])
        };
        let r = if i == sp { l } else { l + skip };
        let halves = [
            (page, 0..l, left_links, (i < sp).then_some(i)),
            (right, r..old.n, right_links, i.checked_sub(sp + skip)),
        ];
        for (half, cells, links, new_at) in halves {
            let img = self.store.page_mut(PageId(half))?;
            slotted::rebuild(img, &old, cells, links)?;
            if let Some(at) = new_at {
                slotted::push_cell(img, at, key, val)?;
            }
        }
        if old.leaf && old.link(0) != 0 {
            // The old successor's back-link now points at the new leaf.
            Self::set_leaf_link(&mut self.store, old.link(0), 1, right)?;
        }
        Ok(Some((sep.to_vec(), right)))
    }

    /// Overwrites chain link `k` of the leaf a chain link led to.
    fn set_leaf_link(store: &mut S, page: u64, k: usize, to: u64) -> Result<(), StoreError> {
        let img = store.page_mut(PageId(page))?;
        if !View::parse(img)?.leaf {
            return Err(corrupt("leaf chain links to a non-leaf"));
        }
        slotted::set_link(img, k, to);
        Ok(())
    }

    // ---- remove ----------------------------------------------------

    /// Removes a record, returning its value. Emptied nodes are freed
    /// back to the store and single-child roots collapse.
    pub fn remove(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        if self.root == 0 {
            return Ok(None);
        }
        let (old, emptied) = self.remove_at(self.root, self.height, key)?;
        if old.is_none() {
            return Ok(None);
        }
        self.count = self.count.saturating_sub(1); // hostile pages can hold extras
        if emptied {
            self.store.free(PageId(self.root))?;
            (self.root, self.height) = (0, 0);
        }
        // Collapse a root chain of separator-less internals.
        while self.height > 1 {
            let node = View::parse(self.store.page(PageId(self.root))?)?;
            if node.leaf || node.n > 0 {
                break;
            }
            let only = node.link(0);
            self.store.free(PageId(self.root))?;
            self.root = only;
            self.height -= 1;
        }
        self.write_meta()?;
        Ok(old)
    }

    /// Recursive remove; returns `(old value, this node is now empty)`.
    /// An emptied node's *parent* frees its page (the root is freed by
    /// [`PagedBTree::remove`]); an emptied leaf unlinks itself from the
    /// chain before reporting.
    fn remove_at(
        &mut self,
        page: u64,
        depth: u32,
        key: &[u8],
    ) -> Result<(Option<Vec<u8>>, bool), StoreError> {
        let node = View::parse(self.store.page(PageId(page))?)?;
        if node.leaf != (depth <= 1) {
            return Err(corrupt("leaf depth disagrees with the tree height"));
        }
        if !node.leaf {
            let (idx, to) = node.route(key)?;
            let (old, child_empty) = self.remove_at(to, depth - 1, key)?;
            if !child_empty {
                return Ok((old, false));
            }
            self.store.free(PageId(to))?;
            let img = self.store.page_mut(PageId(page))?;
            let node = View::parse(img)?;
            if idx == 0 && node.n == 0 {
                // Last child gone: this node is empty too. Its page
                // content no longer matters — the parent frees it.
                return Ok((old, true));
            }
            if idx == 0 {
                // child0 is gone: the first separator's child takes over.
                let first = child(node.cell(0)?.1);
                slotted::set_link(img, 0, first);
            }
            slotted::remove_cell(img, idx.saturating_sub(1))?;
            return Ok((old, false));
        }
        let (i, Some(old)) = node.find(key)? else {
            return Ok((None, false));
        };
        let old = old.to_vec();
        let (n, next, prev) = (node.n, node.link(0), node.link(1));
        slotted::remove_cell(self.store.page_mut(PageId(page))?, i)?;
        if n > 1 {
            return Ok((Some(old), false));
        }
        // Unlink the emptied leaf from the chain.
        if prev != 0 {
            Self::set_leaf_link(&mut self.store, prev, 0, next)?;
        }
        if next != 0 {
            Self::set_leaf_link(&mut self.store, next, 1, prev)?;
        }
        Ok((Some(old), true))
    }

    // ---- integrity -------------------------------------------------

    /// Every page reachable from the root (the tree's footprint), in
    /// ascending order. Together with the store's freelist these must
    /// partition the data pages — the crash harness asserts exactly
    /// that.
    pub fn reachable_pages(&mut self) -> Result<Vec<PageId>, StoreError> {
        let mut out = Vec::new();
        let mut todo = Vec::from_iter((self.root != 0).then_some((self.root, self.height)));
        while let Some((page, depth)) = todo.pop() {
            out.push(PageId(page));
            if depth > 1 {
                let kids = self.children(page)?;
                todo.extend(kids.iter().map(|(_, kid)| (*kid, depth - 1)));
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// An internal node's `(lower bound, child)` pairs in order, owned
    /// (integrity walks recurse); `child0` comes first, bound empty.
    fn children(&mut self, page: u64) -> Result<Vec<(Vec<u8>, u64)>, StoreError> {
        let node = View::parse(self.store.page(PageId(page))?)?;
        if node.leaf {
            return Err(corrupt("leaf above level 1"));
        }
        let mut kids = vec![(Vec::new(), node.link(0))];
        for i in 0..node.n {
            let (k, c) = node.cell(i)?;
            kids.push((k.to_vec(), child(c)));
        }
        Ok(kids)
    }

    /// Structural self-check: uniform leaf depth equal to the height,
    /// every node's slot directory sound (`slotted::View::verify`: offsets in
    /// bounds, cells disjoint, `free` exact, keys strictly sorted),
    /// separators lower-bounding their subtrees, a record count matching
    /// the meta, and a doubly-consistent leaf chain whose in-order
    /// traversal equals the tree's records.
    pub fn check_invariants(&mut self) -> Result<(), StoreError> {
        if self.root == 0 {
            if self.height != 0 || self.count != 0 {
                return Err(corrupt("empty tree with nonzero height/count"));
            }
            return Ok(());
        }
        let mut leaves = Vec::new();
        let n = self.check_node(self.root, self.height, &[], &mut leaves)?;
        if n != self.count {
            return Err(corrupt(format!(
                "record count {n} != meta count {}",
                self.count
            )));
        }
        // The leaf chain must visit exactly the in-order leaves.
        let (mut chain, mut prev) = (Vec::new(), 0u64);
        let mut page = leaves.first().copied().unwrap_or(0);
        while page != 0 && chain.len() < leaves.len() {
            chain.push(page);
            let node = View::parse(self.store.page(PageId(page))?)?;
            if !node.leaf || node.link(1) != prev {
                return Err(corrupt(format!("leaf {page} prev-link is not {prev}")));
            }
            prev = page;
            page = node.link(0);
        }
        if page != 0 || chain != leaves {
            return Err(corrupt("leaf chain disagrees with tree order"));
        }
        Ok(())
    }

    /// Checks one subtree; returns its record count and appends its
    /// leaves in order. `lower` is the separator bounding this subtree
    /// (empty: unbounded).
    fn check_node(
        &mut self,
        page: u64,
        depth: u32,
        lower: &[u8],
        leaves: &mut Vec<u64>,
    ) -> Result<u64, StoreError> {
        let node = View::parse(self.store.page(PageId(page))?)?;
        node.verify()?;
        if node.leaf != (depth <= 1) {
            return Err(corrupt("leaf depth disagrees with the tree height"));
        }
        if node.leaf {
            if node.n == 0 {
                return Err(corrupt("empty leaf"));
            }
            if node.cell(0)?.0 < lower {
                return Err(corrupt("leaf key below its separator"));
            }
            leaves.push(page);
            return Ok(node.n as u64);
        }
        let mut n = 0;
        for (i, (sep, kid)) in self.children(page)?.iter().enumerate() {
            n += self.check_node(*kid, depth - 1, if i == 0 { lower } else { sep }, leaves)?;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_storage::MemStore;
    use proptest::prelude::*;

    fn tree(page_size: usize) -> PagedBTree<MemStore> {
        PagedBTree::open(MemStore::new(page_size)).unwrap()
    }

    fn key(i: u32) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_get_roundtrip_small_pages() {
        let mut t = tree(128);
        for i in 0..500u32 {
            assert!(t.insert(&key(i * 7 % 500), &key(i)).unwrap().is_none());
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() > 2, "128-byte pages force a multi-level tree");
        t.check_invariants().unwrap();
        // i*7 mod 500 is a bijection (gcd(7, 500) = 1): each key was
        // inserted exactly once, with key(i) as its value.
        for i in 0..500u32 {
            assert_eq!(t.get(&key(i * 7 % 500)).unwrap().unwrap(), key(i));
        }
        assert!(t.get(&key(500)).unwrap().is_none());
    }

    /// A tree tall enough to have leaf and internal pages at `page_size`.
    fn tall_tree(page_size: usize) -> PagedBTree<MemStore> {
        let mut t = tree(page_size);
        let val = vec![0xAB; t.max_item() - 4];
        for i in 0..400u32 {
            t.insert(&key(i * 7 % 400), &val).unwrap();
        }
        assert!(t.height() >= 2);
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Hostile pages: random damage to bytes, slot offsets, cell
        /// lengths, counts and links of random leaf and internal pages
        /// surfaces as `Corrupt` / `BadPage` (or goes unnoticed) from every
        /// operation — never a panic, an out-of-bounds slice or a hang.
        #[test]
        fn corrupt_pages_error_instead_of_panicking(
            page_size in prop::sample::select(vec![128usize, 1024]),
            damage in prop::collection::vec((any::<u16>(), 0u8..5, any::<u16>(), any::<u16>()), 1..4),
            probe in 0u32..350,
        ) {
            let mut t = tall_tree(page_size);
            let pages = t.reachable_pages().unwrap();
            for (pick, kind, at, with) in damage {
                let page = pages[pick as usize % pages.len()];
                let img = t.store_mut().page_mut(page).unwrap();
                // Raw header reads: an earlier round may have hit this page.
                let u16_at = |img: &[u8], off| usize::from(u16::from_le_bytes([img[off], img[off + 1]]));
                let hdr = if img[0] == 1 { LEAF_HDR } else { INT_HDR };
                let slot = (hdr + 2 * (at as usize % u16_at(img, 1).max(1))).min(page_size - 2);
                let cell = u16_at(img, slot);
                let off = match kind {
                    0 => at as usize % page_size,                  // any byte pair
                    1 => slot,                                     // a slot offset
                    2 => (cell + 2 * (at as usize & 1)).min(page_size - 2), // klen / vlen
                    3 => 1 + 2 * (at as usize & 1),                // n / cell_start
                    _ => 5 + 8 * (at as usize & 1),                // next / prev / child0
                };
                // Links get a plausible page id, everything else raw noise.
                let with = if kind == 4 { with % 64 } else { with };
                img[off..off + 2].copy_from_slice(&with.to_le_bytes());
            }
            // Reads around the probe, then writes spread over the key
            // space so some land on (or split, or empty) a damaged page.
            let k = key(probe);
            let mut results = vec![
                t.get(&k).map(drop),
                t.range(&k, &key(probe + 50)).map(drop),
                t.visit_range(&k, &key(probe + 50), |_, _| true),
                t.scan().map(drop),
                t.check_invariants(),
            ];
            for i in (probe % 13..400).step_by(13) {
                results.push(t.insert(&key(i), b"resized").map(drop));
                results.push(t.insert(&[&key(i)[..], b"+"].concat(), &[7; 8]).map(drop));
                results.push(t.remove(&key(i + 1)).map(drop));
            }
            results.push(t.check_invariants());
            for r in results {
                prop_assert!(
                    matches!(r, Ok(()) | Err(StoreError::Corrupt(_) | StoreError::BadPage(_))),
                    "{r:?}"
                );
            }
        }
    }

    #[test]
    fn check_invariants_sees_slot_directory_damage() {
        // Damage routing never trips over: two slots swapped in one leaf
        // (keys out of order) and a cell area that no longer tiles.
        for damage in 0..2 {
            let mut t = tall_tree(256);
            t.check_invariants().unwrap();
            let leaf = *t.reachable_pages().unwrap().last().unwrap();
            let img = t.store_mut().page_mut(leaf).unwrap();
            if View::parse(img).unwrap().leaf {
                match damage {
                    0 => img.copy_within(LEAF_HDR..LEAF_HDR + 2, LEAF_HDR + 2),
                    _ => img[3] = img[3].wrapping_sub(1), // cell_start one lower: a gap
                }
                assert!(matches!(t.check_invariants(), Err(StoreError::Corrupt(_))));
            }
        }
    }

    #[test]
    fn old_format_store_is_refused() {
        let mut store = MemStore::new(256);
        let mut meta = [0u8; META_LEN];
        meta[..8].copy_from_slice(b"OICBT1\0\0");
        store.set_meta(&meta).unwrap();
        match PagedBTree::open(store) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("OICBT1"), "{msg}"),
            other => panic!("an OICBT1 store must be refused, got {other:?}"),
        }
    }

    #[test]
    fn posting_chunk_sizes_survive_the_format_change() {
        // The whole-loop benchmark derives its posting chunk from
        // `max_item`; the stored posting set must not move.
        for (page_size, chunk_oids) in [(256, 4), (1024, 28), (4096, 124)] {
            assert_eq!((tree(page_size).max_item() - 16) / 8, chunk_oids);
        }
    }

    #[test]
    fn a_lookup_reads_each_page_on_its_way_once() {
        let mut t = tree(128);
        for i in 0..300u32 {
            t.insert(&key(i), &key(i)).unwrap();
        }
        let h = u64::from(t.height());
        assert!(h >= 3);
        let reads = |t: &mut PagedBTree<MemStore>, lo: u32, hi: u32| {
            let before = t.store().io_stats();
            let got = t.range(&key(lo), &key(hi)).unwrap().len();
            (got, t.store().io_stats().since(&before).logical_reads)
        };
        // The whole range: one descent, then every further leaf once.
        let (got, full) = reads(&mut t, 0, 299);
        assert_eq!(got, 300);
        let leaves = full - h + 1;
        assert!(leaves > 10);
        // One key: exactly the descent, plus the next leaf only when the
        // key is the last of its leaf (its successor decides the range
        // is over) — which every leaf but the final one has once.
        let mut total = 0;
        for i in 0..300 {
            let (got, r) = reads(&mut t, i, i);
            assert!(got == 1 && (r == h || r == h + 1), "key {i}: {r} reads");
            total += r;
        }
        assert_eq!(total, 300 * h + leaves - 1);
        // A point lookup never leaves the leaf it routes to.
        let before = t.store().io_stats();
        assert!(t.get(&key(17)).unwrap().is_some());
        assert!(t.get(&key(1000)).unwrap().is_none());
        assert_eq!(t.store().io_stats().since(&before).logical_reads, 2 * h);
    }

    #[test]
    fn visit_range_stops_when_told() {
        let mut t = tree(128);
        for i in 0..100u32 {
            t.insert(&key(i), &key(i)).unwrap();
        }
        let mut seen = Vec::new();
        t.visit_range(&key(10), &key(90), |k, v| {
            assert_eq!(k, v);
            seen.push(k.to_vec());
            seen.len() < 5
        })
        .unwrap();
        assert_eq!(seen, (10..15).map(key).collect::<Vec<_>>());
    }

    #[test]
    fn overwrite_leaves_the_meta_alone_and_resizes_in_place() {
        let mut t = tree(256);
        for i in 0..50u32 {
            t.insert(&key(i), b"four").unwrap();
        }
        let pages = t.store().live_pages();
        // Same length, longer, shorter: the last two compact the page.
        for val in [&b"FOUR"[..], b"a longer value", b"s"] {
            for i in 0..50u32 {
                assert!(t.insert(&key(i), val).unwrap().is_some());
            }
            t.check_invariants().unwrap();
            assert!(t.scan().unwrap().iter().all(|(_, v)| v == val));
        }
        assert_eq!(t.len(), 50);
        assert!(t.store().live_pages() >= pages);
    }

    #[test]
    fn replace_returns_old_value() {
        let mut t = tree(256);
        assert!(t.insert(b"k", b"v1").unwrap().is_none());
        assert_eq!(t.insert(b"k", b"v2").unwrap().unwrap(), b"v1");
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(b"k").unwrap().unwrap(), b"v2");
    }

    #[test]
    fn range_uses_leaf_chain() {
        let mut t = tree(128);
        for i in (0..300u32).rev() {
            t.insert(&key(i), &key(i * 2)).unwrap();
        }
        let got = t.range(&key(100), &key(199)).unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(got[0].0, key(100));
        assert_eq!(got[99].0, key(199));
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(t.scan().unwrap().len(), 300);
    }

    #[test]
    fn remove_frees_pages_and_collapses_root() {
        let mut t = tree(128);
        for i in 0..400u32 {
            t.insert(&key(i), b"payload").unwrap();
        }
        let peak = t.store().live_pages();
        for i in 0..400u32 {
            assert_eq!(t.remove(&key(i)).unwrap().unwrap(), b"payload");
            if i % 97 == 0 {
                t.check_invariants().unwrap();
            }
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 0);
        assert_eq!(
            t.store().live_pages(),
            0,
            "all {peak} pages returned to the store"
        );
        assert!(t.get(&key(3)).unwrap().is_none());
        // The tree is reusable after emptying.
        t.insert(b"again", b"x").unwrap();
        assert_eq!(t.get(b"again").unwrap().unwrap(), b"x");
    }

    #[test]
    fn oversized_items_rejected() {
        let mut t = tree(128);
        let big = vec![7u8; 200];
        assert!(matches!(t.insert(b"k", &big), Err(StoreError::Invalid(_))));
        assert!(matches!(t.insert(b"", b"v"), Err(StoreError::Invalid(_))));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn survives_reopen_via_meta() {
        let mut t = tree(256);
        for i in 0..100u32 {
            t.insert(&key(i), &key(i + 1)).unwrap();
        }
        let store = t.into_store();
        let mut t = PagedBTree::open(store).unwrap();
        assert_eq!(t.len(), 100);
        t.check_invariants().unwrap();
        assert_eq!(t.get(&key(42)).unwrap().unwrap(), key(43));
    }
}
