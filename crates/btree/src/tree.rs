//! The B+-tree proper.

use crate::node::{Leaf, Node, NodeId, Record};
use crate::{chain_pages, node_capacity, LevelProfile, CHILD_PTR};
use oic_storage::SimStore;

/// A B+-tree index with chained leaves over a [`SimStore`].
///
/// Records are `(key, posting list)`; oversized records (longer than a page)
/// own a dedicated chain of `⌈ln/p⌉` pages, giving the paper's `CRL/CML`
/// access profile. All reads and writes are accounted against the store.
#[derive(Debug)]
pub struct BTreeIndex {
    page_size: usize,
    nodes: Vec<Option<Node>>,
    root: NodeId,
    height: usize,
    record_count: u64,
    entry_count: u64,
}

/// Position of `key` among a leaf's records, or where it would be inserted.
fn find(records: &[Record], key: &[u8]) -> Result<usize, usize> {
    records.binary_search_by(|r| r.key.as_slice().cmp(key))
}

impl BTreeIndex {
    /// Creates an empty tree (a single empty leaf) sized to `store`'s
    /// pages.
    pub fn new(store: &mut SimStore) -> Self {
        let page = store.alloc();
        let root = 0;
        BTreeIndex {
            page_size: store.page_size(),
            nodes: vec![Some(Node::Leaf(Leaf {
                records: Vec::new(),
                bytes: 0,
                next: None,
                prev: None,
                pages: vec![page],
            }))],
            root,
            height: 1,
            record_count: 0,
            entry_count: 0,
        }
    }

    /// `h_X` — number of levels including the leaf level.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of index records (distinct keys).
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Number of posting entries across all records.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    // ---- node arena ----------------------------------------------------

    fn node(&self, id: NodeId) -> &Node {
        self.nodes[id].as_ref().expect("live node")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id].as_mut().expect("live node")
    }

    fn leaf(&self, id: NodeId) -> &Leaf {
        match self.node(id) {
            Node::Leaf(leaf) => leaf,
            Node::Internal { .. } => unreachable!("node {id} is not a leaf"),
        }
    }

    fn leaf_mut(&mut self, id: NodeId) -> &mut Leaf {
        match self.node_mut(id) {
            Node::Leaf(leaf) => leaf,
            Node::Internal { .. } => unreachable!("node {id} is not a leaf"),
        }
    }

    fn add_node(&mut self, n: Node) -> NodeId {
        self.nodes.push(Some(n));
        self.nodes.len() - 1
    }

    fn drop_node(&mut self, store: &mut SimStore, id: NodeId) {
        if let Some(n) = self.nodes[id].take() {
            match n {
                Node::Internal { page, .. } => store.free(page),
                Node::Leaf(leaf) => {
                    for p in leaf.pages {
                        store.free(p);
                    }
                }
            }
        }
    }

    // ---- descent ---------------------------------------------------------

    /// Walks from the root to the leaf responsible for `key`, reporting the
    /// child index taken at each internal node to `took`. With a store it
    /// counts one page read per level (the leaf's *first* page only; chain
    /// pages are charged by the record accessors); without, nothing.
    fn descend(
        &self,
        store: Option<&SimStore>,
        key: &[u8],
        mut took: impl FnMut(NodeId, usize),
    ) -> NodeId {
        let mut cur = self.root;
        loop {
            match self.node(cur) {
                Node::Internal {
                    keys,
                    children,
                    page,
                } => {
                    if let Some(store) = store {
                        store.touch_read(*page);
                    }
                    let idx = keys.partition_point(|k| k.as_slice() <= key);
                    took(cur, idx);
                    cur = children[idx];
                }
                Node::Leaf(leaf) => {
                    if let Some(store) = store {
                        store.touch_read(leaf.pages[0]);
                    }
                    return cur;
                }
            }
        }
    }

    /// [`BTreeIndex::descend`] for writers: also returns the internal path,
    /// which rebalancing walks back up.
    fn descend_path(&self, store: &SimStore, key: &[u8]) -> (Vec<(NodeId, usize)>, NodeId) {
        let mut path = Vec::with_capacity(self.height - 1);
        let leaf = self.descend(Some(store), key, |node, idx| path.push((node, idx)));
        (path, leaf)
    }

    // ---- read operations ---------------------------------------------------

    /// Full retrieval of the record for `key`: `visit` sees every entry in
    /// order, borrowed from the record. Counts the whole overflow chain for
    /// oversized records. Returns whether the record exists.
    pub fn visit(&self, store: &SimStore, key: &[u8], mut visit: impl FnMut(&[u8])) -> bool {
        let Leaf { records, pages, .. } = self.leaf(self.descend(Some(store), key, |_, _| {}));
        let Ok(pos) = find(records, key) else {
            return false;
        };
        // Chain pages beyond the first.
        for p in pages.iter().skip(1) {
            store.touch_read(*p);
        }
        for (_, e) in records[pos].entries() {
            visit(e);
        }
        true
    }

    /// Partial retrieval: `matches` sees every entry in order and says
    /// which ones the caller wants; only the chain pages holding those are
    /// counted (plus the descent). This is the paper's `pr_X` fraction for
    /// NIX/IIX records spanning pages. Returns the number of matches.
    pub fn visit_matching(
        &self,
        store: &SimStore,
        key: &[u8],
        mut matches: impl FnMut(&[u8]) -> bool,
    ) -> usize {
        let Leaf { records, pages, .. } = self.leaf(self.descend(Some(store), key, |_, _| {}));
        let Ok(pos) = find(records, key) else {
            return 0;
        };
        // Offsets ascend, so the last page read (the descent read the
        // first) is the only one a match can land on again.
        let (mut hits, mut last) = (0, 0);
        for (off, e) in records[pos].entries() {
            if matches(e) {
                hits += 1;
                let pg = (off / self.page_size).min(pages.len() - 1);
                if pg > last {
                    last = pg;
                    store.touch_read(pages[pg]);
                }
            }
        }
        hits
    }

    /// The record for `key`, if any (no accounting).
    fn peek(&self, key: &[u8]) -> Option<&Record> {
        let records = &self.leaf(self.descend(None, key, |_, _| {})).records;
        find(records, key).ok().map(|pos| &records[pos])
    }

    /// Whether a record for `key` exists (no accounting; catalog use).
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.peek(key).is_some()
    }

    // ---- write operations -------------------------------------------------

    /// Inserts one posting entry under `key`, creating the record if absent.
    pub fn insert_entry(&mut self, store: &mut SimStore, key: &[u8], entry: Vec<u8>) {
        let (path, leaf) = self.descend_path(store, key);
        let page_size = self.page_size;
        let Leaf {
            records,
            bytes,
            pages,
            ..
        } = self.leaf_mut(leaf);
        let found = find(records, key);
        // A new record adds its header and key to the leaf as well.
        let old_len = found.map_or(0, |pos| records[pos].len_bytes());
        let pos = found.unwrap_or_else(|pos| {
            records.insert(pos, Record::new(key));
            pos
        });
        records[pos].push(&entry);
        let new_len = records[pos].len_bytes();
        *bytes += new_len - old_len;
        if found.is_ok() && pages.len() > 1 {
            // Oversized record: the append lands on the tail page(s).
            let first_dirty = ((old_len.saturating_sub(1)) / page_size).min(pages.len() - 1);
            store.touch_write(pages[first_dirty]);
            let need = chain_pages(page_size, new_len).max(1);
            while pages.len() < need {
                let p = store.alloc();
                store.touch_write(p);
                pages.push(p);
            }
        } else {
            store.touch_write(pages[0]);
        }
        if found.is_err() {
            self.record_count += 1;
        }
        self.entry_count += 1;
        self.rebalance_after_growth(store, path, leaf);
    }

    /// Removes all entries matching `pred` under `key`; removes the record
    /// when its posting list becomes empty. Returns the number of entries
    /// removed. Counts reads/writes of the chain pages containing the
    /// matching entries.
    pub fn remove_entries(
        &mut self,
        store: &mut SimStore,
        key: &[u8],
        mut pred: impl FnMut(&[u8]) -> bool,
    ) -> usize {
        let (path, leaf) = self.descend_path(store, key);
        let page_size = self.page_size;
        let Leaf {
            records,
            bytes,
            pages,
            ..
        } = self.leaf_mut(leaf);
        let Ok(pos) = find(records, key) else {
            return 0;
        };
        let old_len = records[pos].len_bytes();
        // Account each page holding a matched entry once, in chain order
        // (offsets ascend; page 0 is covered by the descent read).
        let mut dirty = None;
        let removed = records[pos].remove_where(&mut pred, |off| {
            let pg = (off / page_size).min(pages.len() - 1);
            if dirty != Some(pg) {
                dirty = Some(pg);
                if pg > 0 {
                    store.touch_read(pages[pg]);
                }
                store.touch_write(pages[pg]);
            }
        });
        if removed == 0 {
            return 0;
        }
        let now_empty = records[pos].count() == 0;
        if now_empty {
            *bytes -= old_len;
            records.remove(pos);
        } else {
            // Shrink the chain if the record no longer needs all pages.
            let new_len = records[pos].len_bytes();
            *bytes -= old_len - new_len;
            let need = chain_pages(page_size, new_len).max(1);
            while pages.len() > need {
                let p = pages.pop().expect("checked above");
                store.free(p);
            }
        }
        self.entry_count -= removed as u64;
        if now_empty {
            self.record_count -= 1;
        }
        self.rebalance_after_shrink(store, path, leaf);
        removed
    }

    /// Deletes the whole record for `key`, counting a write per chain page
    /// (the paper's `CML` with `⌈ln/p⌉` pages: “all these pages should be
    /// deleted”). Returns the number of entries the record held.
    pub fn remove_record(&mut self, store: &mut SimStore, key: &[u8]) -> Option<usize> {
        let (path, leaf) = self.descend_path(store, key);
        let Leaf {
            records,
            bytes,
            pages,
            ..
        } = self.leaf_mut(leaf);
        let pos = find(records, key).ok()?;
        for p in pages.iter() {
            store.touch_write(*p);
        }
        let rec = records.remove(pos);
        *bytes -= rec.len_bytes();
        // Oversized chains shrink back to a single page.
        while pages.len() > 1 {
            let p = pages.pop().expect("len checked");
            store.free(p);
        }
        let n = rec.count();
        self.record_count -= 1;
        self.entry_count -= n as u64;
        self.rebalance_after_shrink(store, path, leaf);
        Some(n)
    }

    /// Replaces the first entry matching `pred` with `new_entry` in place
    /// (read + rewrite of the page holding it). Returns whether a
    /// replacement happened. Intended for same-size updates such as the NIX
    /// `numchild` counter: an in-place rewrite moves no byte, so nothing
    /// rebalances. A `new_entry` whose length differs from the matched
    /// entry's is refused — `false`, nothing changed or written; remove
    /// and re-insert instead.
    pub fn replace_entry(
        &mut self,
        store: &mut SimStore,
        key: &[u8],
        mut pred: impl FnMut(&[u8]) -> bool,
        new_entry: Vec<u8>,
    ) -> bool {
        let leaf = self.descend(Some(store), key, |_, _| {});
        let page_size = self.page_size;
        let Leaf { records, pages, .. } = self.leaf_mut(leaf);
        let Ok(pos) = find(records, key) else {
            return false;
        };
        let rec = &mut records[pos];
        let Some((off, old)) = rec.entries().find(|(_, e)| pred(e)) else {
            return false;
        };
        if old.len() != new_entry.len() {
            return false;
        }
        let pg = (off / page_size).min(pages.len() - 1);
        if pg > 0 {
            store.touch_read(pages[pg]);
        }
        store.touch_write(pages[pg]);
        rec.replace_at(off, &new_entry);
        true
    }

    // ---- structure maintenance -------------------------------------------

    fn rebalance_after_growth(
        &mut self,
        store: &mut SimStore,
        mut path: Vec<(NodeId, usize)>,
        leaf: NodeId,
    ) {
        let page_size = self.page_size;
        let Leaf { records, bytes, .. } = self.leaf_mut(leaf);
        if records.len() == 1 {
            // A single record may legitimately exceed the page: it owns an
            // overflow chain instead of splitting.
            return self.ensure_chain(store, leaf);
        }
        if *bytes <= node_capacity(page_size) {
            return;
        }
        // Split the leaf: move the upper half (by cumulative size) out.
        let total = *bytes;
        let mut acc = 0usize;
        let mut cut = records.len() - 1;
        for (i, r) in records.iter().enumerate() {
            acc += r.len_bytes();
            if acc * 2 >= total && i + 1 < records.len() {
                cut = i + 1;
                break;
            }
        }
        let right_records = records.split_off(cut);
        let right_bytes = right_records.iter().map(|r| r.len_bytes()).sum();
        *bytes -= right_bytes;
        let sep = right_records[0].key.clone();
        let page = store.alloc();
        store.touch_write(page);
        let old_next = self.leaf(leaf).next;
        let right_id = self.add_node(Node::Leaf(Leaf {
            records: right_records,
            bytes: right_bytes,
            next: old_next,
            prev: Some(leaf),
            pages: vec![page],
        }));
        if let Some(n) = old_next {
            self.leaf_mut(n).prev = Some(right_id);
        }
        let left = self.leaf_mut(leaf);
        left.next = Some(right_id);
        store.touch_write(left.pages[0]);
        // The new right node might itself hold a now-oversized single record.
        self.ensure_chain(store, right_id);
        self.ensure_chain(store, leaf);
        self.insert_into_parent(store, &mut path, leaf, sep, right_id);
        // A cut at the byte midpoint can leave a side of several records
        // over the page when one large record sits next to it: split that
        // side again (re-descending without accounting for its path).
        for half in [leaf, right_id] {
            let Leaf { records, bytes, .. } = self.leaf(half);
            if records.len() > 1 && *bytes > node_capacity(page_size) {
                let key = records[0].key.clone();
                let mut path = Vec::with_capacity(self.height - 1);
                let found = self.descend(None, &key, |node, idx| path.push((node, idx)));
                debug_assert_eq!(found, half);
                self.rebalance_after_growth(store, path, half);
            }
        }
    }

    fn ensure_chain(&mut self, store: &mut SimStore, leaf: NodeId) {
        let page_size = self.page_size;
        let Leaf { records, pages, .. } = self.leaf_mut(leaf);
        let need = match records.as_slice() {
            [only] => chain_pages(page_size, only.len_bytes()).max(1),
            _ => 1,
        };
        while pages.len() < need {
            let p = store.alloc();
            store.touch_write(p);
            pages.push(p);
        }
        while pages.len() > need {
            let p = pages.pop().expect("len checked");
            store.free(p);
        }
    }

    fn insert_into_parent(
        &mut self,
        store: &mut SimStore,
        path: &mut Vec<(NodeId, usize)>,
        left: NodeId,
        sep: Vec<u8>,
        right: NodeId,
    ) {
        let page_size = self.page_size;
        match path.pop() {
            None => {
                // Grow a new root.
                let page = store.alloc();
                store.touch_write(page);
                let new_root = self.add_node(Node::Internal {
                    keys: vec![sep],
                    children: vec![left, right],
                    page,
                });
                self.root = new_root;
                self.height += 1;
            }
            Some((parent, idx)) => {
                let Node::Internal {
                    keys,
                    children,
                    page,
                } = self.node_mut(parent)
                else {
                    unreachable!()
                };
                keys.insert(idx, sep);
                children.insert(idx + 1, right);
                store.touch_write(*page);
                // Split the internal node if its serialized size overflows.
                let size: usize =
                    keys.iter().map(Vec::len).sum::<usize>() + children.len() * CHILD_PTR;
                if size > node_capacity(page_size) {
                    let mid = keys.len() / 2;
                    let promoted = keys[mid].clone();
                    let right_keys = keys.split_off(mid + 1);
                    keys.pop(); // `promoted` moves up
                    let right_children = children.split_off(mid + 1);
                    let new_page = store.alloc();
                    store.touch_write(new_page);
                    let right_id = self.add_node(Node::Internal {
                        keys: right_keys,
                        children: right_children,
                        page: new_page,
                    });
                    self.insert_into_parent(store, path, parent, promoted, right_id);
                }
            }
        }
    }

    fn rebalance_after_shrink(
        &mut self,
        store: &mut SimStore,
        mut path: Vec<(NodeId, usize)>,
        leaf: NodeId,
    ) {
        if !self.leaf(leaf).records.is_empty() {
            return self.ensure_chain(store, leaf);
        }
        if path.is_empty() {
            // The tree is a single empty leaf: keep it.
            return;
        }
        // Unlink from the leaf chain.
        let Leaf { prev, next, .. } = *self.leaf(leaf);
        if let Some(p) = prev {
            self.leaf_mut(p).next = next;
        }
        if let Some(n) = next {
            self.leaf_mut(n).prev = prev;
        }
        self.drop_node(store, leaf);
        // Remove from the parent, cascading if internals empty out.
        let mut child = leaf;
        while let Some((parent, idx)) = path.pop() {
            let Node::Internal {
                keys,
                children,
                page,
            } = self.node_mut(parent)
            else {
                unreachable!()
            };
            debug_assert_eq!(children[idx], child);
            children.remove(idx);
            if idx > 0 {
                keys.remove(idx - 1);
            } else if !keys.is_empty() {
                keys.remove(0);
            }
            store.touch_write(*page);
            if !children.is_empty() {
                break;
            }
            self.drop_node(store, parent);
            child = parent;
        }
        // Collapse single-child roots.
        loop {
            let only = match self.node(self.root) {
                Node::Internal { children, .. } if children.len() == 1 => Some(children[0]),
                _ => None,
            };
            match only {
                Some(c) => {
                    self.drop_node(store, self.root);
                    self.root = c;
                    self.height -= 1;
                }
                None => break,
            }
        }
    }

    // ---- statistics --------------------------------------------------------

    /// `(n_k, p_k)` per level, root first — for feeding the analytic
    /// `CRT/CMT` and for validating the estimator in `oic-cost`.
    pub fn level_profile(&self) -> LevelProfile {
        let mut levels = Vec::new();
        let mut frontier = vec![self.root];
        loop {
            let mut records = 0u64;
            let mut pages = 0u64;
            let mut next = Vec::new();
            let mut is_leaf = false;
            for &id in &frontier {
                match self.node(id) {
                    Node::Internal { children, .. } => {
                        records += children.len() as u64;
                        pages += 1;
                        next.extend_from_slice(children);
                    }
                    Node::Leaf(leaf) => {
                        is_leaf = true;
                        records += leaf.records.len() as u64;
                        pages += leaf.pages.len() as u64;
                    }
                }
            }
            levels.push((records, pages));
            if is_leaf || next.is_empty() {
                break;
            }
            frontier = next;
        }
        LevelProfile { levels }
    }

    /// Total leaf-level pages (`pl`), counting overflow chains.
    pub fn leaf_pages(&self) -> u64 {
        self.level_profile().leaf_level().1
    }

    /// Iterates `(key, entries)` in key order without accounting (used by
    /// validation and rebuild paths); entries are slices of the record.
    pub fn iter_records(&self) -> impl Iterator<Item = (&[u8], impl Iterator<Item = &[u8]>)> {
        self.leaves()
            .flat_map(|leaf| &leaf.records)
            .map(|r| (r.key.as_slice(), r.entries().map(|(_, e)| e)))
    }

    /// The leaves in chain order, leftmost first.
    fn leaves(&self) -> impl Iterator<Item = &Leaf> {
        let mut cur = self.root;
        while let Node::Internal { children, .. } = self.node(cur) {
            cur = children[0];
        }
        std::iter::successors(Some(self.leaf(cur)), |leaf| {
            leaf.next.map(|id| self.leaf(id))
        })
    }

    /// Scans every leaf page in chain order, counting a read per page.
    /// Returns the number of records visited. Models the paper's `SA1`
    /// (“the leaf nodes of the auxiliary index can be scanned”).
    pub fn scan_leaves(&self, store: &SimStore) -> u64 {
        let mut visited = 0u64;
        for leaf in self.leaves() {
            for p in &leaf.pages {
                store.touch_read(*p);
            }
            visited += leaf.records.len() as u64;
        }
        visited
    }

    /// Structural invariants; used by tests and fuzzing. Checks key order
    /// within and across leaves, separator consistency, leaf fill (a leaf
    /// of several records fits its page), chain-page sizing and
    /// record/entry counters.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut rec_total = 0u64;
        let mut entry_total = 0u64;
        let mut last_key: Option<Vec<u8>> = None;
        for (k, entries) in self.iter_records() {
            if let Some(prev) = &last_key {
                if prev.as_slice() >= k {
                    return Err(format!("keys out of order: {prev:?} !< {k:?}"));
                }
            }
            last_key = Some(k.to_vec());
            rec_total += 1;
            entry_total += entries.count() as u64;
        }
        if rec_total != self.record_count {
            return Err(format!(
                "record_count {} != visited {}",
                self.record_count, rec_total
            ));
        }
        if entry_total != self.entry_count {
            return Err(format!(
                "entry_count {} != visited {}",
                self.entry_count, entry_total
            ));
        }
        self.check_node(self.root, None, None)?;
        Ok(())
    }

    fn check_node(
        &self,
        id: NodeId,
        low: Option<&[u8]>,
        high: Option<&[u8]>,
    ) -> Result<(), String> {
        match self.node(id) {
            Node::Internal { keys, children, .. } => {
                if children.len() != keys.len() + 1 {
                    return Err("children/keys arity mismatch".into());
                }
                for w in keys.windows(2) {
                    if w[0] >= w[1] {
                        return Err("separators out of order".into());
                    }
                }
                for (i, &c) in children.iter().enumerate() {
                    let lo = if i == 0 {
                        low
                    } else {
                        Some(keys[i - 1].as_slice())
                    };
                    let hi = if i == keys.len() {
                        high
                    } else {
                        Some(keys[i].as_slice())
                    };
                    self.check_node(c, lo, hi)?;
                }
                Ok(())
            }
            Node::Leaf(Leaf {
                records,
                bytes,
                pages,
                ..
            }) => {
                let mut total = 0;
                for r in records {
                    total += r.len_bytes();
                    if r.entries().count() != r.count() {
                        return Err("record entry count disagrees with its bytes".into());
                    }
                    if let Some(lo) = low {
                        if r.key.as_slice() < lo {
                            return Err("leaf key below separator".into());
                        }
                    }
                    if let Some(hi) = high {
                        if r.key.as_slice() >= hi {
                            return Err("leaf key not below upper separator".into());
                        }
                    }
                }
                if total != *bytes {
                    return Err(format!("leaf byte total {bytes} != recomputed {total}"));
                }
                if records.len() == 1 {
                    let need = chain_pages(self.page_size, records[0].len_bytes()).max(1);
                    if pages.len() != need {
                        return Err(format!("chain pages {} != required {}", pages.len(), need));
                    }
                } else if pages.len() != 1 {
                    return Err("multi-record leaf must own exactly one page".into());
                } else if total > node_capacity(self.page_size) {
                    return Err(format!(
                        "multi-record leaf holds {total} bytes > capacity {}",
                        node_capacity(self.page_size)
                    ));
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    /// The record's entries through the full-retrieval visitor.
    fn read(t: &BTreeIndex, store: &SimStore, key: &[u8]) -> Option<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        t.visit(store, key, |e| out.push(e.to_vec())).then_some(out)
    }

    fn small_tree(page: usize) -> (SimStore, BTreeIndex) {
        let mut store = SimStore::new(page);
        let t = BTreeIndex::new(&mut store);
        (store, t)
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let (mut store, mut t) = small_tree(4096);
        for i in 0..100u64 {
            t.insert_entry(&mut store, &key(i), vec![i as u8]);
        }
        assert_eq!(t.record_count(), 100);
        for i in 0..100u64 {
            let e = read(&t, &store, &key(i)).unwrap();
            assert_eq!(e, vec![vec![i as u8]]);
        }
        assert!(read(&t, &store, &key(1000)).is_none());
        t.check_invariants().unwrap();
    }

    #[test]
    fn splits_grow_height() {
        let (mut store, mut t) = small_tree(256);
        for i in 0..500u64 {
            t.insert_entry(&mut store, &key(i), vec![0u8; 8]);
        }
        assert!(t.height() >= 3, "height {} too small", t.height());
        t.check_invariants().unwrap();
        // Every key still reachable.
        for i in (0..500u64).step_by(37) {
            assert!(t.visit(&store, &key(i), |_| {}));
        }
    }

    #[test]
    fn descent_read_cost_is_height_for_in_page_records() {
        let (mut store, mut t) = small_tree(256);
        for i in 0..500u64 {
            t.insert_entry(&mut store, &key(i), vec![0u8; 8]);
        }
        let h = t.height() as u64;
        store.begin_op();
        assert!(t.visit(&store, &key(123), |_| {}));
        let op = store.end_op();
        assert_eq!(op.reads, h, "CRL = h for ln <= p");
    }

    #[test]
    fn oversized_record_builds_overflow_chain() {
        let (mut store, mut t) = small_tree(256);
        // One key, many entries: the record grows past one page.
        for i in 0..200u64 {
            t.insert_entry(&mut store, &key(7), i.to_be_bytes().to_vec());
        }
        t.check_invariants().unwrap();
        assert!(t.leaf_pages() > 1, "record should span pages");
        let chain = t.leaf_pages();
        // Full lookup reads the whole chain: h-1 internals + chain pages.
        let h = t.height() as u64;
        store.begin_op();
        let entries = read(&t, &store, &key(7)).unwrap();
        let op = store.end_op();
        assert_eq!(entries.len(), 200);
        assert_eq!(op.reads, h - 1 + chain, "CRL = h - 1 + pr");
    }

    #[test]
    fn filtered_lookup_reads_fewer_pages() {
        let (mut store, mut t) = small_tree(256);
        for i in 0..400u64 {
            t.insert_entry(&mut store, &key(7), i.to_be_bytes().to_vec());
        }
        let h = t.height() as u64;
        let chain = t.leaf_pages();
        assert!(chain > 3);
        // Match a single early entry: only one chain page (the first) needed.
        store.begin_op();
        let hits = t.visit_matching(&store, &key(7), |e| e == 0u64.to_be_bytes());
        let full_op = store.end_op();
        assert_eq!(hits, 1);
        assert!(
            full_op.reads < h - 1 + chain,
            "partial read {} should undercut full {}",
            full_op.reads,
            h - 1 + chain
        );
    }

    #[test]
    fn remove_entries_and_records() {
        let (mut store, mut t) = small_tree(4096);
        for i in 0..50u64 {
            t.insert_entry(&mut store, &key(i % 10), i.to_be_bytes().to_vec());
        }
        assert_eq!(t.record_count(), 10);
        assert_eq!(t.entry_count(), 50);
        let removed = t.remove_entries(&mut store, &key(3), |e| {
            u64::from_be_bytes(e.try_into().unwrap()) < 20
        });
        assert_eq!(removed, 2); // 3 and 13
        let n = t.remove_record(&mut store, &key(3)).unwrap();
        assert_eq!(n, 3);
        assert!(!t.visit(&store, &key(3), |_| {}));
        t.check_invariants().unwrap();
    }

    #[test]
    fn removing_all_records_collapses_to_empty_leaf() {
        let (mut store, mut t) = small_tree(256);
        for i in 0..300u64 {
            t.insert_entry(&mut store, &key(i), vec![0u8; 16]);
        }
        assert!(t.height() > 1);
        for i in 0..300u64 {
            t.remove_record(&mut store, &key(i));
        }
        assert_eq!(t.record_count(), 0);
        assert_eq!(t.height(), 1, "root collapses back to a leaf");
        t.check_invariants().unwrap();
        // Store leaks nothing: only the root leaf page lives.
        assert_eq!(store.live_pages(), 1);
    }

    #[test]
    fn replace_entry_in_place() {
        let (mut store, mut t) = small_tree(4096);
        t.insert_entry(&mut store, &key(1), vec![1, 0]);
        t.insert_entry(&mut store, &key(1), vec![2, 0]);
        assert!(t.replace_entry(&mut store, &key(1), |e| e[0] == 2, vec![2, 9]));
        let entries = read(&t, &store, &key(1)).unwrap();
        assert!(entries.contains(&vec![2, 9]));
        assert!(!t.replace_entry(&mut store, &key(9), |_| true, vec![]));
    }

    #[test]
    fn replace_entry_refuses_another_length() {
        // One record of 20 ten-byte entries: a 200-byte replacement would
        // push it past the page without growing its chain.
        let (mut store, mut t) = small_tree(256);
        for i in 0..20u8 {
            t.insert_entry(&mut store, &key(1), vec![i; 10]);
        }
        let before = read(&t, &store, &key(1)).unwrap();
        let pages = store.live_pages();
        assert!(!t.replace_entry(&mut store, &key(1), |e| e[0] == 3, vec![3; 200]));
        assert!(!t.replace_entry(&mut store, &key(1), |e| e[0] == 3, vec![3; 9]));
        assert_eq!(
            read(&t, &store, &key(1)).unwrap(),
            before,
            "nothing changed"
        );
        assert_eq!(store.live_pages(), pages);
        t.check_invariants().unwrap();
        assert!(t.replace_entry(&mut store, &key(1), |e| e[0] == 3, vec![7; 10]));
        assert_eq!(read(&t, &store, &key(1)).unwrap()[3], vec![7; 10]);

        // A four-record leaf: 100-byte replacements of 10-byte entries
        // would overfill its one page.
        let (mut store, mut t) = small_tree(256);
        for k in 0..4u64 {
            t.insert_entry(&mut store, &key(k), vec![k as u8; 10]);
        }
        assert_eq!(t.height(), 1);
        for k in 0..4u64 {
            assert!(!t.replace_entry(&mut store, &key(k), |_| true, vec![0; 100]));
        }
        t.check_invariants().unwrap();
        assert_eq!(t.leaf_pages(), 1);
    }

    #[test]
    fn split_leaves_no_overfull_leaf() {
        // Capacity 112: records of 48, 45 and 19 bytes fill one leaf;
        // growing the middle one to 71 makes 138, and the byte-midpoint
        // cut keeps 119 bytes left of it unless that side splits again.
        let (mut store, mut t) = small_tree(128);
        for (k, len) in [(1, 30), (2, 27), (3, 1)] {
            t.insert_entry(&mut store, &key(k), vec![k as u8; len]);
        }
        t.check_invariants().unwrap();
        t.insert_entry(&mut store, &key(2), vec![2; 24]);
        t.check_invariants().unwrap();
        assert_eq!(t.level_profile().leaf_level(), (3, 3));
        for k in 1..=3 {
            assert!(t.visit(&store, &key(k), |_| {}));
        }
    }

    #[test]
    fn level_profile_shape() {
        let (mut store, mut t) = small_tree(256);
        for i in 0..500u64 {
            t.insert_entry(&mut store, &key(i), vec![0u8; 8]);
        }
        let prof = t.level_profile();
        assert_eq!(prof.height(), t.height());
        assert_eq!(prof.levels[0].1, 1, "one root page");
        assert_eq!(prof.leaf_level().0, 500);
        // Pages increase monotonically towards the leaves.
        for w in prof.levels.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn leaf_scan_counts_all_leaf_pages() {
        let (mut store, mut t) = small_tree(256);
        for i in 0..300u64 {
            t.insert_entry(&mut store, &key(i), vec![0u8; 8]);
        }
        store.begin_op();
        let n = t.scan_leaves(&store);
        let op = store.end_op();
        assert_eq!(n, 300);
        assert_eq!(op.reads, t.leaf_pages());
    }

    #[test]
    fn iter_records_in_key_order() {
        let (mut store, mut t) = small_tree(256);
        let mut keys: Vec<u64> = (0..200).map(|i| (i * 977) % 1000).collect();
        for &i in &keys {
            t.insert_entry(&mut store, &key(i), vec![1]);
        }
        keys.sort_unstable();
        keys.dedup();
        let seen: Vec<u64> = t
            .iter_records()
            .map(|(k, _)| u64::from_be_bytes(k.try_into().unwrap()))
            .collect();
        assert_eq!(seen, keys);
    }
}
