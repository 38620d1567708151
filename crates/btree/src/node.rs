//! Node arena and record representation.

use crate::Layout;
use oic_storage::PageId;

pub(crate) type NodeId = usize;
/// An owned key: a record's, or a separator copied up from one.
pub(crate) type Key = Vec<u8>;

/// One index record: a key with its posting list of opaque entries, held
/// as the byte run [`Layout::record_len`] prices. `body` is, per entry, an
/// `entry_overhead`-byte big-endian length then the entry's bytes, so
/// `ln = record_overhead + |key| + |body|` and entry `i` sits at the same
/// byte offset it would have on a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Record {
    pub key: Key,
    body: Vec<u8>,
    count: usize,
}

impl Record {
    pub fn new(key: &[u8]) -> Self {
        Record {
            key: key.to_vec(),
            body: Vec::new(),
            count: 0,
        }
    }

    /// `ln` — the stored length of the record.
    pub fn len_bytes(&self, layout: &Layout) -> usize {
        layout.record_overhead + self.key.len() + self.body.len()
    }

    /// Number of entries in the posting list.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The posting list in order, each entry with the offset of its length
    /// prefix within the record (header and key first) — what maps an
    /// entry to its overflow-chain page.
    pub fn entries(&self, layout: &Layout) -> Entries<'_> {
        Entries {
            body: &self.body,
            offset: layout.record_overhead + self.key.len(),
            prefix: layout.entry_overhead,
        }
    }

    /// Appends an entry.
    pub fn push(&mut self, layout: &Layout, entry: &[u8]) {
        push_entry(&mut self.body, layout.entry_overhead, entry);
        self.count += 1;
    }

    /// Removes every entry `pred` selects, calling `on_match` with the
    /// record offset of each before anything moves. Returns how many went.
    pub fn remove_where(
        &mut self,
        layout: &Layout,
        mut pred: impl FnMut(&[u8]) -> bool,
        mut on_match: impl FnMut(usize),
    ) -> usize {
        let w = layout.entry_overhead;
        let base = layout.record_overhead + self.key.len();
        let (mut read, mut write, mut removed) = (0, 0, 0);
        while read < self.body.len() {
            let end = read + w + be_len(&self.body[read..read + w]);
            if pred(&self.body[read + w..end]) {
                on_match(base + read);
                removed += 1;
            } else {
                if write < read {
                    self.body.copy_within(read..end, write);
                }
                write += end - read;
            }
            read = end;
        }
        self.body.truncate(write);
        self.count -= removed;
        removed
    }

    /// Overwrites the entry whose length prefix sits at record offset
    /// `offset` (as yielded by [`Record::entries`]).
    pub fn replace_at(&mut self, layout: &Layout, offset: usize, entry: &[u8]) {
        let w = layout.entry_overhead;
        let at = offset - layout.record_overhead - self.key.len();
        let old = be_len(&self.body[at..at + w]);
        self.body[at..at + w].copy_from_slice(&be_prefix(w, entry.len())[8 - w..]);
        self.body
            .splice(at + w..at + w + old, entry.iter().copied());
    }
}

/// Appends `entry` behind its `w`-byte big-endian length.
fn push_entry(body: &mut Vec<u8>, w: usize, entry: &[u8]) {
    body.extend_from_slice(&be_prefix(w, entry.len())[8 - w..]);
    body.extend_from_slice(entry);
}

/// `len` big-endian; its last `w` bytes are the length prefix.
fn be_prefix(w: usize, len: usize) -> [u8; 8] {
    assert!(
        (1..=8).contains(&w) && (w == 8 || len as u64 >> (8 * w) == 0),
        "a {len}-byte entry does not fit a {w}-byte length prefix"
    );
    (len as u64).to_be_bytes()
}

fn be_len(prefix: &[u8]) -> usize {
    prefix.iter().fold(0, |n, &b| n << 8 | b as usize)
}

/// Iterator over a record's entries as `(record offset, entry bytes)`.
pub(crate) struct Entries<'a> {
    body: &'a [u8],
    offset: usize,
    prefix: usize,
}

impl<'a> Iterator for Entries<'a> {
    type Item = (usize, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.body.is_empty() {
            return None;
        }
        let (prefix, rest) = self.body.split_at(self.prefix);
        let (entry, rest) = rest.split_at(be_len(prefix));
        let at = self.offset;
        self.offset += self.prefix + entry.len();
        self.body = rest;
        Some((at, entry))
    }
}

#[derive(Debug)]
pub(crate) enum Node {
    Internal {
        /// `keys[i]` separates `children[i]` (keys < `keys[i]`) from
        /// `children[i+1]`.
        keys: Vec<Key>,
        children: Vec<NodeId>,
        page: PageId,
    },
    Leaf(Leaf),
}

#[derive(Debug)]
pub(crate) struct Leaf {
    pub records: Vec<Record>,
    /// `Σ ln` over `records`, kept as they change.
    pub bytes: usize,
    pub next: Option<NodeId>,
    pub prev: Option<NodeId>,
    /// In-page leaves own exactly one page; a leaf holding a single
    /// oversized record owns its `⌈ln/p⌉`-page chain.
    pub pages: Vec<PageId>,
}

/// Per-level shape of the tree, root first: `(records, pages)` where
/// `records` is the number of routing entries (internal) or index records
/// (leaf level) and `pages` the pages occupied. This is the `(n_k, p_k)`
/// profile consumed by the paper's `CRT`/`CMT` via Yao's formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelProfile {
    /// `(n_k, p_k)` per level, index 0 = root level.
    pub levels: Vec<(u64, u64)>,
}

impl LevelProfile {
    /// Height of the tree (number of levels, leaves included).
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// `(n, p)` of the leaf level.
    pub fn leaf_level(&self) -> (u64, u64) {
        *self.levels.last().expect("trees have at least one level")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_size_and_offsets() {
        let layout = Layout::for_page_size(4096);
        let mut r = Record::new(&[0; 9]);
        r.push(&layout, &[1; 8]);
        r.push(&layout, &[2; 16]);
        assert_eq!(r.len_bytes(&layout), 8 + 9 + (8 + 2) + (16 + 2));
        assert_eq!(
            r.len_bytes(&layout),
            layout.record_len(9, [8usize, 16].into_iter()),
            "the record is the bytes the layout prices"
        );
        let entries: Vec<_> = r.entries(&layout).collect();
        assert_eq!(
            entries,
            vec![(8 + 9, &[1u8; 8][..]), (8 + 9 + 10, &[2u8; 16][..])]
        );
    }

    #[test]
    fn record_edits_keep_order_and_length() {
        let layout = Layout::for_page_size(4096);
        let mut r = Record::new(b"k");
        for e in [&b"a1"[..], b"b22", b"a333", b"c"] {
            r.push(&layout, e);
        }
        let mut offsets = Vec::new();
        let removed = r.remove_where(&layout, |e| e[0] == b'a', |off| offsets.push(off));
        assert_eq!((removed, r.count()), (2, 2));
        assert_eq!(offsets, vec![9, 9 + 4 + 5], "offsets are pre-removal");
        let (at, _) = r.entries(&layout).nth(1).expect("two entries left");
        r.replace_at(&layout, at, b"dd");
        let left: Vec<&[u8]> = r.entries(&layout).map(|(_, e)| e).collect();
        assert_eq!(left, vec![&b"b22"[..], b"dd"]);
        assert_eq!(
            r.len_bytes(&layout),
            layout.record_len(1, [3usize, 2].into_iter())
        );
    }

    #[test]
    fn level_profile_accessors() {
        let p = LevelProfile {
            levels: vec![(2, 1), (100, 10)],
        };
        assert_eq!(p.height(), 2);
        assert_eq!(p.leaf_level(), (100, 10));
    }
}
