//! Node arena and record representation.

use crate::{ENTRY_OVERHEAD, RECORD_OVERHEAD};
use oic_storage::PageId;

pub(crate) type NodeId = usize;
/// An owned key: a record's, or a separator copied up from one.
pub(crate) type Key = Vec<u8>;

/// One index record: a key with its posting list of opaque entries, held
/// as the byte run [`record_len`](crate::record_len) prices. `body` is, per
/// entry, an [`ENTRY_OVERHEAD`]-byte big-endian length then the entry's
/// bytes, so `ln = RECORD_OVERHEAD + |key| + |body|` and entry `i` sits at
/// the same byte offset it would have on a page.
///
/// `width` is the length every entry shares, or 0 when lengths differ: the
/// first push into an empty record sets it, a push or replacement of
/// another length clears it, and removals keep it. While it is non-zero,
/// readers step over the length prefixes instead of parsing them. `count`
/// and `width` are packed as `u32` so the record stays seven words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Record {
    pub key: Key,
    body: Vec<u8>,
    count: u32,
    width: u32,
}

impl Record {
    pub fn new(key: &[u8]) -> Self {
        Record {
            key: key.to_vec(),
            body: Vec::new(),
            count: 0,
            width: 0,
        }
    }

    /// `ln` — the stored length of the record.
    pub fn len_bytes(&self) -> usize {
        RECORD_OVERHEAD + self.key.len() + self.body.len()
    }

    /// Number of entries in the posting list.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// The posting list in order, each entry with the offset of its length
    /// prefix within the record (header and key first) — what maps an
    /// entry to its overflow-chain page.
    pub fn entries(&self) -> Entries<'_> {
        Entries {
            body: &self.body,
            offset: RECORD_OVERHEAD + self.key.len(),
            width: self.width as usize,
        }
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: &[u8]) {
        push_entry(&mut self.body, entry);
        self.width = if self.count == 0 {
            u32::try_from(entry.len()).unwrap_or(0)
        } else {
            self.keep_width(entry.len())
        };
        self.count += 1;
    }

    /// `width` after an entry of `len` bytes joins the others.
    fn keep_width(&self, len: usize) -> u32 {
        if self.width as usize == len {
            self.width
        } else {
            0
        }
    }

    /// Length of the entry whose prefix starts at body offset `at`.
    fn entry_len(&self, at: usize) -> usize {
        match self.width {
            0 => be_len(&self.body[at..at + ENTRY_OVERHEAD]),
            width => width as usize,
        }
    }

    /// Removes every entry `pred` selects, calling `on_match` with the
    /// record offset of each before anything moves. Returns how many went.
    /// Each maximal run of kept entries moves down in one copy.
    pub fn remove_where(
        &mut self,
        mut pred: impl FnMut(&[u8]) -> bool,
        mut on_match: impl FnMut(usize),
    ) -> usize {
        let w = ENTRY_OVERHEAD;
        let base = RECORD_OVERHEAD + self.key.len();
        // Kept bytes so far end at `write`; the current kept run starts at
        // `run`. A copy only lands below `read`, so `pred` sees every entry
        // where it was.
        let (mut read, mut write, mut run, mut removed) = (0, 0, 0, 0);
        while read < self.body.len() {
            let end = read + w + self.entry_len(read);
            if pred(&self.body[read + w..end]) {
                on_match(base + read);
                removed += 1;
                write = self.shift_run(run..read, write);
                run = end;
            }
            read = end;
        }
        let end = self.body.len();
        let write = self.shift_run(run..end, write);
        self.body.truncate(write);
        self.count -= removed as u32;
        removed
    }

    /// Moves the kept bytes `run` down to `write`; returns where the next
    /// kept run goes.
    fn shift_run(&mut self, run: std::ops::Range<usize>, write: usize) -> usize {
        if write < run.start {
            self.body.copy_within(run.clone(), write);
        }
        write + run.len()
    }

    /// Overwrites the entry whose length prefix sits at record offset
    /// `offset` (as yielded by [`Record::entries`]).
    pub fn replace_at(&mut self, offset: usize, entry: &[u8]) {
        let w = ENTRY_OVERHEAD;
        let at = offset - RECORD_OVERHEAD - self.key.len();
        let old = self.entry_len(at);
        self.width = self.keep_width(entry.len());
        self.body[at..at + w].copy_from_slice(&be_prefix(entry.len())[8 - w..]);
        self.body
            .splice(at + w..at + w + old, entry.iter().copied());
    }
}

/// Appends `entry` behind its [`ENTRY_OVERHEAD`]-byte big-endian length.
fn push_entry(body: &mut Vec<u8>, entry: &[u8]) {
    body.extend_from_slice(&be_prefix(entry.len())[8 - ENTRY_OVERHEAD..]);
    body.extend_from_slice(entry);
}

/// `len` big-endian; its last [`ENTRY_OVERHEAD`] bytes are the length
/// prefix.
fn be_prefix(len: usize) -> [u8; 8] {
    assert!(
        len as u64 >> (8 * ENTRY_OVERHEAD) == 0,
        "a {len}-byte entry does not fit a {ENTRY_OVERHEAD}-byte length prefix"
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
    /// The record's common entry length; 0 parses each prefix.
    width: usize,
}

impl<'a> Iterator for Entries<'a> {
    type Item = (usize, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.body.is_empty() {
            return None;
        }
        let len = match self.width {
            0 => be_len(&self.body[..ENTRY_OVERHEAD]),
            width => width,
        };
        let (entry, rest) = self.body.split_at(ENTRY_OVERHEAD + len);
        let at = self.offset;
        self.offset += entry.len();
        self.body = rest;
        Some((at, &entry[ENTRY_OVERHEAD..]))
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
    use proptest::prelude::*;

    /// The reference reader: every entry by parsing its length prefix.
    fn parsed(r: &Record) -> Vec<(usize, Vec<u8>)> {
        let w = ENTRY_OVERHEAD;
        let mut at = 0;
        let mut out = Vec::new();
        while at < r.body.len() {
            let len = be_len(&r.body[at..at + w]);
            let off = RECORD_OVERHEAD + r.key.len() + at;
            out.push((off, r.body[at + w..at + w + len].to_vec()));
            at += w + len;
        }
        out
    }

    /// The reference compaction: one parse and one copy per entry.
    fn removed_per_entry(r: &Record, pred: impl Fn(&[u8]) -> bool) -> (Vec<u8>, usize, Vec<usize>) {
        let (mut body, mut offsets) = (Vec::new(), Vec::new());
        for (off, e) in parsed(r) {
            if pred(&e) {
                offsets.push(off);
            } else {
                push_entry(&mut body, &e);
            }
        }
        (body, r.count() - offsets.len(), offsets)
    }

    /// A record of `lens.len()` entries, each tagged by its index.
    fn record_of(lens: &[usize]) -> Record {
        let mut r = Record::new(b"key");
        for (i, &len) in lens.iter().enumerate() {
            r.push(&vec![i as u8; len]);
        }
        r
    }

    /// Mixed lengths, or one length for every entry.
    fn lens_strategy() -> impl Strategy<Value = Vec<usize>> {
        (prop::collection::vec(1usize..40, 0..60), any::<bool>()).prop_map(
            |(lens, uniform)| match (uniform, lens.first()) {
                (true, Some(&len)) => vec![len; lens.len()],
                _ => lens,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The width step reads exactly what prefix parsing reads, and
        /// `width` is set exactly when every length agrees.
        #[test]
        fn width_step_matches_prefix_parse(lens in lens_strategy()) {
            let r = record_of(&lens);
            let uniform = lens.windows(2).all(|w| w[0] == w[1]);
            let want = if uniform { lens.first().copied().unwrap_or(0) } else { 0 };
            prop_assert_eq!(r.width as usize, want);
            let got: Vec<(usize, Vec<u8>)> =
                r.entries().map(|(off, e)| (off, e.to_vec())).collect();
            prop_assert_eq!(got, parsed(&r));
        }

        /// Run-wise compaction leaves the bytes, the count and the
        /// `on_match` offsets per-entry compaction leaves, and keeps `width`.
        #[test]
        fn runwise_removal_matches_per_entry(lens in lens_strategy(), mask in any::<u64>(), stride in 1u8..5) {
            let mut r = record_of(&lens);
            let pred = |e: &[u8]| (mask >> (e[0] % 64)) & 1 == 1 && e[0] % stride == 0;
            let (body, count, offsets) = removed_per_entry(&r, pred);
            let width = r.width;
            let mut got = Vec::new();
            let removed = r.remove_where(pred, |off| got.push(off));
            prop_assert_eq!(removed, offsets.len());
            prop_assert_eq!(got, offsets);
            prop_assert_eq!(&r.body, &body);
            prop_assert_eq!(r.count(), count);
            prop_assert_eq!(r.width, width, "removals keep the width");
            let rest: Vec<(usize, Vec<u8>)> =
                r.entries().map(|(off, e)| (off, e.to_vec())).collect();
            prop_assert_eq!(rest, parsed(&r));
        }
    }

    #[test]
    fn width_follows_pushes_and_replacements() {
        let mut r = Record::new(b"k");
        r.push(&[1; 12]);
        r.push(&[2; 12]);
        assert_eq!(r.width, 12, "the first push sets it");
        let (at, _) = r.entries().nth(1).expect("two entries");
        r.replace_at(at, &[3; 12]);
        assert_eq!(r.width, 12, "a same-length replacement keeps it");
        r.replace_at(at, &[3; 9]);
        assert_eq!(r.width, 0, "a replacement of another length clears it");
        r.replace_at(at, &[3; 12]);
        assert_eq!(r.width, 0, "only an empty record resets it");
        assert_eq!(r.entries().count(), 2);

        let mut r = record_of(&[8, 8]);
        r.push(&[9; 4]);
        assert_eq!(r.width, 0, "a push of another length clears it");
        assert_eq!(r.remove_where(|_| true, |_| {}), 3);
        assert_eq!(r.width, 0, "removals keep it, even to empty");
        r.push(&[5; 6]);
        assert_eq!(r.width, 6, "a push into an empty record resets it");
        let entries: Vec<&[u8]> = r.entries().map(|(_, e)| e).collect();
        assert_eq!(entries, vec![&[5u8; 6][..]]);
    }

    #[test]
    fn record_stays_seven_words() {
        assert_eq!(std::mem::size_of::<Record>(), 56);
    }

    #[test]
    fn record_size_and_offsets() {
        let mut r = Record::new(&[0; 9]);
        r.push(&[1; 8]);
        r.push(&[2; 16]);
        assert_eq!(r.len_bytes(), 8 + 9 + (8 + 2) + (16 + 2));
        assert_eq!(
            r.len_bytes(),
            crate::record_len(9, [8usize, 16].into_iter()),
            "the record is the bytes the layout prices"
        );
        let entries: Vec<_> = r.entries().collect();
        assert_eq!(
            entries,
            vec![(8 + 9, &[1u8; 8][..]), (8 + 9 + 10, &[2u8; 16][..])]
        );
    }

    #[test]
    fn record_edits_keep_order_and_length() {
        let mut r = Record::new(b"k");
        for e in [&b"a1"[..], b"b22", b"a333", b"c"] {
            r.push(e);
        }
        let mut offsets = Vec::new();
        let removed = r.remove_where(|e| e[0] == b'a', |off| offsets.push(off));
        assert_eq!((removed, r.count()), (2, 2));
        assert_eq!(offsets, vec![9, 9 + 4 + 5], "offsets are pre-removal");
        let (at, _) = r.entries().nth(1).expect("two entries left");
        r.replace_at(at, b"dd");
        let left: Vec<&[u8]> = r.entries().map(|(_, e)| e).collect();
        assert_eq!(left, vec![&b"b22"[..], b"dd"]);
        assert_eq!(r.len_bytes(), crate::record_len(1, [3usize, 2].into_iter()));
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
