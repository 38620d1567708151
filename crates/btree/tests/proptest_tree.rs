//! Property-based and golden tests of the B+-tree.
//!
//! * The tree behaves like an ordered map of ordered posting lists and
//!   never violates its structural invariants, for arbitrary interleavings
//!   of inserts, entry removals, record removals, in-place replacements
//!   (of the same length, and refused ones of another) and reads, across
//!   page sizes (`tree_matches_model`).
//! * Its page accounting is pinned: three fixed seeded streams reproduce
//!   the access counters, per-operation statistics, tree shape and live
//!   pages recorded before the record became one flat byte run
//!   (`page_accounting_is_golden`). A change to any `touch_read` /
//!   `touch_write` / `alloc` / `free` — which page, or in which order —
//!   shows up here before it shows up in a model-validation number.

use oic_btree::{chain_pages, record_len, BTreeIndex};
use oic_storage::{AccessStats, OpStats, SimStore};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Model = BTreeMap<Vec<u8>, Vec<Vec<u8>>>;

/// Which entries of a record an operation addresses: those whose first
/// byte is `tag` and, when `fine` is set, whose last byte has that low
/// nibble — coarse selectors touch most chain pages, fine ones a few.
#[derive(Debug, Clone, Copy)]
struct Sel {
    tag: u8,
    fine: Option<u8>,
}

impl Sel {
    fn matches(&self, e: &[u8]) -> bool {
        e[0] == self.tag && self.fine.map_or(true, |m| e[e.len() - 1] & 15 == m)
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, Vec<u8>),
    RemoveEntries(u16, Sel),
    RemoveRecord(u16),
    /// Overwrites the last byte of the first selected entry.
    Replace(u16, Sel, u8),
    /// Replaces the first selected entry with one of the given length,
    /// which the tree refuses unless the length is the old one's.
    Resize(u16, Sel, usize),
    ReadMatching(u16, Sel),
    Read(u16),
    ScanLeaves,
}

fn key(k: u16) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

/// An entry of `len` bytes: the tag, then filler derived from `salt`.
fn entry(tag: u8, len: usize, salt: u64) -> Vec<u8> {
    let mut e = vec![tag];
    e.extend((1..len).map(|i| (salt >> (8 * (i % 8))) as u8 ^ i as u8));
    e
}

fn read_all(tree: &BTreeIndex, store: &SimStore, key: &[u8]) -> Option<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    tree.visit(store, key, |e| out.push(e.to_vec()))
        .then_some(out)
}

fn read_matching(tree: &BTreeIndex, store: &SimStore, key: &[u8], sel: Sel) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    tree.visit_matching(store, key, |e| {
        let hit = sel.matches(e);
        if hit {
            out.push(e.to_vec());
        }
        hit
    });
    out
}

/// Applies `op` to the tree and the model inside one operation scope,
/// checks that both agree on what the operation returned, and returns the
/// scope's statistics plus a number summarizing the result.
fn apply(
    tree: &mut BTreeIndex,
    store: &mut SimStore,
    model: &mut Model,
    op: &Op,
) -> Result<(OpStats, u64), TestCaseError> {
    store.begin_op();
    let result = match op {
        Op::Insert(k, e) => {
            tree.insert_entry(store, &key(*k), e.clone());
            model.entry(key(*k)).or_default().push(e.clone());
            0
        }
        Op::RemoveEntries(k, sel) => {
            let removed = tree.remove_entries(store, &key(*k), |e| sel.matches(e));
            let mut want = 0;
            if let Some(list) = model.get_mut(&key(*k)) {
                let before = list.len();
                list.retain(|e| !sel.matches(e));
                want = before - list.len();
                if list.is_empty() {
                    model.remove(&key(*k));
                }
            }
            prop_assert_eq!(removed, want);
            removed as u64
        }
        Op::RemoveRecord(k) => {
            let n = tree.remove_record(store, &key(*k));
            prop_assert_eq!(n, model.remove(&key(*k)).map(|list| list.len()));
            n.map_or(u64::MAX, |n| n as u64)
        }
        Op::Replace(k, sel, last) => {
            let slot = model
                .get_mut(&key(*k))
                .and_then(|list| list.iter_mut().find(|e| sel.matches(e)));
            let new = slot.as_ref().map_or(Vec::new(), |old| {
                let mut new = old.to_vec();
                *new.last_mut().expect("entries are non-empty") = *last;
                new
            });
            let replaced = tree.replace_entry(store, &key(*k), |e| sel.matches(e), new.clone());
            prop_assert_eq!(replaced, slot.is_some());
            if let Some(slot) = slot {
                *slot = new;
            }
            replaced as u64
        }
        Op::Resize(k, sel, len) => {
            let slot = model
                .get_mut(&key(*k))
                .and_then(|list| list.iter_mut().find(|e| sel.matches(e)));
            let new = entry(sel.tag, *len, *len as u64);
            let replaced = tree.replace_entry(store, &key(*k), |e| sel.matches(e), new.clone());
            let fits = slot.as_ref().is_some_and(|old| old.len() == *len);
            prop_assert_eq!(replaced, fits);
            if let Some(slot) = slot.filter(|_| fits) {
                *slot = new;
            }
            replaced as u64
        }
        Op::ReadMatching(k, sel) => {
            let got = read_matching(tree, store, &key(*k), *sel);
            let want: Vec<Vec<u8>> = model
                .get(&key(*k))
                .map(|list| list.iter().filter(|e| sel.matches(e)).cloned().collect())
                .unwrap_or_default();
            prop_assert_eq!(&got, &want);
            got.len() as u64
        }
        Op::Read(k) => {
            let got = read_all(tree, store, &key(*k));
            prop_assert_eq!(got.as_ref(), model.get(&key(*k)));
            got.map_or(u64::MAX, |list| list.len() as u64)
        }
        Op::ScanLeaves => {
            let visited = tree.scan_leaves(store);
            prop_assert_eq!(visited as usize, model.len());
            visited
        }
    };
    Ok((store.end_op(), result))
}

/// The tree holds exactly the model: keys ascending, entries in insertion
/// order.
fn assert_same_contents(tree: &BTreeIndex, model: &Model) -> Result<(), TestCaseError> {
    let got: Vec<(Vec<u8>, Vec<Vec<u8>>)> = tree
        .iter_records()
        .map(|(k, entries)| (k.to_vec(), entries.map(<[u8]>::to_vec).collect()))
        .collect();
    let want: Vec<(Vec<u8>, Vec<Vec<u8>>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    prop_assert_eq!(got, want);
    prop_assert_eq!(tree.record_count() as usize, model.len());
    let entries: usize = model.values().map(Vec::len).sum();
    prop_assert_eq!(tree.entry_count() as usize, entries);
    Ok(())
}

fn sel_strategy() -> impl Strategy<Value = Sel> {
    (any::<u8>(), any::<u8>()).prop_map(|(tag, fine)| Sel {
        tag: tag % 8,
        fine: (fine & 16 != 0).then_some(fine & 15),
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u16>(), any::<u8>(), any::<u64>())
            .prop_map(|(k, v, salt)| Op::Insert(k % 64, entry(v % 8, 1 + (salt % 24) as usize, salt))),
        2 => (any::<u16>(), sel_strategy()).prop_map(|(k, s)| Op::RemoveEntries(k % 64, s)),
        1 => any::<u16>().prop_map(|k| Op::RemoveRecord(k % 64)),
        1 => (any::<u16>(), sel_strategy(), any::<u8>()).prop_map(|(k, s, b)| Op::Replace(k % 64, s, b)),
        1 => (any::<u16>(), sel_strategy(), 1usize..25).prop_map(|(k, s, len)| Op::Resize(k % 64, s, len)),
        1 => (any::<u16>(), sel_strategy()).prop_map(|(k, s)| Op::ReadMatching(k % 64, s)),
        1 => any::<u16>().prop_map(|k| Op::Read(k % 64)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_matches_model(ops in prop::collection::vec(op_strategy(), 1..200),
                          page_size in prop::sample::select(vec![128usize, 256, 1024])) {
        let mut store = SimStore::new(page_size);
        let mut tree = BTreeIndex::new(&mut store);
        let mut model = Model::new();
        for op in &ops {
            apply(&mut tree, &mut store, &mut model, op)?;
            tree.check_invariants().map_err(TestCaseError::fail)?;
        }
        assert_same_contents(&tree, &model)?;
    }

    #[test]
    fn mass_delete_releases_pages(n in 1usize..300) {
        let mut store = SimStore::new(256);
        let mut tree = BTreeIndex::new(&mut store);
        for i in 0..n {
            tree.insert_entry(&mut store, &key(i as u16), vec![0u8; 8]);
        }
        for i in 0..n {
            tree.remove_record(&mut store, &key(i as u16));
        }
        prop_assert_eq!(tree.record_count(), 0);
        prop_assert_eq!(store.live_pages(), 1, "only the empty root leaf remains");
        tree.check_invariants().map_err(TestCaseError::fail)?;
    }
}

// ---- golden page accounting ------------------------------------------------

/// SplitMix64: the stream must not depend on any crate's generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const GOLDEN_STEPS: usize = 12_000;

/// Operation `step` of the golden stream: a growth phase that pushes three
/// hot records deep into overflow chains, a shrink phase that pulls them
/// back out, then an even mix. Entries have the lengths of the NIX trees:
/// 8-byte oids, 12-byte `(oid, numchild)` pairs, 9-byte parent entries and
/// tagged pointers carrying a key of 2–24 bytes.
fn golden_op(rng: &mut SplitMix, step: usize) -> Op {
    // Cumulative weights out of 100: insert, remove entries, remove
    // record, replace, read matching, read; the remainder scans.
    let growing = step < GOLDEN_STEPS / 2;
    let weights = match step * 10 / GOLDEN_STEPS {
        0..=4 => [80, 83, 84, 88, 96, 99],
        5..=7 => [15, 60, 68, 78, 93, 99],
        _ => [40, 60, 64, 74, 94, 99],
    };
    // Two picks in three go to the hot keys 40..43.
    let k = match rng.below(3) {
        0 => rng.below(40) as u16,
        _ => 40 + rng.below(3) as u16,
    };
    let fine_odds = if growing { 8 } else { 3 };
    let sel = Sel {
        tag: rng.below(8) as u8,
        fine: (rng.below(fine_odds) > 0).then(|| rng.below(16) as u8),
    };
    let roll = rng.below(100);
    match weights.iter().position(|&w| roll < w) {
        Some(0) => {
            let len = match rng.below(4) {
                0 => 8,
                1 => 12,
                2 => 9,
                _ => 3 + rng.below(23) as usize,
            };
            Op::Insert(k, entry(sel.tag, len, rng.next()))
        }
        Some(1) => Op::RemoveEntries(k, sel),
        // While growing, whole-record removals spare the hot keys.
        Some(2) if growing => Op::RemoveRecord(k % 40),
        Some(2) => Op::RemoveRecord(k),
        Some(3) => Op::Replace(k, sel, rng.next() as u8),
        Some(4) => Op::ReadMatching(k, sel),
        Some(5) => Op::Read(k),
        _ => Op::ScanLeaves,
    }
}

/// Everything the stream leaves behind that a cost-model number could
/// depend on.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// Cumulative `(reads, writes)` of the store.
    cumulative: (u64, u64),
    /// FNV-1a fold of every operation's `OpStats` and result, in order.
    op_digest: u64,
    /// Reads that touched fewer pages than the record's chain holds.
    partial_reads: u64,
    /// `level_profile()` when the growth phase ends (chains at their peak).
    peak_levels: Vec<(u64, u64)>,
    /// `level_profile()` at the end of the stream.
    end_levels: Vec<(u64, u64)>,
    end_leaf_pages: u64,
    end_live_pages: u64,
}

fn run_golden(page_size: usize, seed: u64) -> Golden {
    let mut store = SimStore::new(page_size);
    let mut tree = BTreeIndex::new(&mut store);
    let mut model = Model::new();
    let mut rng = SplitMix(seed);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut partial_reads = 0;
    let mut peak_levels = Vec::new();
    for step in 0..GOLDEN_STEPS {
        let op = golden_op(&mut rng, step);
        // A record longer than a page is alone in its leaf and owns a chain.
        let chain = match &op {
            Op::ReadMatching(k, _) => model.get(&key(*k)).map_or(0, |list| {
                chain_pages(page_size, record_len(2, list.iter().map(Vec::len))) as u64
            }),
            _ => 0,
        };
        let (stats, result) =
            apply(&mut tree, &mut store, &mut model, &op).unwrap_or_else(|e| panic!("{e:?}"));
        if chain > 1 && stats.reads < tree.height() as u64 - 1 + chain {
            partial_reads += 1;
        }
        for x in [
            stats.reads,
            stats.writes,
            stats.distinct_reads,
            stats.distinct_writes,
            result,
        ] {
            digest = (digest ^ x).wrapping_mul(0x0000_0100_0000_01B3);
        }
        if step % 97 == 0 {
            tree.check_invariants().expect("invariants hold mid-stream");
        }
        if step + 1 == GOLDEN_STEPS / 2 {
            peak_levels = tree.level_profile().levels;
        }
    }
    assert_same_contents(&tree, &model).unwrap_or_else(|e| panic!("{e:?}"));
    let AccessStats { reads, writes } = store.stats();
    Golden {
        cumulative: (reads, writes),
        op_digest: digest,
        partial_reads,
        peak_levels,
        end_levels: tree.level_profile().levels,
        end_leaf_pages: tree.leaf_pages(),
        end_live_pages: store.live_pages(),
    }
}

/// Recorded from the `Vec<Vec<u8>>`-per-record tree this representation
/// replaced (commit c422430); the streams and these numbers are the
/// contract, not the code that first produced them.
#[test]
fn page_accounting_is_golden() {
    let golden = [
        (
            (256, 1994),
            Golden {
                cumulative: (48439, 8794),
                op_digest: 12649978452568802313,
                partial_reads: 455,
                peak_levels: vec![(3, 1), (41, 3), (42, 201)],
                end_levels: vec![(3, 1), (25, 3), (37, 26)],
                end_leaf_pages: 26,
                end_live_pages: 30,
            },
        ),
        (
            (1024, 7),
            Golden {
                cumulative: (27679, 7689),
                op_digest: 6747416100950186936,
                partial_reads: 278,
                peak_levels: vec![(28, 1), (42, 52)],
                end_levels: vec![(8, 1), (37, 8)],
                end_leaf_pages: 8,
                end_live_pages: 9,
            },
        ),
        (
            (4096, 51),
            Golden {
                cumulative: (24407, 7315),
                op_digest: 745015964006651367,
                partial_reads: 77,
                peak_levels: vec![(7, 1), (42, 13)],
                end_levels: vec![(4, 1), (37, 4)],
                end_leaf_pages: 4,
                end_live_pages: 5,
            },
        ),
    ];
    for ((page_size, seed), want) in golden {
        assert_eq!(run_golden(page_size, seed), want, "page size {page_size}");
    }
}
