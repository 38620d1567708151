//! Model-differential property test (ISSUE 6, satellite 1).
//!
//! A [`PagedBTree`] over the pager and a [`std::collections::BTreeMap`]
//! consume the same generated operation sequence — insert, delete,
//! lookup, range, early-stopped visit — and must agree on every
//! observable after every operation: the returned old/looked-up values,
//! the record count, range contents, and (periodically) the full scan
//! plus the tree's structural invariants. Values change length from
//! version to version, so an overwrite takes the in-place path, the
//! grow path and the shrink path (remove + insert in a compacted page).
//! The whole sequence runs twice per page size, under a 2-frame cache
//! (every descent evicts) and an effectively unbounded one, and both
//! runs must also agree with each other once the dust settles.

use oic_btree::PagedBTree;
use oic_pager::{MemFile, Pager};
use oic_storage::paged::PageStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEY_SPACE: u32 = 2_000; // n ≤ 2k distinct keys
const OPS: usize = 6_000;
/// 128-byte pages force deep trees and constant splits; the larger ones
/// hold tens to hundreds of cells, so slot search and compaction work on
/// full directories.
const PAGE_SIZES: [usize; 4] = [128, 256, 1024, 4096];
const PAGE_SIZE: usize = PAGE_SIZES[0];

fn key(i: u32) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

/// 8 to 12 bytes by version (a 128-byte page caps an item at 16): the
/// same key is overwritten with equal, longer and shorter values.
fn val(i: u32, version: u32) -> Vec<u8> {
    let mut v = i.to_le_bytes().to_vec();
    v.extend_from_slice(&version.to_le_bytes());
    v.resize(8 + version as usize % 5, 0xEE);
    v
}

/// One generated op; values carry a version so replacements are visible.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32, u32),
    Remove(u32),
    Lookup(u32),
    Range(u32, u32),
    /// `visit_range` told to stop after this many records.
    VisitSome(u32, u32, usize),
}

fn gen_ops(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..OPS)
        .map(|i| {
            let k = rng.gen_range(0..KEY_SPACE);
            match rng.gen_range(0..10u32) {
                0..=4 => Op::Insert(k, i as u32),
                5..=6 => Op::Remove(k),
                7..=8 => Op::Lookup(k),
                _ => {
                    let span = rng.gen_range(0..200u32);
                    match rng.gen_range(0..3usize) {
                        0 => Op::VisitSome(k, k.saturating_add(span), rng.gen_range(1..20)),
                        _ => Op::Range(k, k.saturating_add(span)),
                    }
                }
            }
        })
        .collect()
}

fn run(ops: &[Op], page_size: usize, cache_pages: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let store =
        Pager::open(MemFile::new(), MemFile::new(), page_size, cache_pages).expect("open pager");
    let mut tree = PagedBTree::open(store).expect("open tree");
    let mut model = std::collections::BTreeMap::<Vec<u8>, Vec<u8>>::new();

    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k, ver) => {
                let got = tree.insert(&key(k), &val(k, ver)).expect("insert");
                let want = model.insert(key(k), val(k, ver));
                assert_eq!(got, want, "insert {k} at op {i}");
            }
            Op::Remove(k) => {
                let got = tree.remove(&key(k)).expect("remove");
                let want = model.remove(&key(k));
                assert_eq!(got, want, "remove {k} at op {i}");
            }
            Op::Lookup(k) => {
                let got = tree.get(&key(k)).expect("get");
                let want = model.get(&key(k)).cloned();
                assert_eq!(got, want, "lookup {k} at op {i}");
            }
            Op::Range(lo, hi) => {
                let got = tree.range(&key(lo), &key(hi)).expect("range");
                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range(key(lo)..=key(hi))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, want, "range {lo}..={hi} at op {i}");
            }
            Op::VisitSome(lo, hi, stop_after) => {
                let mut got = Vec::new();
                tree.visit_range(&key(lo), &key(hi), |k, v| {
                    got.push((k.to_vec(), v.to_vec()));
                    got.len() < stop_after
                })
                .expect("visit_range");
                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range(key(lo)..=key(hi))
                    .take(stop_after)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, want, "visit {lo}..={hi} x{stop_after} at op {i}");
            }
        }
        assert_eq!(tree.len(), model.len() as u64, "count drift at op {i}");
        if i % 500 == 0 || i + 1 == ops.len() {
            let scan = tree.scan().expect("scan");
            let want: Vec<(Vec<u8>, Vec<u8>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(scan, want, "full scan drift at op {i}");
            tree.check_invariants().expect("invariants");
        }
    }
    tree.commit().expect("commit");
    tree.scan().expect("final scan")
}

#[test]
fn paged_btree_matches_btreemap_under_tiny_cache() {
    for seed in [1u64, 42, 20260809] {
        let ops = gen_ops(seed);
        for page_size in PAGE_SIZES {
            let tiny = run(&ops, page_size, 2);
            let unbounded = run(&ops, page_size, usize::MAX / 2);
            assert_eq!(
                tiny, unbounded,
                "cache size must be invisible to tree contents (seed {seed}, page {page_size})"
            );
        }
    }
}

#[test]
fn eviction_traffic_actually_happened() {
    // Guard against the tiny-cache run silently not exercising eviction.
    let ops = gen_ops(7);
    let store = Pager::open(MemFile::new(), MemFile::new(), PAGE_SIZE, 2).expect("open");
    let mut tree = PagedBTree::open(store).expect("tree");
    for op in &ops[..1_000] {
        if let Op::Insert(k, ver) = *op {
            tree.insert(&key(k), &val(k, ver)).expect("insert");
        }
    }
    let stats = tree.store().io_stats();
    assert!(stats.evictions > 100, "2-frame cache must thrash: {stats}");
    assert!(stats.physical_reads > 100, "misses must hit the file");
}
