//! Durable paged storage, end to end: build a file-backed B-tree of
//! vehicle-registry owners, commit it, drop every in-memory handle, then
//! reopen the file cold and answer point and range queries from disk.
//!
//! The build runs at the default cache (256 frames); the cold reopen runs
//! at 8 frames, so its eviction and physical-read counters show a tree
//! much larger than its cache streaming through it.
//!
//! ```sh
//! cargo run --release --example paged_store
//! ```

use oo_index_config::pager::FilePager;
use oo_index_config::prelude::*;
use oo_index_config::storage::paged::PageStore;

const PAGE_SIZE: usize = 512;
const OWNERS: u32 = 2_000;
/// Frames of the cold reopen's cache.
const COLD_CACHE: usize = 8;

fn key(i: u32) -> Vec<u8> {
    format!("owner-{i:06}").into_bytes()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("oic-paged-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("registry.oic");

    // Phase 1: build, commit, drop.
    {
        let pager = FilePager::open_path(&path, PAGE_SIZE).expect("create store");
        let mut tree = PagedBTree::open(pager).expect("open tree");
        for i in 0..OWNERS {
            let k = key(i * 37 % OWNERS);
            tree.insert(&k, format!("vehicle-{i}").as_bytes())
                .expect("insert");
        }
        // Simulate churn: deregister a third of the owners.
        for i in (0..OWNERS).step_by(3) {
            tree.remove(&key(i)).expect("remove");
        }
        tree.commit().expect("commit");
        let stats = tree.store_mut().io_stats();
        println!(
            "built: {} owners in {} pages (height {}), {} physical writes, {} evictions",
            tree.len(),
            tree.store_mut().live_pages(),
            tree.height(),
            stats.physical_writes,
            stats.evictions,
        );
    } // tree and pager dropped here; only the file remains.

    // Phase 2: reopen from the file alone, behind a small cache, and query.
    let mut pager = FilePager::open_path(&path, PAGE_SIZE).expect("reopen store");
    pager.set_cache_capacity(COLD_CACHE).expect("resize cache");
    let mut tree = PagedBTree::open(pager).expect("reopen tree");
    let expected = OWNERS as u64 - OWNERS.div_ceil(3) as u64;
    assert_eq!(tree.len(), expected, "count survives drop/reopen");
    assert!(
        tree.get(&key(0)).expect("get").is_none(),
        "deleted stays deleted"
    );
    assert!(tree.get(&key(1)).expect("get").is_some(), "kept stays kept");
    let window = tree.range(&key(100), &key(199)).expect("range").len();
    let stats = tree.store_mut().io_stats();
    println!(
        "reopened from disk: {} owners survived drop/reopen, range [100,199] has {} entries",
        tree.len(),
        window
    );
    println!(
        "cold reads through {COLD_CACHE} frames: {} logical / {} physical ({} cache hits, {} evictions)",
        stats.logical_reads, stats.physical_reads, stats.cache_hits, stats.evictions
    );

    std::fs::remove_dir_all(&dir).ok();
}
