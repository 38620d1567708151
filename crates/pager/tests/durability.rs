//! The acceptance-criteria test: a B-tree built on the file-backed
//! store, dropped, and reopened returns identical point and range query
//! results as its in-memory twin.

use oic_btree::PagedBTree;
use oic_pager::{FilePager, Pager, DEFAULT_CACHE_PAGES};
use oic_storage::MemStore;

const PAGE_SIZE: usize = 256;

fn key(i: u32) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

fn val(i: u32) -> Vec<u8> {
    format!("value-{i:06}").into_bytes()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("oic-pager-{tag}-{}.db", std::process::id()))
}

#[test]
fn file_backed_tree_survives_drop_and_matches_in_memory_twin() {
    // Once under constant eviction pressure, once at the default cache.
    for cache in [2, DEFAULT_CACHE_PAGES] {
        survives_drop_and_matches_twin(cache);
    }
}

/// Opens `path` through `open_path` and resizes its cache to `cache`.
fn open_with_cache(path: &std::path::Path, cache: usize) -> FilePager {
    let mut store = FilePager::open_path(path, PAGE_SIZE).expect("open");
    assert_eq!(store.cache_capacity(), DEFAULT_CACHE_PAGES);
    store.set_cache_capacity(cache).expect("resize");
    assert_eq!(store.cache_capacity(), cache);
    store
}

fn survives_drop_and_matches_twin(cache: usize) {
    let path = temp_path(&format!("twin{cache}"));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("db.jrnl"));

    // The in-memory twin: same tree type over the heap-backed store.
    let mut twin = PagedBTree::open(MemStore::new(PAGE_SIZE)).expect("twin");

    // Build the file-backed tree, commit, and DROP it.
    {
        let mut tree = PagedBTree::open(open_with_cache(&path, cache)).expect("tree");
        for i in 0..800u32 {
            let k = i.wrapping_mul(37) % 1_000;
            tree.insert(&key(k), &val(i)).expect("insert");
            twin.insert(&key(k), &val(i)).expect("twin insert");
        }
        for i in (0..1_000u32).step_by(3) {
            assert_eq!(
                tree.remove(&key(i)).expect("remove"),
                twin.remove(&key(i)).expect("twin remove")
            );
        }
        tree.commit().expect("commit");
    } // <- everything in RAM about the file-backed tree dies here

    // Reopen from the file alone.
    let mut tree = PagedBTree::open(open_with_cache(&path, cache)).expect("tree from disk");
    tree.check_invariants().expect("invariants after reopen");
    assert_eq!(tree.len(), twin.len());

    // Identical point queries…
    for i in 0..1_000u32 {
        assert_eq!(
            tree.get(&key(i)).expect("get"),
            twin.get(&key(i)).expect("twin get"),
            "point query {i} diverges after reopen (cache {cache})"
        );
    }
    // …and identical range queries.
    for (lo, hi) in [(0u32, 99), (250, 600), (990, 2_000), (500, 500)] {
        assert_eq!(
            tree.range(&key(lo), &key(hi)).expect("range"),
            twin.range(&key(lo), &key(hi)).expect("twin range"),
            "range {lo}..={hi} diverges after reopen (cache {cache})"
        );
    }
    assert_eq!(tree.scan().expect("scan"), twin.scan().expect("twin scan"));

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("db.jrnl"));
}

#[test]
fn tree_larger_than_the_cache_is_fully_readable() {
    // A tree whose page footprint dwarfs the cache still answers every
    // query — pages stream through the 3-frame cache.
    use oic_pager::MemFile;
    let store = Pager::open(MemFile::new(), MemFile::new(), PAGE_SIZE, 3).expect("open");
    let mut tree = PagedBTree::open(store).expect("tree");
    for i in 0..2_000u32 {
        tree.insert(&key(i), &val(i)).expect("insert");
    }
    tree.commit().expect("commit");
    let pages = tree.reachable_pages().expect("walk").len();
    assert!(
        pages > 100,
        "tree must vastly exceed the 3-frame cache ({pages} pages)"
    );
    for i in (0..2_000u32).step_by(101) {
        assert_eq!(tree.get(&key(i)).expect("get").unwrap(), val(i));
    }
    assert_eq!(tree.scan().expect("scan").len(), 2_000);
}
