//! The durable page-store abstraction: real page payloads behind a trait.
//!
//! [`SimStore`](crate::SimStore) *accounts* page traffic for structures
//! whose payloads live in RAM — the substrate the cost-model validation
//! runs on. This module is the other half of ROADMAP item 1: pages as
//! first-class byte containers, so an index can be written out, dropped,
//! reopened, and can exceed RAM. The [`PageStore`] trait is deliberately
//! small:
//!
//! * fixed-size pages addressed by [`PageId`]; `PageId(0)` is never a data
//!   page (backends reserve it for their header, and `0` doubles as the
//!   nil link in page-resident data structures);
//! * `alloc`/`free` manage a freelist inside the store;
//! * `page`/`page_mut` lend the page image itself (the cache frame, the
//!   heap slot — no copy) and are the only access a backend implements;
//!   `read_page`/`write_page` copy whole pages in and out on top of them;
//! * `meta`/`set_meta` carry a small application blob (a B-tree root
//!   pointer) that commits atomically with the data;
//! * `commit` is the durability point: everything written before it is
//!   atomically visible after a crash, everything after is rolled back.
//!
//! Two implementations exist: [`MemStore`] here (a heap of pages, for
//! tests and as the reopened-equals-twin oracle) and `oic_pager::Pager`
//! (file-backed, LRU-cached, undo-journaled). Every implementation counts
//! its traffic in an [`IoStats`], whose snapshot/delta/reset API is what
//! per-phase I/O assertions in tests are built on.
//!
//! All methods take `&mut self` — even reads, which may rotate an LRU
//! cache underneath. This keeps implementations free of interior
//! mutability, preserving the workspace invariant that anything parallel
//! stages share is `Sync` without hidden cells (DESIGN.md §5.13); a pager
//! is owned by exactly one structure and never read concurrently.

use crate::PageId;
use std::fmt;

/// Errors of the durable page layer.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying file operation failed (including injected faults).
    Io(std::io::Error),
    /// On-disk state failed validation (bad magic, checksum, freelist).
    Corrupt(String),
    /// The page id is not a live, readable data page.
    BadPage(PageId),
    /// A request violated a size or argument contract.
    Invalid(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::BadPage(p) => write!(f, "not a live data page: {p}"),
            StoreError::Invalid(m) => write!(f, "invalid request: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Page-I/O counters of a [`PageStore`].
///
/// Counters are cumulative since the store was opened (or since the last
/// [`PageStore::reset_io_stats`]); [`IoStats::since`] turns two snapshots
/// into a per-phase delta, so tests can assert the traffic of exactly one
/// operation without resetting global state:
///
/// ```
/// # use oic_storage::paged::{MemStore, PageStore};
/// let mut store = MemStore::new(4096);
/// let p = store.alloc().unwrap();
/// store.write_page(p, &vec![0u8; 4096]).unwrap();
/// let before = store.io_stats();
/// let mut buf = vec![0u8; 4096];
/// store.read_page(p, &mut buf).unwrap();
/// let phase = store.io_stats().since(&before);
/// assert_eq!(phase.logical_reads, 1);
/// assert_eq!(phase.logical_writes, 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page reads requested by callers.
    pub logical_reads: u64,
    /// Page writes requested by callers.
    pub logical_writes: u64,
    /// Logical reads served from the page cache (RAM-resident stores
    /// count every read as a hit).
    pub cache_hits: u64,
    /// Pages fetched from the backing file.
    pub physical_reads: u64,
    /// Page images written to the backing file (eviction write-back and
    /// commit flushes).
    pub physical_writes: u64,
    /// Old page images appended to the undo journal before an overwrite.
    pub journal_writes: u64,
    /// Cache frames evicted (clean or dirty).
    pub evictions: u64,
}

impl IoStats {
    /// Component-wise delta (`self` must be the later snapshot).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads - earlier.logical_reads,
            logical_writes: self.logical_writes - earlier.logical_writes,
            cache_hits: self.cache_hits - earlier.cache_hits,
            physical_reads: self.physical_reads - earlier.physical_reads,
            physical_writes: self.physical_writes - earlier.physical_writes,
            journal_writes: self.journal_writes - earlier.journal_writes,
            evictions: self.evictions - earlier.evictions,
        }
    }

    /// Fraction of logical reads served by the cache (1.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.logical_reads == 0 {
            1.0
        } else {
            self.cache_hits as f64 / self.logical_reads as f64
        }
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}lr ({}hit) {}lw | phys {}r+{}w+{}j | {}ev",
            self.logical_reads,
            self.cache_hits,
            self.logical_writes,
            self.physical_reads,
            self.physical_writes,
            self.journal_writes,
            self.evictions
        )
    }
}

/// A store of fixed-size pages with allocation, user metadata, atomic
/// commit, and I/O accounting. See the module docs for the contract.
pub trait PageStore {
    /// Page size in bytes; `read_page`/`write_page` buffers must match.
    fn page_size(&self) -> usize;

    /// Allocates a page (recycling freed ids first). The fresh page reads
    /// as zeroes until written.
    fn alloc(&mut self) -> Result<PageId, StoreError>;

    /// Returns a page to the freelist. Freeing a non-live page is an
    /// error; the page's content becomes undefined.
    fn free(&mut self, id: PageId) -> Result<(), StoreError>;

    /// The image of page `id`, borrowed in place (`page_size` bytes).
    /// Counts one logical read.
    fn page(&mut self, id: PageId) -> Result<&[u8], StoreError>;

    /// The image of page `id`, borrowed for editing in place. Counts one
    /// logical write; the page is dirty from here to the next `commit`.
    fn page_mut(&mut self, id: PageId) -> Result<&mut [u8], StoreError>;

    /// Copies page `id` into `buf` (`buf.len() == page_size`).
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StoreError> {
        check_len("read", buf.len(), self.page_size())?;
        buf.copy_from_slice(self.page(id)?);
        Ok(())
    }

    /// Replaces page `id` with `data` (`data.len() == page_size`).
    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), StoreError> {
        check_len("write", data.len(), self.page_size())?;
        self.page_mut(id)?.copy_from_slice(data);
        Ok(())
    }

    /// The user metadata blob as of the last `set_meta` (after reopen:
    /// as of the last committed `set_meta`).
    fn meta(&self) -> &[u8];

    /// Stages a new metadata blob (at most [`META_MAX`] bytes); durable
    /// at the next `commit`, atomically with the page writes.
    fn set_meta(&mut self, meta: &[u8]) -> Result<(), StoreError>;

    /// Durability point: after `commit` returns, the state (pages,
    /// freelist, metadata) survives a crash; a crash mid-commit yields
    /// either the previous committed state or this one, never a mix.
    fn commit(&mut self) -> Result<(), StoreError>;

    /// Number of live (allocated, not freed) data pages.
    fn live_pages(&self) -> u64;

    /// Cumulative I/O counters; see [`IoStats`] for the snapshot API.
    fn io_stats(&self) -> IoStats;

    /// Zeroes the I/O counters.
    fn reset_io_stats(&mut self);
}

fn check_len(what: &str, len: usize, page_size: usize) -> Result<(), StoreError> {
    if len != page_size {
        return Err(StoreError::Invalid(format!(
            "{what} buffer {len} != page size {page_size}"
        )));
    }
    Ok(())
}

/// Maximum length of the user metadata blob (it must fit in every
/// backend's header page alongside the fixed fields).
pub const META_MAX: usize = 256;

/// The in-memory [`PageStore`]: a heap of pages with a freelist.
///
/// Nothing is durable — `commit` is a no-op — but the allocation, nil-id
/// and metadata contracts are identical to the file-backed pager, so a
/// structure exercised against `MemStore` and against `oic_pager::Pager`
/// must behave identically. Every read counts as a cache hit (the whole
/// store *is* the cache); physical counters stay zero.
#[derive(Debug, Default)]
pub struct MemStore {
    page_size: usize,
    /// `pages[0]` is the reserved nil slot and never allocated.
    pages: Vec<Option<Vec<u8>>>,
    free: Vec<u64>,
    live: u64,
    meta: Vec<u8>,
    stats: IoStats,
}

impl MemStore {
    /// Creates an empty store with the given page size.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size unrealistically small");
        MemStore {
            page_size,
            pages: vec![None],
            free: Vec::new(),
            live: 0,
            meta: Vec::new(),
            stats: IoStats::default(),
        }
    }

    fn slot(&self, id: PageId) -> Result<usize, StoreError> {
        let i = id.0 as usize;
        if i == 0 || i >= self.pages.len() || self.pages[i].is_none() {
            return Err(StoreError::BadPage(id));
        }
        Ok(i)
    }
}

impl PageStore for MemStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn alloc(&mut self) -> Result<PageId, StoreError> {
        self.live += 1;
        let id = match self.free.pop() {
            Some(i) => i,
            None => {
                self.pages.push(None);
                (self.pages.len() - 1) as u64
            }
        };
        self.pages[id as usize] = Some(vec![0; self.page_size]);
        Ok(PageId(id))
    }

    fn free(&mut self, id: PageId) -> Result<(), StoreError> {
        let i = self.slot(id)?;
        self.pages[i] = None;
        self.free.push(id.0);
        self.live -= 1;
        Ok(())
    }

    fn page(&mut self, id: PageId) -> Result<&[u8], StoreError> {
        let i = self.slot(id)?;
        self.stats.logical_reads += 1;
        self.stats.cache_hits += 1;
        Ok(self.pages[i].as_deref().expect("live slot"))
    }

    fn page_mut(&mut self, id: PageId) -> Result<&mut [u8], StoreError> {
        let i = self.slot(id)?;
        self.stats.logical_writes += 1;
        Ok(self.pages[i].as_deref_mut().expect("live slot"))
    }

    fn meta(&self) -> &[u8] {
        &self.meta
    }

    fn set_meta(&mut self, meta: &[u8]) -> Result<(), StoreError> {
        if meta.len() > META_MAX {
            return Err(StoreError::Invalid(format!(
                "meta blob {} exceeds {META_MAX} bytes",
                meta.len()
            )));
        }
        self.meta = meta.to_vec();
        Ok(())
    }

    fn commit(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn live_pages(&self) -> u64 {
        self.live
    }

    fn io_stats(&self) -> IoStats {
        self.stats
    }

    fn reset_io_stats(&mut self) {
        self.stats = IoStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_recycle_and_nil() {
        let mut s = MemStore::new(64);
        let a = s.alloc().unwrap();
        let b = s.alloc().unwrap();
        assert_ne!(a.0, 0, "PageId(0) is reserved");
        assert_ne!(a, b);
        assert_eq!(s.live_pages(), 2);
        s.free(a).unwrap();
        assert_eq!(s.live_pages(), 1);
        let c = s.alloc().unwrap();
        assert_eq!(c, a, "freed id recycled");
        assert!(matches!(s.free(PageId(999)), Err(StoreError::BadPage(_))));
    }

    #[test]
    fn fresh_pages_read_zero_and_roundtrip() {
        let mut s = MemStore::new(64);
        let p = s.alloc().unwrap();
        let mut buf = vec![1u8; 64];
        s.read_page(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        let data: Vec<u8> = (0..64u8).collect();
        s.write_page(p, &data).unwrap();
        s.read_page(p, &mut buf).unwrap();
        assert_eq!(buf, data);
        // Recycled pages are zeroed again.
        s.free(p).unwrap();
        let q = s.alloc().unwrap();
        assert_eq!(q, p);
        s.read_page(q, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn stats_snapshot_delta_and_reset() {
        let mut s = MemStore::new(64);
        let p = s.alloc().unwrap();
        let mut buf = vec![0u8; 64];
        s.write_page(p, &buf.clone()).unwrap();
        let snap = s.io_stats();
        s.read_page(p, &mut buf).unwrap();
        s.read_page(p, &mut buf).unwrap();
        let d = s.io_stats().since(&snap);
        assert_eq!(d.logical_reads, 2);
        assert_eq!(d.cache_hits, 2);
        assert_eq!(d.logical_writes, 0);
        assert_eq!(d.hit_rate(), 1.0);
        s.reset_io_stats();
        assert_eq!(s.io_stats(), IoStats::default());
    }

    #[test]
    fn views_lend_the_page_itself() {
        let mut s = MemStore::new(64);
        let p = s.alloc().unwrap();
        s.page_mut(p).unwrap()[3] = 9;
        assert_eq!(s.page(p).unwrap()[3], 9);
        assert_eq!(s.page(p).unwrap().len(), 64);
        let io = s.io_stats();
        assert_eq!(
            (io.logical_writes, io.logical_reads, io.cache_hits),
            (1, 2, 2)
        );
        s.free(p).unwrap();
        assert!(matches!(s.page(p), Err(StoreError::BadPage(_))));
        assert!(matches!(s.page_mut(PageId(0)), Err(StoreError::BadPage(_))));
    }

    #[test]
    fn meta_roundtrip_and_cap() {
        let mut s = MemStore::new(64);
        assert!(s.meta().is_empty());
        s.set_meta(b"root=7").unwrap();
        assert_eq!(s.meta(), b"root=7");
        let huge = vec![0u8; META_MAX + 1];
        assert!(matches!(s.set_meta(&huge), Err(StoreError::Invalid(_))));
    }

    #[test]
    fn buffer_size_mismatch_rejected() {
        let mut s = MemStore::new(64);
        let p = s.alloc().unwrap();
        let mut small = vec![0u8; 32];
        assert!(matches!(
            s.read_page(p, &mut small),
            Err(StoreError::Invalid(_))
        ));
        assert!(matches!(
            s.write_page(p, &small),
            Err(StoreError::Invalid(_))
        ));
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error as _;
        let e = StoreError::from(std::io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        assert!(e.source().is_some());
        assert!(StoreError::Corrupt("bad magic".into())
            .to_string()
            .contains("bad magic"));
    }
}
