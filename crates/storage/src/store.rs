//! The page store: allocation plus access accounting.

use crate::{AccessStats, OpStats};
use std::cell::RefCell;
use std::collections::HashSet;

/// Identifier of a page in a [`SimStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[derive(Debug, Default)]
struct Counters {
    stats: AccessStats,
    /// Whether an operation scope is open.
    in_op: bool,
    /// The open scope, or the closed one's sets kept for their capacity.
    op: OpScope,
}

#[derive(Debug, Default)]
struct OpScope {
    stats: OpStats,
    read_set: HashSet<PageId>,
    write_set: HashSet<PageId>,
}

/// A simulated disk: a page allocator whose every read and write is counted.
///
/// Pages carry no payload bytes here — the structures built on top (B+-tree
/// nodes, heap pages) own their data and *account* their accesses against
/// the store. This keeps the substrate honest about the paper's one and only
/// cost unit (page accesses) without paying serialization costs on the hot
/// path; capacity decisions are still made against the real `page_size` by
/// the owners.
#[derive(Debug)]
pub struct SimStore {
    page_size: usize,
    next: u64,
    free: Vec<PageId>,
    live: u64,
    counters: RefCell<Counters>,
}

impl SimStore {
    /// Creates a store with the given page size in bytes.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size unrealistically small");
        SimStore {
            page_size,
            next: 0,
            free: Vec::new(),
            live: 0,
            counters: RefCell::new(Counters::default()),
        }
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of currently allocated pages.
    #[inline]
    pub fn live_pages(&self) -> u64 {
        self.live
    }

    /// Allocates a page (recycling freed ids).
    pub fn alloc(&mut self) -> PageId {
        self.live += 1;
        if let Some(p) = self.free.pop() {
            return p;
        }
        let id = PageId(self.next);
        self.next += 1;
        id
    }

    /// Frees a page.
    pub fn free(&mut self, id: PageId) {
        debug_assert!(self.live > 0);
        self.live -= 1;
        self.free.push(id);
    }

    /// Records a read of `id`.
    pub fn touch_read(&self, id: PageId) {
        let mut c = self.counters.borrow_mut();
        c.stats.reads += 1;
        if c.in_op {
            c.op.stats.reads += 1;
            if c.op.read_set.insert(id) {
                c.op.stats.distinct_reads += 1;
            }
        }
    }

    /// Records a write of `id`.
    pub fn touch_write(&self, id: PageId) {
        let mut c = self.counters.borrow_mut();
        c.stats.writes += 1;
        if c.in_op {
            c.op.stats.writes += 1;
            if c.op.write_set.insert(id) {
                c.op.stats.distinct_writes += 1;
            }
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> AccessStats {
        self.counters.borrow().stats
    }

    /// Resets cumulative counters (does not affect a running op scope).
    pub fn reset_stats(&self) {
        self.counters.borrow_mut().stats = AccessStats::default();
    }

    /// Opens an operation scope; accesses are additionally tracked with
    /// distinct-page resolution until [`SimStore::end_op`]. Scopes do not
    /// nest — beginning a new scope discards the previous one.
    pub fn begin_op(&self) {
        let mut c = self.counters.borrow_mut();
        c.in_op = true;
        c.op.stats = OpStats::default();
        c.op.read_set.clear();
        c.op.write_set.clear();
    }

    /// Closes the operation scope and returns its statistics.
    ///
    /// Returns default (zero) stats if no scope was open.
    pub fn end_op(&self) -> OpStats {
        let mut c = self.counters.borrow_mut();
        if std::mem::take(&mut c.in_op) {
            c.op.stats
        } else {
            OpStats::default()
        }
    }

    /// Runs `f` inside an operation scope and returns `(result, stats)`.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (R, OpStats) {
        self.begin_op();
        let r = f();
        (r, self.end_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_recycles() {
        let mut s = SimStore::new(4096);
        let a = s.alloc();
        let b = s.alloc();
        assert_ne!(a, b);
        assert_eq!(s.live_pages(), 2);
        s.free(a);
        assert_eq!(s.live_pages(), 1);
        let c = s.alloc();
        assert_eq!(c, a, "freed id is recycled");
    }

    #[test]
    fn counting_and_reset() {
        let mut s = SimStore::new(4096);
        let a = s.alloc();
        s.touch_read(a);
        s.touch_read(a);
        s.touch_write(a);
        assert_eq!(
            s.stats(),
            AccessStats {
                reads: 2,
                writes: 1
            }
        );
        s.reset_stats();
        assert_eq!(s.stats().total(), 0);
    }

    #[test]
    fn op_scope_tracks_distinct_pages() {
        let mut s = SimStore::new(4096);
        let a = s.alloc();
        let b = s.alloc();
        s.begin_op();
        s.touch_read(a);
        s.touch_read(a);
        s.touch_read(b);
        s.touch_write(b);
        let op = s.end_op();
        assert_eq!(op.reads, 3);
        assert_eq!(op.distinct_reads, 2);
        assert_eq!(op.writes, 1);
        assert_eq!(op.distinct_writes, 1);
        // Scope closed: further accesses only hit cumulative counters.
        s.touch_read(a);
        assert_eq!(s.end_op(), OpStats::default());
    }

    #[test]
    fn measure_wraps_closure() {
        let mut s = SimStore::new(4096);
        let a = s.alloc();
        let (val, op) = s.measure(|| {
            s.touch_read(a);
            42
        });
        assert_eq!(val, 42);
        assert_eq!(op.distinct_reads, 1);
    }

    #[test]
    #[should_panic]
    fn tiny_pages_rejected() {
        let _ = SimStore::new(16);
    }
}
