//! The page store: allocation plus access accounting.

use crate::{AccessStats, OpStats};
use std::cell::RefCell;

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

/// The distinct-page sets of one operation, as epoch stamps: page `p` is in
/// the read (write) set exactly when `read_stamp[p]` (`write_stamp[p]`)
/// equals `epoch`. Page ids are dense — the allocator hands out `0..next`
/// and recycles — so the vectors are as long as the store ever grew, and
/// opening a scope is one increment instead of clearing two sets.
#[derive(Debug, Default)]
struct OpScope {
    stats: OpStats,
    /// The open (or last) scope's stamp; never 0, which marks "unseen".
    epoch: u32,
    read_stamp: Vec<u32>,
    write_stamp: Vec<u32>,
}

impl OpScope {
    /// Starts a new scope: a fresh epoch, and on wrap-around fresh stamps,
    /// so no stamp left by an earlier scope can alias it.
    fn begin(&mut self) {
        self.stats = OpStats::default();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.read_stamp.fill(0);
            self.write_stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Stamps `id` into `stamps` for the current epoch; returns whether it
    /// was not there yet.
    fn first_touch(stamps: &mut Vec<u32>, epoch: u32, id: PageId) -> bool {
        let i = id.0 as usize;
        if i >= stamps.len() {
            stamps.resize(i + 1, 0);
        }
        std::mem::replace(&mut stamps[i], epoch) != epoch
    }
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

    /// Records a read of `id`, a page this store allocated.
    pub fn touch_read(&self, id: PageId) {
        debug_assert!(id.0 < self.next, "{id} was never allocated here");
        let mut c = self.counters.borrow_mut();
        c.stats.reads += 1;
        if c.in_op {
            let op = &mut c.op;
            op.stats.reads += 1;
            if OpScope::first_touch(&mut op.read_stamp, op.epoch, id) {
                op.stats.distinct_reads += 1;
            }
        }
    }

    /// Records a write of `id`, a page this store allocated.
    pub fn touch_write(&self, id: PageId) {
        debug_assert!(id.0 < self.next, "{id} was never allocated here");
        let mut c = self.counters.borrow_mut();
        c.stats.writes += 1;
        if c.in_op {
            let op = &mut c.op;
            op.stats.writes += 1;
            if OpScope::first_touch(&mut op.write_stamp, op.epoch, id) {
                op.stats.distinct_writes += 1;
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
        c.op.begin();
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

    /// Test hook: the next scope opens at epoch `last + 1`.
    fn set_epoch(s: &SimStore, last: u32) {
        s.counters.borrow_mut().op.epoch = last;
    }

    #[test]
    fn stamped_scopes_survive_epoch_wrap() {
        let mut s = SimStore::new(4096);
        let p: Vec<PageId> = (0..6).map(|_| s.alloc()).collect();
        set_epoch(&s, u32::MAX - 2);
        // Scope k reads pages 0..=k twice each and writes page k, so each
        // scope's distinct counts differ from every earlier scope's; stamps
        // left behind must not make a page look already seen.
        for k in 0..6 {
            s.begin_op();
            for pg in &p[..=k] {
                s.touch_read(*pg);
                s.touch_read(*pg);
            }
            s.touch_write(p[k]);
            s.touch_write(p[k]);
            let op = s.end_op();
            assert_eq!(
                (op.reads, op.distinct_reads, op.writes, op.distinct_writes),
                (2 * (k as u64 + 1), k as u64 + 1, 2, 1),
                "scope {k}, epoch {}",
                s.counters.borrow().op.epoch
            );
        }
        assert!(s.counters.borrow().op.epoch < 8, "the epoch wrapped");
    }

    #[test]
    fn stale_stamp_cannot_alias_after_wrap() {
        // A page stamped at epoch 1 before the wrap, untouched until the
        // epoch comes round to 1 again, must still count as unseen.
        let mut s = SimStore::new(4096);
        let a = s.alloc();
        let b = s.alloc();
        set_epoch(&s, 0);
        s.begin_op();
        s.touch_read(a);
        s.touch_write(b);
        s.end_op();
        set_epoch(&s, u32::MAX - 1);
        s.begin_op();
        s.end_op();
        s.begin_op();
        assert_eq!(s.counters.borrow().op.epoch, 1, "wrapped back to 1");
        s.touch_read(a);
        s.touch_write(b);
        let op = s.end_op();
        assert_eq!((op.distinct_reads, op.distinct_writes), (1, 1));
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
