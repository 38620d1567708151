//! The LRU page cache: bounded frames with dirty bits.
//!
//! The cache holds page images between the B-tree above and the
//! backing file below. Policy:
//!
//! * **LRU** — every `get` stamps the frame with a monotonically
//!   increasing tick; the eviction victim is the frame with the smallest
//!   stamp (capacities are tens-to-hundreds of frames, so the O(cap)
//!   victim scan is cheaper than maintaining an intrusive list);
//! * **write-back** — dirty frames are not flushed on write; the pager
//!   writes them back exactly once, on eviction or commit, clearing the
//!   dirty bit. The cache never evicts on its own: the pager asks for the
//!   [`PageCache::lru`] victim, writes it back, and only then
//!   [`PageCache::take`]s it, so a failed write-back loses nothing.

use std::collections::HashMap;

/// One cached page.
#[derive(Debug)]
pub struct Frame {
    /// The page image (always exactly `page_size` bytes).
    pub data: Vec<u8>,
    /// Modified since the last write-back/commit.
    pub dirty: bool,
    stamp: u64,
}

/// A bounded LRU map from page id to [`Frame`].
#[derive(Debug)]
pub struct PageCache {
    capacity: usize,
    frames: HashMap<u64, Frame>,
    tick: u64,
}

impl PageCache {
    /// A cache holding at most `capacity` frames (min 1).
    pub fn new(capacity: usize) -> Self {
        PageCache {
            capacity: capacity.max(1),
            frames: HashMap::new(),
            tick: 0,
        }
    }

    /// Maximum number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frames are resident.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Looks up a frame, refreshing its LRU stamp on hit.
    pub fn get(&mut self, id: u64) -> Option<&mut Frame> {
        self.tick += 1;
        let tick = self.tick;
        self.frames.get_mut(&id).map(|f| {
            f.stamp = tick;
            f
        })
    }

    /// A resident frame, without refreshing its LRU stamp.
    pub fn peek(&self, id: u64) -> Option<&Frame> {
        self.frames.get(&id)
    }

    /// Whether a frame is resident (no LRU refresh).
    pub fn contains(&self, id: u64) -> bool {
        self.frames.contains_key(&id)
    }

    /// Inserts (or replaces) a frame. It never evicts: the caller makes
    /// room first, so the cache may exceed its capacity only while a
    /// write-back that would make room is failing.
    pub fn insert(&mut self, id: u64, data: Vec<u8>, dirty: bool) {
        self.tick += 1;
        let frame = Frame {
            data,
            dirty,
            stamp: self.tick,
        };
        self.frames.insert(id, frame);
    }

    /// The least-recently-used frame, the next eviction victim.
    pub fn lru(&self) -> Option<(u64, &Frame)> {
        self.frames
            .iter()
            .min_by_key(|(_, f)| f.stamp)
            .map(|(&id, f)| (id, f))
    }

    /// Removes a frame without write-back (evicted, freed or discarded).
    pub fn take(&mut self, id: u64) -> Option<Frame> {
        self.frames.remove(&id)
    }

    /// Ids of dirty frames, sorted (deterministic flush order).
    pub fn dirty_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Shrinks (or grows) the capacity. Frames above it stay until the
    /// pager evicts them.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(b: u8) -> Vec<u8> {
        vec![b; 8]
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PageCache::new(2);
        c.insert(1, page(1), false);
        c.insert(2, page(2), false);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(1).is_some());
        assert_eq!(c.lru().map(|(id, _)| id), Some(2));
        // A peek does not refresh: 2 stays the victim.
        assert!(c.peek(2).is_some());
        assert_eq!(c.lru().map(|(id, _)| id), Some(2));
        c.take(2);
        c.insert(3, page(3), false);
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
        assert_eq!(c.lru().map(|(id, _)| id), Some(1));
    }

    #[test]
    fn dirty_ids_sorted_and_take_discards() {
        let mut c = PageCache::new(8);
        c.insert(5, page(5), true);
        c.insert(2, page(2), false);
        c.insert(9, page(9), true);
        assert_eq!(c.dirty_ids(), vec![5, 9]);
        let f = c.take(5).unwrap();
        assert!(f.dirty);
        assert_eq!(c.dirty_ids(), vec![9]);
        assert!(c.take(5).is_none());
    }

    #[test]
    fn set_capacity_evicts_down() {
        let mut c = PageCache::new(4);
        for i in 1..=4 {
            c.insert(i, page(i as u8), i % 2 == 0);
        }
        c.get(1); // freshen 1: victims should be 2 then 3
        c.set_capacity(2);
        assert_eq!(c.capacity(), 2);
        let mut ids = Vec::new();
        while c.len() > c.capacity() {
            let (id, _) = c.lru().expect("over capacity");
            ids.push(id);
            c.take(id);
        }
        assert_eq!(ids, vec![2, 3]);
        assert!(c.contains(1) && c.contains(4));
    }
}
