//! The LRU page cache: bounded frames with pin counts and dirty bits.
//!
//! The cache holds page images between the B-tree above and the
//! backing file below. Policy:
//!
//! * **LRU** — every `get` stamps the frame with a monotonically
//!   increasing tick; eviction takes the smallest stamp among unpinned
//!   frames (capacities are tens-to-hundreds of frames, so the O(cap)
//!   victim scan is cheaper than maintaining an intrusive list);
//! * **pin/unpin** — pinned frames are never evicted; when every frame is
//!   pinned an insert fails with [`StoreError::AllPinned`] instead of
//!   blocking (there is no other thread to make progress — see DESIGN.md
//!   §5.13: the cache is `&mut`-owned, never shared);
//! * **write-back** — dirty frames are not flushed on write; the pager
//!   writes them back exactly once, on eviction or commit, clearing the
//!   dirty bit.

use oic_storage::paged::StoreError;
use std::collections::HashMap;

/// One cached page.
#[derive(Debug)]
pub struct Frame {
    /// The page image (always exactly `page_size` bytes).
    pub data: Vec<u8>,
    /// Modified since the last write-back/commit.
    pub dirty: bool,
    /// Pin count; evictable only at zero.
    pub pins: u32,
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

    /// Whether a frame is resident (no LRU refresh).
    pub fn contains(&self, id: u64) -> bool {
        self.frames.contains_key(&id)
    }

    /// Inserts (or replaces) a frame and returns the evicted victim
    /// `(id, frame)` if the cache was full, for the pager to write back
    /// if dirty. Room is made *before* the insert, so a failed one
    /// ([`StoreError::AllPinned`]) leaves no trace.
    pub fn insert(
        &mut self,
        id: u64,
        data: Vec<u8>,
        dirty: bool,
    ) -> Result<Option<(u64, Frame)>, StoreError> {
        let pins = self.frames.get(&id).map(|f| f.pins);
        let victim = match pins {
            Some(_) => None, // replacing a resident frame evicts nothing
            None => self.make_room()?,
        };
        self.tick += 1;
        let frame = Frame {
            data,
            dirty,
            pins: pins.unwrap_or(0),
            stamp: self.tick,
        };
        self.frames.insert(id, frame);
        Ok(victim)
    }

    /// Evicts the least-recently-used unpinned frame if the cache is
    /// full, so the next insert of a new id fits. The pager calls this
    /// ahead of a miss to read the page straight into the victim's
    /// buffer.
    pub fn make_room(&mut self) -> Result<Option<(u64, Frame)>, StoreError> {
        if self.frames.len() < self.capacity {
            return Ok(None);
        }
        self.evict_lru().map(Some)
    }

    fn evict_lru(&mut self) -> Result<(u64, Frame), StoreError> {
        let victim = self
            .frames
            .iter()
            .filter(|(_, f)| f.pins == 0)
            .min_by_key(|(_, f)| f.stamp)
            .map(|(&vid, _)| vid)
            .ok_or(StoreError::AllPinned)?;
        Ok(self
            .frames
            .remove_entry(&victim)
            .expect("victim is resident"))
    }

    /// Removes a frame without write-back (page freed or discarded).
    pub fn take(&mut self, id: u64) -> Option<Frame> {
        self.frames.remove(&id)
    }

    /// Pins a resident frame (counted; unpin as many times as pinned).
    pub fn pin(&mut self, id: u64) -> bool {
        match self.frames.get_mut(&id) {
            Some(f) => {
                f.pins += 1;
                true
            }
            None => false,
        }
    }

    /// Unpins a resident frame; `false` if absent or not pinned.
    pub fn unpin(&mut self, id: u64) -> bool {
        match self.frames.get_mut(&id) {
            Some(f) if f.pins > 0 => {
                f.pins -= 1;
                true
            }
            _ => false,
        }
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

    /// Shrinks (or grows) the capacity, returning evicted `(id, frame)`
    /// victims in eviction order. Fails if pins block the shrink.
    pub fn set_capacity(&mut self, capacity: usize) -> Result<Vec<(u64, Frame)>, StoreError> {
        self.capacity = capacity.max(1);
        let mut out = Vec::new();
        while self.frames.len() > self.capacity {
            out.push(self.evict_lru()?);
        }
        Ok(out)
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
        assert!(c.insert(1, page(1), false).unwrap().is_none());
        assert!(c.insert(2, page(2), false).unwrap().is_none());
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(1).is_some());
        let (vid, _) = c.insert(3, page(3), false).unwrap().expect("eviction");
        assert_eq!(vid, 2);
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
    }

    #[test]
    fn pin_prevents_eviction_and_unpin_restores_it() {
        let mut c = PageCache::new(2);
        c.insert(1, page(1), false).unwrap();
        c.insert(2, page(2), false).unwrap();
        assert!(c.pin(1));
        // 1 is LRU but pinned: 2 must be the victim.
        let (vid, _) = c.insert(3, page(3), false).unwrap().expect("eviction");
        assert_eq!(vid, 2, "pinned frame survives despite being LRU");
        assert!(c.unpin(1));
        let (vid, _) = c.insert(4, page(4), false).unwrap().expect("eviction");
        assert_eq!(vid, 1, "after unpin the frame is evictable again");
    }

    #[test]
    fn all_pinned_insert_errors_instead_of_deadlocking() {
        let mut c = PageCache::new(2);
        c.insert(1, page(1), false).unwrap();
        c.insert(2, page(2), false).unwrap();
        assert!(c.pin(1) && c.pin(2));
        let err = c.insert(3, page(3), false).unwrap_err();
        assert!(matches!(err, StoreError::AllPinned));
        assert!(
            !c.contains(3) && c.len() == 2,
            "failed insert leaves no trace"
        );
        // Double pins need double unpins.
        assert!(c.pin(1));
        assert!(c.unpin(1));
        assert!(c.insert(3, page(3), false).is_err(), "still pinned once");
        assert!(c.unpin(1));
        assert!(c.insert(3, page(3), false).unwrap().is_some());
    }

    #[test]
    fn dirty_ids_sorted_and_take_discards() {
        let mut c = PageCache::new(8);
        c.insert(5, page(5), true).unwrap();
        c.insert(2, page(2), false).unwrap();
        c.insert(9, page(9), true).unwrap();
        assert_eq!(c.dirty_ids(), vec![5, 9]);
        let f = c.take(5).unwrap();
        assert!(f.dirty);
        assert_eq!(c.dirty_ids(), vec![9]);
        assert!(c.take(5).is_none());
    }

    #[test]
    fn reinsert_preserves_pins() {
        let mut c = PageCache::new(2);
        c.insert(1, page(1), false).unwrap();
        c.pin(1);
        // Overwriting the frame (a write_page of a resident page) must not
        // lose the pin.
        c.insert(1, page(9), true).unwrap();
        c.insert(2, page(2), false).unwrap();
        let (vid, _) = c.insert(3, page(3), false).unwrap().expect("eviction");
        assert_eq!(vid, 2, "page 1 still pinned after reinsert");
    }

    #[test]
    fn set_capacity_evicts_down() {
        let mut c = PageCache::new(4);
        for i in 1..=4 {
            c.insert(i, page(i as u8), i % 2 == 0).unwrap();
        }
        c.get(1); // freshen 1: victims should be 2 then 3
        let evicted = c.set_capacity(2).unwrap();
        let ids: Vec<u64> = evicted.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert!(c.contains(1) && c.contains(4));
    }
}
