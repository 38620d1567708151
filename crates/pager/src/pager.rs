//! The file-backed page store: header page, freelist, LRU cache, and an
//! undo-journal commit protocol.
//!
//! ## File layout
//!
//! ```text
//! data file                       journal file (sidecar)
//! ┌──────────────────────────┐    ┌─────────────────────────────────┐
//! │ page 0: header           │    │ magic ─ committed page count ─  │
//! │   magic, version,        │    │ page size          (24 bytes)   │
//! │   page_size, page_count, │    ├─────────────────────────────────┤
//! │   free_head, free_count, │    │ entry: id ─ old image ─ fnv64   │
//! │   meta_len, meta, fnv64  │    │ entry: id ─ old image ─ fnv64   │
//! ├──────────────────────────┤    │ …  (truncated on commit)        │
//! │ page 1..page_count: data │    └─────────────────────────────────┘
//! │   (free pages chain      │
//! │    through their first   │
//! │    8 bytes: next-free)   │
//! └──────────────────────────┘
//! ```
//!
//! ## Durability contract
//!
//! Writes accumulate in the [`PageCache`] as dirty frames. Before the
//! *first* physical overwrite of any page that existed at the last commit
//! — whether from a dirty eviction or from the commit flush — the page's
//! committed image is appended to the journal and the journal is synced.
//! `commit` then flushes all dirty frames plus the header and syncs the
//! data file, and only then truncates the journal. Recovery at open is
//! therefore trivial: a non-empty, well-formed journal means a commit (or
//! an evicting transaction) died mid-flight, so every journaled image is
//! written back, the file is truncated to the committed page count, and
//! the store is exactly at its last commit. Torn pages cannot survive:
//! the image that the tear destroyed is in the journal, checksummed, and
//! a torn *journal* entry fails its checksum and is ignored (its data
//! page was then never overwritten, because the journal sync happens
//! first).

use crate::cache::{Frame, PageCache};
use crate::file::{DiskFile, FaultClock, FaultFile, MemFile, RawFile};
use oic_storage::paged::{IoStats, PageStore, StoreError, META_MAX};
use oic_storage::PageId;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

const DATA_MAGIC: [u8; 8] = *b"OICPAGE\0";
const JRNL_MAGIC: [u8; 8] = *b"OICJRNL\0";
const VERSION: u32 = 1;
/// Fixed header fields: magic(8) version(4) page_size(4) page_count(8)
/// free_head(8) free_count(8) meta_len(2), then meta, then fnv64(8) at
/// the end of the page.
const HEADER_FIXED: usize = 42;
/// Journal header: magic(8) committed_page_count(8) page_size(4)
/// fnv64-of-the-preceding-20-bytes(8). The checksum makes a torn header
/// indistinguishable from an inactive journal — which is exactly right,
/// because the journal is synced before any data write, so a torn header
/// means no data page was touched.
const JRNL_HEADER: u64 = 28;
/// Smallest page that still fits the header fields plus some metadata.
pub const MIN_PAGE_SIZE: usize = 128;

/// Cache capacity of [`FilePager::open_path`].
pub const DEFAULT_CACHE_PAGES: usize = 256;

fn fnv64(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn u64_at(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"))
}

fn u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"))
}

/// The durable [`PageStore`]: fixed-size pages in a [`RawFile`], cached
/// through an LRU [`PageCache`], committed atomically via an undo
/// journal. See the module docs for layout and protocol.
#[derive(Debug)]
pub struct Pager<F: RawFile> {
    data: F,
    journal: F,
    page_size: usize,
    cache: PageCache,
    /// Current (possibly uncommitted) allocation state.
    page_count: u64,
    free_head: u64,
    free_count: u64,
    free_set: HashSet<u64>,
    meta: Vec<u8>,
    /// Allocation state as of the last commit (rollback target).
    committed_page_count: u64,
    /// Pages whose committed image is already in the journal.
    journaled: HashSet<u64>,
    /// Next journal append offset; 0 = journal inactive.
    journal_off: u64,
    stats: IoStats,
}

/// A [`Pager`] over a real file on disk.
pub type FilePager = Pager<DiskFile>;
/// A [`Pager`] over shared in-RAM bytes (same format, no disk).
pub type MemPager = Pager<MemFile>;

impl FilePager {
    /// Opens (creating if absent) the store at `path`, with the journal
    /// sidecar at `path` + `.jrnl` and a cache of [`DEFAULT_CACHE_PAGES`]
    /// frames ([`Pager::set_cache_capacity`] resizes it).
    pub fn open_path(path: impl AsRef<Path>, page_size: usize) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let jrnl: PathBuf = {
            let mut os = path.as_os_str().to_os_string();
            os.push(".jrnl");
            os.into()
        };
        Pager::open(
            DiskFile::open(path)?,
            DiskFile::open(&jrnl)?,
            page_size,
            DEFAULT_CACHE_PAGES,
        )
    }
}

impl MemPager {
    /// A fresh in-RAM store (format-identical to the disk one).
    pub fn new_mem(page_size: usize, cache_pages: usize) -> Result<Self, StoreError> {
        Pager::open(MemFile::new(), MemFile::new(), page_size, cache_pages)
    }
}

impl<F: RawFile> Pager<F> {
    /// Opens a store over `data` + `journal`, recovering any interrupted
    /// commit first. An empty data file is initialized to a fresh store.
    pub fn open(
        mut data: F,
        mut journal: F,
        page_size: usize,
        cache_pages: usize,
    ) -> Result<Self, StoreError> {
        if page_size < MIN_PAGE_SIZE {
            return Err(StoreError::Invalid(format!(
                "page size {page_size} below minimum {MIN_PAGE_SIZE}"
            )));
        }
        Self::recover(&mut data, &mut journal, page_size)?;
        let mut pager = Pager {
            data,
            journal,
            page_size,
            cache: PageCache::new(cache_pages),
            page_count: 1,
            free_head: 0,
            free_count: 0,
            free_set: HashSet::new(),
            meta: Vec::new(),
            committed_page_count: 1,
            journaled: HashSet::new(),
            journal_off: 0,
            stats: IoStats::default(),
        };
        if pager.data.is_empty()? {
            // Fresh store: write and sync the initial header.
            let header = pager.encode_header();
            pager.data.write_at(&header, 0)?;
            pager.data.sync()?;
        } else {
            pager.load_header()?;
            pager.rebuild_free_set()?;
        }
        Ok(pager)
    }

    /// Replays a valid journal (an interrupted commit), restoring the
    /// last committed state; no-op when the journal is absent or torn.
    fn recover(data: &mut F, journal: &mut F, page_size: usize) -> Result<(), StoreError> {
        let jlen = journal.len()?;
        if jlen < JRNL_HEADER {
            return Ok(());
        }
        let mut head = [0u8; JRNL_HEADER as usize];
        journal.read_at(&mut head, 0)?;
        if head[..8] != JRNL_MAGIC || u64_at(&head, 20) != fnv64(&[&head[..20]]) {
            return Ok(()); // never activated, invalidated, or torn header
        }
        let committed_pages = u64_at(&head, 8);
        let jps = u32_at(&head, 16) as usize;
        if jps != page_size {
            return Err(StoreError::Corrupt(format!(
                "journal page size {jps} != store page size {page_size}"
            )));
        }
        let entry = (8 + page_size + 8) as u64;
        let mut off = JRNL_HEADER;
        let mut img = vec![0u8; page_size];
        while off + entry <= jlen {
            let mut idb = [0u8; 8];
            journal.read_at(&mut idb, off)?;
            journal.read_at(&mut img, off + 8)?;
            let mut ckb = [0u8; 8];
            journal.read_at(&mut ckb, off + 8 + page_size as u64)?;
            if u64_at(&ckb, 0) != fnv64(&[&idb, &img]) {
                break; // torn tail: the matching data write never happened
            }
            let id = u64_at(&idb, 0);
            data.write_at(&img, id * page_size as u64)?;
            off += entry;
        }
        data.set_len(committed_pages * page_size as u64)?;
        data.sync()?;
        journal.set_len(0)?;
        journal.sync()?;
        Ok(())
    }

    fn encode_header(&self) -> Vec<u8> {
        let mut h = vec![0u8; self.page_size];
        h[..8].copy_from_slice(&DATA_MAGIC);
        h[8..12].copy_from_slice(&VERSION.to_le_bytes());
        h[12..16].copy_from_slice(&(self.page_size as u32).to_le_bytes());
        h[16..24].copy_from_slice(&self.page_count.to_le_bytes());
        h[24..32].copy_from_slice(&self.free_head.to_le_bytes());
        h[32..40].copy_from_slice(&self.free_count.to_le_bytes());
        h[40..42].copy_from_slice(&(self.meta.len() as u16).to_le_bytes());
        h[HEADER_FIXED..HEADER_FIXED + self.meta.len()].copy_from_slice(&self.meta);
        let ck = fnv64(&[&h[..self.page_size - 8]]);
        let ps = self.page_size;
        h[ps - 8..].copy_from_slice(&ck.to_le_bytes());
        h
    }

    fn load_header(&mut self) -> Result<(), StoreError> {
        let mut h = vec![0u8; self.page_size];
        self.data.read_at(&mut h, 0)?;
        if h[..8] != DATA_MAGIC {
            return Err(StoreError::Corrupt("bad header magic".into()));
        }
        if u32_at(&h, 8) != VERSION {
            return Err(StoreError::Corrupt(format!(
                "unsupported version {}",
                u32_at(&h, 8)
            )));
        }
        let ps = u32_at(&h, 12) as usize;
        if ps != self.page_size {
            return Err(StoreError::Corrupt(format!(
                "store page size {ps} != requested {}",
                self.page_size
            )));
        }
        if u64_at(&h, self.page_size - 8) != fnv64(&[&h[..self.page_size - 8]]) {
            return Err(StoreError::Corrupt("header checksum mismatch".into()));
        }
        self.page_count = u64_at(&h, 16);
        self.free_head = u64_at(&h, 24);
        self.free_count = u64_at(&h, 32);
        let mlen = u16::from_le_bytes(h[40..42].try_into().expect("2 bytes")) as usize;
        if mlen > self.meta_capacity() {
            return Err(StoreError::Corrupt(format!("meta length {mlen} overflows")));
        }
        self.meta = h[HEADER_FIXED..HEADER_FIXED + mlen].to_vec();
        self.committed_page_count = self.page_count;
        Ok(())
    }

    fn rebuild_free_set(&mut self) -> Result<(), StoreError> {
        self.free_set = self.verify_freelist()?.iter().map(|p| p.0).collect();
        Ok(())
    }

    /// Reads a free page's next-free link (cache first, then the file —
    /// pages freed in the current transaction only exist as frames).
    fn read_next_free(&mut self, id: u64) -> Result<u64, StoreError> {
        if let Some(f) = self.cache.get(id) {
            return Ok(u64_at(&f.data, 0));
        }
        let mut b = [0u8; 8];
        self.data.read_at(&mut b, id * self.page_size as u64)?;
        Ok(u64_at(&b, 0))
    }

    fn meta_capacity(&self) -> usize {
        META_MAX.min(self.page_size - HEADER_FIXED - 8)
    }

    fn check_live(&self, id: PageId) -> Result<(), StoreError> {
        if id.0 == 0 || id.0 >= self.page_count || self.free_set.contains(&id.0) {
            return Err(StoreError::BadPage(id));
        }
        Ok(())
    }

    /// Appends `id`'s committed image to the journal if it needs one.
    /// Returns whether anything was appended (caller syncs before the
    /// corresponding data write).
    fn journal_page(&mut self, id: u64) -> Result<bool, StoreError> {
        if id >= self.committed_page_count || self.journaled.contains(&id) {
            // Born after the last commit (rollback truncates it away) or
            // already journaled this transaction.
            return Ok(false);
        }
        if self.journal_off == 0 {
            let mut head = [0u8; JRNL_HEADER as usize];
            head[..8].copy_from_slice(&JRNL_MAGIC);
            head[8..16].copy_from_slice(&self.committed_page_count.to_le_bytes());
            head[16..20].copy_from_slice(&(self.page_size as u32).to_le_bytes());
            let ck = fnv64(&[&head[..20]]).to_le_bytes();
            head[20..28].copy_from_slice(&ck);
            self.journal.write_at(&head, 0)?;
            self.journal_off = JRNL_HEADER;
        }
        // The committed image: physical data writes are always journaled
        // first, so an unjournaled page's file bytes are its last commit.
        let mut img = vec![0u8; self.page_size];
        self.data.read_at(&mut img, id * self.page_size as u64)?;
        let idb = id.to_le_bytes();
        let ck = fnv64(&[&idb, &img]).to_le_bytes();
        self.journal.write_at(&idb, self.journal_off)?;
        self.journal.write_at(&img, self.journal_off + 8)?;
        self.journal
            .write_at(&ck, self.journal_off + 8 + self.page_size as u64)?;
        self.journal_off += (8 + self.page_size + 8) as u64;
        self.journaled.insert(id);
        self.stats.journal_writes += 1;
        Ok(true)
    }

    /// Evicts least-recently-used frames until at most `keep` remain,
    /// writing each dirty one back first (journal-first). A frame leaves
    /// the cache only after its write-back succeeds, so a failed write
    /// keeps it resident and dirty. Returns the last victim's buffer for
    /// reuse.
    fn evict_to(&mut self, keep: usize) -> Result<Option<Vec<u8>>, StoreError> {
        let mut spare = None;
        while self.cache.len() > keep {
            let (id, dirty) = match self.cache.lru() {
                Some((id, f)) => (id, f.dirty),
                None => break,
            };
            if dirty {
                if self.journal_page(id)? {
                    self.journal.sync()?;
                }
                let frame = self.cache.peek(id).expect("the victim is resident");
                self.data
                    .write_at(&frame.data, id * self.page_size as u64)?;
                self.stats.physical_writes += 1;
            }
            self.stats.evictions += 1;
            spare = self.cache.take(id).map(|f| f.data);
        }
        Ok(spare)
    }

    /// Inserts a frame, first evicting one if a new id needs the room.
    fn store_frame(&mut self, id: u64, data: Vec<u8>, dirty: bool) -> Result<(), StoreError> {
        if !self.cache.contains(id) {
            self.evict_to(self.cache.capacity() - 1)?;
        }
        self.cache.insert(id, data, dirty);
        Ok(())
    }

    /// The one way a live page becomes (or stays) resident: a hit
    /// refreshes the frame's LRU stamp, a miss evicts first and reads the
    /// file straight into the victim's buffer — the frame it will cache.
    /// `reading` makes it a logical read (a hit then counts as one too).
    fn fetch(&mut self, id: PageId, reading: bool) -> Result<&mut Frame, StoreError> {
        self.check_live(id)?;
        let hit = self.cache.contains(id.0);
        if reading {
            self.stats.logical_reads += 1;
            self.stats.cache_hits += u64::from(hit);
        }
        if !hit {
            let mut buf = match self.evict_to(self.cache.capacity() - 1)? {
                Some(buf) => buf,
                None => vec![0u8; self.page_size],
            };
            self.data.read_at(&mut buf, id.0 * self.page_size as u64)?;
            self.stats.physical_reads += 1;
            self.cache.insert(id.0, buf, false);
        }
        Ok(self.cache.get(id.0).expect("resident after fetch"))
    }

    /// Resizes the cache, writing back evicted dirty frames.
    pub fn set_cache_capacity(&mut self, pages: usize) -> Result<(), StoreError> {
        self.cache.set_capacity(pages);
        self.evict_to(self.cache.capacity())?;
        Ok(())
    }

    /// Cache capacity in pages.
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Total pages in the store, header included (file length / page
    /// size once committed).
    pub fn page_count(&self) -> u64 {
        self.page_count
    }

    /// Walks the freelist and returns it in chain order, verifying the
    /// structural invariants: no cycle, no duplicate, no out-of-range
    /// id, and a length equal to the recorded free count.
    pub fn verify_freelist(&mut self) -> Result<Vec<PageId>, StoreError> {
        let mut seen = HashSet::new();
        let mut order = Vec::new();
        let mut cur = self.free_head;
        while cur != 0 {
            if cur >= self.page_count || !seen.insert(cur) {
                return Err(StoreError::Corrupt(format!(
                    "freelist broken at page {cur} (cycle, duplicate, or out of range)"
                )));
            }
            order.push(PageId(cur));
            if order.len() as u64 > self.free_count {
                return Err(StoreError::Corrupt(
                    "freelist longer than recorded free count".into(),
                ));
            }
            cur = self.read_next_free(cur)?;
        }
        if order.len() as u64 != self.free_count {
            return Err(StoreError::Corrupt(format!(
                "freelist length {} != recorded free count {}",
                order.len(),
                self.free_count
            )));
        }
        Ok(order)
    }
}

impl<F: RawFile> PageStore for Pager<F> {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn alloc(&mut self) -> Result<PageId, StoreError> {
        let recycled = self.free_head != 0;
        let id = if recycled {
            let id = self.free_head;
            self.free_head = self.read_next_free(id)?;
            self.free_count -= 1;
            self.free_set.remove(&id);
            id
        } else {
            let id = self.page_count;
            self.page_count += 1;
            id
        };
        // A fresh page reads as zeroes and never leaks its previous life.
        if let Err(e) = self.store_frame(id, vec![0u8; self.page_size], true) {
            // Making room failed, so no caller holds the page: hand it
            // back to where it came from (its link image is untouched).
            if recycled {
                self.free_head = id;
                self.free_count += 1;
                self.free_set.insert(id);
            } else {
                self.page_count -= 1;
            }
            return Err(e);
        }
        Ok(PageId(id))
    }

    fn free(&mut self, id: PageId) -> Result<(), StoreError> {
        self.check_live(id)?;
        // Uncommitted content dies with the page; its frame, if resident,
        // becomes the link image.
        let mut link = match self.cache.take(id.0) {
            Some(f) => f.data,
            None => vec![0u8; self.page_size],
        };
        link.fill(0);
        link[..8].copy_from_slice(&self.free_head.to_le_bytes());
        self.store_frame(id.0, link, true)?;
        self.free_head = id.0;
        self.free_count += 1;
        self.free_set.insert(id.0);
        Ok(())
    }

    fn page(&mut self, id: PageId) -> Result<&[u8], StoreError> {
        Ok(&self.fetch(id, true)?.data)
    }

    fn page_mut(&mut self, id: PageId) -> Result<&mut [u8], StoreError> {
        self.stats.logical_writes += 1;
        let frame = self.fetch(id, false)?;
        frame.dirty = true;
        Ok(&mut frame.data)
    }

    fn meta(&self) -> &[u8] {
        &self.meta
    }

    fn set_meta(&mut self, meta: &[u8]) -> Result<(), StoreError> {
        if meta.len() > self.meta_capacity() {
            return Err(StoreError::Invalid(format!(
                "meta blob {} exceeds capacity {}",
                meta.len(),
                self.meta_capacity()
            )));
        }
        self.meta = meta.to_vec();
        Ok(())
    }

    fn commit(&mut self) -> Result<(), StoreError> {
        // 1. Journal the committed images of everything about to change.
        let dirty = self.cache.dirty_ids();
        let mut appended = self.journal_page(0)?; // header always changes
        for &id in &dirty {
            appended |= self.journal_page(id)?;
        }
        if appended {
            self.journal.sync()?;
        }
        // 2. Flush dirty frames and the header, then make them durable.
        for &id in &dirty {
            let f = self.cache.get(id).expect("dirty frame is resident");
            self.data.write_at(&f.data, id * self.page_size as u64)?;
            f.dirty = false;
            self.stats.physical_writes += 1;
        }
        let header = self.encode_header();
        self.data.write_at(&header, 0)?;
        self.stats.physical_writes += 1;
        self.data.sync()?;
        // 3. Retire the journal: the new state is the committed state.
        self.journal.set_len(0)?;
        self.journal.sync()?;
        self.journal_off = 0;
        self.journaled.clear();
        self.committed_page_count = self.page_count;
        Ok(())
    }

    fn live_pages(&self) -> u64 {
        self.page_count - 1 - self.free_count
    }

    fn io_stats(&self) -> IoStats {
        self.stats
    }

    fn reset_io_stats(&mut self) {
        self.stats = IoStats::default();
    }
}

/// The crash-injection harness (ISSUE satellite): a format-complete
/// in-RAM store whose faulty sessions die after a write budget — the
/// fatal write tearing mid-page — and whose surviving bytes can be
/// reopened like a restarted process.
#[derive(Debug)]
pub struct FaultStore {
    data: MemFile,
    journal: MemFile,
    page_size: usize,
    clock: FaultClock,
}

impl FaultStore {
    /// Creates a pristine committed store (no faults yet).
    pub fn new(page_size: usize) -> Result<Self, StoreError> {
        let data = MemFile::new();
        let journal = MemFile::new();
        // Initialize durably through a fault-free pager.
        Pager::open(data.handle(), journal.handle(), page_size, 2)?;
        Ok(FaultStore {
            data,
            journal,
            page_size,
            clock: FaultClock::new(0),
        })
    }

    /// Opens a session that dies (with a torn final write) once `budget`
    /// raw-file writes have succeeded, counting data and journal writes
    /// against the same budget.
    pub fn open_faulty(
        &mut self,
        budget: u64,
        cache_pages: usize,
    ) -> Result<Pager<FaultFile<MemFile>>, StoreError> {
        self.clock = FaultClock::new(budget);
        Pager::open(
            FaultFile::new(self.data.handle(), self.clock.clone()),
            FaultFile::new(self.journal.handle(), self.clock.clone()),
            self.page_size,
            cache_pages,
        )
    }

    /// Reopens the surviving bytes fault-free — the post-crash restart.
    pub fn reopen(&self, cache_pages: usize) -> Result<MemPager, StoreError> {
        Pager::open(
            self.data.handle(),
            self.journal.handle(),
            self.page_size,
            cache_pages,
        )
    }

    /// The active session's fault clock.
    pub fn clock(&self) -> &FaultClock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(cache: usize) -> MemPager {
        MemPager::new_mem(MIN_PAGE_SIZE, cache).unwrap()
    }

    fn fill(pager: &mut MemPager, id: PageId, b: u8) {
        let img = vec![b; pager.page_size()];
        pager.write_page(id, &img).unwrap();
    }

    fn read_byte(pager: &mut MemPager, id: PageId) -> u8 {
        let mut buf = vec![0u8; pager.page_size()];
        pager.read_page(id, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == buf[0]), "page uniformly filled");
        buf[0]
    }

    #[test]
    fn alloc_write_read_roundtrip_and_zero_fresh() {
        let mut p = mem(4);
        let a = p.alloc().unwrap();
        assert!(a.0 > 0, "header page never allocated");
        assert_eq!(read_byte(&mut p, a), 0, "fresh page reads zero");
        fill(&mut p, a, 7);
        assert_eq!(read_byte(&mut p, a), 7);
        assert_eq!(p.live_pages(), 1);
    }

    #[test]
    fn durability_across_reopen() {
        let data = MemFile::new();
        let jrnl = MemFile::new();
        {
            let mut p = Pager::open(data.handle(), jrnl.handle(), MIN_PAGE_SIZE, 2).unwrap();
            let a = p.alloc().unwrap();
            let b = p.alloc().unwrap();
            fill(&mut p, a, 1);
            fill(&mut p, b, 2);
            p.set_meta(b"hello").unwrap();
            p.commit().unwrap();
            fill(&mut p, a, 9); // uncommitted: must not survive
        }
        let mut p = Pager::open(data.handle(), jrnl.handle(), MIN_PAGE_SIZE, 2).unwrap();
        assert_eq!(p.meta(), b"hello");
        assert_eq!(read_byte(&mut p, PageId(1)), 1, "committed value, not 9");
        assert_eq!(read_byte(&mut p, PageId(2)), 2);
        assert_eq!(p.live_pages(), 2);
    }

    #[test]
    fn free_recycles_lifo_and_freelist_survives_commit() {
        let data = MemFile::new();
        let jrnl = MemFile::new();
        {
            let mut p = Pager::open(data.handle(), jrnl.handle(), MIN_PAGE_SIZE, 2).unwrap();
            let pages: Vec<PageId> = (0..4).map(|_| p.alloc().unwrap()).collect();
            p.free(pages[1]).unwrap();
            p.free(pages[2]).unwrap();
            assert_eq!(p.verify_freelist().unwrap(), vec![pages[2], pages[1]]);
            let r = p.alloc().unwrap();
            assert_eq!(r, pages[2], "LIFO recycling");
            p.free(r).unwrap();
            p.commit().unwrap();
        }
        let mut p = Pager::open(data.handle(), jrnl.handle(), MIN_PAGE_SIZE, 4).unwrap();
        assert_eq!(p.verify_freelist().unwrap(), vec![PageId(3), PageId(2)]);
        assert_eq!(p.live_pages(), 2);
        assert!(matches!(
            p.read_page(PageId(2), &mut [0; MIN_PAGE_SIZE]),
            Err(StoreError::BadPage(_))
        ));
    }

    #[test]
    fn tiny_cache_evicts_and_still_reads_correctly() {
        let mut p = mem(2);
        let pages: Vec<PageId> = (0..8).map(|_| p.alloc().unwrap()).collect();
        for (i, &id) in pages.iter().enumerate() {
            fill(&mut p, id, i as u8 + 1);
        }
        for (i, &id) in pages.iter().enumerate() {
            assert_eq!(read_byte(&mut p, id), i as u8 + 1);
        }
        let s = p.io_stats();
        assert!(s.evictions > 0, "2-frame cache over 8 pages must evict");
        assert!(s.physical_reads > 0, "misses go to the file");
        assert!(
            s.physical_writes > 0,
            "dirty evictions write back before commit"
        );
    }

    #[test]
    fn hit_miss_counters_match_hand_computed_trace() {
        let mut p = mem(2);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        let c = p.alloc().unwrap();
        fill(&mut p, a, 1);
        fill(&mut p, b, 2);
        fill(&mut p, c, 3);
        p.commit().unwrap();
        p.reset_io_stats();
        // Cache now holds the 2 most recent frames {b, c} (a evicted).
        let mut buf = vec![0u8; p.page_size()];
        p.read_page(c, &mut buf).unwrap(); // hit
        p.read_page(b, &mut buf).unwrap(); // hit
        p.read_page(a, &mut buf).unwrap(); // miss: evicts c (LRU)
        p.read_page(b, &mut buf).unwrap(); // hit
        p.read_page(c, &mut buf).unwrap(); // miss again: evicts a
        let s = p.io_stats();
        assert_eq!(s.logical_reads, 5);
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.physical_reads, 2);
        assert_eq!(s.physical_writes, 0, "clean evictions don't write");
        assert_eq!(s.evictions, 2);
    }

    #[test]
    fn dirty_page_written_back_exactly_once_per_eviction() {
        let mut p = mem(2);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        let c = p.alloc().unwrap();
        fill(&mut p, a, 1);
        fill(&mut p, b, 2);
        fill(&mut p, c, 3);
        p.commit().unwrap();
        p.reset_io_stats();
        fill(&mut p, a, 9); // miss: loads a (evicting), dirties it
        let before = p.io_stats();
        let mut buf = vec![0u8; p.page_size()];
        p.read_page(b, &mut buf).unwrap();
        p.read_page(c, &mut buf).unwrap(); // a must be evicted by now
        let after = p.io_stats();
        assert_eq!(
            after.since(&before).physical_writes,
            1,
            "the dirty page writes back exactly once"
        );
        // Re-reading a sees the written-back value, and committing does
        // not write it again (its frame is clean or gone).
        assert_eq!(read_byte(&mut p, a), 9);
        let before = p.io_stats();
        p.commit().unwrap();
        let flushed = p.io_stats().since(&before).physical_writes;
        assert_eq!(flushed, 1, "commit writes only the header: a is clean");
    }

    #[test]
    fn an_edit_through_page_mut_is_a_dirty_frame() {
        let mut p = mem(2);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        let c = p.alloc().unwrap();
        p.commit().unwrap();
        p.reset_io_stats();
        // A miss: `a` is read into the frame the edit then lands in.
        p.page_mut(a).unwrap()[5] = 42;
        let s = p.io_stats();
        assert_eq!((s.logical_writes, s.logical_reads), (1, 0));
        assert_eq!((s.physical_reads, s.cache_hits), (1, 0));
        // Pushed out by two other pages, the edit is written back once …
        assert_eq!(p.page(b).unwrap()[5], 0);
        assert_eq!(p.page(c).unwrap()[5], 0);
        assert_eq!(p.io_stats().physical_writes, 1);
        // … and read back from the file, the rest of the page untouched.
        let img = p.page(a).unwrap();
        assert_eq!((img[5], img[4], img[6]), (42, 0, 0));
        assert!(matches!(p.page(PageId(99)), Err(StoreError::BadPage(_))));
        assert!(matches!(p.page_mut(PageId(0)), Err(StoreError::BadPage(_))));
    }

    #[test]
    fn fault_store_survives_torn_commit() {
        let mut fs = FaultStore::new(MIN_PAGE_SIZE).unwrap();
        // A committed baseline.
        {
            let mut p = fs.open_faulty(u64::MAX, 2).unwrap();
            let a = p.alloc().unwrap();
            let img = vec![5u8; MIN_PAGE_SIZE];
            p.write_page(a, &img).unwrap();
            p.set_meta(b"v1").unwrap();
            p.commit().unwrap();
        }
        // A session that dies mid-commit (tiny budget).
        {
            let mut p = fs.open_faulty(2, 2).unwrap();
            let img = vec![6u8; MIN_PAGE_SIZE];
            let _ = p.write_page(PageId(1), &img);
            let _ = p.commit(); // must fail somewhere
            assert!(fs.clock().tripped());
        }
        let mut p = fs.reopen(2).unwrap();
        assert_eq!(p.meta(), b"v1");
        let mut buf = vec![0u8; MIN_PAGE_SIZE];
        p.read_page(PageId(1), &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 5), "rolled back to committed 5s");
        p.verify_freelist().unwrap();
    }

    #[test]
    fn reopen_with_wrong_page_size_is_corrupt() {
        let data = MemFile::new();
        let jrnl = MemFile::new();
        Pager::open(data.handle(), jrnl.handle(), 256, 2).unwrap();
        let err = Pager::open(data.handle(), jrnl.handle(), 512, 2).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));
    }
}
