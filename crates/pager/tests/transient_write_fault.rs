//! A data-file write that fails once and then recovers must not lose an
//! acknowledged write: the dirty frame whose write-back failed stays in
//! the cache, later reads see the edit, and the next successful commit
//! makes it durable.

use oic_pager::{MemFile, Pager, RawFile, MIN_PAGE_SIZE};
use oic_storage::paged::{PageStore, StoreError};
use oic_storage::PageId;
use std::cell::Cell;
use std::io;
use std::rc::Rc;

/// A [`MemFile`] whose next `outage` writes fail without touching the
/// bytes; every write after them succeeds again.
struct FlakyFile {
    inner: MemFile,
    outage: Rc<Cell<u32>>,
}

impl RawFile for FlakyFile {
    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        self.inner.read_at(buf, off)
    }

    fn write_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        if self.outage.get() > 0 {
            self.outage.set(self.outage.get() - 1);
            return Err(io::Error::other("transient write fault"));
        }
        self.inner.write_at(buf, off)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

struct Disk {
    data: MemFile,
    journal: MemFile,
    outage: Rc<Cell<u32>>,
}

impl Disk {
    fn new() -> Self {
        Disk {
            data: MemFile::new(),
            journal: MemFile::new(),
            outage: Rc::new(Cell::new(0)),
        }
    }

    /// A two-frame pager whose data file (not its journal) can fail.
    fn open(&self) -> Pager<FlakyFile> {
        let data = FlakyFile {
            inner: self.data.handle(),
            outage: Rc::clone(&self.outage),
        };
        let journal = FlakyFile {
            inner: self.journal.handle(),
            outage: Rc::new(Cell::new(0)),
        };
        Pager::open(data, journal, MIN_PAGE_SIZE, 2).expect("open")
    }
}

/// Three committed zero pages, the first then edited to `0xAA` in its
/// cache frame only.
fn edited_store(disk: &Disk) -> Pager<FlakyFile> {
    let mut p = disk.open();
    for _ in 0..3 {
        p.alloc().expect("alloc");
    }
    p.commit().expect("commit");
    p.page_mut(PageId(1)).expect("page_mut").fill(0xAA);
    p
}

fn first_byte(p: &mut Pager<FlakyFile>, id: u64) -> u8 {
    p.page(PageId(id)).expect("read")[0]
}

#[test]
fn a_failed_eviction_write_back_keeps_the_dirty_frame() {
    let disk = Disk::new();
    let mut p = edited_store(&disk);
    // Page 1 is the LRU frame: fetching 2 and 3 evicts it, and its
    // write-back fails once.
    disk.outage.set(1);
    p.page(PageId(2)).expect("read page 2");
    assert!(matches!(p.page(PageId(3)), Err(StoreError::Io(_))));
    assert_eq!(first_byte(&mut p, 1), 0xAA, "the edit survives the outage");
    // The outage is over: evict page 1 for real and read it back.
    first_byte(&mut p, 2);
    first_byte(&mut p, 3);
    assert_eq!(first_byte(&mut p, 1), 0xAA, "the edit reached the file");
    p.commit().expect("commit");
    drop(p);
    assert_eq!(first_byte(&mut disk.open(), 1), 0xAA, "and the commit");
}

#[test]
fn a_failed_resize_write_back_keeps_the_dirty_frame() {
    let disk = Disk::new();
    let mut p = edited_store(&disk);
    p.page(PageId(2)).expect("read page 2");
    disk.outage.set(1);
    assert!(p.set_cache_capacity(1).is_err());
    assert_eq!(first_byte(&mut p, 1), 0xAA, "the edit survives the outage");
    p.commit().expect("commit");
    drop(p);
    assert_eq!(first_byte(&mut disk.open(), 1), 0xAA);
}

#[test]
fn a_failed_commit_write_leaves_the_frame_dirty_for_the_next_commit() {
    let disk = Disk::new();
    let mut p = edited_store(&disk);
    disk.outage.set(1);
    assert!(p.commit().is_err());
    p.commit().expect("the retried commit succeeds");
    drop(p);
    assert_eq!(first_byte(&mut disk.open(), 1), 0xAA);
}

#[test]
fn a_failed_eviction_during_alloc_consumes_no_page() {
    let disk = Disk::new();
    let mut p = disk.open();
    // Two fresh, dirty frames fill the cache: a third page needs room.
    p.alloc().expect("alloc");
    p.alloc().expect("alloc");
    disk.outage.set(1);
    assert!(matches!(p.alloc(), Err(StoreError::Io(_))));
    assert_eq!(p.live_pages(), 2, "the failed alloc took no page");
    assert_eq!(p.page_count(), 3, "header and two pages");
    assert_eq!(p.alloc().expect("alloc"), PageId(3), "the page is reissued");
    assert_eq!(p.live_pages(), 3);

    // A recycled page: page 1 is free and evicted, pages 2 and 3 are
    // dirty frames, so reissuing page 1 needs room again.
    p.commit().expect("commit");
    p.free(PageId(1)).expect("free");
    p.page_mut(PageId(2)).expect("page_mut").fill(2);
    p.page_mut(PageId(3)).expect("page_mut").fill(3);
    disk.outage.set(1);
    assert!(matches!(p.alloc(), Err(StoreError::Io(_))));
    assert_eq!(p.live_pages(), 2, "the failed alloc took no page");
    assert_eq!(p.verify_freelist().expect("freelist"), vec![PageId(1)]);
    assert_eq!(p.alloc().expect("alloc"), PageId(1), "the page is reissued");
    assert_eq!(first_byte(&mut p, 1), 0, "fresh pages read zero");
    assert_eq!(p.live_pages(), 3);
    assert!(p.verify_freelist().expect("freelist").is_empty());
}
