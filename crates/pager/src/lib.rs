//! # oic-pager — durable paged storage under the B-tree
//!
//! The file-backed half of the storage story (DESIGN.md §5.14). Where
//! [`oic_storage::SimStore`] is a *counting* simulated disk for the
//! paper's cost model, this crate is a real one:
//!
//! * [`Pager`] — a [`oic_storage::paged::PageStore`] over any
//!   [`RawFile`]: fixed-size pages, a header page (page 0) carrying the
//!   allocation state and an application meta blob, a freelist chained
//!   through the free pages themselves, and crash-atomic commits via an
//!   undo journal;
//! * [`PageCache`] — the bounded LRU frame cache with dirty tracking and
//!   write-back eviction that sits between the pager and its file;
//!   `page` / `page_mut` lend its frames, and a miss reads the file
//!   straight into the frame it evicted;
//! * [`DiskFile`] / [`MemFile`] / [`FaultFile`] — the backing files: a
//!   real file, shared in-RAM bytes (reopenable across a simulated
//!   crash), and a write-budget wrapper that tears the fatal write;
//! * [`FaultStore`] — the crash-injection harness: run a session until
//!   the injected fault kills it, then reopen the surviving bytes and
//!   check that recovery lands exactly on the last commit.
//!
//! The cache capacity is an argument of [`Pager::open`];
//! [`FilePager::open_path`] opens with [`DEFAULT_CACHE_PAGES`], and
//! [`Pager::set_cache_capacity`] resizes a cache at any time.
//!
//! ```
//! use oic_pager::MemPager;
//! use oic_storage::paged::PageStore;
//!
//! let mut store = MemPager::new_mem(4096, 8).unwrap();
//! let page = store.alloc().unwrap();
//! let mut img = vec![0u8; store.page_size()];
//! img[..5].copy_from_slice(b"hello");
//! store.write_page(page, &img).unwrap();
//! store.commit().unwrap();
//! let mut back = vec![0u8; store.page_size()];
//! store.read_page(page, &mut back).unwrap();
//! assert_eq!(&back[..5], b"hello");
//! ```

pub mod cache;
pub mod file;
pub mod pager;

pub use cache::{Frame, PageCache};
pub use file::{DiskFile, FaultClock, FaultFile, MemFile, RawFile};
pub use pager::{FaultStore, FilePager, MemPager, Pager, DEFAULT_CACHE_PAGES, MIN_PAGE_SIZE};
