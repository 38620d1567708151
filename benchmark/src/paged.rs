//! Phase 5 — the durable stack: the executor's `(position, value)` posting
//! answers stored in a `PagedBTree` over a file-backed `Pager`, looked up
//! through a cache far smaller than the tree and through one it fits in,
//! then overwritten and committed.
//!
//! Key layout (order-preserving, prefix-disjoint per `(pos, value)`):
//! `[pos:u8][vlen:u16 BE][encode_key(value)][chunk:u16 BE]`; the trailing
//! chunk counter lets one prefix range scan return a posting in order.

use crate::sizes::{FIT_CACHE_PAGES, OVERWRITES_PER_COMMIT, PAGE_SIZE, SMALL_CACHE_PAGES};
use crate::stats::{median, percentile};
use crate::Ctx;
use oic_btree::PagedBTree;
use oic_pager::{DiskFile, Pager};
use oic_storage::paged::{IoStats, PageStore, StoreError};
use oic_storage::{encode_key, Oid, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Lookups per host-speed bracket.
const LOOKUPS_PER_CHUNK: usize = 500;

/// One `(position, value)` posting: its key range and the true answer.
pub struct Posting {
    /// 1-based path position of the target class.
    pub pos: usize,
    /// The ending-attribute value queried.
    pub value: Value,
    /// `ConfiguredDb::query`'s answer, in its order.
    pub oids: Vec<Oid>,
}

fn posting_key(pos: usize, value: &Value, chunk: u16) -> Vec<u8> {
    let enc = encode_key(value);
    let mut k = Vec::with_capacity(5 + enc.len());
    k.push(pos as u8);
    k.extend_from_slice(&(enc.len() as u16).to_be_bytes());
    k.extend_from_slice(&enc);
    k.extend_from_slice(&chunk.to_be_bytes());
    k
}

fn encode_oids(oids: &[Oid]) -> Vec<u8> {
    oids.iter().flat_map(|o| o.to_bytes()).collect()
}

fn decode_oids(bytes: &[u8], out: &mut Vec<Oid>) {
    out.extend(
        bytes
            .chunks_exact(8)
            .map(|c| Oid::from_bytes(c.try_into().expect("8 bytes"))),
    );
}

/// The posting tree, its backing files and the answers it must reproduce.
pub struct PostingTree {
    tree: PagedBTree<Pager<DiskFile>>,
    postings: Vec<Posting>,
    /// `(key, value)` of every stored record, for the overwrite rounds.
    records: Vec<(Vec<u8>, Vec<u8>)>,
    dir: PathBuf,
    /// A seeded permutation of the postings: lookups walk it cyclically, so
    /// the small cache cannot ride on key locality.
    order: Vec<usize>,
    /// Position in the lookup / overwrite cycles.
    cursor: usize,
}

impl PostingTree {
    /// Builds and commits the tree in a fresh directory under `out_dir`.
    pub fn build(
        ctx: &mut Ctx<'_>,
        out_dir: &Path,
        postings: Vec<Posting>,
        seed: u64,
    ) -> Result<PostingTree, StoreError> {
        // Unique per process and per tree: concurrent runs share `out_dir`.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = out_dir.join(format!(
            "postings-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let store = Pager::open(
            DiskFile::open(&dir.join("postings.db"))?,
            DiskFile::open(&dir.join("postings.db.jrnl"))?,
            PAGE_SIZE,
            FIT_CACHE_PAGES,
        )?;
        let mut tree = PagedBTree::open(store)?;
        // Chunked postings: each record stays inside the item cap, and a
        // large answer legitimately spans pages.
        let chunk_oids = (tree.max_item().saturating_sub(16) / 8).max(1);
        let mut records = Vec::new();
        for p in &postings {
            for (chunk, part) in p.oids.chunks(chunk_oids).enumerate() {
                records.push((
                    posting_key(p.pos, &p.value, chunk as u16),
                    encode_oids(part),
                ));
            }
        }
        let (built, d) = ctx.tracer.measured("btree.build", || {
            for (key, val) in &records {
                tree.insert(key, val)?;
            }
            tree.commit()
        });
        built?;
        let io = tree.store().io_stats();
        ctx.time_s("btree.build_s", d);
        let s = &mut ctx.samples;
        s.push("btree.height", f64::from(tree.height()));
        s.push("btree.pages", tree.store().live_pages() as f64);
        s.push("pager.build_physical_writes", io.physical_writes as f64);
        let mut order: Vec<usize> = (0..postings.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        Ok(PostingTree {
            tree,
            postings,
            records,
            dir,
            order,
            cursor: 0,
        })
    }

    fn lookup(&mut self, i: usize, out: &mut Vec<Oid>) -> Result<(), StoreError> {
        let p = &self.postings[i];
        let lo = posting_key(p.pos, &p.value, 0);
        let hi = posting_key(p.pos, &p.value, u16::MAX);
        out.clear();
        for (_, bytes) in self.tree.range(&lo, &hi)? {
            decode_oids(&bytes, out);
        }
        Ok(())
    }

    /// `n` verified lookups through a cache of `cache_pages`, in chunks
    /// bracketed by host-speed probes; each chunk's median latency (µs) is
    /// recorded under `median_as`. Returns every latency and the pager's
    /// I/O over the pass.
    fn lookups(
        &mut self,
        ctx: &mut Ctx<'_>,
        span: &'static str,
        median_as: Option<&'static str>,
        cache_pages: usize,
        n: usize,
    ) -> (Vec<f64>, IoStats) {
        let resized = self.tree.store_mut().set_cache_capacity(cache_pages);
        ctx.checks.ok(resized, "StoreError (cache resize)");
        let before = self.tree.store().io_stats();
        let mut us = Vec::with_capacity(n);
        let mut got = Vec::new();
        while us.len() < n {
            let chunk_start = us.len();
            ctx.tracer.probe();
            for _ in 0..LOOKUPS_PER_CHUNK.min(n - chunk_start) {
                self.cursor = (self.cursor + 1) % self.order.len();
                let i = self.order[self.cursor];
                let (r, d) = ctx.tracer.span(span, || self.lookup(i, &mut got));
                us.push(d.as_secs_f64() * 1e6);
                if ctx.checks.ok(r, "StoreError (lookup)").is_some() {
                    ctx.checks.check(
                        got == self.postings[i].oids,
                        "paged lookup differs from ConfiguredDb::query",
                    );
                }
            }
            ctx.tracer.probe();
            if let Some(name) = median_as {
                ctx.time(name, median(&us[chunk_start..]));
            }
        }
        (us, self.tree.store().io_stats().since(&before))
    }

    /// One iteration's paged work: small-cache lookups, fitting-cache
    /// lookups, then rounds of overwrites ending in a commit.
    pub fn run(&mut self, ctx: &mut Ctx<'_>, lookups: usize, commit_rounds: usize) {
        self.cursor = 0; // every iteration replays the same sequence
        let (us, io) = self.lookups(
            ctx,
            "btree.lookup_small",
            Some("paged_lookup_us"),
            SMALL_CACHE_PAGES,
            lookups,
        );
        let n = lookups as f64;
        ctx.time("btree.lookup_us_p99.small", percentile(&us, 99.0));
        let s = &mut ctx.samples;
        s.push("pager.hit_rate.small", io.hit_rate());
        s.push(
            "pager.physical_reads_per_lookup.small",
            io.physical_reads as f64 / n,
        );
        s.push("pager.evictions_per_lookup.small", io.evictions as f64 / n);

        // Prime the large cache with one pass, then measure resident reads.
        let all = self.postings.len();
        self.lookups(ctx, "btree.lookup_prime", None, FIT_CACHE_PAGES, all);
        let (_, io) = self.lookups(
            ctx,
            "btree.lookup_fit",
            Some("btree.lookup_us_p50.fit"),
            FIT_CACHE_PAGES,
            lookups,
        );
        ctx.samples.push("pager.hit_rate.fit", io.hit_rate());

        let before = self.tree.store().io_stats();
        for _ in 0..commit_rounds {
            let (r, d) = ctx.tracer.measured("btree.update_commit", || {
                for _ in 0..OVERWRITES_PER_COMMIT {
                    self.cursor += 1;
                    let (key, val) = &self.records[self.cursor % self.records.len()];
                    self.tree.insert(key, val)?;
                }
                self.tree.commit()
            });
            ctx.time_ms("btree.update_commit_ms", d);
            ctx.checks.ok(r, "StoreError (overwrite + commit)");
        }
        let io = self.tree.store().io_stats().since(&before);
        let rounds = commit_rounds.max(1) as f64;
        ctx.samples.push(
            "pager.journal_writes_per_commit",
            io.journal_writes as f64 / rounds,
        );
        ctx.samples.push(
            "pager.physical_writes_per_commit",
            io.physical_writes as f64 / rounds,
        );
    }
}

impl Drop for PostingTree {
    fn drop(&mut self) {
        // Best effort: the files only matter while the run lives.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
