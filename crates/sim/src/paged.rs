//! Paged executor mode: the cost-model loop closed against *physical*
//! page I/O.
//!
//! The counting executor ([`ConfiguredDb`]) measures *distinct logical
//! page touches* against the [`SimStore`](oic_storage::SimStore) — the
//! paper's cost unit. This module re-hosts the query answers on the real
//! paged stack (`PagedBTree` over any [`PageStore`]): a [`PagedMirror`]
//! materializes, for every path position and ending value, the
//! qualifying oids into a durable B+-tree whose posting lists are
//! *chunked* across records so large answers legitimately span pages,
//! mirroring the paper's multi-page index records. Queries then run as
//! genuine tree descents + leaf-chain scans, and the store's
//! [`IoStats`] report what the disk actually saw —
//! cold (small cache) or warm (resident) — next to the model's
//! predictions.
//!
//! Key layout (order-preserving, prefix-disjoint per `(pos, value)`):
//!
//! ```text
//! [pos:u8][vlen:u16 BE][encode_key(value)][chunk:u16 BE]
//! ```
//!
//! The trailing big-endian chunk counter makes a per-value prefix range
//! scan enumerate chunks in order; the explicit length field keeps one
//! value's encoding from being a prefix of another's.

use crate::ConfiguredDb;
use oic_btree::PagedBTree;
use oic_schema::ClassId;
use oic_storage::paged::{IoStats, PageStore, StoreError};
use oic_storage::{encode_key, Oid, Value};

/// A paged materialization of per-position query answers; see the
/// module docs.
pub struct PagedMirror<S: PageStore> {
    tree: PagedBTree<S>,
    /// Oids per posting chunk (derived from the store's page size).
    chunk_oids: usize,
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
    let mut v = Vec::with_capacity(oids.len() * 8);
    for o in oids {
        v.extend_from_slice(&o.class.0.to_le_bytes());
        v.extend_from_slice(&o.seq.to_le_bytes());
    }
    v
}

fn decode_oids(bytes: &[u8], out: &mut Vec<Oid>) -> Result<(), StoreError> {
    if bytes.len() % 8 != 0 {
        return Err(StoreError::Corrupt("posting chunk not 8-aligned".into()));
    }
    out.extend(bytes.chunks_exact(8).map(|c| {
        Oid::new(
            ClassId(u32::from_le_bytes(c[..4].try_into().expect("4 bytes"))),
            u32::from_le_bytes(c[4..].try_into().expect("4 bytes")),
        )
    }));
    Ok(())
}

impl<S: PageStore> PagedMirror<S> {
    /// Materializes every `(position, ending value)` query answer of
    /// `exec` into a paged tree over `store`, and commits it.
    pub fn build(exec: &ConfiguredDb<'_>, store: S) -> Result<Self, StoreError> {
        let mut tree = PagedBTree::open(store)?;
        // Keep each record comfortably inside the size cap, while still
        // forcing multi-record (multi-page) postings for large answers.
        let chunk_oids = ((tree.max_item().saturating_sub(16)) / 8).max(1);
        let values = exec.db.ending_values.clone();
        for pos in 1..=exec.path_len() {
            let target = exec.class_at(pos);
            for v in &values {
                let (oids, _) = exec.query(v, target, false);
                if oids.is_empty() {
                    continue;
                }
                for (chunk, part) in oids.chunks(chunk_oids).enumerate() {
                    let key = posting_key(pos, v, chunk as u16);
                    tree.insert(&key, &encode_oids(part))?;
                }
            }
        }
        tree.commit()?;
        Ok(PagedMirror { tree, chunk_oids })
    }

    /// Looks up the qualifying oids for `value` at path position `pos`
    /// with a real tree descent plus a chunk range scan, decoding each
    /// chunk straight out of the page image.
    pub fn lookup(&mut self, pos: usize, value: &Value) -> Result<Vec<Oid>, StoreError> {
        let lo = posting_key(pos, value, 0);
        let hi = posting_key(pos, value, u16::MAX);
        let (mut out, mut aligned) = (Vec::new(), Ok(()));
        self.tree.visit_range(&lo, &hi, |_, bytes| {
            aligned = decode_oids(bytes, &mut out);
            aligned.is_ok()
        })?;
        aligned.map(|()| out)
    }

    /// Physical/logical I/O counters of the backing store.
    pub fn io_stats(&self) -> IoStats {
        self.tree.store().io_stats()
    }

    /// Resets the I/O counters (e.g. after the build phase).
    pub fn reset_io_stats(&mut self) {
        self.tree.store_mut().reset_io_stats();
    }

    /// Oids per posting chunk (records per multi-page answer).
    pub fn chunk_oids(&self) -> usize {
        self.chunk_oids
    }

    /// The underlying tree (height, page footprint, invariants).
    pub fn tree_mut(&mut self) -> &mut PagedBTree<S> {
        &mut self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GenSpec};
    use oic_core::IndexConfiguration;
    use oic_cost::Org;
    use oic_schema::fixtures;
    use oic_storage::MemStore;

    type TruthRow = (usize, Value, Vec<Oid>);

    fn mirror_for(org: Org) -> (Vec<TruthRow>, PagedMirror<MemStore>) {
        let (schema, _) = fixtures::paper_schema();
        let (path, chars) = oic_cost::characteristics::example51(&schema);
        let small = crate::scale_chars(&chars, 0.01);
        let spec = GenSpec {
            page_size: 1024,
            seed: 7,
        };
        let db = generate(&schema, &path, &small, &spec);
        let config = IndexConfiguration::whole_path(org, path.len());
        let exec = ConfiguredDb::new(&schema, &path, db, &config);
        let values = exec.db.ending_values.clone();
        let mut truth = Vec::new();
        for pos in 1..=exec.path_len() {
            let target = exec.class_at(pos);
            for v in values.iter().take(8) {
                let (oids, _) = exec.query(v, target, false);
                truth.push((pos, v.clone(), oids));
            }
        }
        let mirror = PagedMirror::build(&exec, MemStore::new(256)).expect("build");
        (truth, mirror)
    }

    #[test]
    fn mirror_lookups_agree_with_the_counting_executor() {
        for org in [Org::Mx, Org::Nix] {
            let (truth, mut mirror) = mirror_for(org);
            assert!(!truth.is_empty());
            for (pos, v, want) in &truth {
                let got = mirror.lookup(*pos, v).expect("lookup");
                assert_eq!(&got, want, "{org} pos {pos} value {v:?}");
            }
            mirror.tree_mut().check_invariants().expect("invariants");
        }
    }

    #[test]
    fn large_postings_span_chunks() {
        let (truth, mut mirror) = mirror_for(Org::Nix);
        let max = truth.iter().map(|(_, _, o)| o.len()).max().unwrap_or(0);
        assert!(
            max > mirror.chunk_oids(),
            "test db should force multi-chunk postings ({max} oids ≤ {} per chunk)",
            mirror.chunk_oids()
        );
        // Chunked answers reassemble in order and lookups do real I/O.
        mirror.reset_io_stats();
        let (pos, v, want) = truth
            .iter()
            .max_by_key(|(_, _, o)| o.len())
            .expect("nonempty");
        assert_eq!(&mirror.lookup(*pos, v).expect("lookup"), want);
        assert!(mirror.io_stats().logical_reads > 0);
    }
}
