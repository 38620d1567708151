//! B+-tree statistics estimation.
//!
//! The paper defers “a procedure to compute the height of an index” to its
//! companion report \[7\]; this module reconstructs it with the standard
//! estimator (DESIGN.md §5.4), mirroring the physical layout of `oic-btree`
//! so estimates can be validated against real trees:
//!
//! * the leaf level holds `D` index records of average length `ln`; records
//!   with `ln ≤ p` share leaf pages (`⌊cap/ln⌋` per page), longer records
//!   own `⌈ln/p⌉`-page chains;
//! * non-leaf fan-out is `⌊cap/(key + ptr)⌋`;
//! * the level profile `(n_k, p_k)` (records and pages per level, root
//!   first) feeds `CRT`/`CMT` via Yao's formula.

use crate::{CostParams, PTR_LEN};

/// Estimated shape of one index structure.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEst {
    /// Number of distinct keys `D` (index records).
    pub distinct_keys: f64,
    /// Average index-record length `ln` in bytes.
    pub record_len: f64,
    /// Key length used for non-leaf fan-out.
    pub key_len: f64,
    /// Per-level `(n_k, p_k)`, root first; the last entry is the leaf level.
    pub levels: Vec<(f64, f64)>,
    /// Height `h` — number of levels including the leaf level.
    pub height: usize,
    /// Leaf pages `pl` (including overflow chains).
    pub leaf_pages: f64,
}

impl IndexEst {
    /// Whether records fit in a page (`ln ≤ p`): selects the `CRL/CML/CRT/
    /// CMT` branch.
    pub fn in_page(&self, params: &CostParams) -> bool {
        self.record_len <= params.page_size
    }

    /// Full-record retrieval page count `pr = ⌈ln/p⌉` for spanning records.
    pub fn pr_full(&self, params: &CostParams) -> f64 {
        params.record_pages(self.record_len)
    }

    /// The leaf level `(n_h, p_h)`.
    pub fn leaf_level(&self) -> (f64, f64) {
        *self.levels.last().expect("estimates have a leaf level")
    }
}

/// Estimates a B+-tree holding `distinct_keys` records of `record_len` bytes
/// with keys of `key_len` bytes.
pub fn estimate_btree(
    distinct_keys: f64,
    record_len: f64,
    key_len: f64,
    params: &CostParams,
) -> IndexEst {
    let d = distinct_keys.max(1.0);
    let ln = record_len.max(1.0);
    let cap = params.node_capacity();
    let (leaf_nodes, leaf_pages) = if ln <= params.page_size {
        let per_page = (cap / ln).floor().max(1.0);
        let leaves = (d / per_page).ceil().max(1.0);
        (leaves, leaves)
    } else {
        // Each record owns its chain; one leaf node per record.
        (d, d * params.record_pages(ln))
    };
    let fanout = (cap / (key_len + PTR_LEN)).floor().max(2.0);
    // Build levels bottom-up, then reverse.
    let mut rev_levels: Vec<(f64, f64)> = vec![(d, leaf_pages)];
    let mut nodes = leaf_nodes;
    while nodes > 1.0 {
        let up = (nodes / fanout).ceil().max(1.0);
        rev_levels.push((nodes, up));
        nodes = up;
    }
    rev_levels.reverse();
    let height = rev_levels.len();
    IndexEst {
        distinct_keys: d,
        record_len: ln,
        key_len,
        levels: rev_levels,
        height,
        leaf_pages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        CostParams::default()
    }

    #[test]
    fn tiny_index_is_one_leaf() {
        let e = estimate_btree(10.0, 40.0, 9.0, &params());
        assert_eq!(e.height, 1);
        assert_eq!(e.leaf_pages, 1.0);
        assert!(e.in_page(&params()));
    }

    #[test]
    fn heights_grow_logarithmically() {
        let small = estimate_btree(1_000.0, 40.0, 9.0, &params());
        let big = estimate_btree(1_000_000.0, 40.0, 9.0, &params());
        assert!(big.height >= small.height);
        assert!(big.height <= small.height + 2, "log growth");
    }

    #[test]
    fn level_profile_is_consistent() {
        let e = estimate_btree(200_000.0, 100.0, 9.0, &params());
        assert_eq!(e.levels.len(), e.height);
        assert_eq!(e.levels[0].1, 1.0, "single root page");
        let (n_leaf, p_leaf) = e.leaf_level();
        assert_eq!(n_leaf, 200_000.0);
        assert_eq!(p_leaf, e.leaf_pages);
        for w in e.levels.windows(2) {
            assert!(w[0].1 <= w[1].1, "pages grow towards leaves");
            // Records at level k equal nodes at level k+1 for internals.
        }
    }

    #[test]
    fn oversized_records_get_chains() {
        let p = params();
        let e = estimate_btree(100.0, 10_000.0, 9.0, &p);
        assert!(!e.in_page(&p));
        assert_eq!(e.pr_full(&p), 3.0); // ceil(10000/4096)
        assert_eq!(e.leaf_pages, 300.0);
    }

    #[test]
    fn estimate_matches_real_tree_shape() {
        // Cross-check against the actual oic-btree structure.
        use oic_btree::BTreeIndex;
        use oic_storage::SimStore;
        let page = 512usize;
        let mut store = SimStore::new(page);
        let mut tree = BTreeIndex::new(&mut store);
        let d = 2_000u64;
        for i in 0..d {
            // 9-byte keys, one 9-byte entry: ln = 8 + 9 + (9+2) = 28.
            let mut k = vec![1u8];
            k.extend_from_slice(&i.to_be_bytes());
            tree.insert_entry(&mut store, &k, vec![0u8; 9]);
        }
        let p = CostParams::with_page_size(page as f64);
        let e = estimate_btree(d as f64, 28.0, 9.0, &p);
        // Real splits leave pages half-full, so allow a factor-2 band.
        let real_h = tree.height();
        assert!(
            (e.height as i64 - real_h as i64).abs() <= 1,
            "estimated height {} vs real {}",
            e.height,
            real_h
        );
        let real_pl = tree.leaf_pages() as f64;
        assert!(
            e.leaf_pages <= real_pl * 1.2 && e.leaf_pages >= real_pl / 2.5,
            "estimated pl {} vs real {}",
            e.leaf_pages,
            real_pl
        );
    }
}
