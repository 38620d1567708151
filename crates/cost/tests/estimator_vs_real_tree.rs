//! The B+-tree estimator against the real `oic-btree` structure, across
//! random shapes: heights within one level, leaf pages within a factor two
//! (real splits leave pages part-filled; the estimator packs them). The
//! estimator's key lengths are checked against the key encoding they copy,
//! and its node capacity against the tree's.

use oic_btree::BTreeIndex;
use oic_cost::est::estimate_btree;
use oic_cost::{CostParams, ENTRY_OVERHEAD, KEY_LEN, OID_LEN, RECORD_OVERHEAD};
use oic_schema::ClassId;
use oic_storage::{encode_key, Oid, SimStore, Value};
use proptest::prelude::*;

#[test]
fn byte_constants_match_the_layout_and_the_key_encoding() {
    for page_size in [512usize, 1024, 4096] {
        assert_eq!(
            CostParams::with_page_size(page_size as f64).node_capacity(),
            oic_btree::node_capacity(page_size) as f64
        );
    }
    let oid = Oid::new(ClassId(3), 42);
    assert_eq!(OID_LEN, encode_key(&Value::Ref(oid)).len() as f64);
    for i in [i64::MIN, -7, 0, 7, i64::MAX] {
        assert_eq!(KEY_LEN, encode_key(&Value::Int(i)).len() as f64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn estimator_tracks_real_trees(
        keys in 50u64..3_000,
        entries_per_key in 1usize..6,
        entry_len in 4usize..64,
        page_size in prop::sample::select(vec![512usize, 1024, 4096]),
    ) {
        let mut store = SimStore::new(page_size);
        let mut tree = BTreeIndex::new(&mut store);
        for i in 0..keys {
            let mut k = vec![1u8];
            k.extend_from_slice(&i.to_be_bytes());
            for e in 0..entries_per_key {
                let mut payload = vec![e as u8; entry_len];
                payload[0] = e as u8;
                tree.insert_entry(&mut store, &k, payload);
            }
        }
        let params = CostParams::with_page_size(page_size as f64);
        // ln mirrors the layout: record_overhead + key + entries.
        let entry = entry_len as f64 + ENTRY_OVERHEAD;
        let ln = RECORD_OVERHEAD + KEY_LEN + entries_per_key as f64 * entry;
        let est = estimate_btree(keys as f64, ln, KEY_LEN, &params);

        let real_h = tree.height() as i64;
        prop_assert!(
            (est.height as i64 - real_h).abs() <= 1,
            "height: est {} vs real {} (keys {}, ln {:.0}, p {})",
            est.height, real_h, keys, ln, page_size
        );
        let real_pl = tree.leaf_pages() as f64;
        prop_assert!(
            est.leaf_pages <= real_pl * 1.5 && est.leaf_pages >= real_pl / 3.0,
            "leaf pages: est {:.0} vs real {:.0}",
            est.leaf_pages, real_pl
        );
    }

    #[test]
    fn estimator_tracks_oversized_records(
        keys in 5u64..60,
        entries_per_key in 50usize..400,
    ) {
        let page_size = 512usize;
        let mut store = SimStore::new(page_size);
        let mut tree = BTreeIndex::new(&mut store);
        for i in 0..keys {
            let mut k = vec![1u8];
            k.extend_from_slice(&i.to_be_bytes());
            for e in 0..entries_per_key {
                tree.insert_entry(&mut store, &k, (e as u32).to_be_bytes().to_vec());
            }
        }
        let params = CostParams::with_page_size(page_size as f64);
        let ln = RECORD_OVERHEAD + KEY_LEN + entries_per_key as f64 * (4.0 + ENTRY_OVERHEAD);
        let est = estimate_btree(keys as f64, ln, KEY_LEN, &params);
        prop_assume!(ln > page_size as f64);
        // Chains: est pl = keys · ⌈ln/p⌉; the real tree agrees exactly on
        // chain length per record.
        let real_pl = tree.leaf_pages() as f64;
        prop_assert!(
            (est.leaf_pages - real_pl).abs() <= keys as f64,
            "oversized leaf pages: est {:.0} vs real {:.0}",
            est.leaf_pages,
            real_pl
        );
    }
}
