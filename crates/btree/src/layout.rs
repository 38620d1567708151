//! Physical layout constants and size arithmetic.
//!
//! The byte lengths are those documented in DESIGN.md §5.9: 8-byte
//! pointers/oids, small per-record headers. All capacity decisions (leaf
//! splits, internal fan-out, overflow-chain lengths) use these sizes
//! against the backing store's page size, and the analytic cost model
//! (`oic-cost`) prices pages with the same constants.

/// Per-node header (next-pointer, counts).
pub const NODE_HEADER: usize = 16;
/// Per-record header in a leaf (entry count, lengths).
pub const RECORD_OVERHEAD: usize = 8;
/// Per-entry header in a posting list: the entry's big-endian length.
pub const ENTRY_OVERHEAD: usize = 2;
/// Size of a child pointer in internal nodes.
pub const CHILD_PTR: usize = 8;

/// `ln` — the stored length in bytes of an index record with the given
/// key and entry lengths.
pub fn record_len(key_len: usize, entry_lens: impl Iterator<Item = usize>) -> usize {
    RECORD_OVERHEAD + key_len + entry_lens.map(|e| e + ENTRY_OVERHEAD).sum::<usize>()
}

/// Number of pages a record of `ln` bytes occupies: 0 extra when it fits
/// in a shared leaf page, else `⌈ln/p⌉` dedicated chain pages.
pub fn chain_pages(page_size: usize, ln: usize) -> usize {
    if ln <= page_size {
        0
    } else {
        ln.div_ceil(page_size)
    }
}

/// Usable payload bytes in a node page.
pub fn node_capacity(page_size: usize) -> usize {
    page_size - NODE_HEADER
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_len_sums_components() {
        let ln = record_len(9, [8usize, 8, 8].into_iter());
        assert_eq!(ln, 8 + 9 + 3 * (8 + 2));
    }

    #[test]
    fn chain_pages_thresholds() {
        assert_eq!(chain_pages(100, 100), 0);
        assert_eq!(chain_pages(100, 101), 2);
        assert_eq!(chain_pages(100, 250), 3);
    }

    #[test]
    fn node_capacity_subtracts_header() {
        assert_eq!(node_capacity(4096), 4096 - 16);
    }
}
