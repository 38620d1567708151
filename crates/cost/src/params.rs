//! Physical parameters of the cost model.
//!
//! The byte lengths the estimator prices records with are constants: the
//! node and record headers are `oic_btree`'s own, and the key lengths
//! mirror `oic_storage::encode_key`, which `tests/estimator_vs_real_tree.rs`
//! pins them to (DESIGN.md §5.9).

/// Encoded oid length (1 tag + 8 payload, matching `oic_storage::encode_key`).
pub const OID_LEN: f64 = 9.0;
/// Pointer length (page/record addresses inside index records; the
/// B-tree's child pointer).
pub const PTR_LEN: f64 = oic_btree::CHILD_PTR as f64;
/// Encoded atomic key length (fixed-width domains; tag byte included).
pub const KEY_LEN: f64 = 9.0;
/// Per-posting-entry overhead in an index record.
pub const ENTRY_OVERHEAD: f64 = oic_btree::ENTRY_OVERHEAD as f64;
/// Per-record header in a leaf.
pub const RECORD_OVERHEAD: f64 = oic_btree::RECORD_OVERHEAD as f64;
/// Node header.
pub const NODE_HEADER: f64 = oic_btree::NODE_HEADER as f64;
/// Per-class directory slot in MIX/NIX records (class tag + offset).
pub const CLASS_DIR_LEN: f64 = 8.0;
/// `numchild` counter per NIX primary entry under a multi-valued step.
pub const NUMCHILD_LEN: f64 = 4.0;
/// Average stored object size, used only by the no-index scan model
/// (Section 6 extension).
pub const OBJ_LEN: f64 = 100.0;

/// The two physical settings a caller chooses (DESIGN.md §5.5, §5.9).
///
/// The paper treats `pr_X`, `pm_X`, `pmd_X`, `pmi_X` as *input parameters*
/// (Section 3.1) whose values sit in its unavailable companion report; the
/// model computes them instead — `pr = ⌈ln/p⌉` for a whole spanning record
/// or the class-section fraction the record directory permits, and one
/// page per entry-level mutation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Page size `p` in bytes.
    pub page_size: f64,
    /// NIX primary-record maintenance granularity. `true` (paper-faithful
    /// default) prices `pmd_NIX = prd_NIX`: maintaining an object's entry
    /// fetches and rewrites its whole class section (“the average number of
    /// relevant pages which should be retrieved … are modified”, §3.1).
    /// `false` prices entry-level edits (one page), matching the
    /// `oic-btree` implementation whose records carry per-entry offsets —
    /// use [`CostParams::calibrated`] for validation against `oic-sim`.
    pub nix_section_rewrites: bool,
}

impl CostParams {
    /// Defaults for the given page size.
    pub fn with_page_size(page_size: f64) -> Self {
        CostParams {
            page_size,
            nix_section_rewrites: true,
        }
    }

    /// Parameters calibrated to the `oic-btree`/`oic-index` implementation
    /// (entry-level NIX maintenance): the preset the `oic-sim` validation
    /// harness compares measurements against.
    pub fn calibrated(page_size: f64) -> Self {
        CostParams {
            nix_section_rewrites: false,
            ..CostParams::with_page_size(page_size)
        }
    }

    /// The parameterization used for the paper-reproduction report
    /// (`examples/paper.rs`). The companion report \[7\] with the original
    /// physical constants is unavailable; a 1024-byte page (a common 1994
    /// value) is the point at which Example 5.1 reproduces the paper's
    /// optimal configuration `{(Per.owns.man, NIX), (Comp.divs.name, MX)}`
    /// exactly, with an improvement factor over whole-path NIX of 4.2
    /// (paper: 2.7; at 4 KB pages the factor is 2.7 with a NIX suffix).
    /// The *structure* — a two-way split after `man` with NIX on the
    /// query-heavy prefix — is stable across 1–8 KB pages; see the
    /// page-size sweep in `examples/paper.rs`.
    pub fn paper() -> Self {
        CostParams::with_page_size(1024.0)
    }

    /// Usable node payload per page.
    pub fn node_capacity(&self) -> f64 {
        self.page_size - NODE_HEADER
    }

    /// Pages occupied by a record of `ln` bytes (`⌈ln/p⌉`, at least 1).
    pub fn record_pages(&self, ln: f64) -> f64 {
        (ln / self.page_size).ceil().max(1.0)
    }
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams::with_page_size(4096.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let p = CostParams::default();
        assert_eq!(p.page_size, 4096.0);
        assert_eq!(p.node_capacity(), 4080.0);
        assert_eq!(p.record_pages(10.0), 1.0);
        assert_eq!(p.record_pages(4097.0), 2.0);
        assert_eq!(p.record_pages(0.0), 1.0);
    }
}
