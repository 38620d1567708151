//! The space side of the paper's trade-off: physical index footprints in
//! pages, derived from the same [`crate::est::IndexEst`] level profiles
//! that drive the time model.
//!
//! The paper prices configurations purely in expected page *accesses*;
//! production advisors (CoPhy's ILP, Meta's AIM) all optimize under a
//! storage budget — "total index footprint ≤ B" — which needs a per-index
//! *size* beside each per-index cost. Everything required is already in the
//! estimator: an index's footprint is the page count of every level of its
//! B+-tree(s), overflow chains included, because
//! [`crate::est::estimate_btree`] folds chain pages into the leaf level's
//! `p_h`. This module just assembles those profiles per organization:
//!
//! * **MX** — one B-tree per `(position, hierarchy class)` in the subpath;
//!   the footprint sums all of their level profiles.
//! * **MIX** — one B-tree per position (hierarchy-merged records).
//! * **NIX** — the primary B-tree on the subpath's ending attribute plus,
//!   for multi-position subpaths, the auxiliary index.
//!
//! Like the maintenance price, an index's size is **candidate-intrinsic**:
//! it reads only the statistics of the hierarchies inside the subpath plus
//! (through the `d_union` domain clamp on the ending position) the
//! population of the successor hierarchy when the subpath is embedded —
//! exactly the maintenance dependency set,
//! [`crate::invalidation::maintenance_dependencies`]. Engines that memoize
//! sizes can therefore reuse the maintenance invalidation wiring verbatim:
//! any drift that can move a size already invalidates the matching
//! maintenance cell.

use crate::est::IndexEst;
use crate::model::CostModel;
use crate::Org;
use oic_schema::SubpathId;

/// Total pages of one estimated B+-tree: every level's page count, root to
/// leaves, with overflow chains (already folded into the leaf level).
pub fn est_total_pages(est: &IndexEst) -> f64 {
    est.levels.iter().map(|&(_, pages)| pages).sum()
}

/// Estimated footprint in pages of an index of organization `org` allocated
/// on subpath `sub` — all levels of all constituent structures.
///
/// This is the size plane the budgeted selection optimizes beside the cost
/// plane; `CostModel::size_pages` delegates here.
pub fn index_size_pages(model: &CostModel<'_>, sub: SubpathId, org: Org) -> f64 {
    match org {
        Org::Mx => {
            let mut total = 0.0;
            for l in sub.start..=sub.end {
                for x in 0..model.chars().nc(l) {
                    total += est_total_pages(model.est_mx(l, x));
                }
            }
            total
        }
        Org::Mix => (sub.start..=sub.end)
            .map(|l| est_total_pages(model.est_mix(l)))
            .sum(),
        Org::Nix => {
            let stats = model.nix(sub);
            est_total_pages(&stats.primary) + stats.auxiliary.as_ref().map_or(0.0, est_total_pages)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::example51;
    use crate::{ClassStats, CostParams, PathCharacteristics};
    use oic_schema::fixtures;

    fn sub(s: usize, e: usize) -> SubpathId {
        SubpathId { start: s, end: e }
    }

    #[test]
    fn sizes_are_positive_finite_and_monotone_in_span() {
        let (schema, _) = fixtures::paper_schema();
        let (path, chars) = example51(&schema);
        let m = CostModel::new(&schema, &path, &chars, CostParams::default());
        for org in Org::ALL {
            let mut prev = 0.0;
            for e in 1..=4 {
                let s = index_size_pages(&m, sub(1, e), org);
                assert!(s.is_finite() && s > 0.0, "{org} S1,{e}: {s}");
                if org != Org::Nix {
                    // MX/MIX footprints grow with the span (one more
                    // position = at least one more tree). NIX swaps the
                    // primary's key domain per span, so only positivity
                    // holds there.
                    assert!(s > prev, "{org} S1,{e}: {s} vs {prev}");
                }
                prev = s;
            }
        }
    }

    #[test]
    fn size_matches_level_profile_sum() {
        // The footprint is exactly the level profile Σ p_k — no hidden
        // constants — so it stays consistent with the height/leaf estimates
        // the time model reads.
        let (schema, _) = fixtures::paper_schema();
        let (path, chars) = example51(&schema);
        let m = CostModel::new(&schema, &path, &chars, CostParams::default());
        let s44 = sub(4, 4);
        let nix = m.nix(s44);
        assert!(nix.auxiliary.is_none());
        assert_eq!(
            index_size_pages(&m, s44, Org::Nix),
            est_total_pages(&nix.primary)
        );
        assert!(est_total_pages(&nix.primary) >= nix.primary.leaf_pages);
    }

    #[test]
    fn overflow_chains_count_toward_the_footprint() {
        let (schema, _) = fixtures::paper_schema();
        let path = fixtures::paper_path_pe(&schema);
        // Tiny pages force spanning records: the leaf level carries the
        // whole chain, and the footprint must reflect it.
        let chars =
            PathCharacteristics::build(&schema, &path, |_| ClassStats::new(10_000.0, 100.0, 2.0));
        let small = CostParams::with_page_size(256.0);
        let m = CostModel::new(&schema, &path, &chars, small);
        let est = &m.nix(sub(1, 3)).primary;
        assert!(est.record_len > 256.0, "spanning record expected");
        assert!(
            index_size_pages(&m, sub(1, 3), Org::Nix) >= est.leaf_pages,
            "chains live in the leaf level page count"
        );
    }

    #[test]
    fn size_is_owner_independent() {
        // Like maintenance, the footprint of a shared physical candidate
        // must be the same through any owner's model: Pexa and Pe share the
        // embedded Per.owns.man prefix.
        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema);
        let pe = fixtures::paper_path_pe(&schema);
        let stats = |c: oic_schema::ClassId| match schema.class_name(c) {
            "Person" => ClassStats::new(200_000.0, 20_000.0, 1.0),
            "Vehicle" => ClassStats::new(10_000.0, 5_000.0, 3.0),
            "Bus" | "Truck" => ClassStats::new(5_000.0, 2_500.0, 2.0),
            "Company" => ClassStats::new(1_000.0, 250.0, 4.0),
            _ => ClassStats::new(1_000.0, 1_000.0, 1.0),
        };
        let chars_a = PathCharacteristics::build(&schema, &pexa, stats);
        let chars_b = PathCharacteristics::build(&schema, &pe, stats);
        let ma = CostModel::new(&schema, &pexa, &chars_a, CostParams::default());
        let mb = CostModel::new(&schema, &pe, &chars_b, CostParams::default());
        let s12 = sub(1, 2);
        for org in Org::ALL {
            let via_a = index_size_pages(&ma, s12, org);
            let via_b = index_size_pages(&mb, s12, org);
            assert_eq!(
                via_a.to_bits(),
                via_b.to_bits(),
                "{org}: {via_a} vs {via_b}"
            );
        }
    }
}
