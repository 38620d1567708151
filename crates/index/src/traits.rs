//! The common interface of all path index organizations.

use crate::Segment;
use oic_btree::BTreeIndex;
use oic_schema::ClassId;
use oic_storage::{Object, Oid, SimStore, Value};

/// A (sub)path index: answers equality lookups against the segment's ending
/// attribute and absorbs object insertions/deletions.
pub trait PathIndex {
    /// The segment this index covers.
    fn segment(&self) -> &Segment;

    /// Oids of `target`-class objects (optionally including subclasses)
    /// whose nested ending-attribute value matches any of `keys`.
    ///
    /// For segments whose ending attribute is a reference, `keys` are the
    /// qualifying child oids delivered by the downstream subpath
    /// (`Value::Ref`); for atomic endings they are the query constants.
    fn lookup(
        &self,
        store: &SimStore,
        keys: &[Value],
        target: ClassId,
        with_subclasses: bool,
    ) -> Vec<Oid>;

    /// Maintains the index for a newly inserted object. Objects outside the
    /// segment's scope are ignored.
    fn on_insert(&mut self, store: &mut SimStore, obj: &Object);

    /// Maintains the index for a deleted object. Handles both scope members
    /// and *boundary* objects (domain of the ending attribute), whose death
    /// removes the record keyed by their oid — the paper's `CMD` effect.
    fn on_delete(&mut self, store: &mut SimStore, obj: &Object);

    /// Total index pages currently allocated (all underlying B-trees).
    fn total_pages(&self) -> u64;
}

/// Helper: an oid result set as ascending, deduplicated `Oid`s — exactly
/// what `sort` + `dedup` returns.
///
/// Answers are mostly one class whose sequence numbers sit in a narrow
/// span: posting lists hold a few ascending runs per class, and NIX, MX and
/// MIX key sets are the previous step's answers. So when every oid has one
/// class and the span of `seq` fits in `4·len + 16` words, the set is a
/// bitmap over `seq − min`, read out in order: linear in the answer, no
/// comparisons. Several classes, or a sparse or hostile span, take
/// `sort` + `dedup`, so memory stays bounded by the answer either way.
pub(crate) fn normalize(mut oids: Vec<Oid>) -> Vec<Oid> {
    let Some(&Oid { class, seq }) = oids.first() else {
        return oids;
    };
    let (mut lo, mut hi) = (seq, seq);
    for o in &oids {
        if o.class != class {
            return sorted(oids);
        }
        lo = lo.min(o.seq);
        hi = hi.max(o.seq);
    }
    let words = ((hi - lo) >> 6) as usize + 1;
    if words > 4 * oids.len() + 16 {
        return sorted(oids);
    }
    let mut bits = vec![0u64; words];
    for o in &oids {
        let i = o.seq - lo;
        bits[(i >> 6) as usize] |= 1 << (i & 63);
    }
    oids.clear();
    for (w, mut word) in bits.into_iter().enumerate() {
        // `w·64 + bit ≤ hi − lo`, so the sum cannot overflow.
        let base = lo + ((w as u32) << 6);
        while word != 0 {
            oids.push(Oid::new(class, base + word.trailing_zeros()));
            word &= word - 1;
        }
    }
    oids
}

/// `sort` + `dedup`: the general case of [`normalize`].
fn sorted(mut oids: Vec<Oid>) -> Vec<Oid> {
    oids.sort();
    oids.dedup();
    oids
}

/// Helper: the tree's filtered visitor from a selector and a consumer of
/// the selected entries.
pub(crate) fn selecting<'a>(
    mut pred: impl FnMut(&[u8]) -> bool + 'a,
    mut take: impl FnMut(&[u8]) + 'a,
) -> impl FnMut(&[u8]) -> bool + 'a {
    move |e| {
        let hit = pred(e);
        if hit {
            take(e);
        }
        hit
    }
}

/// Helper: decode an 8-byte posting entry into an oid.
pub(crate) fn entry_to_oid(e: &[u8]) -> Oid {
    let mut b = [0u8; 8];
    b.copy_from_slice(&e[..8]);
    Oid::from_bytes(b)
}

/// Helper: pages allocated by a tree, summed over its level profile.
pub(crate) fn tree_pages(tree: &BTreeIndex) -> u64 {
    tree.level_profile().levels.iter().map(|&(_, p)| p).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: what `normalize` must return.
    fn oracle(mut oids: Vec<Oid>) -> Vec<Oid> {
        oids.sort();
        oids.dedup();
        oids
    }

    /// An answer of one of six shapes, from raw draws: dense one-class
    /// runs (the bitmap's case), the same pinned against `seq` 0 or
    /// `u32::MAX`, a sparse one-class spread and `{0, u32::MAX}` extremes
    /// (both too wide for the bitmap), and two or three classes.
    fn answer(shape: u8, base: u32, raw: &[(u8, u32)]) -> Vec<Oid> {
        let n = raw.len() as u32;
        let span = 2 * n + 1;
        raw.iter()
            .map(|&(c, x)| match shape % 6 {
                0 => Oid::new(ClassId(3), base.saturating_add(x % span)),
                1 => Oid::new(ClassId(3), x % span),
                2 => Oid::new(ClassId(3), u32::MAX - x % span),
                3 => Oid::new(ClassId(3), x),
                4 => Oid::new(ClassId(3), [0, u32::MAX, 1, u32::MAX - 1][x as usize % 4]),
                _ => Oid::new(ClassId(u32::from(c % 3)), base.saturating_add(x % span)),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn normalize_matches_sort_dedup(
            shape in 0u8..6,
            base in any::<u32>(),
            raw in prop::collection::vec((any::<u8>(), any::<u32>()), 0..300),
            runs in 1usize..5,
        ) {
            let mut oids = answer(shape, base, &raw);
            // Posting-list order: a few ascending runs, duplicates across
            // them.
            let len = oids.len();
            for run in oids.chunks_mut(len.div_ceil(runs).max(1)) {
                run.sort();
            }
            prop_assert_eq!(normalize(oids.clone()), oracle(oids));
        }
    }

    #[test]
    fn normalize_edge_cases() {
        let o = |seq| Oid::new(ClassId(1), seq);
        assert_eq!(normalize(Vec::new()), Vec::new());
        assert_eq!(normalize(vec![o(u32::MAX)]), vec![o(u32::MAX)]);
        assert_eq!(normalize(vec![o(0), o(0), o(0)]), vec![o(0)]);
        assert_eq!(
            normalize(vec![o(u32::MAX), o(u32::MAX - 64), o(u32::MAX)]),
            vec![o(u32::MAX - 64), o(u32::MAX)]
        );
        // Two oids allow 4·2 + 16 = 24 words: a span of 24 words takes the
        // bitmap, one of 25 the sort.
        for words in [24, 25] {
            let hi = (words - 1) * 64;
            assert_eq!(normalize(vec![o(hi), o(0)]), vec![o(0), o(hi)]);
        }
        assert_eq!(
            normalize(vec![Oid::new(ClassId(2), 0), o(5), Oid::new(ClassId(2), 0)]),
            vec![o(5), Oid::new(ClassId(2), 0)]
        );
    }
}
