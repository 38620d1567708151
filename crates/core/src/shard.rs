//! Candidate-sharing component index: an incrementally maintained
//! union-find over the advisor's live paths, keyed by shared
//! [`CandidateId`]s.
//!
//! Two paths land in the same component iff they are connected by a chain
//! of shared physical candidates. Paths in different components share no
//! physical index, so the advisor's coordinate descent decomposes exactly
//! across components (DESIGN.md §5.15): each component optimizes
//! independently — and in parallel.

use crate::CandidateId;
use std::collections::HashMap;

/// Incremental union-find over paths keyed by shared candidates.
///
/// Paths are identified by their raw [`PathId`](crate::PathId) value
/// (`u32`, monotonically assigned, never reused), so plain `Vec`s indexed
/// by raw id back the parent/size arrays. Path additions union
/// incrementally (one `find` per candidate). Removals cannot split a
/// union-find incrementally, so they mark the structure dirty and the next
/// [`ShardIndex::components`] call rebuilds from the live set — required
/// anyway because [`CandidateSpace`](crate::CandidateSpace) recycles the
/// ids of freed candidates, which would otherwise alias stale owners.
#[derive(Debug, Default)]
pub(crate) struct ShardIndex {
    /// Union-find parent per raw path id.
    parent: Vec<u32>,
    /// Component size per root (indexed by raw path id; meaningful at
    /// roots only).
    size: Vec<u32>,
    /// First live path seen holding each candidate; unions route through
    /// it. Stale after a removal (`dirty`) until the next rebuild.
    cand_owner: HashMap<CandidateId, u32>,
    /// Set on removal: incremental state may be stale; the next
    /// [`ShardIndex::components`] call rebuilds from the live set.
    dirty: bool,
}

impl ShardIndex {
    /// New, empty index.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records a freshly added path and unions it with every live path
    /// sharing one of its candidates. A no-op while dirty: the pending
    /// rebuild re-derives everything from the live set.
    pub(crate) fn add_path(&mut self, raw: u32, cands: &[CandidateId]) {
        if self.dirty {
            return;
        }
        self.grow(raw);
        self.link(raw, cands);
    }

    /// Marks the index stale after a path departure. The union-find and
    /// the candidate-owner table are rebuilt lazily by the next
    /// [`ShardIndex::components`] call; until then additions are no-ops.
    pub(crate) fn remove_path(&mut self) {
        self.dirty = true;
    }

    /// The candidate-sharing connected components of `live` (one `(raw
    /// path id, interned candidates)` entry per live path, in advisor
    /// storage order). Returns indices into `live`, grouped by component
    /// in first-seen-root order — i.e. components are ordered by their
    /// smallest member index and members ascend within each — which is
    /// what makes the sharded descent deterministic.
    pub(crate) fn components(&mut self, live: &[(u32, &[CandidateId])]) -> Vec<Vec<usize>> {
        if self.dirty {
            self.rebuild(live);
        }
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut by_root: HashMap<u32, usize> = HashMap::new();
        for (idx, &(raw, _)) in live.iter().enumerate() {
            let root = self.find(raw);
            let g = *by_root.entry(root).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(idx);
        }
        groups
    }

    /// Full rebuild from the live set: fresh forest, fresh candidate
    /// owners. Handles departures *and* candidate-id recycling in one
    /// sweep (the "split audit").
    fn rebuild(&mut self, live: &[(u32, &[CandidateId])]) {
        let n = live
            .iter()
            .map(|&(raw, _)| raw as usize + 1)
            .max()
            .unwrap_or(0);
        self.parent = (0..n as u32).collect();
        self.size = vec![1; n];
        self.cand_owner.clear();
        self.dirty = false;
        for &(raw, cands) in live {
            self.link(raw, cands);
        }
    }

    /// Unions `raw` with the recorded owner of each candidate, claiming
    /// ownership of candidates seen for the first time.
    fn link(&mut self, raw: u32, cands: &[CandidateId]) {
        for &cand in cands {
            match self.cand_owner.get(&cand) {
                Some(&owner) => self.union(raw, owner),
                None => {
                    self.cand_owner.insert(cand, raw);
                }
            }
        }
    }

    /// Grows the forest to cover raw id `raw` (fresh singletons).
    fn grow(&mut self, raw: u32) {
        let need = raw as usize + 1;
        while self.parent.len() < need {
            self.parent.push(self.parent.len() as u32);
            self.size.push(1);
        }
    }

    /// Root of `x` with path halving.
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Union by size; ties keep the smaller root (determinism).
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = match self.size[ra as usize].cmp(&self.size[rb as usize]) {
            std::cmp::Ordering::Greater => (ra, rb),
            std::cmp::Ordering::Less => (rb, ra),
            std::cmp::Ordering::Equal => (ra.min(rb), ra.max(rb)),
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> CandidateId {
        CandidateId(i)
    }

    #[test]
    fn additions_merge_on_shared_candidates() {
        let mut idx = ShardIndex::new();
        idx.add_path(0, &[c(0), c(1)]);
        idx.add_path(1, &[c(2)]);
        let live: Vec<(u32, Vec<CandidateId>)> = vec![(0, vec![c(0), c(1)]), (1, vec![c(2)])];
        let borrowed: Vec<(u32, &[CandidateId])> =
            live.iter().map(|(r, v)| (*r, v.as_slice())).collect();
        assert_eq!(idx.components(&borrowed), vec![vec![0], vec![1]]);

        // Path 2 bridges the two: candidate 1 from path 0, candidate 2
        // from path 1 — one component, ordered by smallest member.
        idx.add_path(2, &[c(1), c(2)]);
        let live: Vec<(u32, Vec<CandidateId>)> = vec![
            (0, vec![c(0), c(1)]),
            (1, vec![c(2)]),
            (2, vec![c(1), c(2)]),
        ];
        let borrowed: Vec<(u32, &[CandidateId])> =
            live.iter().map(|(r, v)| (*r, v.as_slice())).collect();
        assert_eq!(idx.components(&borrowed), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn components_order_by_first_seen_member() {
        let mut idx = ShardIndex::new();
        idx.add_path(0, &[c(0)]);
        idx.add_path(1, &[c(1)]);
        idx.add_path(2, &[c(0)]);
        idx.add_path(3, &[c(1)]);
        let live: Vec<(u32, Vec<CandidateId>)> = vec![
            (0, vec![c(0)]),
            (1, vec![c(1)]),
            (2, vec![c(0)]),
            (3, vec![c(1)]),
        ];
        let borrowed: Vec<(u32, &[CandidateId])> =
            live.iter().map(|(r, v)| (*r, v.as_slice())).collect();
        assert_eq!(idx.components(&borrowed), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn removal_splits_on_rebuild() {
        let mut idx = ShardIndex::new();
        // Path 1 is the only bridge between 0 and 2.
        idx.add_path(0, &[c(0)]);
        idx.add_path(1, &[c(0), c(1)]);
        idx.add_path(2, &[c(1)]);
        let live: Vec<(u32, Vec<CandidateId>)> =
            vec![(0, vec![c(0)]), (1, vec![c(0), c(1)]), (2, vec![c(1)])];
        let borrowed: Vec<(u32, &[CandidateId])> =
            live.iter().map(|(r, v)| (*r, v.as_slice())).collect();
        assert_eq!(idx.components(&borrowed), vec![vec![0, 1, 2]]);

        // Dropping the bridge splits the component — the rebuild audit.
        idx.remove_path();
        let live: Vec<(u32, Vec<CandidateId>)> = vec![(0, vec![c(0)]), (2, vec![c(1)])];
        let borrowed: Vec<(u32, &[CandidateId])> =
            live.iter().map(|(r, v)| (*r, v.as_slice())).collect();
        assert_eq!(idx.components(&borrowed), vec![vec![0], vec![1]]);
    }

    #[test]
    fn recycled_candidate_ids_do_not_alias_after_rebuild() {
        let mut idx = ShardIndex::new();
        idx.add_path(0, &[c(0)]);
        idx.add_path(1, &[c(1)]);
        // Path 0 departs; the space recycles candidate id 0 for a brand-new
        // physical candidate interned by path 2. Stale incremental state
        // would union 2 with the dead path 0; the rebuild must not.
        idx.remove_path();
        idx.add_path(2, &[c(0)]); // no-op while dirty
        let live: Vec<(u32, Vec<CandidateId>)> = vec![(1, vec![c(1)]), (2, vec![c(0)])];
        let borrowed: Vec<(u32, &[CandidateId])> =
            live.iter().map(|(r, v)| (*r, v.as_slice())).collect();
        assert_eq!(idx.components(&borrowed), vec![vec![0], vec![1]]);

        // Incremental additions resume after the rebuild cleared `dirty`.
        idx.add_path(3, &[c(0)]);
        let live: Vec<(u32, Vec<CandidateId>)> =
            vec![(1, vec![c(1)]), (2, vec![c(0)]), (3, vec![c(0)])];
        let borrowed: Vec<(u32, &[CandidateId])> =
            live.iter().map(|(r, v)| (*r, v.as_slice())).collect();
        assert_eq!(idx.components(&borrowed), vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn empty_live_set_has_no_components() {
        let mut idx = ShardIndex::new();
        idx.remove_path();
        assert_eq!(idx.components(&[]), Vec::<Vec<usize>>::new());
    }
}
