//! Candidate-sharing components of the advisor's live paths, built from
//! their candidate slices over dense tables. The advisor builds them once
//! per membership: it keeps the result until a path arrives, departs or
//! changes its admitted candidates, and rebuilds from scratch then — no
//! incremental index.
//!
//! Two paths land in the same component iff they are connected by a chain
//! of shared physical candidates. Paths in different components share no
//! physical index, so the advisor's coordinate descent decomposes exactly
//! across components (DESIGN.md §5.15): each component optimizes
//! independently — and in parallel.

use crate::CandidateId;

/// An empty entry of a dense table: a candidate no live path holds, a
/// path outside any group yet, a mined-out rank.
pub(crate) const NONE: u32 = u32::MAX;

/// The candidate-sharing components of a set of live paths — see
/// [`components`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Components {
    /// Indices into the live set, grouped by component: components by
    /// their first member, members ascending.
    pub(crate) groups: Vec<Vec<usize>>,
    /// Per candidate id, its number within its component — `0..k` for a
    /// component of `k` distinct candidates, numbered first seen first
    /// over the members in order, each member's candidates in order —
    /// or [`NONE`] when no live path holds it.
    pub(crate) local: Vec<u32>,
}

/// The candidate-sharing components of `live` (each live path's interned
/// candidates, in advisor storage order; every id below `slots`). A
/// union-find over the path indices links each path to the first holder
/// of each of its candidates, the smaller index always the root, so a
/// root is its component's first member. Only earlier paths are linked
/// before a path's own turn, so its root is itself until its first link,
/// and is carried through its candidates instead of looked up again.
pub(crate) fn components(live: &[&[CandidateId]], slots: usize) -> Components {
    fn root(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let grand = parent[parent[x as usize] as usize];
            parent[x as usize] = grand;
            x = grand;
        }
        x
    }
    let mut parent: Vec<u32> = (0..live.len() as u32).collect();
    let mut holder = vec![NONE; slots];
    for (p, cands) in live.iter().enumerate() {
        let mut own = p as u32;
        for cand in cands.iter() {
            match holder[cand.index()] {
                NONE => holder[cand.index()] = p as u32,
                first => {
                    let other = root(&mut parent, first);
                    parent[other.max(own) as usize] = other.min(own);
                    own = other.min(own);
                }
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    // Per root, its group's position in `groups`.
    let mut group = vec![NONE; live.len()];
    for p in 0..live.len() {
        let r = root(&mut parent, p as u32) as usize;
        if group[r] == NONE {
            group[r] = groups.len() as u32;
            groups.push(Vec::new());
        }
        groups[group[r] as usize].push(p);
    }
    let mut local = holder;
    local.fill(NONE);
    for members in &groups {
        let mut next = 0;
        for &p in members {
            for cand in live[p] {
                if local[cand.index()] == NONE {
                    local[cand.index()] = next;
                    next += 1;
                }
            }
        }
    }
    Components { groups, local }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(ids: &[u32]) -> Vec<CandidateId> {
        ids.iter().copied().map(CandidateId).collect()
    }

    fn groups(live: &[Vec<CandidateId>]) -> Vec<Vec<usize>> {
        let live: Vec<&[CandidateId]> = live.iter().map(Vec::as_slice).collect();
        components(&live, 8).groups
    }

    #[test]
    fn additions_merge_on_shared_candidates() {
        assert_eq!(groups(&[c(&[0, 1]), c(&[2])]), vec![vec![0], vec![1]]);
        // Path 2 bridges the two: candidate 1 from path 0, candidate 2
        // from path 1 — one component, ordered by smallest member.
        let bridged = [c(&[0, 1]), c(&[2]), c(&[1, 2])];
        assert_eq!(groups(&bridged), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn components_order_by_first_seen_member() {
        let live = [c(&[0]), c(&[1]), c(&[0]), c(&[1])];
        assert_eq!(groups(&live), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn removal_splits_on_rebuild() {
        // Path 1 is the only bridge between 0 and 2.
        let bridged = [c(&[0]), c(&[0, 1]), c(&[1])];
        assert_eq!(groups(&bridged), vec![vec![0, 1, 2]]);
        // Dropping the bridge splits the component on the next call.
        let split = [c(&[0]), c(&[1])];
        assert_eq!(groups(&split), vec![vec![0], vec![1]]);
    }

    #[test]
    fn recycled_candidate_ids_do_not_alias_after_rebuild() {
        // Path 0 held candidate 0 and departed; the space recycles id 0
        // for a brand-new candidate of a later path. Only live holders of
        // id 0 share a component with that path.
        let recycled = [c(&[1]), c(&[0])];
        assert_eq!(groups(&recycled), vec![vec![0], vec![1]]);
        let both = [c(&[1]), c(&[0]), c(&[0])];
        assert_eq!(groups(&both), vec![vec![0], vec![1, 2]]);
        let live: Vec<&[CandidateId]> = both.iter().map(Vec::as_slice).collect();
        let local = components(&live, 8).local;
        assert_eq!((local[0], local[1]), (0, 0));
    }

    #[test]
    fn empty_live_set_has_no_components() {
        let none = components(&[], 4);
        assert!(none.groups.is_empty());
        assert_eq!(none.local, vec![NONE; 4]);
    }

    /// The groups, in order, and every component's local numbers — `0..k`,
    /// first seen first — of a BFS over `live` from each unvisited path.
    fn oracle(live: &[Vec<CandidateId>], slots: usize) -> Components {
        let paths = live.len();
        let mut seen = vec![false; paths];
        let (mut groups, mut local) = (Vec::new(), vec![NONE; slots]);
        for start in 0..paths {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            let (mut members, mut at) = (vec![start], 0);
            while let Some(&p) = members.get(at) {
                at += 1;
                for q in 0..paths {
                    if !seen[q] && live[q].iter().any(|x| live[p].contains(x)) {
                        seen[q] = true;
                        members.push(q);
                    }
                }
            }
            members.sort_unstable();
            let mut next = 0;
            for cand in members.iter().flat_map(|&p| &live[p]) {
                if local[cand.index()] == NONE {
                    local[cand.index()] = next;
                    next += 1;
                }
            }
            groups.push(members);
        }
        Components { groups, local }
    }

    /// Seeded churn against the BFS [`oracle`]: paths arrive holding ids
    /// from a small range and depart at random, so a departed bridge
    /// splits its component and its ids come back in later arrivals.
    #[test]
    fn components_match_a_bfs_oracle() {
        let mut seed = 0xC0_3B0_u64;
        let mut next = move |below: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % below
        };
        for case in 0..60 {
            let slots = 1 + next(24) as usize;
            let mut live: Vec<Vec<CandidateId>> = Vec::new();
            for step in 0..40 {
                if !live.is_empty() && next(3) == 0 {
                    live.remove(next(live.len() as u64) as usize);
                } else {
                    let mut cands = Vec::new();
                    for _ in 0..next(5) {
                        let cand = CandidateId(next(slots as u64) as u32);
                        if !cands.contains(&cand) {
                            cands.push(cand);
                        }
                    }
                    live.push(cands);
                }
                let borrowed: Vec<&[CandidateId]> = live.iter().map(Vec::as_slice).collect();
                let got = components(&borrowed, slots);
                assert_eq!(
                    got,
                    oracle(&live, slots),
                    "case {case} step {step}: {live:?}"
                );
            }
        }
    }
}
