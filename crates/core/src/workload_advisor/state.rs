//! Per-path engine state and the one door through which a mutation
//! invalidates it — [`PathState::mark`], the path columns of the DESIGN.md
//! §5.11 invalidation matrix.

use super::ledger::Pair;
use super::{PathId, Selection, SweepMemo};
use crate::space::CandidateId;
use crate::{Choice, IndexConfiguration};
use oic_cost::Org;
use oic_schema::{ClassId, Path, PathSignature, Schema, SubpathId};
use std::sync::Arc;

/// What a mutation moved under a path (DESIGN.md §5.11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Dirty {
    /// Statistics of a class in the path's scope (`update_stats`).
    Stats,
    /// Insert/delete rates of a class in the path's scope (`update_rates`).
    Rates,
    /// The path's own query rates (`update_query_rates`).
    Queries,
    /// The path's admitted candidate set (re-mining).
    Admission,
}

/// Per-path engine state: the path, its load, and every cached artifact
/// with the dirty bits that gate recomputation.
#[derive(Debug)]
pub(super) struct PathState {
    pub(super) id: PathId,
    /// The path, shared with every [`super::PathOutcome`] that reports it:
    /// assembling a plan copies a pointer, not the path's steps.
    pub(super) path: Arc<Path>,
    /// Epoch-stable physical identity (used by re-arrival diagnostics).
    pub(super) signature: PathSignature,
    /// Per-class query rates, dense by `ClassId`.
    pub(super) alphas: Vec<f64>,
    /// Sorted class set whose statistics this path's query shares read
    /// (`oic_cost::invalidation::query_dependencies`).
    pub(super) scope: Vec<ClassId>,
    /// Interned candidate per subpath rank — `None` when the mining
    /// admission policy dropped the rank (DESIGN.md §5.17): a mined-out
    /// subpath is never interned, never priced, and never offered to any
    /// DP. The path holds one reference to each live entry (released on
    /// removal).
    pub(super) cands: Vec<Option<CandidateId>>,
    /// The admitted entries of `cands`, flattened in rank order — the
    /// slice the release path and the component builder consume without
    /// re-flattening per call. Kept in sync at intern and
    /// re-mine time.
    pub(super) live_cands: Vec<CandidateId>,
    /// Query share per rank and organization; valid unless `dirty_query`.
    pub(super) query_costs: Vec<[f64; 3]>,
    /// Standalone optimum (selection + cost, maintenance unshared); `None`
    /// when stale.
    pub(super) standalone: Option<(Selection, f64)>,
    /// The path's current λ = 0 selection, the last plan's: the base the
    /// next descent compares against. Overwritten only when a descent
    /// (or, for a path sharing nothing, a recomputed standalone seed)
    /// moved it; emptied by [`Self::admit`], since it may cite a rank the
    /// new admitted set dropped.
    pub(super) selection: Selection,
    /// The configuration plans report for `selection`, built when the
    /// selection was adopted and shared by every plan since. Until the
    /// path's first adoption it is the path's no-index configuration,
    /// which no plan reports: every path adopts a selection before a plan
    /// is assembled, and a re-admitted path adopts one again.
    pub(super) configuration: IndexConfiguration,
    /// The trail of the path's last λ = 0 descent: every sharing context
    /// (3-bit covered mask per rank) that descent visited, each with the
    /// selection the DP produced for it — at most one entry per sweep.
    /// Valid across epochs while the path is clean: a descent that
    /// revisits any of these contexts is a memo hit, not a DP run. The
    /// descent reads it in place; [`Self::retrace`] installs what it
    /// visited, and [`Self::mark`] clears it.
    pub(super) sweep_memo: SweepMemo,
    /// Per-rank dominance prune mask (bit per organization; `0b111` = the
    /// whole rank is eliminated): cells provably absent from any best
    /// response, under any sharing context **and any λ ≥ 0** — the mask is
    /// size-aware, so it holds for every `cost + λ·size` pricing the
    /// budgeted search runs (DESIGN.md §5.15/§5.17). `None` when stale.
    pub(super) pruned: Option<Vec<u8>>,
    /// Cells struck by the last mask built for this path (0 before the
    /// first). It outlives the mask it counts, so a rebuild or a departure
    /// corrects the advisor's running total without re-summing any mask.
    pub(super) struck: u64,
    /// Query shares stale (class statistics in scope, or own rates, moved).
    pub(super) dirty_query: bool,
    /// Maintenance prices of this path's candidates possibly unpriced.
    pub(super) dirty_maint: bool,
}

impl PathState {
    /// A freshly arrived path over its interned `cands`: nothing priced.
    pub(super) fn new(
        schema: &Schema,
        id: PathId,
        path: Arc<Path>,
        alphas: Vec<f64>,
        cands: Vec<Option<CandidateId>>,
    ) -> Self {
        PathState {
            id,
            signature: path.signature(),
            scope: oic_cost::invalidation::query_dependencies(schema, &path),
            alphas,
            live_cands: cands.iter().flatten().copied().collect(),
            cands,
            query_costs: vec![[0.0; 3]; SubpathId::count(path.len())],
            standalone: None,
            selection: Selection::new(),
            configuration: IndexConfiguration::singletons(Choice::NoIndex, path.len()),
            sweep_memo: SweepMemo::new(),
            pruned: None,
            struck: 0,
            dirty_query: true,
            dirty_maint: true,
            path,
        }
    }

    /// Adopts a re-interned candidate set. The current selection goes
    /// with the old set: no selection may cite a mined-out rank. Returns
    /// [`Self::mark`]'s answer.
    pub(super) fn admit(&mut self, cands: Vec<Option<CandidateId>>) -> bool {
        self.live_cands = cands.iter().flatten().copied().collect();
        self.cands = cands;
        self.selection.clear();
        self.mark(Dirty::Admission)
    }

    /// Invalidates exactly the cached artifacts `what` can move: query
    /// shares unless only maintenance rates moved, maintenance cells
    /// unless only the path's own query rates moved, the standalone
    /// optimum and every entry of the best-response trail always, and the
    /// dominance mask when the admitted candidate set itself changed
    /// (otherwise the next re-pricing of this dirty path refreshes it).
    /// The current selection stays: the next descent overwrites it if it
    /// moved. Returns whether the path was clean, so that it joins the
    /// advisor's list of paths to re-price.
    pub(super) fn mark(&mut self, what: Dirty) -> bool {
        let clean = !self.is_dirty();
        self.dirty_query |= what != Dirty::Rates;
        self.dirty_maint |= what != Dirty::Queries;
        self.standalone = None;
        self.sweep_memo.clear();
        if what == Dirty::Admission {
            self.pruned = None;
        }
        clean
    }

    /// Ranks the admission policy dropped from this path.
    pub(super) fn mined_out(&self) -> u64 {
        (self.cands.len() - self.live_cands.len()) as u64
    }

    /// Whether the next re-pricing has work on this path.
    pub(super) fn is_dirty(&self) -> bool {
        self.dirty_query || self.dirty_maint
    }

    /// Replaces the trail with what the last λ = 0 descent visited: the
    /// old entries whose bit `visited` sets, in trail order, then the
    /// `added` ones, in visit order.
    pub(super) fn retrace(&mut self, added: SweepMemo, visited: u32) {
        let mut e = 0;
        self.sweep_memo.retain(|_| {
            e += 1;
            visited >> (e - 1) & 1 == 1
        });
        if self.sweep_memo.is_empty() {
            self.sweep_memo = added;
        } else {
            self.sweep_memo.extend(added);
        }
    }

    /// The interned candidate at a *selected* rank. Selections only ever
    /// cite admitted ranks — mined-out cells price at ∞, and singletons
    /// are always admitted, so every DP has a finite tiling to pick.
    pub(super) fn cand(&self, sub: SubpathId) -> CandidateId {
        self.cands[sub.rank(self.path.len())].expect("selected rank admitted")
    }

    /// The ledger's view of a selection: each piece's physical index and
    /// adopted query share, in selection order.
    pub(super) fn pieces<'s>(
        &'s self,
        sel: &'s [(SubpathId, Org)],
    ) -> impl Iterator<Item = (Pair, f64)> + 's {
        let n = self.path.len();
        sel.iter().map(move |&(sub, org)| {
            let share = self.query_costs[sub.rank(n)][org.index()];
            ((self.cand(sub), org), share)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_schema::fixtures;

    /// DESIGN.md §5.11, path columns: each mutation kind clears exactly
    /// these layers of a clean path — (query shares, maintenance cells,
    /// dominance mask); the standalone optimum and the best-response memo
    /// always go, and the current selection stays until a new selection
    /// replaces it.
    #[test]
    fn each_dirty_kind_clears_exactly_its_memo_layers() {
        let (schema, _) = fixtures::paper_schema();
        let path = fixtures::paper_path_pe(&schema);
        let n = SubpathId::count(path.len());
        let cands: Vec<_> = (0..n as u32).map(|c| Some(CandidateId(c))).collect();
        for (what, query, maint, mask) in [
            (Dirty::Stats, true, true, false),
            (Dirty::Rates, false, true, false),
            (Dirty::Queries, true, false, false),
            (Dirty::Admission, true, true, true),
        ] {
            let path = Arc::new(path.clone());
            let mut st = PathState::new(&schema, PathId(0), path, vec![], cands.clone());
            assert!(st.dirty_query && st.dirty_maint, "arrivals start unpriced");
            // What a completed reoptimize() leaves behind.
            (st.dirty_query, st.dirty_maint) = (false, false);
            st.standalone = Some((Vec::new(), 0.0));
            let whole = SubpathId {
                start: 1,
                end: st.path.len(),
            };
            st.selection = vec![(whole, Org::Nix)];
            st.sweep_memo = vec![(vec![0; n], Vec::new()), (vec![1; n], Vec::new())];
            st.pruned = Some(vec![0; n]);
            st.mark(what);
            let stale = [st.dirty_query, st.dirty_maint, st.pruned.is_none()];
            assert_eq!(stale, [query, maint, mask], "{what:?}");
            assert!(st.standalone.is_none() && st.sweep_memo.is_empty());
            assert_eq!(st.selection, [(whole, Org::Nix)], "{what:?}");
        }
    }

    /// A re-admission empties the current selection: the new admitted set
    /// may have dropped a rank it cites.
    #[test]
    fn admit_forgets_the_current_selection() {
        let (schema, _) = fixtures::paper_schema();
        let path = Arc::new(fixtures::paper_path_pe(&schema));
        let n = SubpathId::count(path.len());
        let cands: Vec<_> = (0..n as u32).map(|c| Some(CandidateId(c))).collect();
        let mut st = PathState::new(&schema, PathId(0), path, vec![], cands.clone());
        let whole = SubpathId {
            start: 1,
            end: st.path.len(),
        };
        st.selection = vec![(whole, Org::Nix)];
        let mut fewer = cands;
        fewer[whole.rank(st.path.len())] = None;
        st.admit(fewer);
        assert!(st.selection.is_empty() && st.pruned.is_none());
    }

    /// A retraced trail keeps the old entries the descent visited, in
    /// trail order, then the ones it added.
    #[test]
    fn retrace_keeps_exactly_the_visited_contexts() {
        let (schema, _) = fixtures::paper_schema();
        let path = Arc::new(fixtures::paper_path_pe(&schema));
        let mut st = PathState::new(&schema, PathId(0), path, vec![], vec![]);
        let entry = |key: u8| (vec![key], Selection::new());
        st.retrace(vec![entry(0), entry(1)], 0);
        assert_eq!(st.sweep_memo, [entry(0), entry(1)], "adopted whole");
        st.sweep_memo.push(entry(2));
        st.retrace(vec![entry(3)], 0b101);
        assert_eq!(st.sweep_memo, [entry(0), entry(2), entry(3)]);
        st.retrace(Vec::new(), 0b110);
        assert_eq!(st.sweep_memo, [entry(2), entry(3)]);
        st.retrace(Vec::new(), 0);
        assert!(st.sweep_memo.is_empty(), "nothing visited, nothing kept");
    }
}
