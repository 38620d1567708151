//! The engine's only descent loop: per-component Gauss–Seidel best
//! responses under `cost + λ·size` pricing (DESIGN.md §5.15).

use super::ledger::Ownership;
use super::pricing::{matrix_selection, priced_matrix, Pricing};
use super::state::PathState;
use super::{Selection, SweepMemo, WorkloadAdvisor};
use crate::space::CandidateSpace;

/// Maximum coordinate-descent rounds; the objective is monotone, so this is
/// a safety net, not a tuning knob (workloads converge in 2–3 sweeps).
pub(super) const MAX_SWEEPS: usize = 8;

/// One component's buffered descent output, computed read-only on a worker
/// and installed into the advisor (selections, sweep memos, work counters)
/// by the caller in component order — see [`descend_component`].
pub(super) struct CompOut {
    /// Converged selection per member, in component order.
    pub(super) sels: Vec<Selection>,
    /// Final sweep memo per member, in component order.
    pub(super) memos: Vec<SweepMemo>,
    /// Sweeps this component ran until convergence.
    pub(super) sweeps: usize,
    /// Context-keyed DP invocations inside this component.
    pub(super) dp_runs: u64,
    /// Context-keyed memo hits inside this component.
    pub(super) dp_memo_hits: u64,
}

impl WorkloadAdvisor<'_> {
    /// Descends every multi-path component of `comps` under `cost +
    /// λ·size` pricing, from the per-path `selections`; `memo_of(i)` is
    /// path `i`'s last best response at this λ. Components fan out over
    /// the executor weighted by member count; each job comes back with its
    /// members, in component order, for the caller to install.
    pub(super) fn descend_components<'c>(
        &self,
        comps: &'c [Vec<usize>],
        lambda: f64,
        selections: &[Selection],
        memo_of: impl Fn(usize) -> SweepMemo + Sync,
    ) -> Vec<(&'c [usize], CompOut)> {
        let jobs: Vec<&'c [usize]> = comps
            .iter()
            .filter(|c| c.len() > 1)
            .map(Vec::as_slice)
            .collect();
        let (paths, space) = (&self.paths, &self.space);
        let outs = self.exec.par_map_chunked(
            &jobs,
            |comp| comp.len(),
            |_, comp| {
                let seeds = comp.iter().map(|&i| selections[i].clone()).collect();
                let memos = comp.iter().map(|&i| memo_of(i)).collect();
                descend_component(paths, space, comp, lambda, seeds, memos)
            },
        );
        jobs.into_iter().zip(outs).collect()
    }
}

/// One candidate-disjoint component's coordinate descent under `cost +
/// λ·size` pricing: λ = 0 is the unconstrained selection, λ > 0 a budgeted
/// sweep. Self-contained: members share no candidate with any other path,
/// so ownership registered over the members alone is the **exact** sharing
/// context, for every λ. Sequential Gauss–Seidel in ascending member
/// order; a member whose context matches its memo is a hit, not a matrix
/// build and a DP. Read-only against the advisor (runs on pool workers);
/// selections, memo updates and work counters are buffered in the output
/// and installed by the caller in component order.
fn descend_component(
    paths: &[PathState],
    space: &CandidateSpace,
    comp: &[usize],
    lambda: f64,
    mut sels: Vec<Selection>,
    mut memos: Vec<SweepMemo>,
) -> CompOut {
    let mut owned = Ownership::default();
    for (&i, sel) in comp.iter().zip(&sels) {
        owned.register(paths[i].pieces(sel));
    }
    let mut sweeps = 0;
    let mut dp_runs = 0u64;
    let mut dp_memo_hits = 0u64;
    for _ in 0..MAX_SWEEPS {
        sweeps += 1;
        let mut changed = false;
        for (k, &i) in comp.iter().enumerate() {
            let st = &paths[i];
            owned.unregister(st.pieces(&sels[k]));
            let context = owned.context_key(&st.cands);
            let pairs = match &memos[k] {
                Some((key, pairs)) if *key == context => {
                    dp_memo_hits += 1;
                    pairs.clone()
                }
                _ => {
                    dp_runs += 1;
                    let pricing = Pricing {
                        context: Some(&context),
                        lambda,
                        bans: None,
                    };
                    let pairs = matrix_selection(&priced_matrix(st, space, pricing)).0;
                    memos[k] = Some((context, pairs.clone()));
                    pairs
                }
            };
            changed |= pairs != sels[k];
            owned.register(st.pieces(&pairs));
            sels[k] = pairs;
        }
        if !changed {
            break;
        }
    }
    CompOut {
        sels,
        memos,
        sweeps,
        dp_runs,
        dp_memo_hits,
    }
}
