//! The engine's only descent loop: per-component Gauss–Seidel best
//! responses under `cost + λ·size` pricing (DESIGN.md §5.15).

use super::pricing::{best_response, Pricing};
use super::state::PathState;
use super::{Selection, SweepMemo, WorkloadAdvisor};
use crate::select::ScalarDp;
use crate::shard::{Components, NONE};
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
        comps: &'c Components,
        lambda: f64,
        selections: &[Selection],
        memo_of: impl Fn(usize) -> SweepMemo + Sync,
    ) -> Vec<(&'c [usize], CompOut)> {
        let jobs: Vec<&'c [usize]> = comps
            .groups
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
                descend_component(paths, space, comp, &comps.local, lambda, seeds, memos)
            },
        );
        jobs.into_iter().zip(outs).collect()
    }
}

/// One candidate-disjoint component's coordinate descent under `cost +
/// λ·size` pricing: λ = 0 is the unconstrained selection, λ > 0 a budgeted
/// sweep. Self-contained: members share no candidate with any other path,
/// so ownership counted over the members alone is the **exact** sharing
/// context, for every λ. Sequential Gauss–Seidel in ascending member
/// order; a member whose context matches its memo is a hit, not a DP.
/// Read-only against the advisor (runs on pool workers); selections, memo
/// updates and work counters are buffered in the output and installed by
/// the caller in component order.
///
/// Ownership is dense: the component's candidates carry their numbers
/// within it (`local`, from [`crate::shard::components`]), the owners of each
/// `(candidate, organization)` are counted in a flat vector, and a
/// member's context is written into one reused buffer and compared with
/// its memo in place. A DP runs on the component's own tables, straight
/// into the memo it refreshes.
fn descend_component(
    paths: &[PathState],
    space: &CandidateSpace,
    comp: &[usize],
    local: &[u32],
    lambda: f64,
    mut sels: Vec<Selection>,
    mut memos: Vec<SweepMemo>,
) -> CompOut {
    let owners = Owners::new(paths, comp, local);
    let mut counts = vec![0u32; 3 * owners.candidates];
    for (k, sel) in sels.iter().enumerate() {
        owners.count(k, sel, |count| *count += 1, &mut counts);
    }
    let (mut context, mut dp) = (Vec::new(), ScalarDp::default());
    let mut sweeps = 0;
    let mut dp_runs = 0u64;
    let mut dp_memo_hits = 0u64;
    for _ in 0..MAX_SWEEPS {
        sweeps += 1;
        let mut changed = false;
        for (k, &i) in comp.iter().enumerate() {
            let st = &paths[i];
            owners.count(k, &sels[k], |count| *count -= 1, &mut counts);
            owners.context_into(k, &counts, &mut context);
            let memo = match &mut memos[k] {
                Some(memo) if memo.0 == context => {
                    dp_memo_hits += 1;
                    memo
                }
                stale => {
                    dp_runs += 1;
                    let (key, sel) = stale.get_or_insert_with(Default::default);
                    key.clone_from(&context);
                    let pricing = Pricing {
                        context: Some(&context),
                        lambda,
                        bans: None,
                    };
                    best_response(st, space, pricing, &mut dp, sel);
                    stale.as_mut().expect("just refreshed")
                }
            };
            if memo.1 != sels[k] {
                changed = true;
                sels[k].clone_from(&memo.1);
            }
            owners.count(k, &sels[k], |count| *count += 1, &mut counts);
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

/// A component's candidates, numbered locally: member `k`'s local
/// candidate number per rank ([`NONE`] for a mined-out rank) is
/// `slots[first[k]..first[k + 1]]`, so `3·slot + org` addresses the owner
/// count of each of its cells.
struct Owners {
    slots: Vec<u32>,
    first: Vec<usize>,
    /// Distinct candidates among the members.
    candidates: usize,
    /// Each member's path length, for the rank of a selected piece.
    lens: Vec<usize>,
}

impl Owners {
    /// The members' cells under `local`, each candidate's number within
    /// the component.
    fn new(paths: &[PathState], comp: &[usize], local: &[u32]) -> Self {
        let ranks = comp.iter().map(|&i| paths[i].cands.len()).sum();
        let mut slots = Vec::with_capacity(ranks);
        let mut first = Vec::with_capacity(comp.len() + 1);
        first.push(0);
        for &i in comp {
            let cands = paths[i].cands.iter();
            slots.extend(cands.map(|cand| cand.map_or(NONE, |cand| local[cand.index()])));
            first.push(slots.len());
        }
        let numbered = slots.iter().filter(|&&slot| slot != NONE);
        Owners {
            candidates: numbered.max().map_or(0, |&last| last as usize + 1),
            slots,
            first,
            lens: comp.iter().map(|&i| paths[i].path.len()).collect(),
        }
    }

    /// Applies `change` to the owner count of each index member `k`'s
    /// selection `sel` cites.
    fn count(&self, k: usize, sel: &Selection, change: impl Fn(&mut u32), counts: &mut [u32]) {
        let slots = &self.slots[self.first[k]..self.first[k + 1]];
        for &(sub, org) in sel {
            change(&mut counts[3 * slots[sub.rank(self.lens[k])] as usize + org.index()]);
        }
    }

    /// Member `k`'s sharing context — per rank, the 3-bit mask of the
    /// cells some member owns — written over `out`; call it once the
    /// member's own selection is withdrawn.
    fn context_into(&self, k: usize, counts: &[u32], out: &mut Vec<u8>) {
        let slots = &self.slots[self.first[k]..self.first[k + 1]];
        out.clear();
        out.extend(slots.iter().map(|&slot| match slot {
            NONE => 0,
            slot => {
                let owned = &counts[3 * slot as usize..3 * slot as usize + 3];
                owned
                    .iter()
                    .enumerate()
                    .fold(0, |mask, (o, &count)| mask | u8::from(count > 0) << o)
            }
        }));
    }
}
