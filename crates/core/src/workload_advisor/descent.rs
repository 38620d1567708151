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

/// Where a descent finds its members' earlier best responses.
#[derive(Clone, Copy)]
pub(super) enum Memo {
    /// The unconstrained (λ = 0) descent of [`WorkloadAdvisor::reoptimize`]:
    /// each member's [`SweepMemo`] trail, read in place from its path
    /// state. The descent hands back, per member, the entries it added and
    /// which old ones it visited, for [`PathState::retrace`].
    Trail,
    /// A λ-priced sweep of the budget search: one entry per member, seeded
    /// with its context-free response and overwritten in place on a miss.
    /// The advisor's trails hold λ = 0 responses and are not read.
    Seeded,
}

/// One component's buffered descent output, computed read-only on a worker
/// and installed into the advisor (selections, trails, work counters) by
/// the caller in component order — see [`descend_component`].
pub(super) struct CompOut {
    /// Converged selection per member, in component order.
    pub(super) sels: Vec<Selection>,
    /// Under [`Memo::Trail`], per member in component order: the trail
    /// entries this descent added, and a bit per entry of the old trail
    /// that it visited. Empty under [`Memo::Seeded`].
    pub(super) trails: Vec<(SweepMemo, u32)>,
    /// Sweeps this component ran until convergence.
    pub(super) sweeps: usize,
    /// Context-keyed DP invocations inside this component.
    pub(super) dp_runs: u64,
    /// Context-keyed memo hits inside this component.
    pub(super) dp_memo_hits: u64,
}

// A member visits one context per sweep, so a trail — the contexts of one
// descent — fits the visited-bit mask.
const _: () = assert!(MAX_SWEEPS <= u32::BITS as usize);

impl WorkloadAdvisor<'_> {
    /// Descends every multi-path component of `comps` under `cost +
    /// λ·size` pricing, from the per-path `selections`, finding earlier
    /// best responses where `memo` says. Components fan out over the
    /// executor weighted by member count; each job comes back with its
    /// members, in component order, for the caller to install.
    pub(super) fn descend_components<'c>(
        &self,
        comps: &'c Components,
        lambda: f64,
        memo: Memo,
        selections: &[Selection],
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
                descend_component(paths, space, comp, &comps.local, lambda, memo, seeds)
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
/// order; a member whose context its memo holds is a hit, not a DP.
/// Read-only against the advisor (runs on pool workers); selections, new
/// trail entries and work counters are buffered in the output and
/// installed by the caller in component order.
///
/// Ownership is dense: the component's candidates carry their numbers
/// within it (`local`, from [`crate::shard::components`]), the owners of each
/// `(candidate, organization)` are counted in a flat vector, and a
/// member's context is written into one reused buffer and compared with
/// its memo entries in place. A DP runs on the component's own tables,
/// straight into the memo entry it fills.
fn descend_component(
    paths: &[PathState],
    space: &CandidateSpace,
    comp: &[usize],
    local: &[u32],
    lambda: f64,
    memo: Memo,
    mut sels: Vec<Selection>,
) -> CompOut {
    let owners = Owners::new(paths, comp, local);
    let mut counts = vec![0u32; 3 * owners.candidates];
    for (k, sel) in sels.iter().enumerate() {
        owners.count(k, sel, |count| *count += 1, &mut counts);
    }
    let mut responses = match memo {
        Memo::Trail => Responses::Trail {
            old: comp.iter().map(|&i| &paths[i].sweep_memo[..]).collect(),
            new: (0..comp.len()).map(|_| (Vec::new(), 0)).collect(),
        },
        Memo::Seeded => Responses::Seeded(
            comp.iter()
                .zip(&sels)
                .map(|(&i, sel)| (vec![0; paths[i].cands.len()], sel.clone()))
                .collect(),
        ),
    };
    let (mut context, mut dp) = (Vec::new(), ScalarDp::default());
    let mut sweeps = 0;
    let mut dp_runs = 0u64;
    let mut dp_memo_hits = 0u64;
    for _ in 0..MAX_SWEEPS {
        sweeps += 1;
        let mut changed = false;
        for (k, &i) in comp.iter().enumerate() {
            owners.count(k, &sels[k], |count| *count -= 1, &mut counts);
            owners.context_into(k, &counts, &mut context);
            let (response, hit) = responses.respond(k, &context, |sel| {
                let pricing = Pricing {
                    context: Some(&context),
                    lambda,
                    bans: None,
                };
                best_response(&paths[i], space, pricing, &mut dp, sel);
            });
            if hit {
                dp_memo_hits += 1;
            } else {
                dp_runs += 1;
            }
            if *response != sels[k] {
                changed = true;
                sels[k].clone_from(response);
            }
            owners.count(k, &sels[k], |count| *count += 1, &mut counts);
        }
        if !changed {
            break;
        }
    }
    CompOut {
        sels,
        trails: match responses {
            Responses::Trail { new, .. } => new,
            Responses::Seeded(_) => Vec::new(),
        },
        sweeps,
        dp_runs,
        dp_memo_hits,
    }
}

/// A component's best responses during one descent, per member `k` in
/// component order.
enum Responses<'p> {
    /// [`Memo::Trail`]: the member's trail from its last descent, borrowed
    /// where it lives (`old[k]`), and what this descent adds to it — new
    /// entries, and a bit per old entry it visited (`new[k]`).
    Trail {
        old: Vec<&'p [(Vec<u8>, Selection)]>,
        new: Vec<(SweepMemo, u32)>,
    },
    /// [`Memo::Seeded`]: the member's one entry.
    Seeded(Vec<(Vec<u8>, Selection)>),
}

impl Responses<'_> {
    /// Member `k`'s best response to `context`, and whether the memo held
    /// it. On a miss, `run` writes the DP's response into a fresh trail
    /// entry, or over the member's seeded entry.
    fn respond(
        &mut self,
        k: usize,
        context: &[u8],
        run: impl FnOnce(&mut Selection),
    ) -> (&Selection, bool) {
        let keyed = |entry: &(Vec<u8>, Selection)| entry.0 == context;
        match self {
            Responses::Trail { old, new } => {
                let (old, (added, visited)) = (old[k], &mut new[k]);
                if let Some(e) = old.iter().position(keyed) {
                    *visited |= 1 << e;
                    return (&old[e].1, true);
                }
                if let Some(e) = added.iter().position(keyed) {
                    return (&added[e].1, true);
                }
                let mut sel = Selection::new();
                run(&mut sel);
                added.push((context.to_vec(), sel));
                (&added[added.len() - 1].1, false)
            }
            Responses::Seeded(entries) => {
                let (key, sel) = &mut entries[k];
                if key[..] == *context {
                    return (sel, true);
                }
                key.clear();
                key.extend_from_slice(context);
                run(sel);
                (sel, false)
            }
        }
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
