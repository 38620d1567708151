//! The engine's only descent loop: per-component Gauss–Seidel best
//! responses under `cost + λ·size` pricing (DESIGN.md §5.15).

use super::pricing::{best_response, FoldedRows, Pricing, Source};
use super::state::PathState;
use super::{Selection, SweepMemo, WorkloadAdvisor};
use crate::select::ScalarDp;
use crate::shard::{Components, NONE};
use crate::space::CandidateSpace;
use oic_exec::Executor;

/// Maximum coordinate-descent rounds; the objective is monotone, so this is
/// a safety net, not a tuning knob (workloads converge in 2–3 sweeps).
pub(super) const MAX_SWEEPS: usize = 8;

/// Where a descent finds its members' seeds and earlier best responses.
#[derive(Clone, Copy)]
pub(super) enum Memo<'s> {
    /// The unconstrained (λ = 0) descent of [`WorkloadAdvisor::reoptimize`]:
    /// each member starts from its standalone optimum and finds its
    /// [`SweepMemo`] trail, both read in place from its path state. The
    /// descent hands back, per member, the entries it added and which old
    /// ones it visited, for [`PathState::retrace`], and the converged
    /// selections that differ from the path's current one.
    Trail,
    /// A λ-priced sweep of the budget search from these per-path seeds,
    /// each path's context-free response: a member's seed fills its one
    /// memo entry, which a miss overwrites. The advisor's trails hold
    /// λ = 0 responses and are not read, and every DP reads the solve's
    /// folded rows. The descent hands back the converged selections that
    /// differ from the seeds.
    Seeded(&'s [Selection], &'s FoldedRows),
}

/// One component's buffered descent output, computed read-only on a worker
/// and installed into the advisor (selections, trails, work counters) by
/// the caller in component order — see [`descend_component`].
pub(super) struct CompOut {
    /// `(member, converged selection)` of each member whose converged
    /// selection differs from its base — under [`Memo::Trail`] the path's
    /// current selection, under [`Memo::Seeded`] its seed — members
    /// ascending by their position in the component.
    pub(super) changed: Vec<(usize, Selection)>,
    /// Under [`Memo::Trail`], `(member, added, visited)` of each member
    /// whose trail this descent moved — the entries it added, and a bit
    /// per entry of the old trail that it visited — members ascending. A
    /// member that revisited its whole trail and added nothing is left
    /// out: its trail stays as it is. Empty under [`Memo::Seeded`].
    pub(super) trails: Vec<(usize, SweepMemo, u32)>,
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

/// The candidate-sharing components of the live paths and, for each
/// multi-path one, its members' cells numbered within it: functions of
/// membership alone, so the advisor builds them together and keeps them
/// while membership holds.
#[derive(Debug, PartialEq)]
pub(super) struct Shards {
    /// The components, from [`crate::shard::components`].
    pub(super) comps: Components,
    /// Per multi-path component, in component order, its [`Owners`].
    owners: Vec<Owners>,
}

impl Shards {
    /// Numbers the cells of every multi-path component of `comps`, a
    /// partition of `paths`, one component per job on `exec`.
    pub(super) fn new(paths: &[PathState], comps: Components, exec: &Executor) -> Self {
        let multi: Vec<&[usize]> = comps
            .groups
            .iter()
            .filter(|c| c.len() > 1)
            .map(Vec::as_slice)
            .collect();
        let number = |_, comp: &&[usize]| Owners::new(paths, comp, &comps.local);
        let owners = exec.par_map_chunked(&multi, |comp| comp.len(), number);
        Shards { comps, owners }
    }
}

impl WorkloadAdvisor<'_> {
    /// Descends every multi-path component of `shards` under `cost +
    /// λ·size` pricing, finding seeds and earlier best responses where
    /// `memo` says. Components fan out over the executor weighted by
    /// member count; each job comes back with its members, in component
    /// order, for the caller to install.
    pub(super) fn descend_components<'c>(
        &self,
        shards: &'c Shards,
        lambda: f64,
        memo: Memo<'_>,
    ) -> Vec<(&'c [usize], CompOut)> {
        let multi = shards.comps.groups.iter().filter(|c| c.len() > 1);
        let jobs: Vec<(&'c [usize], &'c Owners)> =
            multi.map(Vec::as_slice).zip(&shards.owners).collect();
        let (paths, space) = (&self.paths, &self.space);
        let outs = self.exec.par_map_chunked(
            &jobs,
            |(comp, _)| comp.len(),
            |_, &(comp, owners)| descend_component(paths, space, comp, owners, lambda, memo),
        );
        jobs.into_iter().map(|(comp, _)| comp).zip(outs).collect()
    }
}

/// One candidate-disjoint component's coordinate descent under `cost +
/// λ·size` pricing: λ = 0 is the unconstrained selection, λ > 0 a budgeted
/// sweep. Self-contained: members share no candidate with any other path,
/// so ownership counted over the members alone is the **exact** sharing
/// context, for every λ. Sequential Gauss–Seidel in ascending member
/// order; a member whose context its memo holds is a hit, not a DP.
/// Read-only against the advisor (runs on pool workers); moved
/// selections, new trail entries and work counters are buffered in the
/// output and installed by the caller in component order.
///
/// Ownership is dense: the component's candidates carry their numbers
/// within it (`owners`, kept in [`Shards`]), the owners of each
/// `(candidate, organization)` are counted in a flat vector, and a
/// member's context is written into one reused buffer and compared with
/// its memo entries in place. A DP runs on the component's own tables,
/// straight into the trail entry it fills, or into a spare buffer that
/// replaces a seeded entry's selection. No selection is copied but, under
/// [`Memo::Trail`], the converged ones that moved: under [`Memo::Seeded`]
/// an entry reads its seed in place until a DP moves it, and a moved
/// selection is handed back, not copied.
fn descend_component(
    paths: &[PathState],
    space: &CandidateSpace,
    comp: &[usize],
    owners: &Owners,
    lambda: f64,
    memo: Memo<'_>,
) -> CompOut {
    let seeds: Vec<&Selection> = comp
        .iter()
        .map(|&i| match memo {
            Memo::Trail => &paths[i].standalone.as_ref().expect("phase 2 filled it").0,
            Memo::Seeded(seeds, _) => &seeds[i],
        })
        .collect();
    let mut counts = vec![0u32; 3 * owners.candidates];
    for (k, sel) in seeds.iter().enumerate() {
        owners.count(k, sel, |count| *count += 1, &mut counts);
    }
    let mut responses = match memo {
        Memo::Trail => Responses::Trail {
            old: comp.iter().map(|&i| &paths[i].sweep_memo).collect(),
            new: (0..comp.len()).map(|_| (Vec::new(), 0)).collect(),
            at: vec![At::Seed; comp.len()],
            seeds,
        },
        Memo::Seeded(..) => Responses::Seeded {
            keys: vec![0; owners.slots.len()],
            first: &owners.first,
            moved: vec![None; comp.len()],
            seeds,
            spare: Selection::new(),
        },
    };
    let (mut context, mut dp) = (Vec::new(), ScalarDp::default());
    let mut sweeps = 0;
    let mut dp_runs = 0u64;
    let mut dp_memo_hits = 0u64;
    for _ in 0..MAX_SWEEPS {
        sweeps += 1;
        let mut changed = false;
        for (k, &i) in comp.iter().enumerate() {
            owners.count(k, responses.current(k), |count| *count -= 1, &mut counts);
            owners.context_into(k, &counts, &mut context);
            let (now, hit, moved) = responses.respond(k, &context, |sel| {
                let pricing = Pricing {
                    context: Some(&context),
                    lambda,
                    bans: None,
                };
                let source = match memo {
                    Memo::Trail => Source::Space(space),
                    Memo::Seeded(_, rows) => Source::Row(rows.row(i)),
                };
                best_response(&paths[i], source, pricing, &mut dp, sel);
            });
            if hit {
                dp_memo_hits += 1;
            } else {
                dp_runs += 1;
            }
            changed |= moved;
            owners.count(k, now, |count| *count += 1, &mut counts);
        }
        if !changed {
            break;
        }
    }
    let changed = if let Responses::Seeded { seeds, moved, .. } = &mut responses {
        let moved = moved.iter_mut().map(Option::take).enumerate();
        let differs =
            |(k, sel): (usize, Option<Selection>)| Some((k, sel.filter(|sel| sel != seeds[k])?));
        moved.filter_map(differs).collect()
    } else {
        let moved = (0..comp.len()).filter(|&k| *responses.current(k) != paths[comp[k]].selection);
        moved.map(|k| (k, responses.current(k).clone())).collect()
    };
    CompOut {
        changed,
        trails: match responses {
            Responses::Trail { old, new, .. } => {
                // Every bit of a trail of `len ≥ 1` entries.
                let whole = |len: usize| u32::MAX >> (u32::BITS as usize - len);
                let moved = new.into_iter().enumerate();
                let moved = moved.filter(|(k, (added, visited))| {
                    let len = old[*k].len();
                    !added.is_empty() || (len > 0 && *visited != whole(len))
                });
                moved
                    .map(|(k, (added, visited))| (k, added, visited))
                    .collect()
            }
            Responses::Seeded { .. } => Vec::new(),
        },
        sweeps,
        dp_runs,
        dp_memo_hits,
    }
}

/// Where a member's current selection lives under [`Memo::Trail`]: its
/// seed, an entry of its old trail, or one this descent added.
#[derive(Clone, Copy, PartialEq)]
enum At {
    Seed,
    Old(usize),
    Added(usize),
}

impl At {
    /// The selection this points at, among a member's seed, old trail
    /// and added entries.
    fn of<'a>(
        self,
        seed: &'a Selection,
        old: &'a SweepMemo,
        added: &'a SweepMemo,
    ) -> &'a Selection {
        match self {
            At::Seed => seed,
            At::Old(e) => &old[e].1,
            At::Added(e) => &added[e].1,
        }
    }
}

/// A component's best responses during one descent, per member `k` in
/// component order.
enum Responses<'p> {
    /// [`Memo::Trail`]: the member's trail from its last descent, borrowed
    /// where it lives (`old[k]`), what this descent adds to it — new
    /// entries, and a bit per old entry it visited (`new[k]`) — and where
    /// its current selection lives (`at[k]`, over `seeds[k]` and both).
    Trail {
        old: Vec<&'p SweepMemo>,
        new: Vec<(SweepMemo, u32)>,
        at: Vec<At>,
        seeds: Vec<&'p Selection>,
    },
    /// [`Memo::Seeded`]: the member's one entry — keyed by
    /// `keys[first[k]..first[k + 1]]`, in [`Owners`]' rank numbering, all
    /// zero at first (the seed is the context-free response) — whose
    /// selection is `moved[k]` once a DP moved it and `seeds[k]` until
    /// then, and a buffer a DP writes into before it replaces the moved
    /// one.
    Seeded {
        keys: Vec<u8>,
        first: &'p [usize],
        seeds: Vec<&'p Selection>,
        moved: Vec<Option<Selection>>,
        spare: Selection,
    },
}

impl Responses<'_> {
    /// Member `k`'s current selection.
    fn current(&self, k: usize) -> &Selection {
        match self {
            Responses::Trail {
                old,
                new,
                at,
                seeds,
            } => at[k].of(seeds[k], old[k], &new[k].0),
            Responses::Seeded { seeds, moved, .. } => moved[k].as_ref().unwrap_or(seeds[k]),
        }
    }

    /// Makes member `k`'s best response to `context` its current
    /// selection; returns it, whether the memo held it and whether the
    /// selection moved. On a miss, `run` writes the DP's response into a
    /// fresh trail entry, or into the spare buffer that then replaces the
    /// member's seeded entry's selection.
    fn respond(
        &mut self,
        k: usize,
        context: &[u8],
        run: impl FnOnce(&mut Selection),
    ) -> (&Selection, bool, bool) {
        let keyed = |entry: &(Vec<u8>, Selection)| entry.0 == context;
        match self {
            Responses::Trail {
                old,
                new,
                at,
                seeds,
            } => {
                let (old, (added, visited)) = (old[k], &mut new[k]);
                let (next, hit) = if let Some(e) = old.iter().position(keyed) {
                    *visited |= 1 << e;
                    (At::Old(e), true)
                } else if let Some(e) = added.iter().position(keyed) {
                    (At::Added(e), true)
                } else {
                    let mut sel = Selection::new();
                    run(&mut sel);
                    added.push((context.to_vec(), sel));
                    (At::Added(added.len() - 1), false)
                };
                let before = std::mem::replace(&mut at[k], next);
                let of = |at: At| at.of(seeds[k], old, added);
                (of(next), hit, next != before && of(next) != of(before))
            }
            Responses::Seeded {
                keys,
                first,
                seeds,
                moved,
                spare,
            } => {
                let (key, now) = (&mut keys[first[k]..first[k + 1]], &mut moved[k]);
                if *key == *context {
                    return (now.as_ref().unwrap_or(seeds[k]), true, false);
                }
                key.copy_from_slice(context);
                run(spare);
                let differs = spare != now.as_ref().unwrap_or(seeds[k]);
                if differs {
                    match now {
                        Some(sel) => std::mem::swap(spare, sel),
                        None => *now = Some(std::mem::take(spare)),
                    }
                }
                (now.as_ref().unwrap_or(seeds[k]), false, differs)
            }
        }
    }
}

/// A component's candidates, numbered locally: member `k`'s local
/// candidate number per rank ([`NONE`] for a mined-out rank) is
/// `slots[first[k]..first[k + 1]]`, so `3·slot + org` addresses the owner
/// count of each of its cells.
#[derive(Debug, PartialEq)]
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
