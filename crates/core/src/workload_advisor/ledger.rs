//! The workload objective's one ledger: who owns which physical index,
//! and what a set of selections costs — `Σ_i Q_i + Σ_{distinct (c, X)}
//! M(c, X)`, each shared index's maintenance and pages paid once.
//!
//! Everything that folds selections into `(cost, size)` does it here, so
//! a plan's quote, `price_plan`'s re-derivation and a migration's landing
//! cost are one number (DESIGN.md §5.12), and so does everything that
//! reads ownership across the workload (the one exception is a
//! component's descent, which counts its members' owners densely —
//! DESIGN.md §5.15). **The fold:** a path's query shares add up in selection order, the per-path
//! subtotals in path order, the once-paid maintenance (and size) values in
//! `total_cmp` order — the sorted sequence of a multiset of floats is
//! unique, bit patterns included, so a ledger updated incrementally and
//! one built from scratch agree bitwise.

use super::pricing::installed;
use crate::space::{CandidateId, CandidateSpace};
use oic_cost::Org;

/// A physical index: one interned candidate under one organization.
pub(crate) type Pair = (CandidateId, Org);

/// The dense slot of a physical index, `3·candidate + organization`:
/// below `3·`[`CandidateSpace::slot_count`], and ascending slots are
/// ascending [`Pair`]s — every table the advisor keys by index is a
/// vector over these slots.
pub(crate) fn slot((cand, org): Pair) -> usize {
    3 * cand.index() + org.index()
}

/// The physical index at a dense [`slot`].
pub(crate) fn pair_at(slot: usize) -> Pair {
    (CandidateId((slot / 3) as u32), Org::ALL[slot % 3])
}

/// The number of dense [`slot`]s of `space`.
pub(crate) fn slots(space: &CandidateSpace) -> usize {
    3 * space.slot_count()
}

/// Sorts once-paid values into the fold's summation order.
pub(crate) fn sorted(mut once: Vec<f64>) -> Vec<f64> {
    once.sort_by(f64::total_cmp);
    once
}

/// One path's query subtotal: its pieces' shares in selection order.
pub(crate) fn subtotal(shares: impl Iterator<Item = f64>) -> f64 {
    shares.fold(0.0, |query, share| query + share)
}

/// The objective: per-path query subtotals in path order plus the
/// [`sorted`] once-paid maintenance prices.
pub(crate) fn objective(
    subtotals: impl Iterator<Item = f64>,
    maintenance: impl Iterator<Item = f64>,
) -> f64 {
    subtotals.sum::<f64>() + maintenance.sum::<f64>()
}

/// Inserts `value` into a [`sorted`] sequence at its place.
pub(crate) fn insert_sorted(sorted: &mut Vec<f64>, value: f64) {
    let at = sorted.partition_point(|x| x.total_cmp(&value).is_lt());
    sorted.insert(at, value);
}

/// Removes one copy of `value` from a [`sorted`] sequence.
pub(crate) fn remove_sorted(sorted: &mut Vec<f64>, value: f64) {
    let at = sorted.partition_point(|x| x.total_cmp(&value).is_lt());
    debug_assert_eq!(sorted[at].to_bits(), value.to_bits());
    sorted.remove(at);
}

/// The 3-bit-per-rank mask of a path's `(candidate, org)` cells that some
/// *other* path covers — the sharing context a best response depends on —
/// once the path's own selection is withdrawn, written over `out`. A
/// mined-out rank has no candidate anyone could cover.
fn context_by(cands: &[Option<CandidateId>], covered: impl Fn(Pair) -> bool, out: &mut Vec<u8>) {
    let mask = |cand| {
        let covered = Org::ALL.iter().filter(|&&org| covered((cand, org)));
        covered.fold(0u8, |mask, org| mask | 1 << org.index())
    };
    out.clear();
    out.extend(cands.iter().map(|&cand| cand.map_or(0, mask)));
}

/// How many registered selections cite each physical index, by [`slot`].
struct Ownership {
    count: Vec<u32>,
}

impl Ownership {
    fn count(&self, pair: Pair) -> u32 {
        self.count[slot(pair)]
    }

    /// Adds one owner of `pair`; `true` when it had none.
    fn add(&mut self, pair: Pair) -> bool {
        let count = &mut self.count[slot(pair)];
        *count += 1;
        *count == 1
    }

    /// Drops one owner of `pair`; `true` when it was the last.
    fn drop_one(&mut self, pair: Pair) -> bool {
        let count = &mut self.count[slot(pair)];
        *count = count.checked_sub(1).expect("selection was registered");
        *count == 0
    }
}

/// The owning paths of every index `selections` cite, ascending, by
/// [`slot`] of `space` (empty for an index nobody cites).
pub(crate) fn owners<I>(
    space: &CandidateSpace,
    selections: impl Iterator<Item = I>,
) -> Vec<Vec<usize>>
where
    I: Iterator<Item = (Pair, f64)>,
{
    let mut owners = vec![Vec::new(); slots(space)];
    for (i, pieces) in selections.enumerate() {
        for (pair, _) in pieces {
            owners[slot(pair)].push(i);
        }
    }
    owners
}

/// Ownership plus the objective's operands, priced from the installed
/// memos of `space`: per-path query subtotals and the distinct selected
/// indexes' maintenance and footprint, each kept in summation order.
pub(crate) struct Ledger<'a> {
    space: &'a CandidateSpace,
    owned: Ownership,
    /// Query subtotal per path, in path order.
    query: Vec<f64>,
    maint: Vec<f64>,
    sizes: Vec<f64>,
}

impl<'a> Ledger<'a> {
    /// Registers every path's selection — its `(index, query share)`
    /// pieces, paths in path order — from scratch.
    pub(crate) fn new<I>(space: &'a CandidateSpace, selections: impl Iterator<Item = I>) -> Self
    where
        I: Iterator<Item = (Pair, f64)>,
    {
        let mut owned = Ownership {
            count: vec![0; slots(space)],
        };
        let (mut maint, mut sizes) = (Vec::new(), Vec::new());
        let mut share = |(pair, share)| {
            if owned.add(pair) {
                let (maintenance, size) = installed(space, pair);
                maint.push(maintenance);
                sizes.push(size);
            }
            share
        };
        let query = selections.map(|pieces| subtotal(pieces.map(&mut share)));
        let query = query.collect();
        Ledger {
            space,
            query,
            maint: sorted(maint),
            sizes: sorted(sizes),
            owned,
        }
    }

    /// Withdraws path `i`'s registered selection.
    pub(crate) fn remove(&mut self, i: usize, pieces: impl Iterator<Item = (Pair, f64)>) {
        for (pair, _) in pieces {
            if self.owned.drop_one(pair) {
                let (maintenance, size) = installed(self.space, pair);
                remove_sorted(&mut self.maint, maintenance);
                remove_sorted(&mut self.sizes, size);
            }
        }
        self.query[i] = 0.0;
    }

    /// Registers path `i`'s selection (after [`Self::remove`]).
    pub(crate) fn insert(&mut self, i: usize, pieces: impl Iterator<Item = (Pair, f64)>) {
        self.query[i] = subtotal(pieces.map(|(pair, share)| {
            if self.owned.add(pair) {
                let (maintenance, size) = installed(self.space, pair);
                insert_sorted(&mut self.maint, maintenance);
                insert_sorted(&mut self.sizes, size);
            }
            share
        }));
    }

    /// The `(cost, size)` of the registered selections.
    pub(crate) fn totals(&self) -> (f64, f64) {
        let cost = objective(self.query.iter().copied(), self.maint.iter().copied());
        (cost, self.sizes.iter().sum::<f64>())
    }

    /// Path `i`'s query subtotal.
    pub(crate) fn query(&self, i: usize) -> f64 {
        self.query[i]
    }

    /// How many registered selections cite `pair`.
    pub(crate) fn owners(&self, pair: Pair) -> u32 {
        self.owned.count(pair)
    }

    /// Distinct physical indexes registered.
    pub(crate) fn distinct(&self) -> usize {
        self.maint.len()
    }

    /// The sharing context of a path whose own selection is withdrawn,
    /// over the registered selections, written over `out`.
    pub(crate) fn context_into(&self, cands: &[Option<CandidateId>], out: &mut Vec<u8>) {
        context_by(cands, |pair| self.owned.count(pair) > 0, out);
    }

    /// An empty overlay on this ledger.
    pub(crate) fn overlay(&self) -> Overlay<'_> {
        Overlay {
            base: self,
            delta: Vec::new(),
            swapped: Vec::new(),
        }
    }
}

/// A few paths re-selected on top of a [`Ledger`] that stays untouched:
/// what one eviction trial changes, at a cost proportional to the change.
pub(crate) struct Overlay<'l> {
    base: &'l Ledger<'l>,
    /// Ownership-count changes of the few indexes the swaps touch.
    delta: Vec<(Pair, isize)>,
    /// `(path, query subtotal)` of each re-registered path, ascending.
    swapped: Vec<(usize, f64)>,
}

impl Overlay<'_> {
    /// Drops every swap: the overlay is empty again, its buffers kept.
    pub(crate) fn clear(&mut self) {
        self.delta.clear();
        self.swapped.clear();
    }

    fn bump(&mut self, pair: Pair, by: isize) {
        match self.delta.iter_mut().find(|(p, _)| *p == pair) {
            Some((_, d)) => *d += by,
            None => self.delta.push((pair, by)),
        }
    }

    /// Withdraws a path's base selection.
    pub(crate) fn remove(&mut self, pieces: impl Iterator<Item = (Pair, f64)>) {
        pieces.for_each(|(pair, _)| self.bump(pair, -1));
    }

    /// Registers path `i`'s replacement selection; paths ascending.
    pub(crate) fn insert(&mut self, i: usize, pieces: impl Iterator<Item = (Pair, f64)>) {
        let query = subtotal(pieces.map(|(pair, share)| {
            self.bump(pair, 1);
            share
        }));
        self.swapped.push((i, query));
    }

    /// [`Ledger::context_into`] under the swaps so far.
    pub(crate) fn context_into(&self, cands: &[Option<CandidateId>], out: &mut Vec<u8>) {
        let covered = |pair| {
            let delta = self.delta.iter().find(|(p, _)| *p == pair);
            self.base.owned.count(pair) as isize + delta.map_or(0, |d| d.1) > 0
        };
        context_by(cands, covered, out);
    }

    /// The indexes whose holder count the swaps move, with the count
    /// before and after.
    pub(crate) fn moved(&self) -> impl Iterator<Item = (Pair, u32, u32)> + '_ {
        let moved = self.delta.iter().filter(|&&(_, change)| change != 0);
        moved.map(|&(pair, change)| {
            let before = self.base.owned.count(pair);
            (pair, before, (before as isize + change) as u32)
        })
    }

    /// The indexes whose ownership the swaps move across zero, as `(the
    /// base owned it, its installed (maintenance, size))`.
    fn crossings(&self) -> impl Iterator<Item = (bool, (f64, f64))> + '_ {
        let crosses = self
            .moved()
            .filter(|&(_, before, after)| (before > 0) != (after > 0));
        crosses.map(|(pair, before, _)| (before > 0, installed(self.base.space, pair)))
    }

    /// What the swaps change in the base's `(cost, size)`, from the
    /// operands they change alone: each swapped path's new query subtotal
    /// minus the base's, then the maintenance and pages of each index
    /// whose ownership crosses zero — added when it gains its first owner,
    /// taken away when it loses its last — in the overlay's fixed order.
    pub(crate) fn delta(&self) -> (f64, f64) {
        let swapped = self
            .swapped
            .iter()
            .map(|&(i, query)| query - self.base.query[i]);
        let (mut cost, mut size) = (swapped.sum::<f64>(), 0.0);
        for (dropped, (maintenance, pages)) in self.crossings() {
            let sign = if dropped { -1.0 } else { 1.0 };
            cost += sign * maintenance;
            size += sign * pages;
        }
        (cost, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_schema::fixtures;

    /// A random add/remove/swap sequence of selections ends bit-equal —
    /// cost, size, every context key — to a ledger built from scratch on
    /// the final selections. An overlay that reaches them on top of the
    /// untouched start moves exactly the holder counts that differ, gives
    /// every path the same context, and its delta is the fresh totals
    /// minus the start's. Prices are drawn from a handful of values
    /// including both signed zeros, so the sorted operands hold
    /// duplicates, `-0.0` beside `0.0`, and a value one index drops while
    /// another adds it.
    #[test]
    fn incremental_ledger_equals_one_built_from_scratch() {
        let (schema, _) = fixtures::paper_schema();
        let mut space = CandidateSpace::new();
        let mut cands = space.intern_all(&schema, &fixtures::paper_path_pexa(&schema));
        cands.extend(space.intern_all(&schema, &fixtures::paper_path_pe(&schema)));
        let mut seed = 0x1ED6E4_u64;
        let mut next = move |below: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % below
        };
        // Few distinct prices, so equal values sit side by side in the
        // sorted operands; signed zeros sort apart (`-0.0` first).
        let price = |k: u64, step: f64| if k == 0 { -0.0 } else { (k - 1) as f64 * step };
        for &cand in &cands {
            for org in Org::ALL {
                // A shared prefix appears twice in `cands`: price it once.
                if space.priced(cand, org).is_none() {
                    space.install(cand, org, (price(next(5), 0.3), price(next(4), 7.0)));
                }
            }
        }
        // A selection of up to four distinct indexes; empty = a path that
        // left (or has not arrived).
        let draw = |next: &mut dyn FnMut(u64) -> u64| {
            let mut sel: Vec<(Pair, f64)> = Vec::new();
            for _ in 0..next(5) {
                let pair = (
                    cands[next(cands.len() as u64) as usize],
                    Org::ALL[next(3) as usize],
                );
                if sel.iter().all(|(p, _)| *p != pair) {
                    sel.push((pair, next(1000) as f64 / 7.0));
                }
            }
            sel
        };
        let slots: Vec<Option<CandidateId>> = cands.iter().copied().map(Some).collect();
        let scratch =
            |sels: &[Vec<(Pair, f64)>]| Ledger::new(&space, sels.iter().map(|s| s.iter().copied()));
        let bits = |(cost, size): (f64, f64)| (cost.to_bits(), size.to_bits());
        // The delta is the change between the two folds, up to their
        // rounding: 1e-9 of the larger total.
        let near = |delta: f64, to: f64, from: f64| {
            (delta - (to - from)).abs() <= 1e-9 * to.abs().max(from.abs()).max(1.0)
        };
        let mut context = Vec::new();
        for _ in 0..40 {
            let start: Vec<_> = (0..6).map(|_| draw(&mut next)).collect();
            let (base, mut ledger, mut sels) = (scratch(&start), scratch(&start), start.clone());
            let mut overlay = base.overlay();
            for _ in 0..30 {
                let (i, new) = (next(6) as usize, draw(&mut next));
                ledger.remove(i, sels[i].iter().copied());
                ledger.insert(i, new.iter().copied());
                sels[i] = new;
            }
            let fresh = scratch(&sels).totals();
            assert_eq!(bits(ledger.totals()), bits(fresh));
            assert_eq!(ledger.distinct(), scratch(&sels).distinct());
            // The same end state as an overlay on the untouched start.
            for i in 0..6 {
                overlay.remove(start[i].iter().copied());
                overlay.insert(i, sels[i].iter().copied());
            }
            let ((cost, size), (cost0, size0)) = (overlay.delta(), base.totals());
            assert!(
                near(cost, fresh.0, cost0),
                "cost {cost} vs {fresh:?} - {cost0}"
            );
            assert!(
                near(size, fresh.1, size0),
                "size {size} vs {fresh:?} - {size0}"
            );
            // `moved`: every index whose holder count differs, once.
            let end = scratch(&sels);
            for (pair, before, after) in overlay.moved() {
                assert_eq!((before, after), (base.owners(pair), end.owners(pair)));
            }
            let differ = (0..super::slots(&space)).map(pair_at);
            let differ = differ.filter(|&pair| base.owners(pair) != end.owners(pair));
            assert_eq!(overlay.moved().count(), differ.count());
            // Each path's sharing context: every index but its own.
            for i in 0..6 {
                ledger.remove(i, sels[i].iter().copied());
                overlay.remove(sels[i].iter().copied());
                let held = |pair| (0..6).any(|j| j != i && sels[j].iter().any(|p| p.0 == pair));
                let mask = |&cand| (0..3).filter(move |&x| held((cand, Org::ALL[x])));
                let key = cands.iter().map(|c| mask(c).fold(0u8, |m, x| m | 1 << x));
                let key: Vec<u8> = key.collect();
                ledger.context_into(&slots, &mut context);
                assert_eq!(context, key);
                overlay.context_into(&slots, &mut context);
                assert_eq!(context, key);
                ledger.insert(i, sels[i].iter().copied());
                overlay.insert(i, sels[i].iter().copied());
            }
        }
    }
}
