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

/// `base` without one copy of each `removed` value and with the `added`
/// ones, in `total_cmp` order — the operand a ledger built from scratch
/// would sort — as the runs of `base` between the few changes, so a sum
/// folds each run in one tight loop and nothing is copied. All three are
/// sorted, and `removed` is a sub-multiset of `base`. Values equal under
/// `total_cmp` are equal bit for bit, so which copy goes first cannot
/// move a sum.
fn merged<'a>(
    base: &'a [f64],
    removed: &'a [f64],
    added: &'a [f64],
) -> impl Iterator<Item = f64> + 'a {
    let at = |from: usize, v: &f64| from + base[from..].partition_point(|x| x.total_cmp(v).is_lt());
    let mut runs = Vec::with_capacity(2 * (removed.len() + added.len()) + 1);
    let (mut from, mut removed) = (0, removed.iter().peekable());
    for next in added.iter().map(Some).chain([None]) {
        let before_next = |r: &&f64| next.map_or(true, |v| r.total_cmp(v).is_lt());
        while let Some(r) = removed.next_if(before_next) {
            let cut = at(from, r);
            runs.push(&base[from..cut]);
            from = cut + 1;
        }
        if let Some(v) = next {
            let cut = at(from, v);
            runs.extend([&base[from..cut], std::slice::from_ref(v)]);
            from = cut;
        }
    }
    runs.push(&base[from..]);
    runs.into_iter().flatten().copied()
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

    /// What every overlay's [`Overlay::enclosure`] reads of this ledger:
    /// its totals, and per coordinate the number and absolute sum of the
    /// operands the fold adds.
    pub(crate) fn scale(&self) -> Scale {
        let abs = |values: &[f64]| values.iter().map(|v| v.abs()).sum::<f64>();
        Scale {
            totals: self.totals(),
            terms: (self.query.len() + self.maint.len(), self.sizes.len()),
            magnitude: (abs(&self.query) + abs(&self.maint), abs(&self.sizes)),
        }
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

/// A ledger's totals with the size of the folds behind them — see
/// [`Ledger::scale`].
pub(crate) struct Scale {
    /// `(cost, size)`, as [`Ledger::totals`].
    pub(crate) totals: (f64, f64),
    /// Operands the cost and the size fold add.
    terms: (usize, usize),
    /// Absolute sum of those operands, per fold.
    magnitude: (f64, f64),
}

/// `(estimate, radius)` per coordinate: the exact totals lie within
/// `radius` of `estimate` — see [`Overlay::enclosure`].
pub(crate) struct Enclosure {
    pub(crate) cost: (f64, f64),
    pub(crate) size: (f64, f64),
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

    /// A certified enclosure of [`Self::totals`], at a cost proportional
    /// to the swaps: the base's totals with the few changed operands
    /// applied — swapped subtotals out and in, dropped and added indexes'
    /// prices — and a radius from the recursive-summation bound. Each
    /// fold adds at most `N + k` operands (`N` the base's, `k` the changed
    /// ones) of absolute sum at most `S + C` (the base's sum plus the
    /// changed ones'), so it lies within `γ_{N+k}·(S + C)` of the real sum
    /// of its operands; the base's totals lie within `γ_N·S` of theirs; and
    /// the estimate adds `k` terms to them. With `γ_m ≤ m·ε` (ε =
    /// `f64::EPSILON`, twice the unit roundoff) the three errors sum to
    /// less than `4·(N + k + 16)·ε·(2S + C + |estimate|)`, the radius.
    pub(crate) fn enclosure(&self, scale: &Scale) -> Enclosure {
        let base = self.base;
        // (estimate, changed operands, their absolute sum) per coordinate.
        let mut cost = (scale.totals.0, 0usize, 0.0f64);
        let mut size = (scale.totals.1, 0usize, 0.0f64);
        let apply = |(sum, k, abs): &mut (f64, usize, f64), value: f64, sign: f64| {
            *sum += sign * value;
            *k += 1;
            *abs += value.abs();
        };
        for &(i, query) in &self.swapped {
            apply(&mut cost, query, 1.0);
            apply(&mut cost, base.query[i], -1.0);
        }
        for (dropped, (maintenance, pages)) in self.crossings() {
            let sign = if dropped { -1.0 } else { 1.0 };
            apply(&mut cost, maintenance, sign);
            apply(&mut size, pages, sign);
        }
        let radius = |(sum, k, abs): (f64, usize, f64), terms: usize, magnitude: f64| {
            let bound = 2.0 * magnitude + abs + sum.abs();
            4.0 * (terms + k + 16) as f64 * f64::EPSILON * bound
        };
        Enclosure {
            cost: (cost.0, radius(cost, scale.terms.0, scale.magnitude.0)),
            size: (size.0, radius(size, scale.terms.1, scale.magnitude.1)),
        }
    }

    /// The `(cost, size)` of the base selections with the swaps applied —
    /// bit-identical to [`Ledger::totals`] of a ledger built on them: the
    /// swapped paths' subtotals replace the base's in the query fold, and
    /// the base's sorted operands are [`merged`] with the few indexes
    /// whose last owner left (dropped) and the newly owned ones (added),
    /// without copying them.
    pub(crate) fn totals(&self) -> (f64, f64) {
        let base = self.base;
        // `[maintenance, size]` of the indexes dropped and added.
        let (mut removed, mut added) = ([vec![], vec![]], [vec![], vec![]]);
        for (dropped, (maintenance, size)) in self.crossings() {
            let into = if dropped { &mut removed } else { &mut added };
            into[0].push(maintenance);
            into[1].push(size);
        }
        for values in removed.iter_mut().chain(&mut added) {
            values.sort_unstable_by(f64::total_cmp);
        }
        // The base's subtotals with the swapped ones in, run by run.
        let mut runs = Vec::with_capacity(2 * self.swapped.len() + 1);
        let mut from = 0;
        for (i, query) in &self.swapped {
            runs.extend([&base.query[from..*i], std::slice::from_ref(query)]);
            from = i + 1;
        }
        runs.push(&base.query[from..]);
        let query = runs.into_iter().flatten().copied();
        let maint = merged(&base.maint, &removed[0], &added[0]);
        let size = merged(&base.sizes, &removed[1], &added[1]).sum::<f64>();
        (objective(query, maint), size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_schema::fixtures;

    /// A random add/remove/swap sequence of selections ends bit-equal —
    /// cost, size, every context key — to a ledger built from scratch on
    /// the final selections; so does an overlay that reaches them on top
    /// of the untouched start, and each overlay's totals lie within its
    /// enclosure. Prices are drawn from a handful of values
    /// including both signed zeros, so the overlay's merged fold meets
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
        // Every overlay's exact totals lie within its enclosure's radius.
        let enclosed = |overlay: &Overlay<'_>, base: &Ledger<'_>| {
            let (cost, size) = overlay.totals();
            let Enclosure { cost: c, size: s } = overlay.enclosure(&base.scale());
            assert!((cost - c.0).abs() <= c.1, "cost {cost} vs {c:?}");
            assert!((size - s.0).abs() <= s.1, "size {size} vs {s:?}");
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
            assert_eq!(bits(overlay.totals()), bits(fresh));
            assert_eq!(bits(base.totals()), bits(scratch(&start).totals()));
            enclosed(&overlay, &base);
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

    /// The overlay's operand merge is the sorted multiset difference and
    /// union, bit for bit: duplicates, both signed zeros, a value removed
    /// and added back, and additions before, between and after the base.
    #[test]
    fn merged_operands_are_the_sorted_multiset() {
        let base = [-0.0, -0.0, 0.0, 1.0, 1.0, 2.0, 5.0];
        let removed = [-0.0, 1.0, 5.0];
        let added = [-1.0, -0.0, 0.0, 1.0, 3.0, 9.0];
        let got: Vec<u64> = merged(&base, &removed, &added).map(f64::to_bits).collect();
        let want = [-1.0, -0.0, -0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 9.0];
        assert_eq!(got, want.map(f64::to_bits));
        let all: Vec<f64> = merged(&base, &[], &[]).collect();
        assert_eq!(
            all.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            base.map(f64::to_bits)
        );
        assert_eq!(
            merged(&[], &[], &[-0.0]).sum::<f64>().to_bits(),
            (-0.0f64).to_bits()
        );
    }
}
