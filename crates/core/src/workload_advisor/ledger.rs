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
//! one built from scratch agree bitwise — which is what lets the advisor
//! keep the adopted plan's ledger across epochs (DESIGN.md §5.15).

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

/// How many registered selections cite one physical index, and the
/// `(maintenance, size)` the ledger paid for it while they do: the price
/// when it gained its first owner, or the one [`Ledger::repay`] swapped
/// in since.
#[derive(Clone, Copy, Default)]
struct Held {
    count: u32,
    paid: (f64, f64),
}

/// Every physical index's [`Held`], by [`slot`].
#[derive(Default)]
struct Ownership {
    held: Vec<Held>,
}

impl Ownership {
    fn count(&self, pair: Pair) -> u32 {
        self.held.get(slot(pair)).map_or(0, |held| held.count)
    }

    fn paid(&self, pair: Pair) -> (f64, f64) {
        self.held[slot(pair)].paid
    }

    /// Covers every slot of `space`: slots are never taken away, so the
    /// table only grows.
    fn fit(&mut self, space: &CandidateSpace) {
        let slots = slots(space);
        if self.held.len() < slots {
            self.held.resize(slots, Held::default());
        }
    }

    /// Adds one owner of `pair`; when it had none, pays `price()` for it
    /// and returns what it paid.
    fn add(&mut self, pair: Pair, price: impl FnOnce() -> (f64, f64)) -> Option<(f64, f64)> {
        let held = &mut self.held[slot(pair)];
        held.count += 1;
        (held.count == 1).then(|| {
            held.paid = price();
            held.paid
        })
    }

    /// Drops one owner of `pair`; what it paid when that was the last.
    fn drop_one(&mut self, pair: Pair) -> Option<(f64, f64)> {
        let held = &mut self.held[slot(pair)];
        held.count = held.count.checked_sub(1).expect("selection was registered");
        (held.count == 0).then_some(held.paid)
    }
}

/// The holders of every physical index that registered selections cite:
/// the owning paths of each, ascending, by [`slot`], and the slots that
/// `least` paths or more hold, ascending. The advisor keeps the shared
/// ones (`least` = 2) beside its ledger, for the list a plan reports; an
/// eviction walk keeps every held one (`least` = 1), the indexes it tries.
#[derive(PartialEq)]
pub(crate) struct Holders {
    by_slot: Vec<Vec<usize>>,
    listed: Vec<usize>,
    least: usize,
}

impl Holders {
    /// No selection registered yet; an index `least ≥ 1` paths hold is
    /// listed.
    pub(crate) fn listing(least: usize) -> Self {
        debug_assert!(least >= 1, "an index nobody holds is never listed");
        Holders {
            by_slot: Vec::new(),
            listed: Vec::new(),
            least,
        }
    }

    /// Registers every path's selection — paths in path order — from
    /// scratch, by slot of `space`.
    pub(crate) fn new<I>(
        space: &CandidateSpace,
        least: usize,
        selections: impl Iterator<Item = I>,
    ) -> Self
    where
        I: Iterator<Item = (Pair, f64)>,
    {
        let mut by_slot = vec![Vec::new(); slots(space)];
        for (i, pieces) in selections.enumerate() {
            for (pair, _) in pieces {
                by_slot[slot(pair)].push(i);
            }
        }
        let listed = (0..by_slot.len()).filter(|&s| by_slot[s].len() >= least);
        Holders {
            listed: listed.collect(),
            by_slot,
            ..Holders::listing(least)
        }
    }

    /// Withdraws path `i`'s selection.
    pub(crate) fn remove(&mut self, i: usize, pieces: impl Iterator<Item = (Pair, f64)>) {
        for (pair, _) in pieces {
            let holders = &mut self.by_slot[slot(pair)];
            let at = holders.partition_point(|&j| j < i);
            debug_assert_eq!(holders.get(at), Some(&i), "selection was registered");
            holders.remove(at);
            if holders.len() + 1 == self.least {
                let at = self.listed.partition_point(|&s| s < slot(pair));
                self.listed.remove(at);
            }
        }
    }

    /// Registers path `i`'s selection.
    pub(crate) fn insert(
        &mut self,
        space: &CandidateSpace,
        i: usize,
        pieces: impl Iterator<Item = (Pair, f64)>,
    ) {
        if self.by_slot.len() < slots(space) {
            self.by_slot.resize_with(slots(space), Vec::new);
        }
        for (pair, _) in pieces {
            let holders = &mut self.by_slot[slot(pair)];
            holders.insert(holders.partition_point(|&j| j < i), i);
            if holders.len() == self.least {
                let at = self.listed.partition_point(|&s| s < slot(pair));
                self.listed.insert(at, slot(pair));
            }
        }
    }

    /// Forgets departed path `i` (withdrawn first): the later paths move
    /// up one place.
    pub(crate) fn depart(&mut self, i: usize) {
        for holders in &mut self.by_slot {
            let after = holders.partition_point(|&j| j < i);
            holders[after..].iter_mut().for_each(|j| *j -= 1);
        }
    }

    /// Whether these are the holders of the selections `ledger` registers:
    /// each index lists as many paths as the ledger counts, ascending,
    /// each of which `cites` it, and the listed ones are those with
    /// `least` or more. The debug check of kept holders; it allocates
    /// nothing.
    pub(crate) fn agree(&self, ledger: &Ledger, cites: impl Fn(usize, Pair) -> bool) -> bool {
        let mut lists = self.by_slot.iter().enumerate();
        let listed = lists.clone().filter(|(_, l)| l.len() >= self.least);
        let held = lists.all(|(s, l)| {
            let ascending = l.windows(2).all(|w| w[0] < w[1]);
            l.len() == ledger.owners(pair_at(s)) as usize
                && ascending
                && l.iter().all(|&i| cites(i, pair_at(s)))
        });
        let mut unlisted = self.by_slot.len()..ledger.owned.held.len();
        let unlisted = unlisted.all(|s| ledger.owners(pair_at(s)) == 0);
        held && unlisted && listed.map(|(s, _)| s).eq(self.listed.iter().copied())
    }

    /// The owning paths of `pair`, ascending.
    pub(crate) fn of(&self, pair: Pair) -> &[usize] {
        &self.by_slot[slot(pair)]
    }

    /// The indexes `least` paths or more hold, ascending, each with its
    /// holders.
    pub(crate) fn listed(&self) -> impl Iterator<Item = (Pair, &[usize])> + '_ {
        let listed = self.listed.iter();
        listed.map(|&s| (pair_at(s), &self.by_slot[s][..]))
    }
}

/// Moves of the once-paid multisets batched after a [`sorted`] operand
/// changed: what it lost and what it gained since the last
/// [`Ledger::settle`].
#[derive(Default)]
struct Moves {
    gone: Vec<f64>,
    came: Vec<f64>,
}

impl Moves {
    /// Applies the moves to `sorted` in one merge through `spare`. The
    /// result is the [`sorted`] sequence of the moved multiset, which is
    /// unique, so how the moves are applied reaches no bit of a total.
    fn settle(&mut self, sorted: &mut Vec<f64>, spare: &mut Vec<f64>) {
        let Moves { gone, came } = self;
        if gone.is_empty() && came.is_empty() {
            return;
        }
        gone.sort_by(f64::total_cmp);
        came.sort_by(f64::total_cmp);
        spare.clear();
        spare.reserve(sorted.len() + came.len());
        let (mut kept, mut gained, mut lost) = (0, 0, 0);
        while kept < sorted.len() || gained < came.len() {
            let from_kept = gained == came.len()
                || (kept < sorted.len() && sorted[kept].total_cmp(&came[gained]).is_le());
            let value = if from_kept {
                kept += 1;
                sorted[kept - 1]
            } else {
                gained += 1;
                came[gained - 1]
            };
            if gone
                .get(lost)
                .is_some_and(|g| g.to_bits() == value.to_bits())
            {
                lost += 1;
            } else {
                spare.push(value);
            }
        }
        debug_assert_eq!(lost, gone.len(), "a value left that was never paid");
        std::mem::swap(sorted, spare);
        gone.clear();
        came.clear();
    }
}

/// Ownership plus the objective's operands: per-path query subtotals and
/// the distinct selected indexes' maintenance and footprint, each kept in
/// summation order. A ledger reads prices from the candidate space only
/// when an index gains its first owner (or is re-priced) and remembers
/// what it paid, so it can outlive the prices it was built on: the
/// advisor keeps the adopted plan's ledger across epochs.
///
/// Registrations move the holder counts and the query subtotals at once;
/// the once-paid operands move at the next [`Self::settle`], which every
/// read of [`Self::totals`] or [`Self::distinct`] must follow.
#[derive(Default)]
pub(crate) struct Ledger {
    owned: Ownership,
    /// Query subtotal per path, in path order.
    query: Vec<f64>,
    /// The once-paid maintenance and size values, each [`sorted`].
    once: [Vec<f64>; 2],
    /// What [`Self::settle`] has yet to apply to each of `once`.
    moves: [Moves; 2],
    /// The merge buffer of [`Moves::settle`], kept between settles.
    spare: Vec<f64>,
}

impl Ledger {
    /// Registers every path's selection — its `(index, query share)`
    /// pieces, paths in path order — from scratch, priced from the
    /// installed memos of `space`.
    pub(crate) fn new<I>(space: &CandidateSpace, selections: impl Iterator<Item = I>) -> Self
    where
        I: Iterator<Item = (Pair, f64)>,
    {
        let mut owned = Ownership {
            held: vec![Held::default(); slots(space)],
        };
        let (mut maint, mut sizes) = (Vec::new(), Vec::new());
        let mut share = |(pair, share)| {
            if let Some((maintenance, size)) = owned.add(pair, || installed(space, pair)) {
                maint.push(maintenance);
                sizes.push(size);
            }
            share
        };
        let query = selections.map(|pieces| subtotal(pieces.map(&mut share)));
        let query = query.collect();
        Ledger {
            query,
            once: [sorted(maint), sorted(sizes)],
            owned,
            ..Ledger::default()
        }
    }

    fn pay(&mut self, (maintenance, size): (f64, f64)) {
        self.moves[0].came.push(maintenance);
        self.moves[1].came.push(size);
    }

    fn refund(&mut self, (maintenance, size): (f64, f64)) {
        self.moves[0].gone.push(maintenance);
        self.moves[1].gone.push(size);
    }

    /// Withdraws path `i`'s registered selection.
    pub(crate) fn remove(&mut self, i: usize, pieces: impl Iterator<Item = (Pair, f64)>) {
        for (pair, _) in pieces {
            if let Some(paid) = self.owned.drop_one(pair) {
                self.refund(paid);
            }
        }
        self.query[i] = 0.0;
    }

    /// Registers path `i`'s selection (after [`Self::remove`]), pricing an
    /// index that gains its first owner from `space`.
    pub(crate) fn insert(
        &mut self,
        space: &CandidateSpace,
        i: usize,
        pieces: impl Iterator<Item = (Pair, f64)>,
    ) {
        self.owned.fit(space);
        self.query[i] = subtotal(pieces.map(|(pair, share)| {
            if let Some(price) = self.owned.add(pair, || installed(space, pair)) {
                self.pay(price);
            }
            share
        }));
    }

    /// Re-folds path `i`'s query subtotal from its registered selection's
    /// current shares; its indexes stay as they are.
    pub(crate) fn requery(&mut self, i: usize, pieces: impl Iterator<Item = (Pair, f64)>) {
        self.query[i] = subtotal(pieces.map(|(_, share)| share));
    }

    /// `pair` was re-priced at `price`: when some selection cites it, the
    /// once-paid operands swap its old values for the new.
    pub(crate) fn repay(&mut self, pair: Pair, price: (f64, f64)) {
        if self.owned.count(pair) > 0 {
            let paid = std::mem::replace(&mut self.owned.held[slot(pair)].paid, price);
            self.refund(paid);
            self.pay(price);
        }
    }

    /// Appends an arriving path, registering nothing.
    pub(crate) fn arrive(&mut self) {
        self.query.push(0.0);
    }

    /// Forgets departed path `i` (withdrawn first): the later paths move
    /// up one place.
    pub(crate) fn depart(&mut self, i: usize) {
        debug_assert_eq!(self.query[i].to_bits(), 0.0f64.to_bits(), "withdrawn");
        self.query.remove(i);
    }

    /// Applies the batched moves to the once-paid operands.
    pub(crate) fn settle(&mut self) {
        for (moves, sorted) in self.moves.iter_mut().zip(&mut self.once) {
            moves.settle(sorted, &mut self.spare);
        }
    }

    fn settled(&self) -> bool {
        self.moves
            .iter()
            .all(|m| m.gone.is_empty() && m.came.is_empty())
    }

    /// The `(cost, size)` of the registered selections.
    pub(crate) fn totals(&self) -> (f64, f64) {
        debug_assert!(self.settled(), "totals of an unsettled ledger");
        let [maint, sizes] = &self.once;
        let cost = objective(self.query.iter().copied(), maint.iter().copied());
        (cost, sizes.iter().sum::<f64>())
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
        debug_assert!(self.settled(), "distinct indexes of an unsettled ledger");
        self.once[0].len()
    }

    /// Whether this ledger holds what one built from scratch on the same
    /// selections holds: totals bit for bit, every holder count and what
    /// it paid for each held index, every query subtotal. The debug check
    /// of a kept ledger.
    pub(crate) fn matches(&self, fresh: &Ledger) -> bool {
        let bits = |(cost, size): (f64, f64)| (cost.to_bits(), size.to_bits());
        let counts = |l: &Ledger| {
            let held = l.owned.held.iter().enumerate().filter(|(_, h)| h.count > 0);
            let bits = |(m, s): (f64, f64)| (m.to_bits(), s.to_bits());
            held.map(|(s, h)| (s, h.count, bits(h.paid)))
                .collect::<Vec<_>>()
        };
        let query = |l: &Ledger| l.query.iter().map(|q| q.to_bits()).collect::<Vec<_>>();
        bits(self.totals()) == bits(fresh.totals())
            && counts(self) == counts(fresh)
            && query(self) == query(fresh)
    }

    /// The sharing context of a path whose own selection is withdrawn,
    /// over the registered selections, written over `out`.
    pub(crate) fn context_into(&self, cands: &[Option<CandidateId>], out: &mut Vec<u8>) {
        context_by(cands, |pair| self.owned.count(pair) > 0, out);
    }

    /// An empty overlay on this ledger; an index a swap gives its first
    /// owner is priced from `space`.
    pub(crate) fn overlay<'l>(&'l self, space: &'l CandidateSpace) -> Overlay<'l> {
        Overlay {
            base: self,
            space,
            delta: Vec::new(),
            swapped: Vec::new(),
        }
    }
}

/// A few paths re-selected on top of a [`Ledger`] that stays untouched:
/// what one eviction trial changes, at a cost proportional to the change.
pub(crate) struct Overlay<'l> {
    base: &'l Ledger,
    space: &'l CandidateSpace,
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
    /// base owned it, its (maintenance, size))`: what the base paid for a
    /// dropped one, the installed price of an added one.
    fn crossings(&self) -> impl Iterator<Item = (bool, (f64, f64))> + '_ {
        let crosses = self
            .moved()
            .filter(|&(_, before, after)| (before > 0) != (after > 0));
        crosses.map(|(pair, before, _)| match before > 0 {
            true => (true, self.base.owned.paid(pair)),
            false => (false, installed(self.space, pair)),
        })
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
        let space = &space;
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
            let mut overlay = base.overlay(space);
            for _ in 0..30 {
                let (i, new) = (next(6) as usize, draw(&mut next));
                ledger.remove(i, sels[i].iter().copied());
                ledger.insert(space, i, new.iter().copied());
                sels[i] = new;
                // Settle one swap at a time, or a few at once.
                if next(3) == 0 {
                    ledger.settle();
                }
            }
            ledger.settle();
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
            let differ = (0..super::slots(space)).map(pair_at);
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
                ledger.insert(space, i, sels[i].iter().copied());
                overlay.insert(i, sels[i].iter().copied());
            }
            ledger.settle();
            assert!(ledger.matches(&scratch(&sels)));
        }
    }
}
