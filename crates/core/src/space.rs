//! The shared candidate space: an interned, refcounted, arena-backed
//! catalog of the *physical* subpath candidates a workload exposes.
//!
//! Two subpaths of different paths that traverse the same `(class,
//! attribute)` step sequence *in the same role* (embedded vs terminal —
//! see [`CandidateSpace`]) denote the same physical index opportunity — an
//! index built for one serves the other. The space interns each distinct
//! identity once, hands out dense [`CandidateId`]s (plain `u32` ranks into
//! the arena), and memoizes one priced cell per `(candidate,
//! organization)` pair — its maintenance price and its footprint in pages,
//! priced together — so a physical index shared by many paths is priced
//! exactly once per epoch, no matter how many selections consult it.
//!
//! The space belongs to a [`WorkloadAdvisor`](crate::WorkloadAdvisor),
//! and only the advisor writes it: outside this crate it is read-only.
//! Three epoch-mutation facilities serve the advisor:
//!
//! * **Reference counting** — interning a path acquires one reference per
//!   subpath and releasing the path drops them; when the last owner
//!   departs the candidate is freed (its cell cleared, its id recycled),
//!   so the space tracks the *live* workload rather than everything ever
//!   seen.
//! * **Class invalidation** — each candidate records the dependency class
//!   set of its cell (computed by
//!   [`oic_cost::invalidation::maintenance_dependencies`]: the step
//!   hierarchies plus, for embedded candidates, the successor hierarchy).
//!   A statistics or update-rate change for one class clears exactly the
//!   cells it can move.
//! * **Pricing telemetry** — [`CandidateSpace::maintenance_pricings`]
//!   counts the cells actually priced, the never-price-twice witness the
//!   workload tests and benches audit.
//!
//! The priced-once invariant, pinned through the advisor:
//!
//! ```
//! use oic_core::WorkloadAdvisor;
//! use oic_cost::{CostParams, Org};
//! use oic_schema::fixtures;
//!
//! let (schema, _) = fixtures::paper_schema();
//! let pe = fixtures::paper_path_pe(&schema);
//! let mut adv = WorkloadAdvisor::new(&schema, CostParams::default());
//! adv.add_path(fixtures::paper_path_pexa(&schema), |_| 0.1); // 10 subpaths
//! adv.add_path(pe.clone(), |_| 0.1); // 6 subpaths, 3 of them shared
//! let plan = adv.optimize();
//! let space = adv.candidate_space();
//! assert_eq!(space.len(), 13);
//! // One priced cell per live (candidate, organization), and no more.
//! assert_eq!(space.maintenance_pricings(), 3 * 13);
//! assert_eq!(plan.maintenance_pricings, 3 * 13);
//! // Per.owns.man, embedded in both paths, holds one (maintenance, size).
//! let owns_man: Vec<_> = pe.steps()[..2].iter().map(|s| s.key()).collect();
//! let shared = space.find(&owns_man, true).expect("live");
//! let (maintenance, size) = space.priced(shared, Org::Nix).expect("priced");
//! assert!(maintenance >= 0.0 && size > 0.0);
//! // A re-optimization with nothing changed prices nothing.
//! assert_eq!(adv.reoptimize().epoch_pricings, 0);
//! ```

use oic_cost::Org;
use oic_schema::{AttrId, ClassId, Path, PathStep, Schema, SubpathId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Dense identifier of an interned physical candidate. Ids index flat
/// arrays directly; the id of a freed candidate (refcount zero) is recycled
/// for the next fresh interning, so ids stay dense under churn. An id is
/// stable for as long as any path holds a reference to its candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CandidateId(pub u32);

impl CandidateId {
    /// The dense index backing this id.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One step of a physical candidate: the hierarchy root class and the
/// interned attribute traversed at that position.
pub type CandidateStep = (ClassId, AttrId);

/// The hasher of [`StepMap`], the space's step-sequence lookup: a fixed
/// multiplicative round per word (FxHash's), instead of SipHash's keyed
/// rounds, over small integers no adversary picks. Nothing depends on the
/// iteration order it gives: the space never iterates its lookup (ids
/// come from the arena and its free list). Tables keyed by candidate or
/// by `(candidate, organization)` hash nothing: they are vectors over the
/// dense ids.
#[derive(Default)]
pub(crate) struct StepHasher(u64);

impl StepHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for StepHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }

    fn write_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The live candidates of one role, by step sequence. Probed with a
/// borrowed `&[CandidateStep]`, so a hit allocates nothing.
type StepMap = HashMap<Box<[CandidateStep]>, CandidateId, BuildHasherDefault<StepHasher>>;

/// One arena slot: a candidate's identity, dependency set, and refcount.
#[derive(Debug)]
struct Slot {
    /// The `(steps, embedded)` identity of the candidate.
    steps: Box<[CandidateStep]>,
    /// Whether more steps follow the candidate in its owning paths.
    embedded: bool,
    /// Classes whose statistics or update rates its maintenance price
    /// reads (sorted, deduplicated — see `oic_cost::invalidation`).
    deps: Box<[ClassId]>,
    /// Number of owning path-subpath references; 0 = free slot.
    refs: u32,
}

/// Interned arena of physical subpath candidates shared across paths.
///
/// Candidate identity is the step sequence **plus** whether the subpath is
/// *embedded* (followed by more steps in its path) or *terminal*. The same
/// steps price maintenance differently in the two roles: an embedded
/// subpath absorbs the Section 4 boundary-deletion (`CMD`) traffic of the
/// class that follows it and clamps its key domain by that class's
/// population, while a terminal subpath has no successor. A path may
/// legally end on a reference attribute, so one path's terminal subpath
/// can spell the same steps as another path's embedded one — those are
/// distinct physical pricing contexts and get distinct ids.
#[derive(Debug)]
pub struct CandidateSpace {
    /// Arena slots; freed slots stay in place (refs = 0) until recycled.
    slots: Vec<Slot>,
    /// Reverse lookup used at interning time, one map per role (indexed by
    /// `embedded`); freed candidates are removed.
    lookup: [StepMap; 2],
    /// The priced cell per `(candidate, org)`: its `(maintenance, size in
    /// pages)`, `None` = unpriced. Both values read the candidate's
    /// dependency set (`oic_cost::invalidation::maintenance_dependencies`),
    /// so a cell is priced, invalidated and freed as one.
    cells: Vec<[Option<(f64, f64)>; 3]>,
    /// Recycled ids of freed slots.
    free: Vec<CandidateId>,
    /// How many cells were priced — the never-price-twice witness.
    /// Monotone across epochs; invalidation makes re-pricing legitimate,
    /// so compare deltas per epoch, not absolutes, in evolving workloads.
    pricings: u64,
}

impl CandidateSpace {
    /// New, empty space.
    pub(crate) fn new() -> Self {
        CandidateSpace {
            slots: Vec::new(),
            lookup: Default::default(),
            cells: Vec::new(),
            free: Vec::new(),
            pricings: 0,
        }
    }

    /// Interns one step sequence in its role (`embedded` = more steps
    /// follow in the owning path) with its maintenance dependency class
    /// set, **acquiring one reference**: the existing id if this `(steps,
    /// embedded)` pair is live, a recycled or fresh id otherwise.
    fn intern(
        &mut self,
        steps: &[CandidateStep],
        embedded: bool,
        deps: impl FnOnce() -> Vec<ClassId>,
    ) -> CandidateId {
        let lookup = &mut self.lookup[usize::from(embedded)];
        if let Some(&id) = lookup.get(steps) {
            self.slots[id.index()].refs += 1;
            return id;
        }
        let slot = Slot {
            steps: Box::from(steps),
            embedded,
            deps: deps().into(),
            refs: 1,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id.index()] = slot;
                self.cells[id.index()] = [None; 3];
                id
            }
            None => {
                let id = CandidateId(self.slots.len() as u32);
                self.slots.push(slot);
                self.cells.push([None; 3]);
                id
            }
        };
        lookup.insert(Box::from(steps), id);
        id
    }

    /// Interns the subpaths of `path` with `admitted[rank] == true`, in
    /// rank order, returning one candidate id per subpath (indexed by
    /// [`SubpathId::rank`], `None` for a mined-out rank) and acquiring one
    /// reference each (a path never exposes the same candidate twice: a
    /// class appears at most once along a path). Subpaths ending before
    /// the path's last position intern as embedded. A mined-out rank holds
    /// no reference and occupies no slot: the space, its cells and the
    /// component builder never see it. Pass the ids back to
    /// [`CandidateSpace::release_path`] when the path departs.
    ///
    /// Every subpath probes a borrowed slice of one key vector per path,
    /// so a rank whose candidate is live allocates nothing; a miss
    /// allocates its slot's identity and lookup key.
    pub(crate) fn intern_path_admitted(
        &mut self,
        schema: &Schema,
        path: &Path,
        admitted: &[bool],
    ) -> Vec<Option<CandidateId>> {
        let n = path.len();
        debug_assert_eq!(admitted.len(), SubpathId::count(n));
        let keys: Vec<CandidateStep> = path.steps().iter().map(PathStep::key).collect();
        (0..SubpathId::count(n))
            .map(|r| {
                if !admitted[r] {
                    return None;
                }
                let sub = SubpathId::from_rank(n, r);
                Some(self.intern(&keys[sub.start - 1..sub.end], sub.end < n, || {
                    oic_cost::invalidation::maintenance_dependencies(schema, path, sub)
                }))
            })
            .collect()
    }

    /// Releases one reference per id (the inverse of
    /// [`CandidateSpace::intern_path_admitted`]). A candidate whose last
    /// reference drops is freed: its cells are cleared, its identity
    /// leaves the lookup, and its id is recycled for future internings.
    ///
    /// # Panics
    /// Panics if an id is not live (double release).
    pub(crate) fn release_path(&mut self, ids: &[CandidateId]) {
        for &id in ids {
            let slot = &mut self.slots[id.index()];
            assert!(slot.refs > 0, "release of a dead candidate {id:?}");
            slot.refs -= 1;
            if slot.refs == 0 {
                let steps = std::mem::take(&mut slot.steps);
                slot.deps = Box::default();
                self.lookup[usize::from(slot.embedded)].remove(&*steps);
                self.cells[id.index()] = [None; 3];
                self.free.push(id);
            }
        }
    }

    /// Clears the priced cells of every live candidate whose dependency
    /// set contains `class` — exactly the prices and footprints a
    /// statistics or update-rate change for that class can move (the
    /// `oic_cost::invalidation` contract). Returns the number of candidates
    /// invalidated.
    pub(crate) fn invalidate_class(&mut self, class: ClassId) -> usize {
        let mut touched = 0;
        for (slot, cells) in self.slots.iter().zip(&mut self.cells) {
            if slot.refs > 0 && slot.deps.binary_search(&class).is_ok() {
                *cells = [None; 3];
                touched += 1;
            }
        }
        touched
    }

    /// Read-only lookup: the live candidate spelling `steps` in `embedded`
    /// role, if any path currently exposes it. Unlike interning this
    /// acquires **no** reference — it is the what-if API's resolution
    /// primitive, safe to call without ever releasing. It allocates
    /// nothing.
    pub fn find(&self, steps: &[CandidateStep], embedded: bool) -> Option<CandidateId> {
        self.lookup[usize::from(embedded)].get(steps).copied()
    }

    /// Number of **live** candidates (refcount > 0).
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Arena size, freed slots included: every [`CandidateId::index`] is
    /// below it (the bound for dense per-candidate side tables).
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether no candidate is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` refers to a live candidate.
    pub fn is_live(&self, id: CandidateId) -> bool {
        self.slots.get(id.index()).is_some_and(|slot| slot.refs > 0)
    }

    /// The step sequence of a live candidate.
    pub fn steps(&self, id: CandidateId) -> &[CandidateStep] {
        debug_assert!(self.is_live(id), "steps of a dead candidate");
        &self.slots[id.index()].steps
    }

    /// The priced cell of `(id, org)` — its `(maintenance, size in pages)`
    /// — if it was priced and not invalidated or freed since.
    pub fn priced(&self, id: CandidateId, org: Org) -> Option<(f64, f64)> {
        self.cells[id.index()][org.index()]
    }

    /// Installs the price of an unpriced cell, `(maintenance, size in
    /// pages)`: the one writer. It stays until a dependency class is
    /// invalidated or the candidate is freed.
    pub(crate) fn install(&mut self, id: CandidateId, org: Org, cell: (f64, f64)) {
        let slot = &mut self.cells[id.index()][org.index()];
        debug_assert!(slot.is_none(), "cell ({id:?}, {org}) priced twice");
        *slot = Some(cell);
        self.pricings += 1;
    }

    /// Number of cells priced, cumulatively. Within one epoch (no
    /// invalidation) at most one pricing happens per live `(candidate,
    /// org)` pair — by construction a shared physical subpath is never
    /// priced twice for the same statistics.
    pub fn maintenance_pricings(&self) -> u64 {
        self.pricings
    }
}

// The parallel advisor stages read the space from worker threads
// (`priced`/`steps` against a frozen `&self`)
// while all writes stay on the sequential merge path (DESIGN.md §5.13).
// Keep the read side shareable: a lazy `Cell`-style memo here would fail
// right at this contract instead of deep inside `oic_core`'s fan-out.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    const fn memo_reads_are_shareable() {
        assert_sync_send::<CandidateSpace>();
        assert_sync_send::<CandidateId>();
    }
    _ = memo_reads_are_shareable;
};

#[cfg(test)]
impl CandidateSpace {
    /// Interns every subpath of `path` (nothing mined out), one id per
    /// rank.
    pub(crate) fn intern_all(&mut self, schema: &Schema, path: &Path) -> Vec<CandidateId> {
        let admitted = vec![true; SubpathId::count(path.len())];
        let ids = self.intern_path_admitted(schema, path, &admitted);
        ids.into_iter().map(|id| id.expect("admitted")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_schema::fixtures;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema);
        let mut space = CandidateSpace::new();
        let a = space.intern_all(&schema, &pexa);
        assert_eq!(a.len(), SubpathId::count(4));
        assert_eq!(space.len(), SubpathId::count(4), "all subpaths distinct");
        // Re-interning the same path adds nothing (but acquires references).
        let b = space.intern_all(&schema, &pexa);
        assert_eq!(a, b);
        assert_eq!(space.len(), SubpathId::count(4));
        assert!(a.iter().all(|&id| space.slots[id.index()].refs == 2));
        // Ids are dense, first-seen ordered.
        assert_eq!(a[0], CandidateId(0));
        assert!(a.iter().all(|id| id.index() < space.len()));
    }

    #[test]
    fn overlapping_paths_share_prefix_candidates() {
        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema);
        let pe = fixtures::paper_path_pe(&schema);
        let mut space = CandidateSpace::new();
        let a = space.intern_all(&schema, &pexa);
        let before = space.len();
        let b = space.intern_all(&schema, &pe);
        // Pe = Per.owns.man.name shares Per.owns, man and Per.owns.man with
        // Pexa; its other three subpaths (ending in Company.name) are new.
        let shared = b.iter().filter(|id| id.index() < before).count();
        assert_eq!(shared, 3, "S1,1 S2,2 S1,2 are physically shared");
        let r11 = SubpathId { start: 1, end: 1 }.rank(3);
        assert_eq!(a[SubpathId { start: 1, end: 1 }.rank(4)], b[r11]);
        // Shared candidates carry two references, private ones a single one.
        assert_eq!(space.slots[b[r11].index()].refs, 2);
        assert_eq!(space.slots[b.last().unwrap().index()].refs, 1);
    }

    #[test]
    fn terminal_and_embedded_roles_are_distinct_candidates() {
        // Person.owns is a complete path (paths may end on a reference
        // attribute) *and* the first subpath of Person.owns.man.name. The
        // two roles price maintenance differently — the embedded one pays
        // the boundary CMD of Vehicle deletions — so they must not share a
        // memo slot.
        let (schema, _) = fixtures::paper_schema();
        let owns = Path::parse(&schema, "Person", &["owns"]).unwrap();
        let pe = fixtures::paper_path_pe(&schema);
        let mut space = CandidateSpace::new();
        let terminal = space.intern_all(&schema, &owns)[0];
        let ids = space.intern_all(&schema, &pe);
        let embedded = ids[SubpathId { start: 1, end: 1 }.rank(3)];
        assert_eq!(space.steps(terminal), space.steps(embedded), "same steps");
        assert_ne!(terminal, embedded, "different roles, different identity");
        assert!(!space.slots[terminal.index()].embedded);
        assert!(space.slots[embedded.index()].embedded);
        // The embedded role depends on the successor (Vehicle) hierarchy;
        // the terminal role sees Person only.
        let veh = schema.class_by_name("Vehicle").unwrap();
        assert!(space.slots[embedded.index()]
            .deps
            .binary_search(&veh)
            .is_ok());
        assert!(space.slots[terminal.index()]
            .deps
            .binary_search(&veh)
            .is_err());
        // Each role keeps its own cell.
        space.install(terminal, Org::Mx, (1.0, 10.0));
        space.install(embedded, Org::Mx, (2.0, 20.0));
        assert_eq!(space.priced(terminal, Org::Mx), Some((1.0, 10.0)));
        assert_eq!(space.priced(embedded, Org::Mx), Some((2.0, 20.0)));
    }

    #[test]
    fn maintenance_priced_once() {
        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema);
        let mut space = CandidateSpace::new();
        let ids = space.intern_all(&schema, &pexa);
        let id = ids[0];
        assert_eq!(space.priced(id, Org::Mx), None, "unpriced before install");
        space.install(id, Org::Mx, (42.0, 7.0));
        assert_eq!(space.priced(id, Org::Mx), Some((42.0, 7.0)));
        assert_eq!(space.maintenance_pricings(), 1, "a probe prices nothing");
        assert_eq!(space.priced(id, Org::Nix), None, "per organization");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "priced twice")]
    fn a_priced_cell_is_never_installed_again() {
        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema);
        let mut space = CandidateSpace::new();
        let id = space.intern_all(&schema, &pexa)[0];
        space.install(id, Org::Mx, (42.0, 7.0));
        space.install(id, Org::Mx, (99.0, 7.0));
    }

    #[test]
    fn a_cell_prices_and_invalidates_maintenance_and_size_as_one() {
        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema);
        let mut space = CandidateSpace::new();
        let ids = space.intern_all(&schema, &pexa);
        let id = ids[SubpathId { start: 1, end: 2 }.rank(4)];
        space.install(id, Org::Nix, (7.0, 500.0));
        assert_eq!(space.priced(id, Org::Nix), Some((7.0, 500.0)));
        assert_eq!(space.priced(id, Org::Mx), None);
        // Invalidating a dependency class clears the whole cell…
        let person = schema.class_by_name("Person").unwrap();
        space.invalidate_class(person);
        assert_eq!(space.priced(id, Org::Nix), None);
        // …and an out-of-dependency class clears nothing.
        space.install(id, Org::Nix, (7.5, 501.0));
        let division = schema.class_by_name("Division").unwrap();
        space.invalidate_class(division);
        assert_eq!(space.priced(id, Org::Nix), Some((7.5, 501.0)));
        assert_eq!(space.maintenance_pricings(), 2, "one count per install");
        // Freeing the candidate drops its cells with everything else.
        space.release_path(&ids);
        assert!(space.is_empty());
        let again = space.intern_all(&schema, &pexa);
        for &id in &again {
            for org in Org::ALL {
                assert_eq!(space.priced(id, org), None, "stale cell leaked");
            }
        }
    }

    #[test]
    fn releasing_the_last_owner_frees_the_candidate() {
        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema);
        let pe = fixtures::paper_path_pe(&schema);
        let mut space = CandidateSpace::new();
        let a = space.intern_all(&schema, &pexa);
        let b = space.intern_all(&schema, &pe);
        let shared = b[SubpathId { start: 1, end: 2 }.rank(3)]; // Per.owns.man
        space.install(shared, Org::Nix, (7.0, 1.0));
        let live_before = space.len();

        // Dropping Pexa keeps Pe's candidates alive — including the shared
        // prefix, whose memo survives.
        space.release_path(&a);
        assert!(space.is_live(shared));
        assert_eq!(space.slots[shared.index()].refs, 1);
        assert_eq!(space.priced(shared, Org::Nix), Some((7.0, 1.0)));
        assert_eq!(space.len(), live_before - (a.len() - 3));

        // Dropping Pe frees everything: refcounts hit zero, memos clear.
        space.release_path(&b);
        assert!(!space.is_live(shared));
        assert!(space.is_empty());
        assert_eq!(space.priced(shared, Org::Nix), None);
    }

    #[test]
    fn freed_ids_are_recycled_without_leaking_memos() {
        let (schema, _) = fixtures::paper_schema();
        let owns = Path::parse(&schema, "Person", &["owns"]).unwrap();
        let pe = fixtures::paper_path_pe(&schema);
        let mut space = CandidateSpace::new();
        let a = space.intern_all(&schema, &owns);
        space.install(a[0], Org::Mx, (123.0, 1.0));
        space.release_path(&a);
        assert!(space.is_empty());
        // The next interning recycles the freed slot: same dense index, but
        // a fresh identity whose cell must NOT see the stale 123.0.
        let b = space.intern_all(&schema, &pe);
        assert!(b.contains(&a[0]), "freed id recycled");
        for &id in &b {
            assert_eq!(space.priced(id, Org::Mx), None);
        }
        // Re-interning the departed path now yields a *different* id for
        // the same steps — identity is live-set-relative…
        let c = space.intern_all(&schema, &owns);
        assert!(space.is_live(c[0]));
        // …and the arena stays dense: no slot is wasted.
        assert_eq!(space.len(), SubpathId::count(3) + 1);
    }

    #[test]
    fn invalidate_class_clears_exactly_the_dependent_memos() {
        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema); // Per.owns.man.divs.name
        let mut space = CandidateSpace::new();
        let ids = space.intern_all(&schema, &pexa);
        let n = 4;
        for (r, &id) in ids.iter().enumerate() {
            space.install(id, Org::Mx, (r as f64, r as f64));
        }
        let division = schema.class_by_name("Division").unwrap();
        // Division appears at position 4 only: the dependent candidates are
        // the subpaths containing position 4 plus the embedded ones ending
        // at position 3 (their boundary CMD is Division deletions).
        let touched = space.invalidate_class(division);
        let mut expect = 0;
        for (r, &id) in ids.iter().enumerate() {
            let sub = SubpathId::from_rank(n, r);
            let dependent = sub.end >= 3;
            if dependent {
                expect += 1;
                assert_eq!(space.priced(id, Org::Mx), None, "{sub}");
            } else {
                assert!(space.priced(id, Org::Mx).is_some(), "{sub}");
            }
        }
        assert_eq!(touched, expect);
        // Person sits at position 1: every subpath starting there depends
        // on it; the rest were already invalidated or remain priced.
        let person = schema.class_by_name("Person").unwrap();
        let touched = space.invalidate_class(person);
        assert_eq!(touched, n, "S1,1 S1,2 S1,3 S1,4");
    }

    /// The cross-crate half of the `oic_cost::invalidation` contract:
    /// re-pricing after an out-of-dependency drift reproduces the memoized
    /// price bit-identically, and an in-dependency drift moves it.
    #[test]
    fn invalidation_contract_matches_priced_costs() {
        use crate::{pc, Choice};
        use oic_cost::{CostModel, CostParams, PathCharacteristics};
        use oic_workload::{LoadDistribution, Triplet};

        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema);
        let division = schema.class_by_name("Division").unwrap();
        let sub = SubpathId { start: 1, end: 2 }; // deps exclude Division
        let deps = oic_cost::invalidation::maintenance_dependencies(&schema, &pexa, sub);
        assert!(deps.binary_search(&division).is_err());

        let price = |div_scale: f64| {
            let chars = PathCharacteristics::build(&schema, &pexa, |c| {
                let s = oic_cost::ClassStats::new(10_000.0, 1_000.0, 2.0);
                if c == division {
                    oic_cost::ClassStats::new(s.n * div_scale, s.d * div_scale, s.nin)
                } else {
                    s
                }
            });
            let model = CostModel::new(&schema, &pexa, &chars, CostParams::default());
            let ld = LoadDistribution::build(&schema, &pexa, |_| Triplet::new(0.0, 0.1, 0.1));
            pc::processing_cost(&model, &ld, sub, Choice::Index(Org::Nix))
        };
        // Drifting Division does not move the price of Per.owns.man…
        assert_eq!(price(1.0).to_bits(), price(5.0).to_bits());
        // …which is why invalidate_class(Division) may skip its cells.
        let mut space = CandidateSpace::new();
        let ids = space.intern_all(&schema, &pexa);
        let id = ids[sub.rank(4)];
        space.install(id, Org::Nix, (price(1.0), 0.0));
        space.invalidate_class(division);
        assert_eq!(space.priced(id, Org::Nix), Some((price(5.0), 0.0)));
    }
}
