//! Allocation budget of the executor: an executed operation allocates for
//! what it returns and for the handful of keys it probes — not per entry it
//! reads and not in proportion to the record it edits. The paged read path
//! is held to the same rule one layer down: a `PagedBTree` lookup borrows
//! the pages it reads and allocates nothing, whatever the tree's height.
//! Its own test binary, because the counting `#[global_allocator]` is
//! process-wide.

use oic_btree::PagedBTree;
use oic_core::{Choice, IndexConfiguration};
use oic_cost::characteristics::{example51, ClassStats};
use oic_cost::{Org, PathCharacteristics};
use oic_pager::MemPager;
use oic_schema::{fixtures, ClassId, Path, Schema, SubpathId};
use oic_sim::{generate, scale_chars, ConfiguredDb, GenSpec, PagedMirror};
use oic_storage::paged::PageStore;
use oic_storage::{MemStore, Object, Oid};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on parallel threads).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn bump() {
        // `try_with`: the allocator also runs while a thread tears down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialized thread-local
// `Cell` without a destructor, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::bump();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

/// The paper's optimum for Example 5.1: `{(1–2, NIX), (3–4, MX)}`.
fn paper_optimum() -> IndexConfiguration {
    IndexConfiguration::new(
        vec![
            (SubpathId { start: 1, end: 2 }, Choice::Index(Org::Nix)),
            (SubpathId { start: 3, end: 4 }, Choice::Index(Org::Mx)),
        ],
        4,
    )
    .expect("two pieces tile the path")
}

fn executor<'a>(
    schema: &'a Schema,
    path: &'a Path,
    chars: &PathCharacteristics,
    config: &IndexConfiguration,
) -> ConfiguredDb<'a> {
    let spec = GenSpec {
        page_size: 1024,
        seed: 7,
    };
    ConfiguredDb::new(schema, path, generate(schema, path, chars, &spec), config)
}

#[test]
fn a_query_allocates_for_its_answer_not_per_entry() {
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = example51(&schema);
    let small = scale_chars(&chars, 0.05);
    let exec = executor(&schema, &path, &small, &paper_optimum());
    let no_index =
        IndexConfiguration::new(vec![(SubpathId { start: 1, end: 4 }, Choice::NoIndex)], 4)
            .expect("one piece tiles the path");
    let twin = executor(&schema, &path, &small, &no_index);
    let person = exec.class_at(1);

    let (mut answered, mut allocations) = (0u64, 0u64);
    for v in &exec.db.ending_values.clone() {
        let ((oids, _), n) = allocations_of(|| exec.query(v, person, false));
        assert_eq!(oids, twin.query(v, person, false).0, "query {v}");
        answered += oids.len() as u64;
        allocations += n;
    }
    assert!(
        answered > 1_000,
        "the queries answer something ({answered})"
    );
    assert!(
        allocations * 8 < answered,
        "{allocations} allocations for {answered} answered oids"
    );
}

/// A copy of the live object `template` under a fresh oid of its class.
fn copy_of(exec: &mut ConfiguredDb<'_>, template: Oid) -> Object {
    let mut copy = exec.db.heap.peek(template).expect("live oid").clone();
    copy.oid = exec.db.heap.fresh_oid(template.class);
    copy
}

/// Allocations of `rounds` rounds of maintenance against a database with
/// `crowd` times the persons per vehicle, so every record a round touches
/// is `crowd` times longer. A round inserts a copy of the first `Person`
/// and deletes it again (appends to and edits of the long NIX records),
/// then deletes a generated `Company` and inserts a copy of it (the
/// boundary delete reads a whole long record before dropping it).
fn maintenance_allocations(crowd: f64, rounds: usize) -> (u64, u64) {
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = example51(&schema);
    let person: ClassId = path.step(1).class;
    let crowded = scale_chars(&chars, 0.01).map_stats(|c, s| {
        if c == person {
            ClassStats::new(s.n * crowd, s.d, s.nin)
        } else {
            s
        }
    });
    let mut exec = executor(&schema, &path, &crowded, &paper_optimum());
    let persons = exec.db.pools[0].len() as u64;
    let first_person = exec.db.pools[0][0];
    let companies = exec.db.pools[2].clone();
    let mut total = 0;
    for &company in companies.iter().take(rounds) {
        let person = copy_of(&mut exec, first_person);
        let person_oid = person.oid;
        total += allocations_of(|| exec.insert(person)).1;
        total += allocations_of(|| exec.delete(person_oid)).1;
        let replacement = copy_of(&mut exec, company);
        total += allocations_of(|| exec.delete(company)).1;
        total += allocations_of(|| exec.insert(replacement)).1;
    }
    (total, persons)
}

#[test]
fn maintenance_allocations_do_not_grow_with_the_record() {
    let (short, short_persons) = maintenance_allocations(1.0, 8);
    let (long, long_persons) = maintenance_allocations(4.0, 8);
    assert_eq!(long_persons, 4 * short_persons, "posting lists 4x apart");
    assert!(
        long as f64 <= short as f64 * 1.5 && short as f64 <= long as f64 * 1.5,
        "{short} allocations on short records, {long} on records four times as long"
    );
}

/// Allocations per `visit_range` (a ten-key range, so most lookups cross
/// a leaf boundary) over a `keys`-record tree on `store`, with the tree's
/// height.
fn visit_allocations<S: PageStore>(store: S, keys: u32) -> (f64, u32) {
    let mut tree = PagedBTree::open(store).expect("open");
    for i in 0..keys {
        tree.insert(&(i * 7 % keys).to_be_bytes(), &[0xAB; 8])
            .expect("insert");
    }
    tree.commit().expect("commit");
    let lookups = 100;
    let (seen, n) = allocations_of(|| {
        let mut seen = 0;
        for i in 0..lookups {
            let lo = i * ((keys - 10) / lookups);
            tree.visit_range(&lo.to_be_bytes(), &(lo + 9).to_be_bytes(), |_, v| {
                seen += v.len();
                true
            })
            .expect("visit_range");
        }
        seen
    });
    assert_eq!(seen, lookups as usize * 10 * 8, "every lookup saw its keys");
    (n as f64 / f64::from(lookups), tree.height())
}

#[test]
fn a_resident_paged_lookup_allocates_nothing() {
    let (on_heap, h) = visit_allocations(MemStore::new(128), 2_000);
    assert!(h >= 4, "128-byte pages make a deep tree (height {h})");
    assert_eq!(on_heap, 0.0, "MemStore lends its pages");
    let fitting = MemPager::new_mem(128, 4_096).expect("pager");
    let (cached, _) = visit_allocations(fitting, 2_000);
    assert_eq!(cached, 0.0, "a hit lends the cache frame");
}

#[test]
fn a_missing_paged_lookup_allocates_a_constant_whatever_the_height() {
    // Two frames: every page of every descent is a miss, read into the
    // evicted frame's buffer (a full cache recycles, it does not allocate).
    let two_frames = || MemPager::new_mem(128, 2).expect("pager");
    let (shallow, h_shallow) = visit_allocations(two_frames(), 200);
    let (deep, h_deep) = visit_allocations(two_frames(), 6_000);
    assert!(h_deep >= h_shallow + 2, "heights {h_shallow} and {h_deep}");
    assert!(
        shallow <= 1.0 && deep <= 1.0,
        "{shallow} allocations per lookup at height {h_shallow}, {deep} at {h_deep}"
    );
}

#[test]
fn a_mirror_lookup_allocates_its_keys_and_its_answer() {
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = example51(&schema);
    let small = scale_chars(&chars, 0.01);
    let exec = executor(&schema, &path, &small, &paper_optimum());
    let store = MemPager::new_mem(256, 1 << 16).expect("pager");
    let mut mirror = PagedMirror::build(&exec, store).expect("build");
    let height = mirror.tree_mut().height();
    assert!(height >= 3, "a real descent (height {height})");
    let (mut lookups, mut allocations, mut chunks) = (0u64, 0u64, 0u64);
    for pos in 1..=exec.path_len() {
        for v in &exec.db.ending_values.clone() {
            let (oids, n) = allocations_of(|| mirror.lookup(pos, v).expect("lookup"));
            assert_eq!(oids, exec.query(v, exec.class_at(pos), false).0);
            lookups += 1;
            allocations += n;
            chunks += oids.len().div_ceil(mirror.chunk_oids()) as u64;
        }
    }
    assert!(chunks > 4 * lookups, "answers span many records ({chunks})");
    // Two probe keys (two allocations each) and the growing answer vector:
    // nothing per page read, nothing per record visited. The decoded-node
    // tree this replaced spent over a hundred allocations on one lookup.
    let growth = (chunks * mirror.chunk_oids() as u64).ilog2() as u64;
    assert!(
        allocations <= lookups * (4 + growth),
        "{allocations} allocations over {lookups} lookups of {chunks} chunks"
    );
}
