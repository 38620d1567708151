//! Allocation budget of the executor: an executed operation allocates for
//! what it returns and for the handful of keys it probes — not per entry it
//! reads and not in proportion to the record it edits. Its own test binary,
//! because the counting `#[global_allocator]` is process-wide.

use oic_core::{Choice, IndexConfiguration};
use oic_cost::characteristics::{example51, ClassStats};
use oic_cost::{Org, PathCharacteristics};
use oic_schema::{fixtures, ClassId, Path, Schema, SubpathId};
use oic_sim::{generate, scale_chars, ConfiguredDb, GenSpec};
use oic_storage::{Object, Oid};
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
