//! Robustness: out-of-scope maintenance is a no-op, missing keys return
//! empty results, repeated deletions are idempotent, and page accounting
//! never goes backwards.

use oic_index::{Grouping, MultiIndex, NestedInheritedIndex, PathIndex};
use oic_schema::fixtures::paper_schema;
use oic_schema::SubpathId;
use oic_storage::{FieldValue, Object, ObjectStore, Oid, SimStore, Value};

fn tiny_db() -> (
    oic_schema::Schema,
    oic_schema::fixtures::PaperClasses,
    SimStore,
    ObjectStore,
    oic_schema::Path,
) {
    let (schema, classes) = paper_schema();
    let mut store = SimStore::new(512);
    let mut heap = ObjectStore::new();
    let comp = heap.fresh_oid(classes.company);
    heap.insert(
        &mut store,
        Object::new(
            &schema,
            comp,
            vec![
                ("name", Value::from("Acme").into()),
                ("location", Value::from("x").into()),
                ("divs", FieldValue::Multi(vec![])),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let veh = heap.fresh_oid(classes.vehicle);
    heap.insert(
        &mut store,
        Object::new(
            &schema,
            veh,
            vec![
                ("color", Value::from("red").into()),
                ("max_speed", Value::Int(1).into()),
                ("weight", Value::Int(1).into()),
                ("availability", Value::from("ok").into()),
                ("man", FieldValue::Multi(vec![Value::Ref(comp)])),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let per = heap.fresh_oid(classes.person);
    heap.insert(
        &mut store,
        Object::new(
            &schema,
            per,
            vec![
                ("name", Value::from("p").into()),
                ("age", Value::Int(1).into()),
                ("owns", Value::Ref(veh).into()),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let path = oic_schema::fixtures::paper_path_pe(&schema);
    (schema, classes, store, heap, path)
}

#[test]
fn out_of_scope_objects_are_ignored() {
    let (schema, classes, mut store, heap, path) = tiny_db();
    // Index only Vehicle.man (positions 2..2): persons and divisions are
    // out of scope; companies are the boundary.
    let sub = SubpathId { start: 2, end: 2 };
    let mut mx = MultiIndex::build(&schema, &path, sub, Grouping::PerClass, &mut store, &heap);
    let mut mix = MultiIndex::build(
        &schema,
        &path,
        sub,
        Grouping::PerHierarchy,
        &mut store,
        &heap,
    );
    let mut nix = NestedInheritedIndex::build(&schema, &path, sub, &mut store, &heap);
    let division = Object::new(
        &schema,
        Oid::new(classes.division, 77),
        vec![
            ("name", Value::from("d").into()),
            ("function", Value::from("f").into()),
            ("movings", Value::Int(0).into()),
        ],
    )
    .unwrap();
    let comp = heap.oids_of(classes.company)[0];
    let before: Vec<Oid> = mx.lookup(&store, &[Value::Ref(comp)], classes.vehicle, true);
    for idx in [&mut mx as &mut dyn PathIndex, &mut mix, &mut nix] {
        idx.on_insert(&mut store, &division);
        idx.on_delete(&mut store, &division);
    }
    assert_eq!(
        mx.lookup(&store, &[Value::Ref(comp)], classes.vehicle, true),
        before,
        "out-of-scope maintenance must not change results"
    );
}

#[test]
fn missing_keys_and_targets_return_empty() {
    let (schema, classes, mut store, heap, path) = tiny_db();
    let sub = SubpathId { start: 1, end: 3 };
    let mx = MultiIndex::build(&schema, &path, sub, Grouping::PerClass, &mut store, &heap);
    let nix = NestedInheritedIndex::build(&schema, &path, sub, &mut store, &heap);
    // Unknown key.
    assert!(mx
        .lookup(&store, &[Value::from("nope")], classes.person, false)
        .is_empty());
    assert!(nix
        .lookup(&store, &[Value::from("nope")], classes.person, false)
        .is_empty());
    // Out-of-scope target class.
    assert!(mx
        .lookup(&store, &[Value::from("Acme")], classes.division, false)
        .is_empty());
    // Empty key set.
    assert!(nix.lookup(&store, &[], classes.person, false).is_empty());
}

#[test]
fn double_delete_is_idempotent() {
    let (schema, classes, mut store, mut heap, path) = tiny_db();
    let sub = SubpathId { start: 1, end: 3 };
    let mut nix = NestedInheritedIndex::build(&schema, &path, sub, &mut store, &heap);
    let veh = heap.oids_of(classes.vehicle)[0];
    let obj = heap.peek(veh).unwrap().clone();
    nix.on_delete(&mut store, &obj);
    heap.delete(&mut store, veh).unwrap();
    // Second delivery of the same event must not corrupt anything.
    nix.on_delete(&mut store, &obj);
    assert!(nix
        .lookup(&store, &[Value::from("Acme")], classes.person, false)
        .is_empty());
    nix.primary_tree().check_invariants().unwrap();
    nix.auxiliary_tree().check_invariants().unwrap();
}

#[test]
fn accounting_monotone_under_all_operations() {
    let (schema, classes, mut store, heap, path) = tiny_db();
    let sub = SubpathId { start: 1, end: 3 };
    let nix = NestedInheritedIndex::build(&schema, &path, sub, &mut store, &heap);
    let mut last = store.stats().total();
    for _ in 0..5 {
        let _ = nix.lookup(&store, &[Value::from("Acme")], classes.person, false);
        let now = store.stats().total();
        assert!(now > last, "every lookup costs pages");
        last = now;
    }
}
