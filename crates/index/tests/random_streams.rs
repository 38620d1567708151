//! Randomized maintenance streams: all four evaluators (MX, MIX, NIX,
//! naive) must agree with a plain in-memory oracle after every operation of
//! a random insert/delete stream over a random database.

use oic_index::{Grouping, MultiIndex, NaivePathEvaluator, NestedInheritedIndex, PathIndex};
use oic_schema::fixtures::{paper_path_pe, paper_schema};
use oic_schema::{ClassId, Path, Schema, SubpathId};
use oic_storage::{FieldValue, Object, ObjectStore, Oid, SimStore, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

struct Db {
    schema: Schema,
    path: Path,
    store: SimStore,
    heap: ObjectStore,
    names: Vec<String>,
}

fn company(schema: &Schema, oid: Oid, name: &str) -> Object {
    Object::new(
        schema,
        oid,
        vec![
            ("name", Value::from(name).into()),
            ("location", Value::from("x").into()),
            ("divs", FieldValue::Multi(vec![])),
        ],
    )
    .unwrap()
}

fn vehicle(schema: &Schema, oid: Oid, man: Vec<Oid>, extra: Vec<(&str, FieldValue)>) -> Object {
    let mut fields = vec![
        ("color", Value::from("c").into()),
        ("max_speed", Value::Int(1).into()),
        ("weight", Value::Int(1).into()),
        ("availability", Value::from("ok").into()),
        (
            "man",
            FieldValue::Multi(man.into_iter().map(Value::Ref).collect()),
        ),
    ];
    fields.extend(extra);
    Object::new(schema, oid, fields).unwrap()
}

fn person(schema: &Schema, oid: Oid, owns: Oid) -> Object {
    Object::new(
        schema,
        oid,
        vec![
            ("name", Value::from(format!("p{}", oid.seq)).into()),
            ("age", Value::Int(1).into()),
            ("owns", Value::Ref(owns).into()),
        ],
    )
    .unwrap()
}

/// Builds a random database on `Pe = Per.owns.man.name`.
fn random_db(seed: u64, n_comp: usize, n_veh: usize, n_per: usize) -> Db {
    let (schema, classes) = paper_schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = SimStore::new(512);
    let mut heap = ObjectStore::new();
    let names: Vec<String> = (0..n_comp.max(2) / 2).map(|i| format!("co{i}")).collect();
    let mut comps = Vec::new();
    for _ in 0..n_comp {
        let oid = heap.fresh_oid(classes.company);
        let name = names.choose(&mut rng).unwrap().clone();
        heap.insert(&mut store, company(&schema, oid, &name))
            .unwrap();
        comps.push(oid);
    }
    let mut vehicles = Vec::new();
    for i in 0..n_veh {
        let class = match i % 3 {
            0 => classes.vehicle,
            1 => classes.bus,
            _ => classes.truck,
        };
        let oid = heap.fresh_oid(class);
        let k = rng.gen_range(1..=2.min(comps.len()));
        let man: Vec<Oid> = comps.choose_multiple(&mut rng, k).copied().collect();
        let extra: Vec<(&str, FieldValue)> = match i % 3 {
            1 => vec![("seats", Value::Int(9).into())],
            2 => vec![
                ("capacity", Value::Int(1).into()),
                ("height", Value::Int(1).into()),
            ],
            _ => vec![],
        };
        heap.insert(&mut store, vehicle(&schema, oid, man, extra))
            .unwrap();
        vehicles.push(oid);
    }
    for _ in 0..n_per {
        let oid = heap.fresh_oid(classes.person);
        let owns = *vehicles.choose(&mut rng).unwrap();
        heap.insert(&mut store, person(&schema, oid, owns)).unwrap();
    }
    let path = paper_path_pe(&schema);
    Db {
        schema,
        path,
        store,
        heap,
        names,
    }
}

/// Plain navigation oracle over the live heap (dangling refs reach nothing).
fn oracle(db: &Db, target: ClassId, value: &Value) -> Vec<Oid> {
    let mut out = Vec::new();
    for oid in db.heap.oids_of(target) {
        let p = db.heap.peek(oid).unwrap();
        let reaches = p.refs_of("owns").iter().any(|&v| {
            db.heap.peek(v).is_some_and(|veh| {
                veh.refs_of("man").iter().any(|&c| {
                    db.heap
                        .peek(c)
                        .is_some_and(|comp| comp.values_of("name").contains(&value))
                })
            })
        });
        if reaches {
            out.push(oid);
        }
    }
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_organizations_track_the_oracle_through_random_streams(
        seed in 0u64..10_000,
        ops in prop::collection::vec((0u8..4, 0u16..1000), 5..25),
    ) {
        let mut db = random_db(seed, 6, 12, 30);
        let (_, classes) = paper_schema();
        let sub = SubpathId { start: 1, end: 3 };
        let mut mx = MultiIndex::build(&db.schema, &db.path, sub, Grouping::PerClass, &mut db.store, &db.heap);
        let mut mix = MultiIndex::build(&db.schema, &db.path, sub, Grouping::PerHierarchy, &mut db.store, &db.heap);
        let mut nix = NestedInheritedIndex::build(&db.schema, &db.path, sub, &mut db.store, &db.heap);
        let naive = NaivePathEvaluator::new(&db.schema, &db.path, sub);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE);

        for (kind, pick) in ops {
            // Mutate: 0 = delete person, 1 = delete vehicle, 2 = delete
            // company (boundary for nothing here — companies are in scope),
            // 3 = insert person owning a random vehicle.
            match kind {
                0..=2 => {
                    let class = match kind {
                        0 => classes.person,
                        1 => [classes.vehicle, classes.bus, classes.truck]
                            [pick as usize % 3],
                        _ => classes.company,
                    };
                    let pool = db.heap.oids_of(class);
                    if pool.is_empty() {
                        continue;
                    }
                    let victim = pool[pick as usize % pool.len()];
                    let obj = db.heap.peek(victim).unwrap().clone();
                    mx.on_delete(&mut db.store, &obj);
                    mix.on_delete(&mut db.store, &obj);
                    nix.on_delete(&mut db.store, &obj);
                    db.heap.delete(&mut db.store, victim).unwrap();
                }
                _ => {
                    let vehicles: Vec<Oid> = [classes.vehicle, classes.bus, classes.truck]
                        .iter()
                        .flat_map(|&c| db.heap.oids_of(c))
                        .collect();
                    if vehicles.is_empty() {
                        continue;
                    }
                    let owns = vehicles[pick as usize % vehicles.len()];
                    let oid = db.heap.fresh_oid(classes.person);
                    let obj = person(&db.schema, oid, owns);
                    mx.on_insert(&mut db.store, &obj);
                    mix.on_insert(&mut db.store, &obj);
                    nix.on_insert(&mut db.store, &obj);
                    db.heap.insert(&mut db.store, obj).unwrap();
                }
            }
            // Check agreement on a random query.
            let name = Value::from(db.names[rng.gen_range(0..db.names.len())].clone());
            let want = oracle(&db, classes.person, &name);
            let keys = std::slice::from_ref(&name);
            prop_assert_eq!(
                &mx.lookup(&db.store, keys, classes.person, false), &want,
                "MX diverged on {:?}", name
            );
            prop_assert_eq!(
                &mix.lookup(&db.store, keys, classes.person, false), &want,
                "MIX diverged on {:?}", name
            );
            prop_assert_eq!(
                &nix.lookup(&db.store, keys, classes.person, false), &want,
                "NIX diverged on {:?}", name
            );
            prop_assert_eq!(
                &naive.lookup(&db.store, &db.heap, keys, classes.person, false), &want,
                "naive diverged on {:?}", name
            );
        }
    }
}
