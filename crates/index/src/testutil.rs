//! Shared unit-test fixture: a concrete Figure 2-style database on the
//! paper's Figure 1 schema, plus an independent navigation oracle used to
//! validate every index organization against the same ground truth.

use crate::{Grouping, MultiIndex};
use oic_schema::fixtures::{paper_path_pe, paper_path_pexa, paper_schema, PaperClasses};
use oic_schema::{Path, Schema, SubpathId};
use oic_storage::{FieldValue, Object, ObjectStore, Oid, SimStore, Value};

/// The fixture database.
pub struct TestDb {
    pub schema: Schema,
    pub classes: PaperClasses,
    pub store: SimStore,
    pub heap: ObjectStore,
    pub path_pe: Path,
    pub path_pexa: Path,
    pub companies: Vec<(String, Oid)>,
}

/// Builds the fixture:
///
/// * companies: Fiat (divisions: sales, ops), Renault (sales), Daf (rnd);
/// * vehicles: V0 White→Fiat, V1 Red→Renault, V2 Red→Renault,
///   Bus0→Fiat, Bus1→Daf, Truck0→{Daf, Renault};
/// * persons P0..P5 owning V0, V1, Bus0, Truck0, Bus1, V2 respectively.
pub fn figure2_db(page_size: usize) -> TestDb {
    let (schema, classes) = paper_schema();
    let mut store = SimStore::new(page_size);
    let mut heap = ObjectStore::new();

    let div = |heap: &mut ObjectStore, store: &mut SimStore, name: &str| {
        let oid = heap.fresh_oid(classes.division);
        let o = Object::new(
            &schema,
            oid,
            vec![
                ("name", Value::from(name).into()),
                ("function", Value::from("f").into()),
                ("movings", Value::Int(0).into()),
            ],
        )
        .unwrap();
        heap.insert(store, o).unwrap();
        oid
    };
    let d_sales_f = div(&mut heap, &mut store, "sales");
    let d_ops_f = div(&mut heap, &mut store, "ops");
    let d_sales_r = div(&mut heap, &mut store, "sales");
    let d_rnd_d = div(&mut heap, &mut store, "rnd");

    let comp = |heap: &mut ObjectStore, store: &mut SimStore, name: &str, divs: Vec<Oid>| {
        let oid = heap.fresh_oid(classes.company);
        let o = Object::new(
            &schema,
            oid,
            vec![
                ("name", Value::from(name).into()),
                ("location", Value::from("x").into()),
                (
                    "divs",
                    FieldValue::Multi(divs.into_iter().map(Value::Ref).collect()),
                ),
            ],
        )
        .unwrap();
        heap.insert(store, o).unwrap();
        (name.to_string(), oid)
    };
    let fiat = comp(&mut heap, &mut store, "Fiat", vec![d_sales_f, d_ops_f]);
    let renault = comp(&mut heap, &mut store, "Renault", vec![d_sales_r]);
    let daf = comp(&mut heap, &mut store, "Daf", vec![d_rnd_d]);

    let veh_fields = |color: &str, man: Vec<Oid>| {
        vec![
            ("color", Value::from(color).into()),
            ("max_speed", Value::Int(120).into()),
            ("weight", Value::Int(900).into()),
            ("availability", Value::from("ok").into()),
            (
                "man",
                FieldValue::Multi(man.into_iter().map(Value::Ref).collect()),
            ),
        ]
    };
    let veh = |heap: &mut ObjectStore, store: &mut SimStore, color: &str, man: Vec<Oid>| {
        let oid = heap.fresh_oid(classes.vehicle);
        let o = Object::new(&schema, oid, veh_fields(color, man)).unwrap();
        heap.insert(store, o).unwrap();
        oid
    };
    let v0 = veh(&mut heap, &mut store, "White", vec![fiat.1]);
    let v1 = veh(&mut heap, &mut store, "Red", vec![renault.1]);
    let v2 = veh(&mut heap, &mut store, "Red", vec![renault.1]);

    let bus = |heap: &mut ObjectStore, store: &mut SimStore, man: Vec<Oid>| {
        let oid = heap.fresh_oid(classes.bus);
        let mut f = veh_fields("Yellow", man);
        f.push(("seats", Value::Int(50).into()));
        let o = Object::new(&schema, oid, f).unwrap();
        heap.insert(store, o).unwrap();
        oid
    };
    let bus0 = bus(&mut heap, &mut store, vec![fiat.1]);
    let bus1 = bus(&mut heap, &mut store, vec![daf.1]);

    let truck0 = {
        let oid = heap.fresh_oid(classes.truck);
        let mut f = veh_fields("Grey", vec![daf.1, renault.1]);
        f.push(("capacity", Value::Int(9).into()));
        f.push(("height", Value::Int(4).into()));
        let o = Object::new(&schema, oid, f).unwrap();
        heap.insert(&mut store, o).unwrap();
        oid
    };

    for owned in [v0, v1, bus0, truck0, bus1, v2] {
        let oid = heap.fresh_oid(classes.person);
        let o = Object::new(
            &schema,
            oid,
            vec![
                ("name", Value::from(format!("p{}", oid.seq)).into()),
                ("age", Value::Int(30).into()),
                ("owns", Value::Ref(owned).into()),
            ],
        )
        .unwrap();
        heap.insert(&mut store, o).unwrap();
    }

    let path_pe = paper_path_pe(&schema);
    let path_pexa = paper_path_pexa(&schema);
    TestDb {
        schema,
        classes,
        store,
        heap,
        path_pe,
        path_pexa,
        companies: vec![fiat, renault, daf],
    }
}

impl TestDb {
    /// MX or MIX on subpath `sub` of `path_pe`, bulk-loaded from the heap.
    pub fn multi_index(&mut self, sub: SubpathId, grouping: Grouping) -> MultiIndex {
        MultiIndex::build(
            &self.schema,
            &self.path_pe,
            sub,
            grouping,
            &mut self.store,
            &self.heap,
        )
    }

    /// Oid of the company with the given name.
    pub fn company_named(&self, name: &str) -> Oid {
        self.companies
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, o)| o)
            .expect("known company")
    }

    /// Independent ground truth: objects of `target` (plus subclasses if
    /// requested) from which `value` is reachable through the given path's
    /// remaining attributes. Pure in-memory navigation — no index, no page
    /// accounting — so it can't share bugs with the structures under test.
    pub fn oracle(
        &self,
        path: &Path,
        target: oic_schema::ClassId,
        with_subclasses: bool,
        value: &Value,
    ) -> Vec<Oid> {
        let positions = path.scope_by_position(&self.schema);
        let target_pos = positions
            .iter()
            .position(|h| h.contains(&target))
            .expect("target in scope");
        let classes: Vec<oic_schema::ClassId> = if with_subclasses {
            self.schema
                .hierarchy(target)
                .into_iter()
                .filter(|c| positions[target_pos].contains(c))
                .collect()
        } else {
            vec![target]
        };
        let mut out = Vec::new();
        for class in classes {
            for oid in self.heap.oids_of(class) {
                if self.reaches(path, target_pos, oid, value) {
                    out.push(oid);
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn reaches(&self, path: &Path, pos: usize, oid: Oid, value: &Value) -> bool {
        // Dangling forward references (the referent was deleted) reach
        // nothing — deletion does not rewrite referencing objects.
        let Some(obj) = self.heap.peek(oid) else {
            return false;
        };
        let attr = &path.steps()[pos].attr_name;
        let vals = obj.values_of(attr);
        if pos + 1 == path.len() {
            return vals.contains(&value);
        }
        vals.iter().any(|v| match v {
            Value::Ref(child) => self.reaches(path, pos + 1, *child, value),
            _ => false,
        })
    }

    /// Persons owning a vehicle manufactured by Fiat (via `path_pe`).
    pub fn expect_fiat_person_owners(&self) -> Vec<Oid> {
        self.oracle(
            &self.path_pe,
            self.classes.person,
            false,
            &Value::from("Fiat"),
        )
    }

    /// Buses manufactured by Fiat.
    pub fn expect_fiat_buses(&self) -> Vec<Oid> {
        // Restrict pe to its Vehicle suffix: positions 2..3.
        let sub = self
            .path_pe
            .subpath(&self.schema, oic_schema::SubpathId { start: 2, end: 3 })
            .unwrap();
        self.oracle(&sub, self.classes.bus, false, &Value::from("Fiat"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_answers_known_queries() {
        let db = figure2_db(1024);
        // Fiat makes V0 (owned by P0) and Bus0 (owned by P2).
        let owners = db.expect_fiat_person_owners();
        assert_eq!(owners.len(), 2);
        // Renault reaches V1, V2 and Truck0 → persons P1, P3, P5.
        let renault = db.oracle(
            &db.path_pe,
            db.classes.person,
            false,
            &Value::from("Renault"),
        );
        assert_eq!(renault.len(), 3);
        // Division query through pexa: "sales" reachable via Fiat+Renault.
        let sales = db.oracle(
            &db.path_pexa,
            db.classes.person,
            false,
            &Value::from("sales"),
        );
        assert_eq!(sales.len(), 5, "P0, P1, P2, P3, P5");
        // Vehicle hierarchy query with subclasses.
        let daf_vehicles = db.oracle(
            &db.path_pe
                .subpath(&db.schema, oic_schema::SubpathId { start: 2, end: 3 })
                .unwrap(),
            db.classes.vehicle,
            true,
            &Value::from("Daf"),
        );
        assert_eq!(daf_vehicles.len(), 2, "Bus1 and Truck0");
    }
}
