//! MX — the multi-index (Section 2.2): a simple index on each class in the
//! scope of a path.

use crate::traits::normalize;
use crate::{PathIndex, Segment, SimpleIndex};
use oic_schema::{ClassId, Path, Schema, SubpathId};
use oic_storage::{Object, ObjectStore, Oid, SimStore, Value};

/// The multi-index: per position of the segment, one [`SimpleIndex`] per
/// class of the inheritance hierarchy at that position, on the path
/// attribute of the position. Queries walk backward from the ending
/// attribute, feeding each position's qualifying oids into the previous
/// position's indexes.
pub struct MultiIndex {
    schema_boundary: Option<Vec<ClassId>>,
    segment: Segment,
    /// `indexes[local][j]` — index of hierarchy member `j` at position
    /// `local`.
    indexes: Vec<Vec<SimpleIndex>>,
}

impl MultiIndex {
    /// Creates an empty MX on subpath `sub` of `path`.
    pub fn new(schema: &Schema, path: &Path, sub: SubpathId, store: &mut SimStore) -> Self {
        let segment = Segment::new(schema, path, sub);
        let mut indexes = Vec::with_capacity(segment.len());
        for i in 0..segment.len() {
            let attr = segment.attr_name(i).to_string();
            indexes.push(
                segment
                    .hierarchy(i)
                    .iter()
                    .map(|&c| SimpleIndex::new(store, c, attr.clone()))
                    .collect(),
            );
        }
        let boundary = match segment.step(segment.len() - 1).attr.kind {
            oic_schema::AttrKind::Reference(domain) => Some(schema.hierarchy(domain)),
            oic_schema::AttrKind::Atomic(_) => None,
        };
        MultiIndex {
            schema_boundary: boundary,
            segment,
            indexes,
        }
    }

    /// Bulk-loads the index from every scope object already in the heap.
    pub fn build(
        schema: &Schema,
        path: &Path,
        sub: SubpathId,
        store: &mut SimStore,
        heap: &ObjectStore,
    ) -> Self {
        let mut idx = Self::new(schema, path, sub, store);
        for i in 0..idx.segment.len() {
            for &class in idx.segment.hierarchy(i).to_vec().iter() {
                for oid in heap.oids_of(class) {
                    idx.on_insert(store, heap.peek(oid).expect("listed oid"));
                }
            }
        }
        idx
    }

    fn lookup_position(&self, store: &SimStore, local: usize, keys: &[Value]) -> Vec<Oid> {
        let mut out = Vec::new();
        for six in &self.indexes[local] {
            for key in keys {
                six.lookup(store, key, &mut out);
            }
        }
        normalize(out)
    }
}

impl PathIndex for MultiIndex {
    fn segment(&self) -> &Segment {
        &self.segment
    }

    fn lookup(
        &self,
        store: &SimStore,
        keys: &[Value],
        target: ClassId,
        with_subclasses: bool,
    ) -> Vec<Oid> {
        let Some(target_local) = self.segment.local_of(target) else {
            return Vec::new();
        };
        // Walk from the ending attribute down to the position above the
        // target, retrieving whole hierarchies.
        let mut keys: Vec<Value> = keys.to_vec();
        let mut local = self.segment.len() - 1;
        while local > target_local {
            let oids = self.lookup_position(store, local, &keys);
            keys = oids.into_iter().map(Value::Ref).collect();
            if keys.is_empty() {
                return Vec::new();
            }
            local -= 1;
        }
        // At the target position, probe only the requested class(es).
        let targets = self
            .segment
            .target_classes(target_local, target, with_subclasses);
        let mut out = Vec::new();
        for six in &self.indexes[target_local] {
            if !targets.contains(&six.class()) {
                continue;
            }
            for key in &keys {
                six.lookup(store, key, &mut out);
            }
        }
        normalize(out)
    }

    fn on_insert(&mut self, store: &mut SimStore, obj: &Object) {
        if let Some(local) = self.segment.local_of(obj.class()) {
            if let Some(six) = self.indexes[local]
                .iter_mut()
                .find(|s| s.class() == obj.class())
            {
                six.insert_object(store, obj);
            }
        }
    }

    fn on_delete(&mut self, store: &mut SimStore, obj: &Object) {
        if let Some(local) = self.segment.local_of(obj.class()) {
            if let Some(six) = self.indexes[local]
                .iter_mut()
                .find(|s| s.class() == obj.class())
            {
                six.delete_object(store, obj);
            }
            // The indexes at the previous position are keyed by this oid:
            // delete the record from each (Section 3.1 MX deletion).
            if local > 0 {
                let key = Value::Ref(obj.oid);
                for six in &mut self.indexes[local - 1] {
                    six.remove_key(store, &key);
                }
            }
        } else if let Some(boundary) = &self.schema_boundary {
            // CMD: an object of the ending attribute's domain died; its oid
            // keys records in the last position's indexes.
            if boundary.contains(&obj.class()) {
                let key = Value::Ref(obj.oid);
                let last = self.indexes.len() - 1;
                for six in &mut self.indexes[last] {
                    six.remove_key(store, &key);
                }
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "MX[start={} len={}]",
            self.segment.start,
            self.segment.len()
        )
    }

    fn total_pages(&self) -> u64 {
        self.indexes
            .iter()
            .flatten()
            .map(|s| {
                let p = s.tree().level_profile();
                p.levels.iter().map(|&(_, pk)| pk).sum::<u64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn mx_answers_paper_query() {
        // “Retrieve the persons who own a bus manufactured by the company
        // Fiat” over the Figure 2-style instances.
        let mut db = testutil::figure2_db(1024);
        let sub = SubpathId { start: 1, end: 3 };
        let mx = MultiIndex::build(&db.schema, &db.path_pe, sub, &mut db.store, &db.heap);
        // All persons owning a vehicle made by Fiat.
        let fiat = Value::from("Fiat");
        let persons = mx.lookup(
            &db.store,
            std::slice::from_ref(&fiat),
            db.classes.person,
            false,
        );
        assert_eq!(persons, db.expect_fiat_person_owners());
        // Restricting to buses happens at the vehicle position: query buses.
        let buses = {
            // target the Vehicle position including subclasses
            mx.lookup(&db.store, &[fiat], db.classes.bus, false)
        };
        assert_eq!(buses, db.expect_fiat_buses());
    }

    #[test]
    fn mx_maintenance_insert_delete() {
        let mut db = testutil::figure2_db(1024);
        let sub = SubpathId { start: 1, end: 3 };
        let mut mx = MultiIndex::build(&db.schema, &db.path_pe, sub, &mut db.store, &db.heap);
        let renault = Value::from("Renault");
        let before = mx.lookup(
            &db.store,
            std::slice::from_ref(&renault),
            db.classes.person,
            false,
        );
        // Delete one of the qualifying persons.
        let victim = before[0];
        let obj = db.heap.peek(victim).unwrap().clone();
        mx.on_delete(&mut db.store, &obj);
        let after = mx.lookup(
            &db.store,
            std::slice::from_ref(&renault),
            db.classes.person,
            false,
        );
        assert_eq!(after.len(), before.len() - 1);
        assert!(!after.contains(&victim));
        // Re-insert restores the result.
        mx.on_insert(&mut db.store, &obj);
        let restored = mx.lookup(&db.store, &[renault], db.classes.person, false);
        assert_eq!(restored, before);
    }

    #[test]
    fn boundary_delete_removes_oid_records() {
        let mut db = testutil::figure2_db(1024);
        // Index only Per.owns.man (positions 1..2); Company is the boundary.
        let sub = SubpathId { start: 1, end: 2 };
        let mut mx = MultiIndex::build(&db.schema, &db.path_pe, sub, &mut db.store, &db.heap);
        let comp = db.company_named("Fiat");
        let hits = mx.lookup(&db.store, &[Value::Ref(comp)], db.classes.person, false);
        assert!(!hits.is_empty());
        let obj = db.heap.peek(comp).unwrap().clone();
        mx.on_delete(&mut db.store, &obj);
        let hits = mx.lookup(&db.store, &[Value::Ref(comp)], db.classes.person, false);
        assert!(hits.is_empty(), "record keyed by the dead oid is gone");
    }

    #[test]
    fn lookup_with_subclasses_unions_hierarchy() {
        let mut db = testutil::figure2_db(1024);
        let sub = SubpathId { start: 2, end: 3 };
        let mx = MultiIndex::build(&db.schema, &db.path_pe, sub, &mut db.store, &db.heap);
        let fiat = Value::from("Fiat");
        let all = mx.lookup(
            &db.store,
            std::slice::from_ref(&fiat),
            db.classes.vehicle,
            true,
        );
        let root_only = mx.lookup(
            &db.store,
            std::slice::from_ref(&fiat),
            db.classes.vehicle,
            false,
        );
        let buses = mx.lookup(&db.store, &[fiat], db.classes.bus, false);
        assert!(all.len() >= root_only.len());
        assert!(all.len() >= buses.len());
        for b in &buses {
            assert!(all.contains(b));
        }
    }
}
