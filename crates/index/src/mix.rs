//! MIX — the multi-inherited index (Section 2.2): an inherited index per
//! path position.

use crate::traits::normalize;
use crate::{InheritedIndex, PathIndex, Segment};
use oic_schema::{ClassId, Path, Schema, SubpathId};
use oic_storage::{Object, ObjectStore, Oid, SimStore, Value};

/// The multi-inherited index: one [`InheritedIndex`] per segment position,
/// each covering the whole inheritance hierarchy at that position (“if a
/// class has an inheritance hierarchy then an inherited index is allocated
/// on the class otherwise a simple index”, Section 3.1 — a degenerate IIX
/// *is* a SIX).
pub struct MultiInheritedIndex {
    schema_boundary: Option<Vec<ClassId>>,
    segment: Segment,
    indexes: Vec<InheritedIndex>,
}

impl MultiInheritedIndex {
    /// Creates an empty MIX on subpath `sub` of `path`.
    pub fn new(schema: &Schema, path: &Path, sub: SubpathId, store: &mut SimStore) -> Self {
        let segment = Segment::new(schema, path, sub);
        let indexes = (0..segment.len())
            .map(|i| {
                let h = segment.hierarchy(i).to_vec();
                InheritedIndex::new(store, h[0], h, segment.attr_name(i))
            })
            .collect();
        let boundary = match segment.step(segment.len() - 1).attr.kind {
            oic_schema::AttrKind::Reference(domain) => Some(schema.hierarchy(domain)),
            oic_schema::AttrKind::Atomic(_) => None,
        };
        MultiInheritedIndex {
            schema_boundary: boundary,
            segment,
            indexes,
        }
    }

    /// Bulk-loads from the heap.
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
}

impl PathIndex for MultiInheritedIndex {
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
        let mut keys: Vec<Value> = keys.to_vec();
        let mut local = self.segment.len() - 1;
        while local > target_local {
            let mut oids = Vec::new();
            for key in &keys {
                self.indexes[local].lookup_all(store, key, &mut oids);
            }
            keys = normalize(oids).into_iter().map(Value::Ref).collect();
            if keys.is_empty() {
                return Vec::new();
            }
            local -= 1;
        }
        let idx = &self.indexes[target_local];
        let targets = self
            .segment
            .target_classes(target_local, target, with_subclasses);
        let whole = targets.len() == self.segment.hierarchy(target_local).len();
        let mut out = Vec::new();
        for key in &keys {
            if whole {
                // Whole-hierarchy retrieval reads the full record.
                idx.lookup_all(store, key, &mut out);
            } else {
                // Class-tagged oids let record sections be read partially.
                for &c in &targets {
                    idx.lookup_class(store, key, c, &mut out);
                }
            }
        }
        normalize(out)
    }

    fn on_insert(&mut self, store: &mut SimStore, obj: &Object) {
        if let Some(local) = self.segment.local_of(obj.class()) {
            self.indexes[local].insert_object(store, obj);
        }
    }

    fn on_delete(&mut self, store: &mut SimStore, obj: &Object) {
        if let Some(local) = self.segment.local_of(obj.class()) {
            self.indexes[local].delete_object(store, obj);
            if local > 0 {
                // One inherited index precedes this position (CML term of
                // `CMMIX`): drop the record keyed by the dead oid.
                self.indexes[local - 1].remove_key(store, &Value::Ref(obj.oid));
            }
        } else if let Some(boundary) = &self.schema_boundary {
            if boundary.contains(&obj.class()) {
                let last = self.indexes.len() - 1;
                self.indexes[last].remove_key(store, &Value::Ref(obj.oid));
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "MIX[start={} len={}]",
            self.segment.start,
            self.segment.len()
        )
    }

    fn total_pages(&self) -> u64 {
        self.indexes
            .iter()
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
    fn mix_agrees_with_oracle_on_pe() {
        let mut db = testutil::figure2_db(1024);
        let sub = SubpathId { start: 1, end: 3 };
        let mix = MultiInheritedIndex::build(&db.schema, &db.path_pe, sub, &mut db.store, &db.heap);
        for name in ["Fiat", "Renault", "Daf", "Nobody"] {
            let got = mix.lookup(&db.store, &[Value::from(name)], db.classes.person, false);
            let want = db.oracle(&db.path_pe, db.classes.person, false, &Value::from(name));
            assert_eq!(got, want, "query {name}");
        }
    }

    #[test]
    fn mix_hierarchy_targets() {
        let mut db = testutil::figure2_db(1024);
        let sub = SubpathId { start: 2, end: 3 };
        let mix = MultiInheritedIndex::build(&db.schema, &db.path_pe, sub, &mut db.store, &db.heap);
        let sub_path = db.path_pe.subpath(&db.schema, sub).unwrap();
        for name in ["Fiat", "Daf"] {
            for (target, with_sub) in [
                (db.classes.vehicle, true),
                (db.classes.vehicle, false),
                (db.classes.bus, false),
                (db.classes.truck, false),
            ] {
                let got = mix.lookup(&db.store, &[Value::from(name)], target, with_sub);
                let want = db.oracle(&sub_path, target, with_sub, &Value::from(name));
                assert_eq!(got, want, "query {name} target {target:?}");
            }
        }
    }

    #[test]
    fn mix_maintenance_roundtrip() {
        let mut db = testutil::figure2_db(1024);
        let sub = SubpathId { start: 1, end: 3 };
        let mut mix =
            MultiInheritedIndex::build(&db.schema, &db.path_pe, sub, &mut db.store, &db.heap);
        let daf = Value::from("Daf");
        let before = mix.lookup(
            &db.store,
            std::slice::from_ref(&daf),
            db.classes.person,
            false,
        );
        assert!(!before.is_empty());
        let victim = before[0];
        let obj = db.heap.peek(victim).unwrap().clone();
        mix.on_delete(&mut db.store, &obj);
        let after = mix.lookup(
            &db.store,
            std::slice::from_ref(&daf),
            db.classes.person,
            false,
        );
        assert!(!after.contains(&victim));
        mix.on_insert(&mut db.store, &obj);
        assert_eq!(
            mix.lookup(&db.store, &[daf], db.classes.person, false),
            before
        );
    }

    #[test]
    fn mix_boundary_delete() {
        let mut db = testutil::figure2_db(1024);
        let sub = SubpathId { start: 1, end: 2 };
        let mut mix =
            MultiInheritedIndex::build(&db.schema, &db.path_pe, sub, &mut db.store, &db.heap);
        let daf = db.company_named("Daf");
        assert!(!mix
            .lookup(&db.store, &[Value::Ref(daf)], db.classes.person, false)
            .is_empty());
        let obj = db.heap.peek(daf).unwrap().clone();
        mix.on_delete(&mut db.store, &obj);
        assert!(mix
            .lookup(&db.store, &[Value::Ref(daf)], db.classes.person, false)
            .is_empty());
    }
}
