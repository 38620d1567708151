//! MX and MIX — the multi-index and the multi-inherited index (Section
//! 2.2): per position of a path, inherited indexes on the position's
//! attribute. MX allocates one per class of the position's inheritance
//! hierarchy (each a SIX), MIX one per hierarchy (“if a class has an
//! inheritance hierarchy then an inherited index is allocated on the class
//! otherwise a simple index”, Section 3.1 — a degenerate IIX *is* a SIX).
//! How a hierarchy is cut into B-trees is the only difference between them.

use crate::iix::InheritedIndex;
use crate::traits::normalize;
use crate::{PathIndex, Segment};
use oic_schema::{ClassId, Path, Schema, SubpathId};
use oic_storage::{Object, ObjectStore, Oid, SimStore, Value};

/// How a [`MultiIndex`] cuts each position's inheritance hierarchy into
/// B-trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// MX: one simple index per class.
    PerClass,
    /// MIX: one inherited index per hierarchy.
    PerHierarchy,
}

/// The multi-index (MX) or multi-inherited index (MIX), by its
/// [`Grouping`]. Queries walk backward from the ending attribute, feeding
/// each position's qualifying oids into the previous position's indexes.
pub struct MultiIndex {
    segment: Segment,
    /// `groups[local]` — the indexes at position `local`, covering its
    /// hierarchy in order.
    groups: Vec<Vec<InheritedIndex>>,
}

impl MultiIndex {
    /// Creates an empty MX or MIX on subpath `sub` of `path`.
    pub fn new(
        schema: &Schema,
        path: &Path,
        sub: SubpathId,
        grouping: Grouping,
        store: &mut SimStore,
    ) -> Self {
        let segment = Segment::new(schema, path, sub);
        let groups = (0..segment.len())
            .map(|i| {
                let hierarchy = segment.hierarchy(i);
                let size = match grouping {
                    Grouping::PerClass => 1,
                    Grouping::PerHierarchy => hierarchy.len(),
                };
                hierarchy
                    .chunks(size)
                    .map(|classes| InheritedIndex::new(store, classes, segment.attr_name(i)))
                    .collect()
            })
            .collect();
        MultiIndex { segment, groups }
    }

    /// Bulk-loads the index from every scope object already in the heap.
    pub fn build(
        schema: &Schema,
        path: &Path,
        sub: SubpathId,
        grouping: Grouping,
        store: &mut SimStore,
        heap: &ObjectStore,
    ) -> Self {
        let mut idx = Self::new(schema, path, sub, grouping, store);
        for i in 0..idx.segment.len() {
            for &class in idx.segment.hierarchy(i).to_vec().iter() {
                for oid in heap.oids_of(class) {
                    idx.on_insert(store, heap.peek(oid).expect("listed oid"));
                }
            }
        }
        idx
    }

    /// The index holding `class`'s objects, if `class` is in scope.
    fn index_of(&mut self, local: usize, class: ClassId) -> Option<&mut InheritedIndex> {
        self.groups[local].iter_mut().find(|idx| idx.covers(class))
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
        for local in (target_local + 1..self.segment.len()).rev() {
            let mut oids = Vec::new();
            for idx in &self.groups[local] {
                for key in &keys {
                    idx.lookup(store, key, &mut oids);
                }
            }
            keys = normalize(oids).into_iter().map(Value::Ref).collect();
            if keys.is_empty() {
                return Vec::new();
            }
        }
        // At the target position, an index the targets cover is read whole;
        // otherwise class-tagged oids let only the targets' sections of a
        // record be read (none at all when no target is covered).
        let targets = self
            .segment
            .target_classes(target_local, target, with_subclasses);
        let mut out = Vec::new();
        for idx in &self.groups[target_local] {
            let whole = idx.covered_by(&targets);
            for key in &keys {
                if whole {
                    idx.lookup(store, key, &mut out);
                } else {
                    for &c in targets.iter().filter(|&&c| idx.covers(c)) {
                        idx.lookup_class(store, key, c, &mut out);
                    }
                }
            }
        }
        normalize(out)
    }

    fn on_insert(&mut self, store: &mut SimStore, obj: &Object) {
        if let Some(local) = self.segment.local_of(obj.class()) {
            if let Some(idx) = self.index_of(local, obj.class()) {
                idx.insert_object(store, obj);
            }
        }
    }

    fn on_delete(&mut self, store: &mut SimStore, obj: &Object) {
        let keyed = match self.segment.local_of(obj.class()) {
            Some(local) => {
                if let Some(idx) = self.index_of(local, obj.class()) {
                    idx.delete_object(store, obj);
                }
                // The indexes at the previous position are keyed by this
                // oid (Section 3.1 MX deletion, the CML term of `CMMIX`).
                local.checked_sub(1)
            }
            // CMD: an object of the ending attribute's domain died; its oid
            // keys records in the last position's indexes.
            None if self.segment.is_boundary(obj.class()) => Some(self.groups.len() - 1),
            None => None,
        };
        if let Some(local) = keyed {
            let key = Value::Ref(obj.oid);
            for idx in &mut self.groups[local] {
                idx.remove_key(store, &key);
            }
        }
    }

    fn total_pages(&self) -> u64 {
        self.groups
            .iter()
            .flatten()
            .map(InheritedIndex::pages)
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
        let mx = db.multi_index(sub, Grouping::PerClass);
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
        let mut mx = db.multi_index(sub, Grouping::PerClass);
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
        let mut mx = db.multi_index(sub, Grouping::PerClass);
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
        let mx = db.multi_index(sub, Grouping::PerClass);
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

    #[test]
    fn mix_agrees_with_oracle_on_pe() {
        let mut db = testutil::figure2_db(1024);
        let sub = SubpathId { start: 1, end: 3 };
        let mix = db.multi_index(sub, Grouping::PerHierarchy);
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
        let mix = db.multi_index(sub, Grouping::PerHierarchy);
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
        let mut mix = db.multi_index(sub, Grouping::PerHierarchy);
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
        let mut mix = db.multi_index(sub, Grouping::PerHierarchy);
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
