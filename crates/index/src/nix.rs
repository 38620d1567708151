//! NIX — the nested inherited index (Section 2.2, Figures 3–5): a primary
//! index inverting the ending attribute over the *whole scope*, plus an
//! auxiliary index accelerating maintenance.
//!
//! * **Primary** record (Figure 3): for each value `v` of the ending
//!   attribute, per class the `(oid, numchild)` pairs of objects reaching
//!   `v`; `numchild` counts the children through which the object reaches
//!   `v`, and the object's entry dies when it drops to zero.
//! * **Auxiliary** 3-tuples (Figure 4): for each non-root object, a pointer
//!   array to the primary records containing it and the list of its
//!   aggregation parents.
//!
//! Insertion and deletion follow the numbered algorithms of Section 3.1:
//! deletion updates the children's 3-tuples, edits the `nin̄` primary
//! records, and propagates `numchild` decrements up the parent chains
//! (steps 3a–3c); insertion mirrors it without the cascade.

use crate::traits::{entry_to_oid, normalize, selecting, tree_pages};
use crate::{PathIndex, Segment};
use oic_btree::BTreeIndex;
use oic_schema::{ClassId, Path, Schema, SubpathId};
use oic_storage::{encode_key, Object, ObjectStore, Oid, SimStore, Value};

const TAG_POINTER: u8 = 1;
const TAG_PARENT: u8 = 2;

fn prim_entry(oid: Oid, numchild: u32) -> Vec<u8> {
    let mut e = Vec::with_capacity(12);
    e.extend_from_slice(&oid.to_bytes());
    e.extend_from_slice(&numchild.to_be_bytes());
    e
}

fn prim_numchild(e: &[u8]) -> u32 {
    u32::from_be_bytes(e[8..12].try_into().expect("12-byte primary entry"))
}

fn aux_key(oid: Oid) -> Vec<u8> {
    encode_key(&Value::Ref(oid))
}

fn ptr_entry(primary_key: &[u8]) -> Vec<u8> {
    let mut e = Vec::with_capacity(1 + primary_key.len());
    e.push(TAG_POINTER);
    e.extend_from_slice(primary_key);
    e
}

fn parent_entry(oid: Oid) -> Vec<u8> {
    let mut e = Vec::with_capacity(9);
    e.push(TAG_PARENT);
    e.extend_from_slice(&oid.to_bytes());
    e
}

fn is_ptr(e: &[u8]) -> bool {
    e.first() == Some(&TAG_POINTER)
}

fn is_parent(e: &[u8]) -> bool {
    e.first() == Some(&TAG_PARENT)
}

fn parent_oid(e: &[u8]) -> Oid {
    let mut b = [0u8; 8];
    b.copy_from_slice(&e[1..9]);
    Oid::from_bytes(b)
}

/// The nested inherited index on one segment.
pub struct NestedInheritedIndex {
    segment: Segment,
    primary: BTreeIndex,
    aux: BTreeIndex,
}

impl NestedInheritedIndex {
    /// Creates an empty NIX on subpath `sub` of `path`.
    pub fn new(schema: &Schema, path: &Path, sub: SubpathId, store: &mut SimStore) -> Self {
        NestedInheritedIndex {
            segment: Segment::new(schema, path, sub),
            primary: BTreeIndex::new(store),
            aux: BTreeIndex::new(store),
        }
    }

    /// Bulk-loads from the heap, position by position from the ending
    /// attribute backwards (children must be indexed before parents so that
    /// pointer arrays are complete — the forward-reference discipline).
    pub fn build(
        schema: &Schema,
        path: &Path,
        sub: SubpathId,
        store: &mut SimStore,
        heap: &ObjectStore,
    ) -> Self {
        let mut idx = Self::new(schema, path, sub, store);
        for i in (0..idx.segment.len()).rev() {
            for &class in idx.segment.hierarchy(i).to_vec().iter() {
                for oid in heap.oids_of(class) {
                    idx.on_insert(store, heap.peek(oid).expect("listed oid"));
                }
            }
        }
        idx
    }

    /// The primary B-tree (stats access).
    pub fn primary_tree(&self) -> &BTreeIndex {
        &self.primary
    }

    /// The auxiliary B-tree (stats access).
    pub fn auxiliary_tree(&self) -> &BTreeIndex {
        &self.aux
    }

    /// Primary keys the object contributes to, with contribution counts:
    /// for the last position these are the attribute values themselves; for
    /// earlier positions, the union of the children's pointer arrays.
    fn contribution(&self, store: &SimStore, obj: &Object, local: usize) -> Vec<(Vec<u8>, u32)> {
        fn bump(counts: &mut Vec<(Vec<u8>, u32)>, key: impl AsRef<[u8]> + Into<Vec<u8>>) {
            if let Some(slot) = counts.iter_mut().find(|(k, _)| k == key.as_ref()) {
                slot.1 += 1;
            } else {
                counts.push((key.into(), 1));
            }
        }
        let attr = self.segment.attr_name(local);
        let mut counts = Vec::new();
        if local + 1 < self.segment.len() {
            for child in obj.refs_of(attr) {
                let pointers = selecting(is_ptr, |p| bump(&mut counts, &p[1..]));
                self.aux.visit_matching(store, &aux_key(child), pointers);
            }
        } else {
            for v in obj.values_of(attr) {
                bump(&mut counts, encode_key(v));
            }
        }
        counts
    }

    /// Removes `parent`'s reachability of `key` through one child: the
    /// steps 3a–3c cascade. Decrements `numchild`; on zero, removes the
    /// entry, drops the pointer from the parent's 3-tuple and recurses to
    /// its parents.
    fn cascade_decrement(&mut self, store: &mut SimStore, key: &[u8], parent: Oid) {
        let bytes = parent.to_bytes();
        let mut numchild = None;
        self.primary.visit_matching(
            store,
            key,
            selecting(
                |e| e[..8] == bytes,
                |e| numchild = numchild.or(Some(prim_numchild(e))),
            ),
        );
        let Some(nc) = numchild else {
            return; // parent reaches `key` through no child anymore
        };
        if nc > 1 {
            self.primary
                .replace_entry(store, key, |e| e[..8] == bytes, prim_entry(parent, nc - 1));
            return;
        }
        self.primary.remove_entries(store, key, |e| e[..8] == bytes);
        let local = self
            .segment
            .local_of(parent.class)
            .expect("cascade stays inside the scope");
        if local == 0 {
            return; // root-position objects have no 3-tuples
        }
        self.aux
            .remove_entries(store, &aux_key(parent), |e| is_ptr(e) && &e[1..] == key);
        let mut grandparents = Vec::new();
        self.aux.visit_matching(
            store,
            &aux_key(parent),
            selecting(is_parent, |e| grandparents.push(parent_oid(e))),
        );
        for g in grandparents {
            self.cascade_decrement(store, key, g);
        }
    }
}

impl PathIndex for NestedInheritedIndex {
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
        let Some(local) = self.segment.local_of(target) else {
            return Vec::new();
        };
        let targets = self.segment.target_classes(local, target, with_subclasses);
        let mut out = Vec::new();
        for key in keys {
            // One primary lookup answers the query; only the pages holding
            // the target classes' sections are read.
            self.primary.visit_matching(
                store,
                &encode_key(key),
                selecting(
                    |e| targets.contains(&entry_to_oid(e).class),
                    |e| out.push(entry_to_oid(e)),
                ),
            );
        }
        normalize(out)
    }

    fn on_insert(&mut self, store: &mut SimStore, obj: &Object) {
        let Some(local) = self.segment.local_of(obj.class()) else {
            return;
        };
        // Step 2: the new object becomes a parent in its children's
        // 3-tuples.
        if local + 1 < self.segment.len() {
            for child in obj.refs_of(self.segment.attr_name(local)) {
                self.aux
                    .insert_entry(store, &aux_key(child), parent_entry(obj.oid));
            }
        }
        // Step 3: enter the nin̄ primary records.
        let counts = self.contribution(store, obj, local);
        for (key, cnt) in &counts {
            self.primary
                .insert_entry(store, key, prim_entry(obj.oid, *cnt));
        }
        // Step 4: insert the object's own 3-tuple (non-root positions).
        if local > 0 {
            for (key, _) in &counts {
                self.aux
                    .insert_entry(store, &aux_key(obj.oid), ptr_entry(key));
            }
        }
    }

    fn on_delete(&mut self, store: &mut SimStore, obj: &Object) {
        if let Some(local) = self.segment.local_of(obj.class()) {
            // Step 2: remove the object from its children's parent lists.
            if local + 1 < self.segment.len() {
                let pe = parent_entry(obj.oid);
                for child in obj.refs_of(self.segment.attr_name(local)) {
                    self.aux.remove_entries(store, &aux_key(child), |e| e == pe);
                }
            }
            // Own 3-tuple: pointer array + parents, then removal.
            let (mut pointers, mut parents) = (Vec::new(), Vec::new());
            if local > 0 {
                self.aux.visit(store, &aux_key(obj.oid), |e| {
                    if is_ptr(e) {
                        pointers.push(e[1..].to_vec());
                    } else if is_parent(e) {
                        parents.push(parent_oid(e));
                    }
                });
                self.aux.remove_record(store, &aux_key(obj.oid));
            } else {
                // Root-position objects have no 3-tuple: derive the keys
                // they occur under from their contribution.
                let counts = self.contribution(store, obj, local);
                pointers.extend(counts.into_iter().map(|(k, _)| k));
            }
            // Step 3: edit each primary record and cascade to parents.
            let bytes = obj.oid.to_bytes();
            for key in &pointers {
                self.primary.remove_entries(store, key, |e| e[..8] == bytes);
                for &p in &parents {
                    self.cascade_decrement(store, key, p);
                }
            }
        } else if self.segment.is_boundary(obj.class()) {
            // CMD: a domain object of the ending attribute died — the
            // primary record keyed by its oid disappears, and every pointer
            // into it is dropped from the auxiliary index (delpoint).
            let key = encode_key(&Value::Ref(obj.oid));
            let mut members = Vec::new();
            self.primary
                .visit(store, &key, |e| members.push(entry_to_oid(e)));
            self.primary.remove_record(store, &key);
            for o in members {
                if self.segment.local_of(o.class).unwrap_or(0) > 0 {
                    self.aux
                        .remove_entries(store, &aux_key(o), |en| is_ptr(en) && en[1..] == key[..]);
                }
            }
        }
    }

    fn total_pages(&self) -> u64 {
        tree_pages(&self.primary) + tree_pages(&self.aux)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn nix_agrees_with_oracle_on_pexa() {
        let mut db = testutil::figure2_db(1024);
        let sub = SubpathId { start: 1, end: 4 };
        let nix =
            NestedInheritedIndex::build(&db.schema, &db.path_pexa, sub, &mut db.store, &db.heap);
        for name in ["sales", "ops", "rnd", "none"] {
            for (target, with_sub) in [
                (db.classes.person, false),
                (db.classes.vehicle, true),
                (db.classes.vehicle, false),
                (db.classes.bus, false),
                (db.classes.company, false),
                (db.classes.division, false),
            ] {
                let got = nix.lookup(&db.store, &[Value::from(name)], target, with_sub);
                let want = db.oracle(&db.path_pexa, target, with_sub, &Value::from(name));
                assert_eq!(got, want, "query {name} target {target:?}");
            }
        }
    }

    #[test]
    fn nix_figure5_renault_record() {
        // Figure 5 shape: the 'Renault' primary record holds the company,
        // its vehicles and their owners in one record.
        let mut db = testutil::figure2_db(1024);
        let sub = SubpathId { start: 1, end: 3 };
        let nix =
            NestedInheritedIndex::build(&db.schema, &db.path_pe, sub, &mut db.store, &db.heap);
        let mut classes = Vec::new();
        let found =
            nix.primary_tree()
                .visit(&db.store, &encode_key(&Value::from("Renault")), |e| {
                    classes.push(entry_to_oid(e).class)
                });
        assert!(found, "record exists");
        assert!(classes.contains(&db.classes.person));
        assert!(classes.contains(&db.classes.vehicle));
        assert!(classes.contains(&db.classes.company));
        assert!(classes.contains(&db.classes.truck), "Truck0 lists Renault");
    }

    #[test]
    fn nix_deletion_cascades_numchild() {
        let mut db = testutil::figure2_db(1024);
        let sub = SubpathId { start: 1, end: 3 };
        let mut nix =
            NestedInheritedIndex::build(&db.schema, &db.path_pe, sub, &mut db.store, &db.heap);
        // P3 owns Truck0 (man = {Daf, Renault}); deleting Truck0 must remove
        // P3 from both 'Daf' and 'Renault' records (its only route), while
        // P1/P5 stay under 'Renault' via V1/V2.
        let p3 = db.oracle(&db.path_pe, db.classes.person, false, &Value::from("Daf"));
        assert_eq!(p3.len(), 2, "P3 via Truck0 and P4 via Bus1");
        let truck0 = db.heap.oids_of(db.classes.truck)[0];
        let obj = db.heap.peek(truck0).unwrap().clone();
        nix.on_delete(&mut db.store, &obj);
        db.heap.delete(&mut db.store, truck0).unwrap();
        for name in ["Daf", "Renault", "Fiat"] {
            let got = nix.lookup(&db.store, &[Value::from(name)], db.classes.person, false);
            let want = db.oracle(&db.path_pe, db.classes.person, false, &Value::from(name));
            assert_eq!(got, want, "after Truck0 deletion, query {name}");
        }
    }

    #[test]
    fn nix_insert_then_delete_is_identity() {
        let mut db = testutil::figure2_db(1024);
        let sub = SubpathId { start: 1, end: 3 };
        let mut nix =
            NestedInheritedIndex::build(&db.schema, &db.path_pe, sub, &mut db.store, &db.heap);
        let before: Vec<_> = ["Fiat", "Renault", "Daf"]
            .iter()
            .map(|n| nix.lookup(&db.store, &[Value::from(*n)], db.classes.person, false))
            .collect();
        // New person owning an existing Renault vehicle.
        let v1 = db.heap.oids_of(db.classes.vehicle)[1];
        let oid = db.heap.fresh_oid(db.classes.person);
        let newp = Object::new(
            &db.schema,
            oid,
            vec![
                ("name", Value::from("new").into()),
                ("age", Value::Int(1).into()),
                ("owns", Value::Ref(v1).into()),
            ],
        )
        .unwrap();
        nix.on_insert(&mut db.store, &newp);
        let with_new = nix.lookup(
            &db.store,
            &[Value::from("Renault")],
            db.classes.person,
            false,
        );
        assert!(with_new.contains(&oid));
        nix.on_delete(&mut db.store, &newp);
        let after: Vec<_> = ["Fiat", "Renault", "Daf"]
            .iter()
            .map(|n| nix.lookup(&db.store, &[Value::from(*n)], db.classes.person, false))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn nix_middle_insertion_updates_parents_lazily() {
        // Inserting a vehicle referencing an existing company makes the
        // vehicle reachable; existing persons do not own it yet, so person
        // results are unchanged.
        let mut db = testutil::figure2_db(1024);
        let sub = SubpathId { start: 1, end: 3 };
        let mut nix =
            NestedInheritedIndex::build(&db.schema, &db.path_pe, sub, &mut db.store, &db.heap);
        let fiat = db.company_named("Fiat");
        let oid = db.heap.fresh_oid(db.classes.vehicle);
        let v = Object::new(
            &db.schema,
            oid,
            vec![
                ("color", Value::from("Green").into()),
                ("max_speed", Value::Int(1).into()),
                ("weight", Value::Int(1).into()),
                ("availability", Value::from("ok").into()),
                (
                    "man",
                    oic_storage::FieldValue::Multi(vec![Value::Ref(fiat)]),
                ),
            ],
        )
        .unwrap();
        nix.on_insert(&mut db.store, &v);
        let vehicles = nix.lookup(&db.store, &[Value::from("Fiat")], db.classes.vehicle, false);
        assert!(vehicles.contains(&oid));
    }

    #[test]
    fn nix_boundary_delete_removes_record_and_pointers() {
        let mut db = testutil::figure2_db(1024);
        // Per.owns.man: keys are company oids.
        let sub = SubpathId { start: 1, end: 2 };
        let mut nix =
            NestedInheritedIndex::build(&db.schema, &db.path_pe, sub, &mut db.store, &db.heap);
        let fiat = db.company_named("Fiat");
        let hits = nix.lookup(&db.store, &[Value::Ref(fiat)], db.classes.person, false);
        assert!(!hits.is_empty());
        let obj = db.heap.peek(fiat).unwrap().clone();
        nix.on_delete(&mut db.store, &obj);
        assert!(nix
            .lookup(&db.store, &[Value::Ref(fiat)], db.classes.person, false)
            .is_empty());
        assert!(!nix
            .primary_tree()
            .contains_key(&encode_key(&Value::Ref(fiat))));
    }
}
