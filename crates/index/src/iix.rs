//! IIX — the inherited index (Section 2.2): one attribute over a whole
//! inheritance hierarchy (a.k.a. class-hierarchy index, Kim et al. 1989).

use crate::traits::{entry_to_oid, selecting};
use oic_btree::{BTreeIndex, Layout};
use oic_schema::ClassId;
use oic_storage::{encode_key, Object, Oid, SimStore, Value};

/// An index on an attribute of all classes in the inheritance hierarchy
/// rooted at a class. Posting entries carry the owning class inside the
/// oid, so per-class retrieval reads only the relevant part of a spanning
/// record. The building block of the multi-inherited index.
#[derive(Debug)]
pub struct InheritedIndex {
    root: ClassId,
    hierarchy: Vec<ClassId>,
    attr: String,
    tree: BTreeIndex,
}

impl InheritedIndex {
    /// Creates an empty inherited index on `attr` of the hierarchy
    /// `hierarchy` (root first, as produced by `Schema::hierarchy`).
    pub fn new(
        store: &mut SimStore,
        root: ClassId,
        hierarchy: Vec<ClassId>,
        attr: impl Into<String>,
    ) -> Self {
        debug_assert_eq!(hierarchy.first(), Some(&root));
        InheritedIndex {
            root,
            hierarchy,
            attr: attr.into(),
            tree: BTreeIndex::new(store, Layout::for_page_size(store.page_size())),
        }
    }

    /// Root class of the covered hierarchy.
    pub fn root(&self) -> ClassId {
        self.root
    }

    /// The indexed attribute.
    pub fn attr(&self) -> &str {
        &self.attr
    }

    /// Whether `class` is covered.
    pub fn covers(&self, class: ClassId) -> bool {
        self.hierarchy.contains(&class)
    }

    /// Appends all oids (any class of the hierarchy) holding `key` to `out`.
    pub fn lookup_all(&self, store: &SimStore, key: &Value, out: &mut Vec<Oid>) {
        self.tree
            .visit(store, &encode_key(key), |e| out.push(entry_to_oid(e)));
    }

    /// Appends the oids of exactly `class` holding `key` to `out`; reads
    /// only the pages holding that class's entries when the record spans
    /// pages.
    pub fn lookup_class(&self, store: &SimStore, key: &Value, class: ClassId, out: &mut Vec<Oid>) {
        self.tree.visit_matching(
            store,
            &encode_key(key),
            selecting(
                |e| entry_to_oid(e).class == class,
                |e| out.push(entry_to_oid(e)),
            ),
        );
    }

    /// Indexes an object (must belong to the hierarchy).
    pub fn insert_object(&mut self, store: &mut SimStore, obj: &Object) {
        debug_assert!(self.covers(obj.class()));
        for v in obj.values_of(&self.attr) {
            self.tree
                .insert_entry(store, &encode_key(v), obj.oid.to_bytes().to_vec());
        }
    }

    /// Removes an object's entries.
    pub fn delete_object(&mut self, store: &mut SimStore, obj: &Object) {
        let bytes = obj.oid.to_bytes();
        for v in obj.values_of(&self.attr) {
            self.tree
                .remove_entries(store, &encode_key(v), |e| e == bytes);
        }
    }

    /// Drops the whole record for `key`.
    pub fn remove_key(&mut self, store: &mut SimStore, key: &Value) -> usize {
        self.tree
            .remove_record(store, &encode_key(key))
            .unwrap_or(0)
    }

    /// The underlying tree (stats access).
    pub fn tree(&self) -> &BTreeIndex {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_schema::fixtures;
    use oic_storage::FieldValue;

    fn mkveh(
        schema: &oic_schema::Schema,
        class: ClassId,
        seq: u32,
        color: &str,
        extra: Vec<(&str, FieldValue)>,
    ) -> Object {
        let comp = Oid::new(oic_schema::ClassId(1), 0);
        let mut fields = vec![
            ("color", Value::from(color).into()),
            ("max_speed", Value::Int(1).into()),
            ("weight", Value::Int(1).into()),
            ("availability", Value::from("ok").into()),
            ("man", FieldValue::Multi(vec![Value::Ref(comp)])),
        ];
        fields.extend(extra);
        Object::new(schema, Oid::new(class, seq), fields).unwrap()
    }

    #[test]
    fn iix_matches_paper_example() {
        // Section 2.2: an IIX on Veh.color yields (White, {Vehicle[i], …})
        // and covers Bus/Truck objects in the same records.
        let (schema, c) = fixtures::paper_schema();
        let mut store = SimStore::new(1024);
        let mut iix =
            InheritedIndex::new(&mut store, c.vehicle, schema.hierarchy(c.vehicle), "color");
        let vi = mkveh(&schema, c.vehicle, 0, "White", vec![]);
        let bi = mkveh(
            &schema,
            c.bus,
            0,
            "White",
            vec![("seats", Value::Int(50).into())],
        );
        let ti = mkveh(
            &schema,
            c.truck,
            0,
            "Red",
            vec![
                ("capacity", Value::Int(9).into()),
                ("height", Value::Int(3).into()),
            ],
        );
        for o in [&vi, &bi, &ti] {
            iix.insert_object(&mut store, o);
        }
        let lookup_all = |iix: &InheritedIndex, store: &SimStore, key: &str| {
            let mut out = Vec::new();
            iix.lookup_all(store, &Value::from(key), &mut out);
            out
        };
        let white = lookup_all(&iix, &store, "White");
        assert_eq!(white.len(), 2);
        assert!(white.contains(&vi.oid) && white.contains(&bi.oid));
        // Per-class retrieval filters to the requested class.
        let mut white_bus = Vec::new();
        iix.lookup_class(&store, &Value::from("White"), c.bus, &mut white_bus);
        assert_eq!(white_bus, vec![bi.oid]);
        assert!(iix.covers(c.truck));
        assert!(!iix.covers(c.person));
        iix.delete_object(&mut store, &bi);
        assert_eq!(lookup_all(&iix, &store, "White"), vec![vi.oid]);
    }
}
