//! IIX — the inherited index (Section 2.2): one attribute over classes of
//! an inheritance hierarchy (a.k.a. class-hierarchy index, Kim et al.
//! 1989). A SIX, the simple index on one class, is the IIX over `[class]`.

use crate::traits::{entry_to_oid, selecting, tree_pages};
use oic_btree::BTreeIndex;
use oic_schema::ClassId;
use oic_storage::{encode_key, Object, Oid, SimStore, Value};

/// An index on an attribute of a set of classes of one inheritance
/// hierarchy: each attribute value maps to the oids of the covered objects
/// holding it. Posting entries carry the owning class inside the oid, so
/// per-class retrieval reads only the relevant part of a spanning record.
/// The building block of [`MultiIndex`](crate::MultiIndex), one per class
/// (MX) or one per hierarchy (MIX).
#[derive(Debug)]
pub(crate) struct InheritedIndex {
    classes: Vec<ClassId>,
    attr: String,
    tree: BTreeIndex,
}

impl InheritedIndex {
    /// Creates an empty index on `attr` of `classes`.
    pub(crate) fn new(store: &mut SimStore, classes: &[ClassId], attr: &str) -> Self {
        InheritedIndex {
            classes: classes.to_vec(),
            attr: attr.to_string(),
            tree: BTreeIndex::new(store),
        }
    }

    /// Whether `class` is covered.
    pub(crate) fn covers(&self, class: ClassId) -> bool {
        self.classes.contains(&class)
    }

    /// Whether `targets` include every covered class.
    pub(crate) fn covered_by(&self, targets: &[ClassId]) -> bool {
        self.classes.iter().all(|c| targets.contains(c))
    }

    /// Appends all oids (any covered class) holding `key` to `out`.
    pub(crate) fn lookup(&self, store: &SimStore, key: &Value, out: &mut Vec<Oid>) {
        self.tree
            .visit(store, &encode_key(key), |e| out.push(entry_to_oid(e)));
    }

    /// Appends the oids of exactly `class` holding `key` to `out`; reads
    /// only the pages holding that class's entries when the record spans
    /// pages.
    pub(crate) fn lookup_class(
        &self,
        store: &SimStore,
        key: &Value,
        class: ClassId,
        out: &mut Vec<Oid>,
    ) {
        self.tree.visit_matching(
            store,
            &encode_key(key),
            selecting(
                |e| entry_to_oid(e).class == class,
                |e| out.push(entry_to_oid(e)),
            ),
        );
    }

    /// Indexes a (possibly multi-valued) object of a covered class.
    pub(crate) fn insert_object(&mut self, store: &mut SimStore, obj: &Object) {
        debug_assert!(self.covers(obj.class()));
        for v in obj.values_of(&self.attr) {
            self.tree
                .insert_entry(store, &encode_key(v), obj.oid.to_bytes().to_vec());
        }
    }

    /// Removes an object's entries.
    pub(crate) fn delete_object(&mut self, store: &mut SimStore, obj: &Object) {
        let bytes = obj.oid.to_bytes();
        for v in obj.values_of(&self.attr) {
            self.tree
                .remove_entries(store, &encode_key(v), |e| e == bytes);
        }
    }

    /// Drops the whole record for `key` (used when the key is a dead oid).
    pub(crate) fn remove_key(&mut self, store: &mut SimStore, key: &Value) -> usize {
        self.tree
            .remove_record(store, &encode_key(key))
            .unwrap_or(0)
    }

    /// Pages allocated by the tree.
    pub(crate) fn pages(&self) -> u64 {
        tree_pages(&self.tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_schema::fixtures;
    use oic_storage::FieldValue;

    fn lookup(idx: &InheritedIndex, store: &SimStore, key: &Value) -> Vec<Oid> {
        let mut out = Vec::new();
        idx.lookup(store, key, &mut out);
        out
    }

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
    fn six_matches_paper_example() {
        // Section 2.2: an index on Veh.color yields (White, {Vehicle[i]}),
        // (Red, {Vehicle[j], Vehicle[k]}).
        let (schema, c) = fixtures::paper_schema();
        let mut store = SimStore::new(1024);
        let mut six = InheritedIndex::new(&mut store, &[c.vehicle], "color");
        let vi = mkveh(&schema, c.vehicle, 0, "White", vec![]);
        let vj = mkveh(&schema, c.vehicle, 1, "Red", vec![]);
        let vk = mkveh(&schema, c.vehicle, 2, "Red", vec![]);
        for v in [&vi, &vj, &vk] {
            six.insert_object(&mut store, v);
        }
        assert_eq!(lookup(&six, &store, &Value::from("White")), vec![vi.oid]);
        let red = lookup(&six, &store, &Value::from("Red"));
        assert_eq!(red.len(), 2);
        assert!(red.contains(&vj.oid) && red.contains(&vk.oid));
        six.delete_object(&mut store, &vj);
        assert_eq!(lookup(&six, &store, &Value::from("Red")), vec![vk.oid]);
    }

    #[test]
    fn multi_valued_attributes_index_every_value() {
        let (schema, c) = fixtures::paper_schema();
        let mut store = SimStore::new(1024);
        let mut six = InheritedIndex::new(&mut store, &[c.vehicle], "man");
        let c1 = Oid::new(c.company, 1);
        let c2 = Oid::new(c.company, 2);
        let obj = Object::new(
            &schema,
            Oid::new(c.vehicle, 9),
            vec![
                ("color", Value::from("blue").into()),
                ("max_speed", Value::Int(1).into()),
                ("weight", Value::Int(1).into()),
                ("availability", Value::from("ok").into()),
                (
                    "man",
                    FieldValue::Multi(vec![Value::Ref(c1), Value::Ref(c2)]),
                ),
            ],
        )
        .unwrap();
        six.insert_object(&mut store, &obj);
        assert_eq!(lookup(&six, &store, &Value::Ref(c1)), vec![obj.oid]);
        assert_eq!(lookup(&six, &store, &Value::Ref(c2)), vec![obj.oid]);
        assert_eq!(six.remove_key(&mut store, &Value::Ref(c1)), 1);
        assert!(lookup(&six, &store, &Value::Ref(c1)).is_empty());
    }

    #[test]
    fn iix_matches_paper_example() {
        // Section 2.2: an IIX on Veh.color yields (White, {Vehicle[i], …})
        // and covers Bus/Truck objects in the same records.
        let (schema, c) = fixtures::paper_schema();
        let mut store = SimStore::new(1024);
        let mut iix = InheritedIndex::new(&mut store, &schema.hierarchy(c.vehicle), "color");
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
        let white = lookup(&iix, &store, &Value::from("White"));
        assert_eq!(white.len(), 2);
        assert!(white.contains(&vi.oid) && white.contains(&bi.oid));
        // Per-class retrieval filters to the requested class.
        let mut white_bus = Vec::new();
        iix.lookup_class(&store, &Value::from("White"), c.bus, &mut white_bus);
        assert_eq!(white_bus, vec![bi.oid]);
        assert!(iix.covers(c.truck));
        assert!(!iix.covers(c.person));
        iix.delete_object(&mut store, &bi);
        assert_eq!(lookup(&iix, &store, &Value::from("White")), vec![vi.oid]);
    }
}
