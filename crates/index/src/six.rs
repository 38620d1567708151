//! SIX — the simple index (Section 2.2): one class, one attribute.

use crate::traits::entry_to_oid;
use oic_btree::{BTreeIndex, Layout};
use oic_schema::ClassId;
use oic_storage::{encode_key, Object, Oid, SimStore, Value};

/// An index on an attribute of a single class: each attribute value maps to
/// the oids of that class's objects holding it. The building block of the
/// multi-index.
#[derive(Debug)]
pub struct SimpleIndex {
    class: ClassId,
    attr: String,
    tree: BTreeIndex,
}

impl SimpleIndex {
    /// Creates an empty index on `class.attr`.
    pub fn new(store: &mut SimStore, class: ClassId, attr: impl Into<String>) -> Self {
        SimpleIndex {
            class,
            attr: attr.into(),
            tree: BTreeIndex::new(store, Layout::for_page_size(store.page_size())),
        }
    }

    /// The indexed class.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// The indexed attribute.
    pub fn attr(&self) -> &str {
        &self.attr
    }

    /// Appends the oids holding `key` for the indexed attribute to `out`.
    pub fn lookup(&self, store: &SimStore, key: &Value, out: &mut Vec<Oid>) {
        self.tree
            .visit(store, &encode_key(key), |e| out.push(entry_to_oid(e)));
    }

    /// Indexes a (possibly multi-valued) object.
    pub fn insert_object(&mut self, store: &mut SimStore, obj: &Object) {
        debug_assert_eq!(obj.class(), self.class);
        for v in obj.values_of(&self.attr) {
            self.tree
                .insert_entry(store, &encode_key(v), obj.oid.to_bytes().to_vec());
        }
    }

    /// Removes an object's entries.
    pub fn delete_object(&mut self, store: &mut SimStore, obj: &Object) {
        debug_assert_eq!(obj.class(), self.class);
        let bytes = obj.oid.to_bytes();
        for v in obj.values_of(&self.attr) {
            self.tree
                .remove_entries(store, &encode_key(v), |e| e == bytes);
        }
    }

    /// Drops the whole record for `key` (used when the key is a dead oid).
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

    fn lookup(six: &SimpleIndex, store: &SimStore, key: &Value) -> Vec<Oid> {
        let mut out = Vec::new();
        six.lookup(store, key, &mut out);
        out
    }

    fn veh(schema: &oic_schema::Schema, seq: u32, color: &str, comp: Oid) -> Object {
        let (_, c) = fixtures::paper_schema();
        Object::new(
            schema,
            Oid::new(c.vehicle, seq),
            vec![
                ("color", Value::from(color).into()),
                ("max_speed", Value::Int(100).into()),
                ("weight", Value::Int(900).into()),
                ("availability", Value::from("ok").into()),
                ("man", FieldValue::Multi(vec![Value::Ref(comp)])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn six_matches_paper_example() {
        // Section 2.2: an index on Veh.color yields (White, {Vehicle[i]}),
        // (Red, {Vehicle[j], Vehicle[k]}).
        let (schema, c) = fixtures::paper_schema();
        let mut store = SimStore::new(1024);
        let mut six = SimpleIndex::new(&mut store, c.vehicle, "color");
        let comp = Oid::new(c.company, 0);
        let vi = veh(&schema, 0, "White", comp);
        let vj = veh(&schema, 1, "Red", comp);
        let vk = veh(&schema, 2, "Red", comp);
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
        let mut six = SimpleIndex::new(&mut store, c.vehicle, "man");
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
}
