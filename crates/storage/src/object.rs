//! In-memory object representation.

use crate::{FieldValue, Oid, Value};
use oic_schema::{Cardinality, ClassId, Schema, SchemaError};
use std::collections::BTreeMap;

/// A stored object: its oid plus the values of its attributes (declared and
/// inherited), keyed by attribute name.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    /// Identifier; `oid.class` is the object's class.
    pub oid: Oid,
    fields: BTreeMap<String, FieldValue>,
}

impl Object {
    /// Creates an object after checking the fields against the schema: every
    /// attribute of the class must be present (the paper assumes no NULLs),
    /// cardinalities must match, and no unknown fields are allowed.
    pub fn new(
        schema: &Schema,
        oid: Oid,
        fields: Vec<(&str, FieldValue)>,
    ) -> Result<Self, SchemaError> {
        let mut map = BTreeMap::new();
        for (name, v) in fields {
            map.insert(name.to_string(), v);
        }
        let attrs = schema.all_attributes(oid.class);
        for (_, a) in &attrs {
            match map.get(&a.name) {
                None => {
                    return Err(SchemaError::UnknownAttribute {
                        class: schema.class_name(oid.class).to_string(),
                        attribute: format!("{} (missing value)", a.name),
                    })
                }
                Some(FieldValue::Multi(_)) if a.cardinality == Cardinality::Single => {
                    return Err(SchemaError::UnknownAttribute {
                        class: schema.class_name(oid.class).to_string(),
                        attribute: format!("{} (multi value for single-valued attribute)", a.name),
                    })
                }
                _ => {}
            }
        }
        if map.len() != attrs.len() {
            let known: Vec<&str> = attrs.iter().map(|(_, a)| a.name.as_str()).collect();
            let extra = map
                .keys()
                .find(|k| !known.contains(&k.as_str()))
                .cloned()
                .unwrap_or_default();
            return Err(SchemaError::UnknownAttribute {
                class: schema.class_name(oid.class).to_string(),
                attribute: extra,
            });
        }
        Ok(Object { oid, fields: map })
    }

    /// The object's class.
    #[inline]
    pub fn class(&self) -> ClassId {
        self.oid.class
    }

    /// Value(s) of the named attribute.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.get(name)
    }

    /// Convenience: the values of attribute `name` as a vector (empty if the
    /// attribute is unknown).
    pub fn values_of(&self, name: &str) -> Vec<&Value> {
        self.field(name)
            .map(|f| f.values().collect())
            .unwrap_or_default()
    }

    /// Oids referenced by attribute `name` (skipping non-reference values).
    pub fn refs_of(&self, name: &str) -> Vec<Oid> {
        self.values_of(name)
            .into_iter()
            .filter_map(Value::as_ref_oid)
            .collect()
    }

    /// Estimated stored size in bytes: oid plus field payloads plus a small
    /// per-field header.
    pub fn stored_size(&self) -> usize {
        8 + self
            .fields
            .values()
            .map(|f| 2 + f.stored_size())
            .sum::<usize>()
    }

    /// Iterates `(attribute name, field value)` pairs in name order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &FieldValue)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_schema::fixtures;

    fn div_object(schema: &Schema, class: ClassId, seq: u32, name: &str) -> Object {
        Object::new(
            schema,
            Oid::new(class, seq),
            vec![
                ("name", Value::from(name).into()),
                ("function", Value::from("ops").into()),
                ("movings", Value::Int(3).into()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construct_and_access() {
        let (s, c) = fixtures::paper_schema();
        let o = div_object(&s, c.division, 1, "sales");
        assert_eq!(o.class(), c.division);
        assert_eq!(o.values_of("name"), vec![&Value::from("sales")]);
        assert!(o.field("bogus").is_none());
        assert!(o.stored_size() > 8);
    }

    #[test]
    fn missing_field_rejected() {
        let (s, c) = fixtures::paper_schema();
        let r = Object::new(
            &s,
            Oid::new(c.division, 1),
            vec![("name", Value::from("x").into())],
        );
        assert!(r.is_err());
    }

    #[test]
    fn unknown_field_rejected() {
        let (s, c) = fixtures::paper_schema();
        let r = Object::new(
            &s,
            Oid::new(c.division, 1),
            vec![
                ("name", Value::from("x").into()),
                ("function", Value::from("y").into()),
                ("movings", Value::Int(1).into()),
                ("bogus", Value::Int(9).into()),
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn multi_for_single_rejected() {
        let (s, c) = fixtures::paper_schema();
        let r = Object::new(
            &s,
            Oid::new(c.division, 1),
            vec![
                (
                    "name",
                    FieldValue::Multi(vec![Value::from("a"), Value::from("b")]),
                ),
                ("function", Value::from("y").into()),
                ("movings", Value::Int(1).into()),
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn refs_of_extracts_references() {
        let (s, c) = fixtures::paper_schema();
        let comp = Oid::new(c.company, 7);
        let o = Object::new(
            &s,
            Oid::new(c.vehicle, 1),
            vec![
                ("color", Value::from("red").into()),
                ("max_speed", Value::Int(120).into()),
                ("weight", Value::Int(900).into()),
                ("availability", Value::from("ok").into()),
                ("man", FieldValue::Multi(vec![Value::Ref(comp)])),
            ],
        )
        .unwrap();
        assert_eq!(o.refs_of("man"), vec![comp]);
        assert_eq!(o.refs_of("color"), vec![]);
    }

    #[test]
    fn subclass_object_includes_inherited_fields() {
        let (s, c) = fixtures::paper_schema();
        let comp = Oid::new(c.company, 7);
        let o = Object::new(
            &s,
            Oid::new(c.bus, 1),
            vec![
                ("color", Value::from("red").into()),
                ("max_speed", Value::Int(120).into()),
                ("weight", Value::Int(900).into()),
                ("availability", Value::from("ok").into()),
                ("man", FieldValue::Multi(vec![Value::Ref(comp)])),
                ("seats", Value::Int(52).into()),
            ],
        )
        .unwrap();
        assert_eq!(o.values_of("seats"), vec![&Value::Int(52)]);
        assert_eq!(o.fields().count(), 6);
    }
}
