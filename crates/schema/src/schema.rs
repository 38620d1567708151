//! The schema: a set of classes with inheritance and aggregation structure.

use crate::{AttrId, Attribute, Cardinality, Class, ClassId, SchemaError};
use std::collections::HashMap;

/// A validated schema.
///
/// Construction goes through [`SchemaBuilder`], which checks name uniqueness
/// and inheritance acyclicity, so every `Schema` in existence is consistent.
#[derive(Debug, Clone)]
pub struct Schema {
    classes: Vec<Class>,
    by_name: HashMap<String, ClassId>,
    /// `children[c]` = direct subclasses of `c`.
    children: Vec<Vec<ClassId>>,
}

impl Schema {
    /// Number of classes in the schema.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// All class ids, in declaration order.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.classes.len() as u32).map(ClassId)
    }

    /// The class definition for `id`.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this schema.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Class name for `id`.
    pub fn class_name(&self, id: ClassId) -> &str {
        &self.class(id).name
    }

    /// Resolves a class by name.
    pub fn class_by_name(&self, name: &str) -> Result<ClassId, SchemaError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| SchemaError::UnknownClass(name.to_string()))
    }

    /// The inheritance hierarchy rooted at `id`: the class itself followed by
    /// all transitive subclasses in pre-order. This is the paper's `C⁺_{l,x}`;
    /// its length is `nc_l` (Table 2).
    pub fn hierarchy(&self, id: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(c) = stack.pop() {
            out.push(c);
            // Reverse to keep declaration order in the pre-order output.
            for &s in self.children[c.index()].iter().rev() {
                stack.push(s);
            }
        }
        out
    }

    /// `nc` — the number of classes in the inheritance hierarchy rooted at
    /// `id`, including the root (Table 2 of the paper).
    pub fn nc(&self, id: ClassId) -> usize {
        self.hierarchy(id).len()
    }

    /// Whether `sub` equals `sup` or is a (transitive) subclass of it.
    pub fn is_same_or_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.class(c).superclass;
        }
        false
    }

    /// All attributes of `id`, inherited first (superclass chain from the
    /// root down), then declared. The returned pairs give the class that
    /// *declares* each attribute.
    pub fn all_attributes(&self, id: ClassId) -> Vec<(ClassId, &Attribute)> {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            chain.push(c);
            cur = self.class(c).superclass;
        }
        chain.reverse();
        let mut out = Vec::new();
        for c in chain {
            for a in &self.class(c).attributes {
                out.push((c, a));
            }
        }
        out
    }

    /// Resolves an attribute by name on `id`, searching inherited attributes
    /// too. Returns the declaring class and the attribute.
    pub fn resolve_attribute(
        &self,
        id: ClassId,
        name: &str,
    ) -> Result<(ClassId, &Attribute), SchemaError> {
        self.all_attributes(id)
            .into_iter()
            .find(|(_, a)| a.name == name)
            .ok_or_else(|| SchemaError::UnknownAttribute {
                class: self.class_name(id).to_string(),
                attribute: name.to_string(),
            })
    }

    /// Resolves an attribute name on `id` (inherited attributes included) to
    /// its interned identifier: the *declaring* class plus the slot in that
    /// class's own attribute list. Two classes inheriting the same attribute
    /// resolve to the same `AttrId`, so the id is a cheap `Copy` stand-in
    /// for the attribute name in signatures and candidate keys.
    pub fn attr_id(&self, id: ClassId, name: &str) -> Result<AttrId, SchemaError> {
        let (decl, _) = self.resolve_attribute(id, name)?;
        let slot = self
            .class(decl)
            .attributes
            .iter()
            .position(|a| a.name == name)
            .expect("resolve_attribute found the declaring class") as u32;
        Ok(AttrId { class: decl, slot })
    }

    /// The attribute definition behind an interned [`AttrId`].
    ///
    /// # Panics
    /// Panics if `id` does not belong to this schema.
    pub fn attribute(&self, id: AttrId) -> &Attribute {
        &self.class(id.class).attributes[id.slot as usize]
    }

    /// Name of the attribute behind an interned [`AttrId`].
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attribute(id).name
    }
}

/// Builder for [`Schema`]. Classes must be declared before they are
/// referenced; use [`SchemaBuilder::declare`] for forward declarations when
/// aggregation edges form a cycle at the schema level.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    classes: Vec<Class>,
    by_name: HashMap<String, ClassId>,
}

impl SchemaBuilder {
    /// New, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a class with no attributes yet, returning its id. Attributes
    /// can be added later with [`SchemaBuilder::add_attribute`].
    pub fn declare(&mut self, name: impl Into<String>) -> Result<ClassId, SchemaError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(SchemaError::DuplicateClass(name));
        }
        let id = ClassId(self.classes.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.classes.push(Class {
            name,
            attributes: Vec::new(),
            superclass: None,
        });
        Ok(id)
    }

    /// Declares a class with the given attributes.
    pub fn class(
        &mut self,
        name: impl Into<String>,
        attributes: Vec<Attribute>,
    ) -> Result<ClassId, SchemaError> {
        let id = self.declare(name)?;
        for a in attributes {
            self.add_attribute(id, a)?;
        }
        Ok(id)
    }

    /// Declares a subclass of `superclass` with additional attributes.
    pub fn subclass(
        &mut self,
        name: impl Into<String>,
        superclass: ClassId,
        attributes: Vec<Attribute>,
    ) -> Result<ClassId, SchemaError> {
        let id = self.class(name, attributes)?;
        self.classes[id.index()].superclass = Some(superclass);
        Ok(id)
    }

    /// Adds an attribute to an already-declared class.
    pub fn add_attribute(&mut self, id: ClassId, attr: Attribute) -> Result<(), SchemaError> {
        let class = &mut self.classes[id.index()];
        if class.attributes.iter().any(|a| a.name == attr.name) {
            return Err(SchemaError::DuplicateAttribute {
                class: class.name.clone(),
                attribute: attr.name,
            });
        }
        class.attributes.push(attr);
        Ok(())
    }

    /// Convenience: add a single-valued atomic attribute.
    pub fn atomic(
        &mut self,
        id: ClassId,
        name: impl Into<String>,
        ty: crate::AtomicType,
    ) -> Result<(), SchemaError> {
        self.add_attribute(id, Attribute::atomic(name, ty))
    }

    /// Convenience: add a reference attribute.
    pub fn reference(
        &mut self,
        id: ClassId,
        name: impl Into<String>,
        target: ClassId,
        cardinality: Cardinality,
    ) -> Result<(), SchemaError> {
        self.add_attribute(id, Attribute::reference(name, target, cardinality))
    }

    /// Validates and finalizes the schema.
    ///
    /// Checks: inheritance acyclicity; no attribute-name collision along any
    /// inheritance chain; every reference target exists (guaranteed by
    /// construction since targets are `ClassId`s of this builder).
    pub fn build(self) -> Result<Schema, SchemaError> {
        let n = self.classes.len();
        // Detect inheritance cycles by walking each superclass chain with a
        // step budget of `n`.
        for (i, c) in self.classes.iter().enumerate() {
            let mut cur = c.superclass;
            let mut steps = 0usize;
            while let Some(s) = cur {
                steps += 1;
                if steps > n {
                    return Err(SchemaError::InheritanceCycle(c.name.clone()));
                }
                if s.index() == i {
                    return Err(SchemaError::InheritanceCycle(c.name.clone()));
                }
                cur = self.classes[s.index()].superclass;
            }
        }
        // No attribute shadowing along inheritance chains.
        for (i, c) in self.classes.iter().enumerate() {
            let mut seen: Vec<&str> = c.attributes.iter().map(|a| a.name.as_str()).collect();
            let mut cur = c.superclass;
            while let Some(s) = cur {
                for a in &self.classes[s.index()].attributes {
                    if seen.contains(&a.name.as_str()) {
                        return Err(SchemaError::DuplicateAttribute {
                            class: self.classes[i].name.clone(),
                            attribute: a.name.clone(),
                        });
                    }
                    seen.push(a.name.as_str());
                }
                cur = self.classes[s.index()].superclass;
            }
        }
        let mut children = vec![Vec::new(); n];
        for (i, c) in self.classes.iter().enumerate() {
            if let Some(s) = c.superclass {
                children[s.index()].push(ClassId(i as u32));
            }
        }
        Ok(Schema {
            classes: self.classes,
            by_name: self.by_name,
            children,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AtomicType;

    fn tiny() -> Schema {
        let mut b = SchemaBuilder::new();
        let veh = b
            .class("Vehicle", vec![Attribute::atomic("color", AtomicType::Str)])
            .unwrap();
        let bus = b
            .subclass(
                "Bus",
                veh,
                vec![Attribute::atomic("seats", AtomicType::Int)],
            )
            .unwrap();
        let _truck = b.subclass("Truck", veh, vec![]).unwrap();
        let per = b.declare("Person").unwrap();
        b.reference(per, "owns", veh, Cardinality::Single).unwrap();
        b.atomic(per, "name", AtomicType::Str).unwrap();
        let s = b.build().unwrap();
        assert_eq!(s.class_by_name("Bus").unwrap(), bus);
        s
    }

    #[test]
    fn hierarchy_and_nc() {
        let s = tiny();
        let veh = s.class_by_name("Vehicle").unwrap();
        let h = s.hierarchy(veh);
        let names: Vec<_> = h.iter().map(|&c| s.class_name(c)).collect();
        assert_eq!(names, vec!["Vehicle", "Bus", "Truck"]);
        assert_eq!(s.nc(veh), 3);
        let bus = s.class_by_name("Bus").unwrap();
        assert_eq!(s.nc(bus), 1);
    }

    #[test]
    fn inherited_attribute_resolution() {
        let s = tiny();
        let bus = s.class_by_name("Bus").unwrap();
        let (decl, a) = s.resolve_attribute(bus, "color").unwrap();
        assert_eq!(s.class_name(decl), "Vehicle");
        assert_eq!(a.name, "color");
        let (decl, _) = s.resolve_attribute(bus, "seats").unwrap();
        assert_eq!(s.class_name(decl), "Bus");
        assert!(s.resolve_attribute(bus, "wings").is_err());
    }

    #[test]
    fn all_attributes_orders_inherited_first() {
        let s = tiny();
        let bus = s.class_by_name("Bus").unwrap();
        let attrs: Vec<_> = s
            .all_attributes(bus)
            .into_iter()
            .map(|(_, a)| a.name.clone())
            .collect();
        assert_eq!(attrs, vec!["color", "seats"]);
    }

    #[test]
    fn is_same_or_subclass_checks_chain() {
        let s = tiny();
        let veh = s.class_by_name("Vehicle").unwrap();
        let bus = s.class_by_name("Bus").unwrap();
        let per = s.class_by_name("Person").unwrap();
        assert!(s.is_same_or_subclass(bus, veh));
        assert!(s.is_same_or_subclass(veh, veh));
        assert!(!s.is_same_or_subclass(veh, bus));
        assert!(!s.is_same_or_subclass(per, veh));
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut b = SchemaBuilder::new();
        b.declare("A").unwrap();
        assert!(matches!(
            b.declare("A"),
            Err(SchemaError::DuplicateClass(_))
        ));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut b = SchemaBuilder::new();
        let a = b.declare("A").unwrap();
        b.atomic(a, "x", AtomicType::Int).unwrap();
        assert!(b.atomic(a, "x", AtomicType::Int).is_err());
    }

    #[test]
    fn shadowing_inherited_attribute_rejected() {
        let mut b = SchemaBuilder::new();
        let a = b
            .class("A", vec![Attribute::atomic("x", AtomicType::Int)])
            .unwrap();
        b.subclass("B", a, vec![Attribute::atomic("x", AtomicType::Int)])
            .unwrap();
        assert!(matches!(
            b.build(),
            Err(SchemaError::DuplicateAttribute { .. })
        ));
    }

    #[test]
    fn inheritance_cycle_rejected() {
        let mut b = SchemaBuilder::new();
        let a = b.declare("A").unwrap();
        let bid = b.declare("B").unwrap();
        b.classes[a.index()].superclass = Some(bid);
        b.classes[bid.index()].superclass = Some(a);
        assert!(matches!(b.build(), Err(SchemaError::InheritanceCycle(_))));
    }
}
