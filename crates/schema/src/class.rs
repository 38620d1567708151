//! Class definitions.

use crate::{Attribute, ClassId};

/// A class in the schema: a set of declared attributes plus an optional
/// superclass whose attributes (and, conceptually, methods) are inherited.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Class {
    /// Class name, unique within the schema.
    pub name: String,
    /// Attributes declared by this class itself (inherited attributes are
    /// resolved through [`crate::Schema::all_attributes`]).
    pub attributes: Vec<Attribute>,
    /// Direct superclass, if any.
    pub superclass: Option<ClassId>,
}
