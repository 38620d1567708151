//! Binding of a subpath to its physical context.

use oic_schema::{AttrKind, ClassId, Path, PathStep, Schema, SubpathId};

/// A subpath resolved against a schema: its steps, its position offset
/// within the full path, and the inheritance hierarchy at every position.
/// This is the shared context all index organizations are built from.
#[derive(Debug, Clone)]
pub struct Segment {
    /// 1-based starting position within the full path.
    pub start: usize,
    steps: Vec<PathStep>,
    hierarchies: Vec<Vec<ClassId>>,
    /// `subtrees[i]` maps each class at position `i` to its own subtree
    /// (itself plus transitive subclasses) within that position.
    subtrees: Vec<std::collections::HashMap<ClassId, Vec<ClassId>>>,
    /// The ending attribute's domain hierarchy (empty for an atomic one).
    boundary: Vec<ClassId>,
}

impl Segment {
    /// Resolves subpath `sub` of `path`.
    pub fn new(schema: &Schema, path: &Path, sub: SubpathId) -> Self {
        let sp = path
            .subpath(schema, sub)
            .expect("subpath bounds validated by caller");
        let hierarchies = sp.scope_by_position(schema);
        let subtrees = hierarchies
            .iter()
            .map(|h| {
                h.iter()
                    .map(|&c| (c, schema.hierarchy(c)))
                    .collect::<std::collections::HashMap<_, _>>()
            })
            .collect();
        let boundary = match sp.ending_attribute().attr.kind {
            AttrKind::Reference(domain) => schema.hierarchy(domain),
            AttrKind::Atomic(_) => Vec::new(),
        };
        Segment {
            start: sub.start,
            steps: sp.steps().to_vec(),
            hierarchies,
            subtrees,
            boundary,
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Segments are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// 1-based ending position within the full path.
    pub fn end(&self) -> usize {
        self.start + self.len() - 1
    }

    /// Step at local index `i` (0-based).
    pub fn step(&self, i: usize) -> &PathStep {
        &self.steps[i]
    }

    /// Hierarchy (root first) at local index `i`.
    pub fn hierarchy(&self, i: usize) -> &[ClassId] {
        &self.hierarchies[i]
    }

    /// Local index whose hierarchy contains `class`, if any (a class occurs
    /// at most once along a path, so this is unambiguous).
    pub fn local_of(&self, class: ClassId) -> Option<usize> {
        self.hierarchies.iter().position(|h| h.contains(&class))
    }

    /// Attribute name the class at local index `i` is indexed on.
    pub fn attr_name(&self, i: usize) -> &str {
        &self.steps[i].attr_name
    }

    /// The classes a lookup targeting `class` must retrieve: the class
    /// alone, or its subtree (itself + transitive subclasses) when
    /// subclasses are included.
    pub fn target_classes(
        &self,
        local: usize,
        class: ClassId,
        with_subclasses: bool,
    ) -> Vec<ClassId> {
        if with_subclasses {
            self.subtrees[local]
                .get(&class)
                .cloned()
                .unwrap_or_else(|| vec![class])
        } else {
            vec![class]
        }
    }

    /// Whether `class` belongs to the domain hierarchy of the ending
    /// attribute (i.e. sits at full-path position `end() + 1`). Deleting
    /// such an object kills the record keyed by its oid — the measured
    /// counterpart of the paper's `CMD`.
    pub fn is_boundary(&self, class: ClassId) -> bool {
        self.boundary.contains(&class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_schema::fixtures;

    #[test]
    fn segment_resolution() {
        let (schema, c) = fixtures::paper_schema();
        let path = fixtures::paper_path_pexa(&schema);
        let seg = Segment::new(&schema, &path, SubpathId { start: 1, end: 2 });
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.start, 1);
        assert_eq!(seg.end(), 2);
        assert_eq!(seg.attr_name(0), "owns");
        assert_eq!(seg.attr_name(1), "man");
        assert_eq!(seg.hierarchy(1).len(), 3);
        assert_eq!(seg.local_of(c.bus), Some(1));
        assert_eq!(seg.local_of(c.division), None);
    }

    #[test]
    fn boundary_class_detection() {
        let (schema, c) = fixtures::paper_schema();
        let path = fixtures::paper_path_pexa(&schema);
        // Per.owns.man ends at `man` whose domain is Company.
        let seg = Segment::new(&schema, &path, SubpathId { start: 1, end: 2 });
        assert!(seg.is_boundary(c.company));
        assert!(!seg.is_boundary(c.division));
        // The full path ends at an atomic attribute: no boundary class.
        let whole = Segment::new(&schema, &path, SubpathId { start: 1, end: 4 });
        assert!(!whole.is_boundary(c.division));
    }
}
