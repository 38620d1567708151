//! The object heap: one class per page (the paper's storage assumption).

use crate::{Object, Oid, PageId, SimStore};
use oic_schema::ClassId;
use std::collections::HashMap;
use std::fmt;

/// Errors from heap operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapError {
    /// The oid is not stored.
    NotFound(Oid),
    /// An object with this oid is already stored.
    Duplicate(Oid),
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::NotFound(o) => write!(f, "object {o} not found"),
            HeapError::Duplicate(o) => write!(f, "object {o} already stored"),
        }
    }
}

impl std::error::Error for HeapError {}

#[derive(Debug, Default)]
struct ClassHeap {
    /// Pages owned by this class, in allocation order.
    pages: Vec<PageId>,
    /// Free bytes remaining in the last page.
    tail_free: usize,
    /// Objects of the class in insertion order (stable scan order).
    objects: Vec<Oid>,
}

/// Heap storage for objects, honouring *“a page contains objects of only one
/// class”* (Section 1). Object placement is append-only with per-class fill;
/// deletion frees the slot logically (pages are not compacted, as is usual
/// for heap files).
#[derive(Debug)]
pub struct ObjectStore {
    by_oid: HashMap<Oid, (Object, PageId)>,
    classes: HashMap<ClassId, ClassHeap>,
    next_seq: HashMap<ClassId, u32>,
}

impl ObjectStore {
    /// Creates an empty heap.
    pub fn new() -> Self {
        ObjectStore {
            by_oid: HashMap::new(),
            classes: HashMap::new(),
            next_seq: HashMap::new(),
        }
    }

    /// Generates a fresh oid for `class` (the database system generates
    /// oids; Section 1 of the paper).
    pub fn fresh_oid(&mut self, class: ClassId) -> Oid {
        let seq = self.next_seq.entry(class).or_insert(0);
        let oid = Oid::new(class, *seq);
        *seq += 1;
        oid
    }

    /// Stores an object, placing it in a page of its class and counting the
    /// page write.
    pub fn insert(&mut self, store: &mut SimStore, obj: Object) -> Result<(), HeapError> {
        if self.by_oid.contains_key(&obj.oid) {
            return Err(HeapError::Duplicate(obj.oid));
        }
        let size = obj.stored_size().min(store.page_size());
        let class = obj.class();
        let heap = self.classes.entry(class).or_default();
        let page = if heap.pages.is_empty() || heap.tail_free < size {
            let p = store.alloc();
            heap.pages.push(p);
            heap.tail_free = store.page_size() - size;
            p
        } else {
            heap.tail_free -= size;
            *heap.pages.last().expect("non-empty after check")
        };
        store.touch_write(page);
        heap.objects.push(obj.oid);
        self.by_oid.insert(obj.oid, (obj, page));
        Ok(())
    }

    /// Fetches an object, counting the page read.
    pub fn get(&self, store: &SimStore, oid: Oid) -> Result<&Object, HeapError> {
        let (obj, page) = self.by_oid.get(&oid).ok_or(HeapError::NotFound(oid))?;
        store.touch_read(*page);
        Ok(obj)
    }

    /// Looks up an object without counting any page access (for test
    /// assertions and generators that already hold the object's page).
    pub fn peek(&self, oid: Oid) -> Option<&Object> {
        self.by_oid.get(&oid).map(|(o, _)| o)
    }

    /// Removes an object, counting the read and rewrite of its page.
    pub fn delete(&mut self, store: &mut SimStore, oid: Oid) -> Result<Object, HeapError> {
        let (obj, page) = self.by_oid.remove(&oid).ok_or(HeapError::NotFound(oid))?;
        store.touch_read(page);
        store.touch_write(page);
        // Deletes mostly hit recent inserts: search from the back, and keep
        // the survivors in insertion order.
        if let Some(heap) = self.classes.get_mut(&oid.class) {
            if let Some(i) = heap.objects.iter().rposition(|&o| o == oid) {
                heap.objects.remove(i);
            }
        }
        Ok(obj)
    }

    /// Sequentially scans all objects of `class` (no subclasses), counting
    /// one read per page of the class heap. This is the access pattern of
    /// the naive (index-less) evaluator.
    pub fn scan<'a>(
        &'a self,
        store: &SimStore,
        class: ClassId,
    ) -> impl Iterator<Item = &'a Object> + 'a {
        if let Some(heap) = self.classes.get(&class) {
            for &p in &heap.pages {
                store.touch_read(p);
            }
        }
        self.classes
            .get(&class)
            .into_iter()
            .flat_map(move |heap| heap.objects.iter())
            .filter_map(move |oid| self.by_oid.get(oid).map(|(o, _)| o))
    }

    /// Number of stored objects of `class` (no subclasses).
    pub fn count(&self, class: ClassId) -> usize {
        self.classes.get(&class).map_or(0, |h| h.objects.len())
    }

    /// Number of heap pages owned by `class`.
    pub fn pages_of(&self, class: ClassId) -> usize {
        self.classes.get(&class).map_or(0, |h| h.pages.len())
    }

    /// Oids of all objects of `class` in insertion order.
    pub fn oids_of(&self, class: ClassId) -> Vec<Oid> {
        self.classes
            .get(&class)
            .map(|h| h.objects.clone())
            .unwrap_or_default()
    }

    /// Total number of stored objects.
    pub fn len(&self) -> usize {
        self.by_oid.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.by_oid.is_empty()
    }
}

impl Default for ObjectStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use oic_schema::fixtures;

    fn division(s: &oic_schema::Schema, heap: &mut ObjectStore, name: &str) -> Object {
        let (_, c) = fixtures::paper_schema();
        let oid = heap.fresh_oid(c.division);
        Object::new(
            s,
            oid,
            vec![
                ("name", Value::from(name).into()),
                ("function", Value::from("ops").into()),
                ("movings", Value::Int(0).into()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let (s, c) = fixtures::paper_schema();
        let mut store = SimStore::new(4096);
        let mut heap = ObjectStore::new();
        let obj = division(&s, &mut heap, "sales");
        let oid = obj.oid;
        heap.insert(&mut store, obj).unwrap();
        assert_eq!(heap.count(c.division), 1);
        let got = heap.get(&store, oid).unwrap();
        assert_eq!(got.values_of("name"), vec![&Value::from("sales")]);
        let removed = heap.delete(&mut store, oid).unwrap();
        assert_eq!(removed.oid, oid);
        assert!(heap.get(&store, oid).is_err());
        assert!(heap.is_empty());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (s, _) = fixtures::paper_schema();
        let mut store = SimStore::new(4096);
        let mut heap = ObjectStore::new();
        let obj = division(&s, &mut heap, "a");
        let dup = obj.clone();
        heap.insert(&mut store, obj).unwrap();
        assert!(matches!(
            heap.insert(&mut store, dup),
            Err(HeapError::Duplicate(_))
        ));
    }

    #[test]
    fn pages_fill_before_allocating() {
        let (s, c) = fixtures::paper_schema();
        let mut store = SimStore::new(4096);
        let mut heap = ObjectStore::new();
        for i in 0..100 {
            let obj = division(&s, &mut heap, &format!("d{i}"));
            heap.insert(&mut store, obj).unwrap();
        }
        // ~40 byte objects: far fewer pages than objects.
        assert!(heap.pages_of(c.division) < 10, "objects share pages");
        assert_eq!(heap.count(c.division), 100);
    }

    #[test]
    fn scan_counts_one_read_per_page() {
        let (s, c) = fixtures::paper_schema();
        let mut store = SimStore::new(4096);
        let mut heap = ObjectStore::new();
        for i in 0..50 {
            let obj = division(&s, &mut heap, &format!("d{i}"));
            heap.insert(&mut store, obj).unwrap();
        }
        store.reset_stats();
        let n = heap.scan(&store, c.division).count();
        assert_eq!(n, 50);
        assert_eq!(store.stats().reads as usize, heap.pages_of(c.division));
    }

    #[test]
    fn classes_never_share_pages() {
        let (s, c) = fixtures::paper_schema();
        let mut store = SimStore::new(4096);
        let mut heap = ObjectStore::new();
        // Interleave insertions of two classes; pages must stay disjoint.
        for i in 0..20 {
            let obj = division(&s, &mut heap, &format!("d{i}"));
            heap.insert(&mut store, obj).unwrap();
            let oid = heap.fresh_oid(c.company);
            let comp = Object::new(
                &s,
                oid,
                vec![
                    ("name", Value::from(format!("co{i}")).into()),
                    ("location", Value::from("x").into()),
                    ("divs", crate::FieldValue::Multi(vec![])),
                ],
            )
            .unwrap();
            heap.insert(&mut store, comp).unwrap();
        }
        assert!(heap.pages_of(c.division) >= 1);
        assert!(heap.pages_of(c.company) >= 1);
        // Distinct by construction: each insert with a class switch starts
        // from that class's own tail page. Verify via the scan page counts.
        // (placement bookkeeping is internal; verified via page counts below)
        // (placement bookkeeping is internal; the public invariant is that
        // per-class page counts sum to the total live pages)
        assert_eq!(
            heap.pages_of(c.division) + heap.pages_of(c.company),
            store.live_pages() as usize
        );
    }

    #[test]
    fn fresh_oids_are_sequential_per_class() {
        let (_, c) = fixtures::paper_schema();
        let mut heap = ObjectStore::new();
        let a = heap.fresh_oid(c.division);
        let b = heap.fresh_oid(c.division);
        let x = heap.fresh_oid(c.company);
        assert_eq!(a.seq + 1, b.seq);
        assert_eq!(x.seq, 0);
        assert_ne!(a.class, x.class);
    }
}
