//! The configured-index executor: one physical index per subpath,
//! cross-subpath query chaining, and measured maintenance.
//!
//! When capture is enabled ([`ConfiguredDb::start_capture`]) every query,
//! insert and delete additionally appends a weighted
//! [`WorkloadEvent`](oic_workload::WorkloadEvent) to an in-executor
//! [`EventLog`](oic_workload::EventLog), giving the online tuning loop
//! (DESIGN.md §5.16) a ground-truth traffic stream recorded at the same
//! layer that pays the page accesses.

use crate::GeneratedDb;
use oic_core::{Choice, IndexConfiguration};
use oic_cost::Org;
use oic_index::{Grouping, MultiIndex, NaivePathEvaluator, NestedInheritedIndex, PathIndex};
use oic_schema::{ClassId, Path, Schema, SubpathId};
use oic_storage::{Object, ObjectStore, Oid, OpStats, SimStore, Value};
use oic_workload::{EventLog, PathKey, WorkloadEvent};
use std::cell::RefCell;

/// In-flight capture state: the log plus the logical clock events are
/// stamped with. Lives behind a `RefCell` because queries take `&self`.
#[derive(Debug)]
struct CaptureState {
    key: PathKey,
    tick: u64,
    log: EventLog,
}

/// Builds the physical index of `org` on subpath `sub` of `path` over the
/// objects already in `heap`.
pub(crate) fn build_index(
    schema: &Schema,
    path: &Path,
    sub: SubpathId,
    org: Org,
    store: &mut SimStore,
    heap: &ObjectStore,
) -> Box<dyn PathIndex> {
    let grouping = match org {
        Org::Mx => Grouping::PerClass,
        Org::Mix => Grouping::PerHierarchy,
        Org::Nix => return Box::new(NestedInheritedIndex::build(schema, path, sub, store, heap)),
    };
    Box::new(MultiIndex::build(schema, path, sub, grouping, store, heap))
}

enum SegmentExec {
    Indexed(Box<dyn PathIndex>),
    Naive(NaivePathEvaluator),
}

impl SegmentExec {
    fn span(&self) -> (usize, usize) {
        let seg = match self {
            SegmentExec::Indexed(i) => i.segment(),
            SegmentExec::Naive(n) => n.segment(),
        };
        (seg.start, seg.end())
    }
}

/// A generated database materialized under an index configuration.
pub struct ConfiguredDb<'a> {
    schema: &'a Schema,
    path: &'a Path,
    /// The database (public for stats and direct inspection).
    pub db: GeneratedDb,
    segments: Vec<SegmentExec>,
    /// 0-based path position per class (`ClassId::index`), `None` outside
    /// the path's scope.
    position_of: Vec<Option<usize>>,
    capture: RefCell<Option<CaptureState>>,
}

impl<'a> ConfiguredDb<'a> {
    /// Builds every subpath's physical index over the generated data.
    pub fn new(
        schema: &'a Schema,
        path: &'a Path,
        mut db: GeneratedDb,
        config: &IndexConfiguration,
    ) -> Self {
        let mut segments = Vec::new();
        for &(sub, choice) in config.pairs() {
            let exec = match choice {
                Choice::Index(org) => SegmentExec::Indexed(build_index(
                    schema,
                    path,
                    sub,
                    org,
                    &mut db.store,
                    &db.heap,
                )),
                Choice::NoIndex => SegmentExec::Naive(NaivePathEvaluator::new(schema, path, sub)),
            };
            segments.push(exec);
        }
        let mut position_of = vec![None; schema.class_ids().count()];
        for (pos, hierarchy) in path.scope_by_position(schema).iter().enumerate() {
            for class in hierarchy {
                position_of[class.index()] = Some(pos);
            }
        }
        ConfiguredDb {
            schema,
            path,
            db,
            segments,
            position_of,
            capture: RefCell::new(None),
        }
    }

    /// Starts recording the executor's operations as a weighted
    /// [`WorkloadEvent`] stream under capture key `key` (the identity
    /// queries against this path carry in the log). Restarting discards
    /// any log not yet taken.
    pub fn start_capture(&mut self, key: PathKey) {
        *self.capture.get_mut() = Some(CaptureState {
            key,
            tick: 0,
            log: EventLog::default(),
        });
    }

    /// Advances the capture clock by one tick. Events recorded before the
    /// first call land on tick 0. A no-op when capture is off.
    pub fn advance_capture_tick(&mut self) {
        if let Some(cap) = self.capture.get_mut().as_mut() {
            cap.tick += 1;
        }
    }

    /// Stops capturing and returns the recorded log, or `None` if capture
    /// was never started.
    pub fn take_capture_log(&mut self) -> Option<EventLog> {
        self.capture.get_mut().take().map(|c| c.log)
    }

    fn record(&self, event: WorkloadEvent) {
        if let Some(cap) = self.capture.borrow_mut().as_mut() {
            cap.log.push(cap.tick, event, 1.0);
        }
    }

    /// Convenience: whole-path single-organization configuration.
    pub fn single(schema: &'a Schema, path: &'a Path, db: GeneratedDb, org: Org) -> Self {
        let config = IndexConfiguration::whole_path(org, path.len());
        Self::new(schema, path, db, &config)
    }

    /// Equality query against the full path's ending attribute with respect
    /// to `target`: processes the subpaths from the last backwards
    /// (Proposition 4.1), returning the qualifying oids and the page-access
    /// statistics of the whole operation.
    pub fn query(
        &self,
        value: &Value,
        target: ClassId,
        with_subclasses: bool,
    ) -> (Vec<Oid>, OpStats) {
        let measured = self
            .db
            .store
            .measure(|| self.query_inner(value, target, with_subclasses));
        if let Some(cap) = self.capture.borrow_mut().as_mut() {
            let path = cap.key;
            cap.log.push(
                cap.tick,
                WorkloadEvent::Query {
                    path,
                    class: target,
                },
                1.0,
            );
        }
        measured
    }

    fn query_inner(&self, value: &Value, target: ClassId, with_subclasses: bool) -> Vec<Oid> {
        let target_pos = self.position_of[target.index()].expect("target class in path scope") + 1;
        let mut keys = vec![value.clone()];
        for seg in self.segments.iter().rev() {
            let (start, end) = seg.span();
            if target_pos > end {
                continue; // downstream of the target's subpath: not needed
            }
            let contains_target = (start..=end).contains(&target_pos);
            let (cls, subs) = if contains_target {
                (target, with_subclasses)
            } else {
                // Traversal: retrieve the whole hierarchy at the start.
                (self.segment_start_class(start), true)
            };
            let oids = match seg {
                SegmentExec::Indexed(idx) => idx.lookup(&self.db.store, &keys, cls, subs),
                SegmentExec::Naive(n) => n.lookup(&self.db.store, &self.db.heap, &keys, cls, subs),
            };
            if contains_target {
                return oids;
            }
            keys = oids.into_iter().map(Value::Ref).collect();
            if keys.is_empty() {
                return Vec::new();
            }
        }
        unreachable!("target position is always inside some subpath")
    }

    fn segment_start_class(&self, start_pos: usize) -> ClassId {
        self.path.step(start_pos).class
    }

    /// Number of positions in the indexed path.
    pub fn path_len(&self) -> usize {
        self.path.len()
    }

    /// The class at 1-based path position `pos`.
    pub fn class_at(&self, pos: usize) -> ClassId {
        self.path.step(pos).class
    }

    /// Inserts an object: heap write plus maintenance of every subpath
    /// index. Returns the operation statistics.
    pub fn insert(&mut self, obj: Object) -> OpStats {
        self.record(WorkloadEvent::Insert { class: obj.class() });
        self.db.store.begin_op();
        for seg in &mut self.segments {
            if let SegmentExec::Indexed(idx) = seg {
                idx.on_insert(&mut self.db.store, &obj);
            }
        }
        let oid = obj.oid;
        self.db
            .heap
            .insert(&mut self.db.store, obj)
            .expect("fresh oid");
        if let Some(p) = self.position_of[oid.class.index()] {
            self.db.pools[p].push(oid);
        }
        self.db.store.end_op()
    }

    /// Deletes an object by oid: heap removal plus index maintenance
    /// (including the boundary `CMD` effect on a preceding subpath).
    pub fn delete(&mut self, oid: Oid) -> OpStats {
        self.db.store.begin_op();
        if let Ok(obj) = self.db.heap.delete(&mut self.db.store, oid) {
            self.record(WorkloadEvent::Delete { class: obj.class() });
            for seg in &mut self.segments {
                if let SegmentExec::Indexed(idx) = seg {
                    idx.on_delete(&mut self.db.store, &obj);
                }
            }
            // The oid sits in its position's pool only, usually near the end.
            if let Some(p) = self.position_of[oid.class.index()] {
                let pool = &mut self.db.pools[p];
                if let Some(i) = pool.iter().rposition(|&o| o == oid) {
                    pool.remove(i);
                }
            }
        }
        self.db.store.end_op()
    }

    /// Total pages across all physical indexes.
    pub fn index_pages(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| match s {
                SegmentExec::Indexed(i) => i.total_pages(),
                SegmentExec::Naive(_) => 0,
            })
            .sum()
    }

    /// The bound path.
    pub fn path(&self) -> &Path {
        self.path
    }

    /// The bound schema.
    pub fn schema(&self) -> &Schema {
        self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, scale_chars, GenSpec};
    use oic_cost::characteristics::example51;
    use oic_schema::fixtures;
    use oic_schema::SubpathId;

    fn small_db() -> (
        oic_schema::Schema,
        oic_schema::Path,
        oic_cost::PathCharacteristics,
    ) {
        let (schema, _) = fixtures::paper_schema();
        let (path, chars) = example51(&schema);
        let small = scale_chars(&chars, 0.004);
        (schema, path, small)
    }

    fn configs(n: usize) -> Vec<IndexConfiguration> {
        let mut out = vec![
            IndexConfiguration::whole_path(Org::Mx, n),
            IndexConfiguration::whole_path(Org::Mix, n),
            IndexConfiguration::whole_path(Org::Nix, n),
        ];
        out.push(
            IndexConfiguration::new(
                vec![
                    (SubpathId { start: 1, end: 2 }, Choice::Index(Org::Nix)),
                    (SubpathId { start: 3, end: n }, Choice::Index(Org::Mx)),
                ],
                n,
            )
            .unwrap(),
        );
        out.push(
            IndexConfiguration::new(
                vec![
                    (SubpathId { start: 1, end: 1 }, Choice::NoIndex),
                    (SubpathId { start: 2, end: n }, Choice::Index(Org::Mix)),
                ],
                n,
            )
            .unwrap(),
        );
        out
    }

    #[test]
    fn all_configurations_agree_on_query_results() {
        let (schema, path, chars) = small_db();
        let spec = GenSpec::default();
        let mut baseline: Option<Vec<Vec<Oid>>> = None;
        for config in configs(path.len()) {
            let db = generate(&schema, &path, &chars, &spec);
            let values = db.ending_values.clone();
            let exec = ConfiguredDb::new(&schema, &path, db, &config);
            let per = schema.class_by_name("Person").unwrap();
            let veh = schema.class_by_name("Vehicle").unwrap();
            let mut results = Vec::new();
            for v in values.iter().take(4) {
                results.push(exec.query(v, per, false).0);
                results.push(exec.query(v, veh, true).0);
            }
            match &baseline {
                None => baseline = Some(results),
                Some(b) => assert_eq!(b, &results, "config {config} disagrees"),
            }
        }
    }

    #[test]
    fn maintenance_keeps_queries_correct() {
        let (schema, path, chars) = small_db();
        let db = generate(&schema, &path, &chars, &GenSpec::default());
        let values = db.ending_values.clone();
        let config = IndexConfiguration::new(
            vec![
                (SubpathId { start: 1, end: 2 }, Choice::Index(Org::Nix)),
                (SubpathId { start: 3, end: 4 }, Choice::Index(Org::Mx)),
            ],
            4,
        )
        .unwrap();
        let mut exec = ConfiguredDb::new(&schema, &path, db, &config);
        let per = schema.class_by_name("Person").unwrap();
        // Delete a person, a vehicle and a company; queries stay consistent
        // with a freshly built configuration over the same heap.
        let victims: Vec<Oid> = vec![
            exec.db.pools[0][0],
            exec.db.pools[1][0],
            exec.db.pools[2][0],
        ];
        for v in victims {
            let stats = exec.delete(v);
            assert!(stats.total() > 0, "maintenance touches pages");
        }
        let reference_db = {
            // Rebuild indexes from the mutated heap: fresh ground truth.
            let heap_counts: Vec<usize> = exec.db.pools.iter().map(Vec::len).collect();
            assert!(heap_counts[0] > 0);
            let db2 = GeneratedDb {
                store: oic_storage::SimStore::new(1024),
                heap: clone_heap(&schema, &exec.db),
                pools: exec.db.pools.clone(),
                ending_values: exec.db.ending_values.clone(),
            };
            ConfiguredDb::new(&schema, &path, db2, &config)
        };
        for v in values.iter().take(5) {
            let got = exec.query(v, per, false).0;
            let want = reference_db.query(v, per, false).0;
            assert_eq!(got, want, "query {v} after maintenance");
        }
    }

    fn clone_heap(schema: &Schema, db: &GeneratedDb) -> oic_storage::ObjectStore {
        let mut heap = oic_storage::ObjectStore::new();
        let mut store = oic_storage::SimStore::new(1024);
        for c in schema.class_ids() {
            for oid in db.heap.oids_of(c) {
                let obj = db.heap.peek(oid).unwrap().clone();
                heap.insert(&mut store, obj).unwrap();
            }
        }
        heap
    }

    #[test]
    fn query_stats_reflect_configuration() {
        let (schema, path, chars) = small_db();
        let per = schema.class_by_name("Person").unwrap();
        let spec = GenSpec::default();
        // NIX whole path: one primary probe. MX whole path: chases oids
        // through four positions — strictly more pages on a fan-out query.
        let db_nix = generate(&schema, &path, &chars, &spec);
        let nix = ConfiguredDb::single(&schema, &path, db_nix, Org::Nix);
        let db_mx = generate(&schema, &path, &chars, &spec);
        let mx = ConfiguredDb::single(&schema, &path, db_mx, Org::Mx);
        let mut nix_pages = 0u64;
        let mut mx_pages = 0u64;
        let values = nix.db.ending_values.clone();
        for v in values.iter().take(8) {
            nix_pages += nix.query(v, per, false).1.distinct_reads;
            mx_pages += mx.query(v, per, false).1.distinct_reads;
        }
        assert!(
            nix_pages < mx_pages,
            "NIX queries ({nix_pages}) read fewer pages than MX ({mx_pages})"
        );
    }
}
