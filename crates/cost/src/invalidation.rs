//! The model-invalidation contract: which classes each cached cost depends
//! on, for engines that delta-maintain priced matrices across epochs.
//!
//! The online `WorkloadAdvisor` (see `oic_core::workload_advisor`) memoizes
//! two layers derived from this crate's model:
//!
//! * **per-path query shares** — `PC` under the query-only load. Every term
//!   reads the [`PathCharacteristics`](crate::PathCharacteristics) of the
//!   *whole* path (the Table-2 aggregates: `noid⁺` probe-count suffix
//!   products, `d_union`, `k` sums span all positions), so a query share is
//!   stale as soon as the statistics of **any** class in the path's scope
//!   change: [`query_dependencies`] is the full flattened scope.
//! * **per-candidate maintenance prices** — `PC` under the maintenance-only
//!   load for one subpath. Maintenance terms only read statistics of the
//!   hierarchies *inside* the subpath (record lengths, `nin`, `ninbar`,
//!   `occ`, auxiliary-index populations) plus, for an *embedded* subpath,
//!   the deletion traffic of the class hierarchy that follows it (the
//!   Section 4 boundary-`CMD` mass). That is what makes the price
//!   candidate-intrinsic — equal through any owner's model — and it bounds
//!   the blast radius of a statistics update: [`maintenance_dependencies`]
//!   is the union of the step hierarchies plus (embedded only) the
//!   successor hierarchy.
//!
//! Both functions return **sorted, deduplicated** class lists so callers
//! can intersect them with a changed-class set by binary search. The
//! perturbation tests at the bottom of this module pin the contract: a
//! statistics change *outside* a candidate's dependency set must leave its
//! maintenance price bit-identical, and a change *inside* must move it.

use oic_schema::{ClassId, Path, Schema, SubpathId};

/// Classes whose statistics or update rates affect the **maintenance**
/// price of an index allocated on subpath `sub` of `path`: the inheritance
/// hierarchies of the subpath's step classes, plus — when the subpath is
/// embedded (`sub.end < path.len()`) — the hierarchy of the successor class
/// whose deletions the boundary-`CMD` term charges to this subpath.
///
/// The same set bounds the **size** (footprint in pages, see
/// [`crate::size`]) of that index: the size reads the per-class
/// `n`/`d`/`nin` of the step hierarchies plus — through the `d_union`
/// domain clamp on the ending position (a mid-path reference attribute's
/// key domain is the successor population) — the successor hierarchy when
/// the subpath is embedded. Engines that memoize sizes beside maintenance
/// prices therefore reuse this invalidation wiring verbatim: any drift
/// that can move a size already clears the matching maintenance cell. The
/// perturbation tests below pin both halves.
///
/// Sorted and deduplicated; probe with `binary_search`.
pub fn maintenance_dependencies(schema: &Schema, path: &Path, sub: SubpathId) -> Vec<ClassId> {
    let mut deps: Vec<ClassId> = (sub.start..=sub.end)
        .flat_map(|l| schema.hierarchy(path.step(l).class))
        .collect();
    if sub.end < path.len() {
        // The successor class C_{e+1} is the domain of the subpath's ending
        // (reference) attribute; its deletions shrink the boundary index.
        let succ = path
            .domain_of(sub.end)
            .expect("embedded subpaths end on reference attributes");
        deps.extend(schema.hierarchy(succ));
    }
    deps.sort_unstable();
    deps.dedup();
    deps
}

/// Classes whose statistics affect the **query** share of any subpath of
/// `path`: the full flattened scope (every position's hierarchy), because
/// probe counts multiply `noid⁺` factors from all downstream positions and
/// the Table-2 aggregates couple the whole path.
///
/// Sorted and deduplicated; probe with `binary_search`.
pub fn query_dependencies(schema: &Schema, path: &Path) -> Vec<ClassId> {
    let mut deps = path.scope(schema);
    deps.sort_unstable();
    deps.dedup();
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{characteristics::example51, ClassStats, CostModel, CostParams};
    use oic_schema::fixtures;

    fn sub(s: usize, e: usize) -> SubpathId {
        SubpathId { start: s, end: e }
    }

    #[test]
    fn maintenance_deps_are_steps_plus_boundary() {
        let (schema, _) = fixtures::paper_schema();
        let pexa = fixtures::paper_path_pexa(&schema); // Per.owns.man.divs.name
        let name = |c: ClassId| schema.class_name(c).to_string();
        // Embedded Per.owns: Person plus the Vehicle hierarchy boundary.
        let d = maintenance_dependencies(&schema, &pexa, sub(1, 1));
        let mut names: Vec<_> = d.iter().map(|&c| name(c)).collect();
        names.sort();
        assert_eq!(names, ["Bus", "Person", "Truck", "Vehicle"]);
        // Terminal Division.name: Division only — no successor.
        let d = maintenance_dependencies(&schema, &pexa, sub(4, 4));
        assert_eq!(d.iter().map(|&c| name(c)).collect::<Vec<_>>(), ["Division"]);
        // Whole path: everything but no duplicates, sorted.
        let d = maintenance_dependencies(&schema, &pexa, sub(1, 4));
        assert_eq!(d.len(), 6, "Per, Veh, Bus, Truck, Comp, Div");
        assert!(d.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn query_deps_are_the_full_scope() {
        let (schema, _) = fixtures::paper_schema();
        let pe = fixtures::paper_path_pe(&schema);
        let d = query_dependencies(&schema, &pe);
        assert_eq!(d.len(), 5, "Per, Veh, Bus, Truck, Comp");
        assert!(d.windows(2).all(|w| w[0] < w[1]));
    }

    // `oic-cost` cannot depend on `oic-workload`/`oic-core` (dependency
    // direction), so the full perturbation test — rebuilding the model with
    // drifted stats and comparing priced `PC` maintenance — lives in
    // `oic-core::space::tests::invalidation_contract_matches_priced_costs`.
    // Here we pin the model-layer half: per-subpath *cost-model* outputs
    // that feed the maintenance price only move when a dependency moves.
    #[test]
    fn model_maintenance_outputs_blind_to_out_of_scope_stats() {
        let (schema, _) = fixtures::paper_schema();
        let (path, base) = example51(&schema);
        let params = CostParams::default();
        let s12 = sub(1, 2); // Per.owns.man, embedded (boundary = Company)
        let deps = maintenance_dependencies(&schema, &path, s12);
        let division = schema.class_by_name("Division").unwrap();
        assert!(
            deps.binary_search(&division).is_err(),
            "Div is out of scope"
        );
        let company = schema.class_by_name("Company").unwrap();
        assert!(
            deps.binary_search(&company).is_ok(),
            "the boundary class is a dependency"
        );

        let probe = |chars: &crate::PathCharacteristics| {
            let m = CostModel::new(&schema, &path, chars, params);
            let mut out = Vec::new();
            for org in crate::Org::ALL {
                for l in s12.start..=s12.end {
                    for x in 0..chars.nc(l) {
                        out.push(m.maint_insert(org, s12, l, x));
                        out.push(m.maint_delete(org, s12, l, x));
                    }
                }
                out.push(m.boundary_delete(org, s12));
            }
            out
        };
        let baseline = probe(&base);

        // Drift Division (outside the dependency set): bit-identical.
        let drifted = base.map_stats(|c, s| {
            if c == division {
                ClassStats::new(s.n * 7.0, s.d * 3.0, s.nin)
            } else {
                s
            }
        });
        assert_eq!(
            probe(&drifted),
            baseline,
            "out-of-scope drift must not move prices"
        );

        // Drift Company (the boundary dependency): prices move.
        let drifted = base.map_stats(|c, s| {
            if c == company {
                ClassStats::new(s.n * 7.0, s.d * 3.0, s.nin)
            } else {
                s
            }
        });
        assert_ne!(probe(&drifted), baseline, "in-scope drift must reprice");
    }

    /// The size half of the contract: an index footprint is blind to every
    /// class outside [`maintenance_dependencies`] (bit-identical under
    /// drift) and moves when a dependency — including the embedded boundary
    /// clamp — drifts. This is what lets the candidate space keep a cell's
    /// size beside its maintenance price and clear both as one.
    #[test]
    fn size_outputs_follow_the_maintenance_dependency_set() {
        let (schema, _) = fixtures::paper_schema();
        let (path, base) = example51(&schema);
        let params = CostParams::default();
        let s12 = sub(1, 2); // embedded Per.owns.man; boundary = Company
        let probe = |chars: &crate::PathCharacteristics| {
            let m = CostModel::new(&schema, &path, chars, params);
            crate::Org::ALL
                .iter()
                .map(|&org| crate::size::index_size_pages(&m, s12, org))
                .collect::<Vec<_>>()
        };
        let baseline = probe(&base);
        let division = schema.class_by_name("Division").unwrap();
        let out_of_scope = base.map_stats(|c, s| {
            if c == division {
                ClassStats::new(s.n * 9.0, s.d * 5.0, s.nin)
            } else {
                s
            }
        });
        assert_eq!(
            probe(&out_of_scope)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            baseline.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "out-of-dependency drift must leave sizes bit-identical"
        );
        // Shrinking the Company population far below d_union(2) exercises
        // the boundary clamp: the embedded subpath's key domain shrinks, so
        // MIX/NIX footprints move even though Company is outside the steps.
        let company = schema.class_by_name("Company").unwrap();
        let boundary = base.map_stats(|c, s| {
            if c == company {
                ClassStats::new(10.0, 10.0, s.nin)
            } else {
                s
            }
        });
        assert_ne!(
            probe(&boundary),
            baseline,
            "boundary drift must move embedded sizes"
        );
    }
}
