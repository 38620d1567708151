//! Load distributions over path scopes.

use oic_schema::{ClassId, Path, Schema};
use std::collections::HashMap;

/// `(α, β, γ)` — frequency of queries (against the path's ending attribute)
/// with respect to the class, and of insertions and deletions on the class.
/// Frequencies are rates per unit time; the unit cancels in comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Triplet {
    /// `α` — query frequency w.r.t. the class.
    pub query: f64,
    /// `β` — insertion frequency on the class.
    pub insert: f64,
    /// `γ` — deletion frequency on the class.
    pub delete: f64,
}

impl Triplet {
    /// Convenience constructor.
    pub fn new(query: f64, insert: f64, delete: f64) -> Self {
        Triplet {
            query,
            insert,
            delete,
        }
    }

    /// Total operation mass.
    pub fn total(&self) -> f64 {
        self.query + self.insert + self.delete
    }
}

/// `LD_{A_n}(scope(P))` — one triplet per class in the scope, organized per
/// position like `PathCharacteristics` (hierarchy root first).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadDistribution {
    positions: Vec<Vec<(ClassId, Triplet)>>,
}

impl LoadDistribution {
    /// Builds the distribution by querying `load` for each scope class.
    pub fn build(schema: &Schema, path: &Path, mut load: impl FnMut(ClassId) -> Triplet) -> Self {
        let positions = path
            .scope_by_position(schema)
            .into_iter()
            .map(|cs| cs.into_iter().map(|c| (c, load(c))).collect())
            .collect();
        LoadDistribution { positions }
    }

    /// Builds from a map; missing classes get a zero triplet.
    pub fn from_map(schema: &Schema, path: &Path, map: &HashMap<ClassId, Triplet>) -> Self {
        Self::build(schema, path, |c| map.get(&c).copied().unwrap_or_default())
    }

    /// A uniform distribution (same triplet everywhere) — useful in sweeps.
    pub fn uniform(schema: &Schema, path: &Path, t: Triplet) -> Self {
        Self::build(schema, path, |_| t)
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Load distributions are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Hierarchy width at position `l` (1-based).
    pub fn nc(&self, l: usize) -> usize {
        self.positions[l - 1].len()
    }

    /// Triplet of class `x` at position `l`.
    pub fn triplet(&self, l: usize, x: usize) -> Triplet {
        self.positions[l - 1][x].1
    }

    /// Class id of entry `x` at position `l`.
    pub fn class(&self, l: usize, x: usize) -> ClassId {
        self.positions[l - 1][x].0
    }

    /// Total query mass strictly upstream of position `s`.
    pub fn upstream_query_mass(&self, s: usize) -> f64 {
        self.positions[..s - 1]
            .iter()
            .flatten()
            .map(|(_, t)| t.query)
            .sum()
    }

    /// Total deletion mass at position `l`.
    pub fn delete_mass_at(&self, l: usize) -> f64 {
        self.positions[l - 1].iter().map(|(_, t)| t.delete).sum()
    }

    /// The query share of this distribution: same `α` everywhere, `β = γ =
    /// 0`. Processing cost is linear in the triplets, so
    /// `PC(ld) = PC(ld.query_only()) + PC(ld.maintenance_only())` exactly —
    /// the decomposition the workload advisor uses to price a shared
    /// index's maintenance once while charging retrievals per path.
    pub fn query_only(&self) -> LoadDistribution {
        self.map_triplets(|t| Triplet::new(t.query, 0.0, 0.0))
    }

    /// The maintenance share of this distribution: `α = 0`, same `β`/`γ`.
    pub fn maintenance_only(&self) -> LoadDistribution {
        self.map_triplets(|t| Triplet::new(0.0, t.insert, t.delete))
    }

    fn map_triplets(&self, f: impl Fn(Triplet) -> Triplet) -> LoadDistribution {
        LoadDistribution {
            positions: self
                .positions
                .iter()
                .map(|pos| pos.iter().map(|&(c, t)| (c, f(t))).collect())
                .collect(),
        }
    }
}

/// The load distribution of the paper's **Figure 7** (`LD_name(Pexa)`):
///
/// | Class | (α, β, γ)          |
/// |-------|--------------------|
/// | Per   | (0.3, 0.1, 0.1)    |
/// | Veh   | (0.3, 0.0, 0.05)   |
/// | Bus   | (0.05, 0.05, 0.1)  |
/// | Truck | (0.0, 0.1, 0.0)    |
/// | Comp  | (0.1, 0.1, 0.1)    |
/// | Div   | (0.2, 0.2, 0.1)    |
pub fn example51_load(schema: &Schema, path: &Path) -> LoadDistribution {
    let mut map = HashMap::new();
    let mut put = |name: &str, t: Triplet| {
        let id = schema.class_by_name(name).expect("paper schema");
        map.insert(id, t);
    };
    put("Person", Triplet::new(0.3, 0.1, 0.1));
    put("Vehicle", Triplet::new(0.3, 0.0, 0.05));
    put("Bus", Triplet::new(0.05, 0.05, 0.1));
    put("Truck", Triplet::new(0.0, 0.1, 0.0));
    put("Company", Triplet::new(0.1, 0.1, 0.1));
    put("Division", Triplet::new(0.2, 0.2, 0.1));
    LoadDistribution::from_map(schema, path, &map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_schema::fixtures;

    #[test]
    fn example51_values() {
        let (schema, _) = fixtures::paper_schema();
        let path = fixtures::paper_path_pexa(&schema);
        let ld = example51_load(&schema, &path);
        assert_eq!(ld.len(), 4);
        assert_eq!(ld.triplet(1, 0), Triplet::new(0.3, 0.1, 0.1));
        assert_eq!(ld.triplet(2, 0).query, 0.3); // Veh
        assert_eq!(ld.triplet(2, 1).insert, 0.05); // Bus
        assert_eq!(ld.triplet(2, 2).query, 0.0); // Truck
        assert_eq!(ld.triplet(4, 0), Triplet::new(0.2, 0.2, 0.1));
    }

    #[test]
    fn mass_helpers() {
        let (schema, _) = fixtures::paper_schema();
        let path = fixtures::paper_path_pexa(&schema);
        let ld = example51_load(&schema, &path);
        assert!((ld.upstream_query_mass(1) - 0.0).abs() < 1e-12);
        assert!((ld.upstream_query_mass(2) - 0.3).abs() < 1e-12);
        // Upstream of Comp: Per 0.3 + Veh 0.3 + Bus 0.05 + Truck 0.
        assert!((ld.upstream_query_mass(3) - 0.65).abs() < 1e-12);
        assert!((ld.delete_mass_at(2) - 0.15).abs() < 1e-12);
        assert!((ld.upstream_query_mass(ld.len() + 1) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn uniform_fills_scope() {
        let (schema, _) = fixtures::paper_schema();
        let path = fixtures::paper_path_pe(&schema);
        let ld = LoadDistribution::uniform(&schema, &path, Triplet::new(1.0, 0.0, 0.0));
        assert_eq!(ld.nc(2), 3);
        assert_eq!(ld.triplet(2, 2).query, 1.0);
    }

    #[test]
    fn query_and_maintenance_shares_partition_the_load() {
        let (schema, _) = fixtures::paper_schema();
        let path = fixtures::paper_path_pexa(&schema);
        let ld = example51_load(&schema, &path);
        let q = ld.query_only();
        let m = ld.maintenance_only();
        for l in 1..=ld.len() {
            for x in 0..ld.nc(l) {
                let t = ld.triplet(l, x);
                assert_eq!(q.triplet(l, x), Triplet::new(t.query, 0.0, 0.0));
                assert_eq!(m.triplet(l, x), Triplet::new(0.0, t.insert, t.delete));
                assert_eq!(q.class(l, x), ld.class(l, x));
            }
        }
    }
}
