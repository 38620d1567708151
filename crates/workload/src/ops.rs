//! Abstract operation streams for the simulator.
//!
//! The executor in `oic-sim` resolves these abstract operations against a
//! generated database (choosing concrete key values, oids and reference
//! targets); here we only sample *which* operation happens where, with
//! probabilities proportional to the load distribution's frequencies.

use crate::LoadDistribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One abstract workload operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Equality query against the path's ending attribute, retrieving
    /// objects of the class `(position, hierarchy index)`.
    Query {
        /// 1-based path position of the target class.
        position: usize,
        /// Hierarchy index at the position.
        class: usize,
    },
    /// Insertion of a new object of the class.
    Insert {
        /// 1-based path position.
        position: usize,
        /// Hierarchy index.
        class: usize,
    },
    /// Deletion of an existing object of the class.
    Delete {
        /// 1-based path position.
        position: usize,
        /// Hierarchy index.
        class: usize,
    },
}

/// Samples `count` operations with probabilities proportional to the load
/// distribution's `(α, β, γ)` masses. Deterministic per seed.
pub fn sample_ops(ld: &LoadDistribution, count: usize, seed: u64) -> Vec<OpKind> {
    let mut weights: Vec<(OpKind, f64)> = Vec::new();
    for l in 1..=ld.len() {
        for x in 0..ld.nc(l) {
            let t = ld.triplet(l, x);
            if t.query > 0.0 {
                weights.push((
                    OpKind::Query {
                        position: l,
                        class: x,
                    },
                    t.query,
                ));
            }
            if t.insert > 0.0 {
                weights.push((
                    OpKind::Insert {
                        position: l,
                        class: x,
                    },
                    t.insert,
                ));
            }
            if t.delete > 0.0 {
                weights.push((
                    OpKind::Delete {
                        position: l,
                        class: x,
                    },
                    t.delete,
                ));
            }
        }
    }
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    if total <= 0.0 || weights.is_empty() {
        return out;
    }
    for _ in 0..count {
        let mut roll = rng.gen::<f64>() * total;
        let mut chosen = weights[weights.len() - 1].0;
        for (op, w) in &weights {
            if roll < *w {
                chosen = *op;
                break;
            }
            roll -= w;
        }
        out.push(chosen);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example51_load;
    use oic_schema::fixtures;

    fn ld() -> LoadDistribution {
        let (schema, _) = fixtures::paper_schema();
        let path = fixtures::paper_path_pexa(&schema);
        example51_load(&schema, &path)
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let ld = ld();
        let a = sample_ops(&ld, 100, 7);
        let b = sample_ops(&ld, 100, 7);
        let c = sample_ops(&ld, 100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sampling_respects_masses_roughly() {
        let ld = ld();
        let ops = sample_ops(&ld, 20_000, 42);
        let queries = ops
            .iter()
            .filter(|o| matches!(o, OpKind::Query { .. }))
            .count() as f64;
        // Query mass 0.95 of total 1.95 ≈ 48.7%.
        let frac = queries / 20_000.0;
        assert!((frac - 0.487).abs() < 0.03, "query fraction {frac}");
        // Truck never queried.
        assert!(!ops.contains(&OpKind::Query {
            position: 2,
            class: 2
        }));
    }

    #[test]
    fn empty_load_samples_nothing() {
        let (schema, _) = fixtures::paper_schema();
        let path = fixtures::paper_path_pe(&schema);
        let ld = LoadDistribution::uniform(&schema, &path, crate::Triplet::default());
        assert!(sample_ops(&ld, 10, 1).is_empty());
    }
}
