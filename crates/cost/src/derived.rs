//! Derived quantities of Table 2: `k`, `noid`, `par`, `nin̄`, `nar`, `narp`.
//!
//! All functions take 1-based path positions. Reconstruction notes:
//! DESIGN.md §5.3 (sum over sibling subclasses in `noid`), §5.6 (`nar`/
//! `narp` under a uniform spread).

use crate::PathCharacteristics;

/// Derived-quantity calculator over a full path's characteristics.
///
/// Construction memoizes every per-position Table-2 aggregate (`Σ_x k`,
/// weighted-average `nin`, hierarchy distinct-value unions, the `noid⁺`
/// suffix products) so the selection hot paths — which evaluate these
/// quantities for all `n(n+1)/2` subpaths — read precomputed tables instead
/// of recomputing hierarchy sums per call.
#[derive(Debug, Clone)]
pub struct Derived<'a> {
    chars: &'a PathCharacteristics,
    /// `Σ_x k_{l,x}` per position (index `l-1`).
    sum_k: Vec<f64>,
    /// Weighted-average `nin` per position (index `l-1`).
    wavg_nin: Vec<f64>,
    /// Distinct-value union per position (index `l-1`).
    d_union: Vec<f64>,
    /// `noid⁺_l` per position (index `l-1`); `noid⁺_{n+1} = 1` is implicit.
    noid_plus: Vec<f64>,
}

impl<'a> Derived<'a> {
    /// Wraps the characteristics and precomputes the per-position tables.
    pub fn new(chars: &'a PathCharacteristics) -> Self {
        let n = chars.len();
        let sum_k: Vec<f64> = (1..=n)
            .map(|l| (0..chars.nc(l)).map(|x| chars.stats(l, x).k()).sum())
            .collect();
        let wavg_nin: Vec<f64> = (1..=n)
            .map(|l| {
                let total_n = chars.total_n(l);
                if total_n <= 0.0 {
                    1.0
                } else {
                    (0..chars.nc(l))
                        .map(|x| {
                            let s = chars.stats(l, x);
                            s.n * s.nin
                        })
                        .sum::<f64>()
                        / total_n
                }
            })
            .collect();
        let d_union: Vec<f64> = (1..=n)
            .map(|l| {
                let m = (0..chars.nc(l))
                    .map(|x| chars.stats(l, x).d)
                    .fold(0.0f64, f64::max)
                    .max(1.0);
                if l < n {
                    m.min(chars.total_n(l + 1).max(1.0))
                } else {
                    m
                }
            })
            .collect();
        // Suffix products: noid⁺_l = Π_{i=l..n} Σ_x k_{i,x}.
        let mut noid_plus = vec![1.0; n];
        let mut acc = 1.0;
        for l in (1..=n).rev() {
            acc *= sum_k[l - 1];
            noid_plus[l - 1] = acc;
        }
        Derived {
            chars,
            sum_k,
            wavg_nin,
            d_union,
            noid_plus,
        }
    }

    /// Path length `n`.
    pub fn n(&self) -> usize {
        self.chars.len()
    }

    /// `k_{l,x}` — objects of class `(l,x)` sharing one value of `A_l`.
    pub fn k(&self, l: usize, x: usize) -> f64 {
        self.chars.stats(l, x).k()
    }

    /// `Σ_x k_{l,x}` over the hierarchy at position `l`.
    pub fn sum_k(&self, l: usize) -> f64 {
        self.sum_k[l - 1]
    }

    /// `noid⁺_l = Σ_x noid_{l,x}` — qualifying oids over the whole hierarchy
    /// at position `l` per value of the ending attribute `A_n`, where
    /// `noid_{l,x} = k_{l,x} · noid⁺_{l+1}`; `noid⁺_{n+1} = 1` by the
    /// equality-predicate convention (Section 3.1).
    pub fn noid_plus(&self, l: usize) -> f64 {
        if l > self.n() {
            1.0
        } else {
            self.noid_plus[l - 1]
        }
    }

    /// Number of keys probed in an index at position `l` while processing a
    /// query: the qualifying oids delivered by position `l+1`
    /// (`noid⁺_{l+1}`), which is 1 at the ending attribute.
    pub fn probe_count(&self, l: usize) -> f64 {
        self.noid_plus(l + 1)
    }

    /// `par_l` — aggregation parents per object at position `l`
    /// (`Σ_j k_{l-1,j}`; positions start at 1, so `par_1` is 0).
    pub fn par(&self, l: usize) -> f64 {
        if l <= 1 {
            0.0
        } else {
            self.sum_k(l - 1)
        }
    }

    /// Weighted-average `nin` at position `l` (weights = object counts).
    pub fn wavg_nin(&self, l: usize) -> f64 {
        self.wavg_nin[l - 1]
    }

    /// `nin̄_{l,x}` w.r.t. ending position `e` — the average number of
    /// values of `A_e` reachable from (held in the nested attribute of) an
    /// object of class `(l,x)`: `nin_{l,x} · Π_{i=l+1..e} wavg_nin(i)`.
    pub fn ninbar(&self, l: usize, x: usize, e: usize) -> f64 {
        let mut v = self.chars.stats(l, x).nin;
        for i in l + 1..=e {
            v *= self.wavg_nin(i);
        }
        v
    }

    /// Distinct values of `A_l` over the whole hierarchy at position `l`.
    /// Assumes subclasses draw from a shared domain (`max_j d_{l,j}`),
    /// clamped by the referenced population for reference attributes
    /// (DESIGN.md: the domain of a mid-path attribute is the oids at `l+1`).
    pub fn d_union(&self, l: usize) -> f64 {
        self.d_union[l - 1]
    }

    /// `occ_{l,x}` w.r.t. ending position `e`: average number of objects of
    /// class `(l,x)` listed in one NIX primary record
    /// (`n · nin̄ / d_union(e)`).
    pub fn occ(&self, l: usize, x: usize, e: usize) -> f64 {
        self.chars.stats(l, x).n * self.ninbar(l, x, e) / self.d_union(e)
    }

    /// `nar_{l+1}` — auxiliary class records touched when the `nin_{l,x}`
    /// child oids spread over the hierarchy at `l+1`: under a uniform
    /// spread, `min(nin, nc_{l+1})` (DESIGN.md §5.6).
    pub fn nar_children(&self, l: usize, x: usize) -> f64 {
        if l >= self.n() {
            return 0.0;
        }
        self.chars.stats(l, x).nin.min(self.chars.nc(l + 1) as f64)
    }

    /// Expected ancestors of one object of position `l` at ancestor position
    /// `i < l`: `anc(l−1) = par_l`, `anc(i) = anc(i+1) · Σ_j k_{i,j}`.
    pub fn ancestors_at(&self, l: usize, i: usize) -> f64 {
        debug_assert!(i < l);
        let mut v = self.par(l);
        let mut pos = l - 1;
        while pos > i {
            v *= self.sum_k(pos - 1);
            pos -= 1;
        }
        v
    }

    /// `narp_i` — auxiliary class records touched by the ancestors at
    /// position `i`: `min(anc_i, nc_i)`.
    pub fn narp(&self, l: usize, i: usize) -> f64 {
        self.ancestors_at(l, i).min(self.chars.nc(i) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::example51;
    use oic_schema::fixtures;

    fn fig7() -> PathCharacteristics {
        let (schema, _) = fixtures::paper_schema();
        example51(&schema).1
    }

    #[test]
    fn sum_k_positions() {
        let c = fig7();
        let d = Derived::new(&c);
        assert_eq!(d.sum_k(1), 10.0); // Per: 200000*1/20000
        assert_eq!(d.sum_k(2), 14.0); // Veh 6 + Bus 4 + Truck 4
        assert_eq!(d.sum_k(3), 4.0); // Comp
        assert_eq!(d.sum_k(4), 1.0); // Div
    }

    #[test]
    fn noid_chain() {
        let c = fig7();
        let d = Derived::new(&c);
        // Per a name value: 1 division, 4 companies, 56 vehicles, 560 persons.
        assert_eq!(d.noid_plus(4), 1.0);
        assert_eq!(d.noid_plus(3), 4.0);
        assert_eq!(d.noid_plus(2), 56.0);
        assert_eq!(d.noid_plus(1), 560.0);
        assert_eq!(d.noid_plus(5), 1.0, "n+1 convention");
    }

    #[test]
    fn probe_counts_follow_noid_plus() {
        let c = fig7();
        let d = Derived::new(&c);
        assert_eq!(d.probe_count(4), 1.0, "equality predicate at A_n");
        assert_eq!(d.probe_count(3), 1.0);
        assert_eq!(d.probe_count(2), 4.0);
        assert_eq!(d.probe_count(1), 56.0);
    }

    #[test]
    fn par_values() {
        let c = fig7();
        let d = Derived::new(&c);
        assert_eq!(d.par(1), 0.0);
        assert_eq!(d.par(2), 10.0); // persons per vehicle value
        assert_eq!(d.par(3), 14.0);
        assert_eq!(d.par(4), 4.0);
    }

    #[test]
    fn ninbar_composes() {
        let c = fig7();
        let d = Derived::new(&c);
        // Division w.r.t. position 4: its own nin.
        assert_eq!(d.ninbar(4, 0, 4), 1.0);
        // Company: 4 divisions, each 1 name.
        assert_eq!(d.ninbar(3, 0, 4), 4.0);
        // Vehicle: 3 manufacturers × 4 divisions × 1 = 12; weighted by class.
        let wavg2 = d.wavg_nin(2);
        assert!((wavg2 - 2.5).abs() < 1e-9); // (10000*3+5000*2+5000*2)/20000
        assert_eq!(d.ninbar(2, 0, 4), 12.0);
        // Person: 1 vehicle × wavg(veh)=2.5 × 4 × 1 = 10.
        assert!((d.ninbar(1, 0, 4) - 10.0).abs() < 1e-9);
        // Restricted subpath ending at 3 (divs): Person holds 1*2.5*4 = 10
        // company-division values... ending at 2: 1 * 2.5 = 2.5.
        assert!((d.ninbar(1, 0, 2) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn d_union_clamps_reference_domains() {
        let c = fig7();
        let d = Derived::new(&c);
        // Position 2 (man → Company): max d = 5000 clamped by 1000 companies.
        assert_eq!(d.d_union(2), 1_000.0);
        // Position 1 (owns → Vehicle hierarchy of 20000): d=20000 stands.
        assert_eq!(d.d_union(1), 20_000.0);
        // Ending attribute: atomic, unclamped.
        assert_eq!(d.d_union(4), 1_000.0);
    }

    #[test]
    fn occ_per_primary_record() {
        let c = fig7();
        let d = Derived::new(&c);
        // Persons per name record: 200000*10/1000 = 2000.
        assert!((d.occ(1, 0, 4) - 2_000.0).abs() < 1e-6);
        // Divisions per record: 1000*1/1000 = 1.
        assert!((d.occ(4, 0, 4) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nar_and_narp_are_bounded_by_class_counts() {
        let c = fig7();
        let d = Derived::new(&c);
        // Person objects hold 1 vehicle: 1 aux class record at position 2.
        assert_eq!(d.nar_children(1, 0), 1.0);
        // Vehicle holds 3 manufacturers but position 3 has one class.
        assert_eq!(d.nar_children(2, 0), 1.0);
        assert_eq!(d.nar_children(4, 0), 0.0, "no children past the end");
        // Ancestors of a Division object at position 3: par(4) = 4.
        assert_eq!(d.ancestors_at(4, 3), 4.0);
        // At position 2: 4 companies × 14 = 56, narp capped at 3 classes.
        assert_eq!(d.ancestors_at(4, 2), 56.0);
        assert_eq!(d.narp(4, 2), 3.0);
    }
}
