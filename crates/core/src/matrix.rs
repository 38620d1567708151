//! The `Cost_Matrix` and `Min_Cost` procedures (Section 5).

use crate::{pc, Choice};
use oic_cost::{CostModel, Org};
use oic_schema::SubpathId;
use oic_workload::LoadDistribution;

/// The cost matrix: one row per subpath (`n(n+1)/2` rows, ordered by length
/// then start, exactly as the paper numbers `S_1 … S_{n(n+1)/2}`), one
/// column per organization, plus an optional no-index column (Section 6
/// extension, disabled by default).
///
/// Storage is dense: rows are addressed by [`SubpathId::rank`] and columns
/// by [`Org::index`], so the `pc`/`select` hot paths index flat arrays
/// instead of hashing `(SubpathId, Org)` keys. Row minima (`Min_Cost`) are
/// read off a row's three or four cells.
///
/// Beside the cost plane the matrix carries a **size plane**: the estimated
/// footprint in pages of each `(subpath, organization)` cell (see
/// [`oic_cost::size`]). Model-built matrices fill it from the level
/// profiles; [`CostMatrix::from_values`] matrices carry zero sizes (pure
/// cost selection) unless built via [`CostMatrix::from_values_with_sizes`].
/// The two-objective [`frontier_dp`](crate::select::frontier_dp) optimizes
/// over both planes; scalar selectors read only the cost plane.
#[derive(Debug, Clone)]
pub struct CostMatrix {
    path_len: usize,
    rows: Vec<SubpathId>,
    /// `[MX, MIX, NIX]` per rank; `INFINITY` for ranks without a row.
    costs: Vec<[f64; 3]>,
    /// `[MX, MIX, NIX]` footprint in pages per rank; 0 for ranks without a
    /// row and for matrices built without sizes.
    sizes: Vec<[f64; 3]>,
    /// No-index column per rank, when built.
    no_index: Option<Vec<f64>>,
}

impl CostMatrix {
    /// Builds the matrix from the analytic model and a workload.
    pub fn build(model: &CostModel<'_>, ld: &LoadDistribution) -> Self {
        Self::build_inner(model, ld, false)
    }

    /// Builds the matrix including the no-index option per subpath.
    pub fn build_with_no_index(model: &CostModel<'_>, ld: &LoadDistribution) -> Self {
        Self::build_inner(model, ld, true)
    }

    fn build_inner(model: &CostModel<'_>, ld: &LoadDistribution, no_index: bool) -> Self {
        let path = model.path();
        let n = path.len();
        let rows = path.subpath_ids();
        let mut costs = vec![[f64::INFINITY; 3]; SubpathId::count(n)];
        let mut sizes = vec![[0.0; 3]; SubpathId::count(n)];
        let mut ni = no_index.then(|| vec![f64::INFINITY; SubpathId::count(n)]);
        for &sub in &rows {
            let r = sub.rank(n);
            for org in Org::ALL {
                costs[r][org.index()] = pc::processing_cost(model, ld, sub, Choice::Index(org));
                sizes[r][org.index()] = model.size_pages(org, sub);
            }
            if let Some(col) = ni.as_mut() {
                col[r] = pc::processing_cost(model, ld, sub, Choice::NoIndex);
            }
        }
        Self::finish(n, rows, costs, sizes, ni)
    }

    /// Builds a matrix from explicit values (used for the paper's Figure 6
    /// hypothetical matrix and for tests). `values` maps each subpath to its
    /// `[MX, MIX, NIX]` costs; every size is zero, so selection over such a
    /// matrix is pure cost minimization.
    pub fn from_values(path_len: usize, values: &[(SubpathId, [f64; 3])]) -> Self {
        let mut costs = vec![[f64::INFINITY; 3]; SubpathId::count(path_len)];
        let mut rows = Vec::new();
        for &(sub, v) in values {
            rows.push(sub);
            costs[sub.rank(path_len)] = v;
        }
        let sizes = vec![[0.0; 3]; SubpathId::count(path_len)];
        Self::finish(path_len, rows, costs, sizes, None)
    }

    /// [`CostMatrix::from_values`] with an explicit size plane: `values`
    /// maps each subpath to its `[MX, MIX, NIX]` costs and footprints.
    pub fn from_values_with_sizes(
        path_len: usize,
        values: &[(SubpathId, [f64; 3], [f64; 3])],
    ) -> Self {
        let mut costs = vec![[f64::INFINITY; 3]; SubpathId::count(path_len)];
        let mut sizes = vec![[0.0; 3]; SubpathId::count(path_len)];
        let mut rows = Vec::new();
        for &(sub, v, s) in values {
            rows.push(sub);
            costs[sub.rank(path_len)] = v;
            sizes[sub.rank(path_len)] = s;
        }
        Self::finish(path_len, rows, costs, sizes, None)
    }

    fn finish(
        path_len: usize,
        rows: Vec<SubpathId>,
        costs: Vec<[f64; 3]>,
        sizes: Vec<[f64; 3]>,
        no_index: Option<Vec<f64>>,
    ) -> Self {
        CostMatrix {
            path_len,
            rows,
            costs,
            sizes,
            no_index,
        }
    }

    /// Length of the underlying path.
    pub fn path_len(&self) -> usize {
        self.path_len
    }

    /// Rows in matrix order.
    pub fn rows(&self) -> &[SubpathId] {
        &self.rows
    }

    /// `a_{ij}` — the processing cost of subpath `sub` under `org`.
    pub fn cost(&self, sub: SubpathId, org: Org) -> f64 {
        self.costs[sub.rank(self.path_len)][org.index()]
    }

    /// The cost of `sub` under `choice` (no-index cells read the optional
    /// column; `INFINITY` when absent).
    pub fn choice_cost(&self, sub: SubpathId, choice: Choice) -> f64 {
        match choice {
            Choice::Index(org) => self.cost(sub, org),
            Choice::NoIndex => self.no_index_cost(sub).unwrap_or(f64::INFINITY),
        }
    }

    /// The estimated footprint in pages of indexing `sub` with `org` (zero
    /// for matrices built without a size plane).
    pub fn size(&self, sub: SubpathId, org: Org) -> f64 {
        self.sizes[sub.rank(self.path_len)][org.index()]
    }

    /// The footprint of `sub` under `choice`; allocating no index costs no
    /// pages.
    pub fn choice_size(&self, sub: SubpathId, choice: Choice) -> f64 {
        match choice {
            Choice::Index(org) => self.size(sub, org),
            Choice::NoIndex => 0.0,
        }
    }

    /// Total footprint of a configuration: the sum of its pieces' sizes.
    pub fn configuration_size(&self, config: &crate::IndexConfiguration) -> f64 {
        config
            .pairs()
            .iter()
            .map(|&(sub, choice)| self.choice_size(sub, choice))
            .sum()
    }

    /// The no-index cost for `sub`, if the column was built.
    pub fn no_index_cost(&self, sub: SubpathId) -> Option<f64> {
        self.no_index
            .as_ref()
            .map(|col| col[sub.rank(self.path_len)])
    }

    /// Whether the Section 6 no-index column was built.
    pub fn has_no_index(&self) -> bool {
        self.no_index.is_some()
    }

    /// `Min_Cost` — the best choice and cost for one row (the underlined
    /// entry in Figure 6/8). Considers the no-index column when present;
    /// ties go to the first column.
    pub fn min_cost(&self, sub: SubpathId) -> (Choice, f64) {
        let r = sub.rank(self.path_len);
        let mut best = (Choice::Index(Org::Mx), f64::INFINITY);
        for org in Org::ALL {
            let c = self.costs[r][org.index()];
            if c < best.1 {
                best = (Choice::Index(org), c);
            }
        }
        if let Some(col) = &self.no_index {
            if col[r] < best.1 {
                best = (Choice::NoIndex, col[r]);
            }
        }
        best
    }

    /// Renders the matrix as an aligned text table (Figure 6/8 style), with
    /// the row minima marked by `*` (the paper underlines them).
    pub fn render(&self, schema: &oic_schema::Schema, path: &oic_schema::Path) -> String {
        let mut out = String::new();
        let name_w = self
            .rows
            .iter()
            .map(|&s| {
                path.subpath(schema, s)
                    .map(|p| p.display().len())
                    .unwrap_or(6)
            })
            .max()
            .unwrap_or(8)
            .max(8);
        out.push_str(&format!(
            "{:<w$}  {:>12} {:>12} {:>12}\n",
            "subpath",
            "MX",
            "MIX",
            "NIX",
            w = name_w
        ));
        for &sub in &self.rows {
            let name = path
                .subpath(schema, sub)
                .map(|p| p.display().to_string())
                .unwrap_or_else(|_| sub.to_string());
            let (best, _) = self.min_cost(sub);
            let cell = |org: Org| {
                let v = self.cost(sub, org);
                let mark = if Choice::Index(org) == best { "*" } else { " " };
                format!("{v:>11.2}{mark}")
            };
            out.push_str(&format!(
                "{:<w$}  {} {} {}\n",
                name,
                cell(Org::Mx),
                cell(Org::Mix),
                cell(Org::Nix),
                w = name_w
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_cost::characteristics::example51;
    use oic_cost::CostParams;
    use oic_schema::fixtures;
    use oic_workload::example51_load;

    fn sid(s: usize, e: usize) -> SubpathId {
        SubpathId { start: s, end: e }
    }

    #[test]
    fn build_covers_all_subpaths() {
        let (schema, _) = fixtures::paper_schema();
        let (path, chars) = example51(&schema);
        let ld = example51_load(&schema, &path);
        let model = CostModel::new(&schema, &path, &chars, CostParams::default());
        let m = CostMatrix::build(&model, &ld);
        assert_eq!(m.rows().len(), 10);
        assert_eq!(m.path_len(), 4);
        for &sub in m.rows() {
            let (_, best) = m.min_cost(sub);
            assert!(best.is_finite() && best > 0.0);
        }
        // Matrix-row ordering matches the paper's numbering.
        assert_eq!(m.rows()[0], sid(1, 1));
        assert_eq!(m.rows()[9], sid(1, 4));
    }

    #[test]
    fn from_values_and_min_cost() {
        let m = CostMatrix::from_values(
            2,
            &[
                (sid(1, 1), [3.0, 4.0, 6.0]),
                (sid(2, 2), [4.0, 4.0, 4.0]),
                (sid(1, 2), [9.0, 8.0, 7.0]),
            ],
        );
        let (c, v) = m.min_cost(sid(1, 1));
        assert_eq!(c, Choice::Index(Org::Mx));
        assert_eq!(v, 3.0);
        // Ties go to the first column (MX), like the paper's walkthrough
        // which picks MX for C2.A2's all-equal row.
        let (c, v) = m.min_cost(sid(2, 2));
        assert_eq!(c, Choice::Index(Org::Mx));
        assert_eq!(v, 4.0);
        let (c, _) = m.min_cost(sid(1, 2));
        assert_eq!(c, Choice::Index(Org::Nix));
    }

    #[test]
    fn no_index_column_participates_in_min() {
        let (schema, _) = fixtures::paper_schema();
        let (path, chars) = example51(&schema);
        // Zero workload: indexes still cost maintenance? No — zero load
        // means zero cost everywhere; check the column exists.
        let ld = example51_load(&schema, &path);
        let model = CostModel::new(&schema, &path, &chars, CostParams::default());
        let m = CostMatrix::build_with_no_index(&model, &ld);
        for &sub in m.rows() {
            assert!(m.no_index_cost(sub).is_some());
        }
    }

    #[test]
    fn built_matrices_carry_the_size_plane() {
        let (schema, _) = fixtures::paper_schema();
        let (path, chars) = example51(&schema);
        let ld = example51_load(&schema, &path);
        let model = CostModel::new(&schema, &path, &chars, CostParams::default());
        let m = CostMatrix::build(&model, &ld);
        for &sub in m.rows() {
            for org in Org::ALL {
                let s = m.size(sub, org);
                assert!(s.is_finite() && s > 0.0, "{sub} {org}: {s}");
                assert_eq!(s, model.size_pages(org, sub));
                assert_eq!(s, m.choice_size(sub, Choice::Index(org)));
            }
        }
        assert_eq!(m.choice_size(sid(1, 1), Choice::NoIndex), 0.0);
        // from_values matrices are size-free; the explicit constructor
        // round-trips, and configuration footprints sum the pieces.
        let v = CostMatrix::from_values(1, &[(sid(1, 1), [1.0, 2.0, 3.0])]);
        assert_eq!(v.size(sid(1, 1), Org::Nix), 0.0);
        let vs = CostMatrix::from_values_with_sizes(
            2,
            &[
                (sid(1, 1), [1.0, 2.0, 3.0], [10.0, 20.0, 30.0]),
                (sid(2, 2), [1.0, 2.0, 3.0], [11.0, 21.0, 31.0]),
                (sid(1, 2), [1.0, 2.0, 3.0], [40.0, 50.0, 60.0]),
            ],
        );
        assert_eq!(vs.size(sid(1, 2), Org::Mix), 50.0);
        let config = crate::IndexConfiguration::new(
            vec![
                (sid(1, 1), Choice::Index(Org::Mx)),
                (sid(2, 2), Choice::Index(Org::Nix)),
            ],
            2,
        )
        .unwrap();
        assert_eq!(vs.configuration_size(&config), 41.0);
    }

    #[test]
    fn render_marks_minima() {
        let m = CostMatrix::from_values(1, &[(sid(1, 1), [3.0, 4.0, 6.0])]);
        let (schema, _) = fixtures::paper_schema();
        let path = fixtures::paper_path_pe(&schema);
        let s = m.render(&schema, &path);
        assert!(s.contains("3.00*"));
        assert!(s.contains("MX"));
    }
}
