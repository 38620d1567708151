//! Per-organization retrieval and maintenance costs for subpaths
//! (Sections 3.1 and 4 of the paper).
//!
//! All costs are *expected page accesses per operation*. Positions are
//! 1-based within the **full** path; a subpath `S_{s,e}` is addressed by
//! [`SubpathId`]. Query-related probe counts always refer to the full path's
//! ending attribute `A_n` (the workload model only admits queries against
//! `A_n`, Section 3.2): the index at position `i` is probed with
//! `noid⁺_{i+1}` keys, which degenerates to 1 at `i = n`.
//!
//! Record lengths are assembled from the crate's byte constants
//! ([`crate::OID_LEN`] and its siblings, DESIGN.md §5.9). The paper's `pr`
//! and `pm` inputs are computed, not taken (§5.5): `pr` is `⌈ln/p⌉` for a
//! whole spanning record or the pages of one class section, and `pm` is
//! one page per entry edit — or, for NIX under
//! [`CostParams::nix_section_rewrites`], the class section's `pr`.

use crate::derived::Derived;
use crate::est::{estimate_btree, IndexEst};
use crate::primitives::{cml, cmt, crr, crt};
use crate::yao::npa;
use crate::{
    CostParams, Org, PathCharacteristics, CLASS_DIR_LEN, ENTRY_OVERHEAD, KEY_LEN, NUMCHILD_LEN,
    OBJ_LEN, OID_LEN, PTR_LEN, RECORD_OVERHEAD,
};
use oic_schema::{Path, Schema, SubpathId};
use std::sync::OnceLock;

/// Analytic cost model bound to one full path.
///
/// Construction is *batched*: the Table-2 derived quantities (via
/// [`Derived`]), the MX/MIX B-tree estimates per position, and the NIX
/// physical statistics per subpath are computed once and cached, keyed by
/// position or dense subpath rank. The per-subpath cost entry points then
/// read the caches instead of re-deriving the same `O(n·nc)` aggregates for
/// every one of the `n(n+1)/2 × |Org|` matrix cells. The MX/MIX Yao terms
/// that do not depend on the subpath, and each subpath's NIX retrieval
/// walk (DESIGN.md §5.2), are priced on first use and reused by every
/// cost that folds them.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    schema: &'a Schema,
    path: &'a Path,
    chars: &'a PathCharacteristics,
    params: CostParams,
    /// Memoized Table-2 derived quantities.
    derived: Derived<'a>,
    /// Cached MX estimate per `(position, hierarchy class)`.
    mx_ests: Vec<Vec<IndexEst>>,
    /// Cached MIX estimate per position.
    mix_ests: Vec<IndexEst>,
    /// Cached NIX statistics per subpath, indexed by [`SubpathId::rank`].
    nix_cache: Vec<NixStats>,
    /// Memoized MX/MIX leaf terms per position.
    terms: Vec<LeafTerms>,
    /// Memoized NIX retrieval level walk per subpath, indexed by
    /// [`SubpathId::rank`] (see [`CostModel::nix_crt`]).
    nix_walks: Vec<OnceLock<Box<[f64]>>>,
}

/// The `CRT`/`CMT` terms of position `l` that no subpath bound enters: an
/// MX or MIX index at `l` is the same B-tree, probed with the same
/// `noid⁺_{l+1}` keys and maintained with the same `nin_{l,x}` records,
/// whichever subpath `S ∋ l` it belongs to (DESIGN.md §5.2). Each is one
/// Yao walk (`O(t)` logarithms), priced on first use; a `(sub, l, x)` cost
/// re-folds the cached values in its original order, so its bits do not
/// change. `OnceLock` keeps the model `Sync`: workers share it by
/// reference.
#[derive(Debug, Clone)]
struct LeafTerms {
    /// `CRT(est_mix(l), probe(l), mix_pr(l, None))`.
    mix_crt_full: OnceLock<f64>,
    /// Per hierarchy class `x`.
    classes: Vec<ClassTerms>,
}

#[derive(Debug, Clone, Default)]
struct ClassTerms {
    /// `CRT(est_mx(l, x), probe(l), pr_full)`.
    mx_crt: OnceLock<f64>,
    /// `CRT(est_mix(l), probe(l), mix_pr(l, Some(x)))`.
    mix_crt: OnceLock<f64>,
    /// `CMT(est_mx(l, x), nin_{l,x}, 1)`.
    mx_cmt: OnceLock<f64>,
    /// `CMT(est_mix(l), nin_{l,x}, 1)`.
    mix_cmt: OnceLock<f64>,
}

/// NIX physical statistics for one subpath (primary + auxiliary index),
/// computed once per subpath rank at construction.
#[derive(Debug, Clone)]
pub(crate) struct NixStats {
    /// Primary-index estimate (keyed by values of the subpath's ending
    /// attribute).
    pub primary: IndexEst,
    /// Auxiliary-index estimate (keyed per object 3-tuple); `None` for
    /// single-position subpaths (no class in scope has parents).
    pub auxiliary: Option<IndexEst>,
    /// Number of auxiliary *class* records (`n_az`).
    pub n_az: f64,
    /// Average auxiliary class-record length (`ln_AX` at class granularity).
    pub ln_az_class: f64,
}

impl<'a> CostModel<'a> {
    /// Binds the model to a path and its characteristics.
    pub fn new(
        schema: &'a Schema,
        path: &'a Path,
        chars: &'a PathCharacteristics,
        params: CostParams,
    ) -> Self {
        assert_eq!(
            path.len(),
            chars.len(),
            "characteristics must cover every path position"
        );
        let n = path.len();
        let mut model = CostModel {
            schema,
            path,
            chars,
            params,
            derived: Derived::new(chars),
            mx_ests: Vec::new(),
            mix_ests: Vec::new(),
            nix_cache: Vec::new(),
            terms: (1..=n)
                .map(|l| LeafTerms {
                    mix_crt_full: OnceLock::new(),
                    classes: vec![ClassTerms::default(); chars.nc(l)],
                })
                .collect(),
            nix_walks: (0..SubpathId::count(n)).map(|_| OnceLock::new()).collect(),
        };
        model.mx_ests = (1..=n)
            .map(|l| {
                (0..chars.nc(l))
                    .map(|x| model.compute_est_mx(l, x))
                    .collect()
            })
            .collect();
        model.mix_ests = (1..=n).map(|l| model.compute_est_mix(l)).collect();
        model.nix_cache = (0..SubpathId::count(n))
            .map(|r| model.compute_nix_stats(SubpathId::from_rank(n, r)))
            .collect();
        model
    }

    /// Probe count at position `l`.
    fn probe(&self, l: usize) -> f64 {
        self.derived().probe_count(l)
    }

    /// The bound schema.
    pub fn schema(&self) -> &Schema {
        self.schema
    }

    /// The bound (full) path.
    pub fn path(&self) -> &Path {
        self.path
    }

    /// The characteristics.
    pub fn chars(&self) -> &PathCharacteristics {
        self.chars
    }

    /// The physical parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    fn derived(&self) -> &Derived<'a> {
        &self.derived
    }

    fn n(&self) -> usize {
        self.path.len()
    }

    /// Key length of the index at position `l`: atomic domain for the final
    /// attribute of the full path, oids in between.
    fn key_len_at(&self, l: usize) -> f64 {
        if l == self.n() && self.path.step(l).attr.kind.is_atomic() {
            KEY_LEN
        } else {
            OID_LEN
        }
    }

    // ---- MX -----------------------------------------------------------

    fn mx_record_len(&self, l: usize, x: usize) -> f64 {
        let k = self.derived().k(l, x);
        RECORD_OVERHEAD + self.key_len_at(l) + k * (OID_LEN + ENTRY_OVERHEAD)
    }

    fn compute_est_mx(&self, l: usize, x: usize) -> IndexEst {
        let d = self.chars.stats(l, x).d.max(1.0);
        estimate_btree(
            d,
            self.mx_record_len(l, x),
            self.key_len_at(l),
            &self.params,
        )
    }

    pub(crate) fn est_mx(&self, l: usize, x: usize) -> &IndexEst {
        &self.mx_ests[l - 1][x]
    }

    /// Retrieval through the MX index of class `(l, x)`, memoized.
    fn mx_crt(&self, l: usize, x: usize) -> f64 {
        *self.terms[l - 1].classes[x].mx_crt.get_or_init(|| {
            let est = self.est_mx(l, x);
            let pr = est.pr_full(&self.params);
            crt(est, &self.params, self.probe(l), pr)
        })
    }

    /// Entry maintenance in the MX index of class `(l, x)`, memoized.
    fn mx_cmt(&self, l: usize, x: usize) -> f64 {
        *self.terms[l - 1].classes[x].mx_cmt.get_or_init(|| {
            let nin = self.chars.stats(l, x).nin;
            cmt(self.est_mx(l, x), &self.params, nin, 1.0)
        })
    }

    fn mx_retrieval_tail(&self, sub: SubpathId, from: usize) -> f64 {
        let mut total = 0.0;
        for i in from..=sub.end {
            for j in 0..self.chars.nc(i) {
                total += self.mx_crt(i, j);
            }
        }
        total
    }

    fn mx_retrieval(&self, sub: SubpathId, l: usize, x: usize) -> f64 {
        self.mx_crt(l, x) + self.mx_retrieval_tail(sub, l + 1)
    }

    fn mx_retrieval_traversal(&self, sub: SubpathId) -> f64 {
        let s = sub.start;
        let head: f64 = (0..self.chars.nc(s)).map(|x| self.mx_crt(s, x)).sum();
        head + self.mx_retrieval_tail(sub, s + 1)
    }

    fn mx_insert(&self, _sub: SubpathId, l: usize, x: usize) -> f64 {
        self.mx_cmt(l, x)
    }

    fn mx_delete(&self, sub: SubpathId, l: usize, x: usize) -> f64 {
        let mut total = self.mx_cmt(l, x);
        if l > sub.start {
            for j in 0..self.chars.nc(l - 1) {
                total += cml(self.est_mx(l - 1, j), &self.params, 1.0);
            }
        }
        total
    }

    fn mx_boundary_delete(&self, sub: SubpathId) -> f64 {
        // Deleting an object of C_{e+1} deletes the whole record keyed by
        // its oid from the position-e index of each class (DESIGN.md §5:
        // symmetric with the within-subpath Σ_j CML treatment).
        let e = sub.end;
        (0..self.chars.nc(e))
            .map(|j| {
                let est = self.est_mx(e, j);
                let pages = self.params.record_pages(est.record_len);
                cml(est, &self.params, pages)
            })
            .sum()
    }

    // ---- MIX ------------------------------------------------------------

    fn mix_record_len(&self, l: usize) -> f64 {
        let d = self.derived();
        let dir = self.chars.nc(l) as f64 * CLASS_DIR_LEN;
        let body: f64 = (0..self.chars.nc(l))
            .map(|x| d.k(l, x) * (OID_LEN + ENTRY_OVERHEAD))
            .sum();
        RECORD_OVERHEAD + self.key_len_at(l) + dir + body
    }

    fn compute_est_mix(&self, l: usize) -> IndexEst {
        let d = self.derived().d_union(l);
        estimate_btree(d, self.mix_record_len(l), self.key_len_at(l), &self.params)
    }

    pub(crate) fn est_mix(&self, l: usize) -> &IndexEst {
        &self.mix_ests[l - 1]
    }

    /// Retrieval pages for one class's section of a (possibly spanning)
    /// MIX record; the full record for traversals.
    fn mix_pr(&self, l: usize, class: Option<usize>) -> f64 {
        let est = self.est_mix(l);
        let full = est.pr_full(&self.params);
        match class {
            None => full,
            Some(x) => {
                if est.record_len <= self.params.page_size {
                    1.0
                } else {
                    let section = self.derived().k(l, x) * (OID_LEN + ENTRY_OVERHEAD)
                        + CLASS_DIR_LEN
                        + self.key_len_at(l);
                    (section / self.params.page_size).ceil().clamp(1.0, full)
                }
            }
        }
    }

    /// Whole-record retrieval through the MIX index at `l`, memoized.
    fn mix_crt_full(&self, l: usize) -> f64 {
        *self.terms[l - 1].mix_crt_full.get_or_init(|| {
            let est = self.est_mix(l);
            crt(est, &self.params, self.probe(l), self.mix_pr(l, None))
        })
    }

    /// Retrieval of class `x`'s section through the MIX index at `l`,
    /// memoized.
    fn mix_crt(&self, l: usize, x: usize) -> f64 {
        *self.terms[l - 1].classes[x].mix_crt.get_or_init(|| {
            let est = self.est_mix(l);
            let pr = self.mix_pr(l, Some(x));
            // `CRT` never reads `pr` for an in-page record, and a section
            // as long as the record is the whole-record term itself.
            if est.in_page(&self.params) || pr == self.mix_pr(l, None) {
                self.mix_crt_full(l)
            } else {
                crt(est, &self.params, self.probe(l), pr)
            }
        })
    }

    /// Entry maintenance of class `(l, x)` in the MIX index at `l`,
    /// memoized.
    fn mix_cmt(&self, l: usize, x: usize) -> f64 {
        *self.terms[l - 1].classes[x].mix_cmt.get_or_init(|| {
            let nin = self.chars.stats(l, x).nin;
            cmt(self.est_mix(l), &self.params, nin, 1.0)
        })
    }

    fn mix_retrieval_tail(&self, sub: SubpathId, from: usize) -> f64 {
        (from..=sub.end).map(|i| self.mix_crt_full(i)).sum()
    }

    fn mix_retrieval(&self, sub: SubpathId, l: usize, x: usize) -> f64 {
        self.mix_crt(l, x) + self.mix_retrieval_tail(sub, l + 1)
    }

    fn mix_retrieval_traversal(&self, sub: SubpathId) -> f64 {
        self.mix_retrieval_tail(sub, sub.start)
    }

    fn mix_insert(&self, _sub: SubpathId, l: usize, x: usize) -> f64 {
        self.mix_cmt(l, x)
    }

    fn mix_delete(&self, sub: SubpathId, l: usize, x: usize) -> f64 {
        let mut total = self.mix_cmt(l, x);
        if l > sub.start {
            total += cml(self.est_mix(l - 1), &self.params, 1.0);
        }
        total
    }

    fn mix_boundary_delete(&self, sub: SubpathId) -> f64 {
        let est = self.est_mix(sub.end);
        let pages = self.params.record_pages(est.record_len);
        cml(est, &self.params, pages)
    }

    // ---- NIX ------------------------------------------------------------

    /// Posting-entry length for class `(l, ·)` in a NIX primary record:
    /// `(oid, numchild)` pairs under a multi-valued step, bare oids
    /// otherwise (Section 3.1, primary record format).
    fn nix_entry_len(&self, l: usize) -> f64 {
        OID_LEN
            + ENTRY_OVERHEAD
            + if self.chars.is_multi(l) {
                NUMCHILD_LEN
            } else {
                0.0
            }
    }

    fn nix_primary_len(&self, sub: SubpathId) -> f64 {
        let d = self.derived();
        let mut body = 0.0;
        let mut classes = 0.0;
        for l in sub.start..=sub.end {
            let entry = self.nix_entry_len(l);
            for x in 0..self.chars.nc(l) {
                body += d.occ(l, x, sub.end) * entry;
                classes += 1.0;
            }
        }
        RECORD_OVERHEAD + self.key_len_at(sub.end) + classes * CLASS_DIR_LEN + body
    }

    /// Cached NIX statistics for `sub`.
    pub(crate) fn nix(&self, sub: SubpathId) -> &NixStats {
        &self.nix_cache[sub.rank(self.n())]
    }

    fn compute_nix_stats(&self, sub: SubpathId) -> NixStats {
        let d = self.derived();
        let primary = estimate_btree(
            d.d_union(sub.end),
            self.nix_primary_len(sub),
            self.key_len_at(sub.end),
            &self.params,
        );
        if sub.start == sub.end {
            return NixStats {
                primary,
                auxiliary: None,
                n_az: 0.0,
                ln_az_class: 0.0,
            };
        }
        let mut tuples = 0.0;
        let mut bytes = 0.0;
        let mut n_az = 0.0;
        for l in sub.start + 1..=sub.end {
            for x in 0..self.chars.nc(l) {
                let s = self.chars.stats(l, x);
                let tuple = RECORD_OVERHEAD
                    + OID_LEN
                    + d.ninbar(l, x, sub.end) * (PTR_LEN + ENTRY_OVERHEAD)
                    + d.par(l) * (OID_LEN + ENTRY_OVERHEAD);
                tuples += s.n;
                bytes += s.n * tuple;
                n_az += 1.0;
            }
        }
        let avg_tuple = if tuples > 0.0 { bytes / tuples } else { 0.0 };
        let auxiliary = estimate_btree(tuples.max(1.0), avg_tuple.max(1.0), OID_LEN, &self.params);
        let ln_az_class = if n_az > 0.0 { bytes / n_az } else { 0.0 };
        NixStats {
            primary,
            auxiliary: Some(auxiliary),
            n_az,
            ln_az_class,
        }
    }

    /// Retrieval pages for the class section (or a whole position's
    /// sections, or the full record) of a NIX primary record.
    fn nix_pr(&self, sub: SubpathId, stats: &NixStats, who: NixSection) -> f64 {
        let full = stats.primary.pr_full(&self.params);
        if stats.primary.record_len <= self.params.page_size {
            return 1.0;
        }
        let d = self.derived();
        let section = match who {
            NixSection::Class(l, x) => {
                d.occ(l, x, sub.end) * self.nix_entry_len(l)
                    + CLASS_DIR_LEN
                    + self.key_len_at(sub.end)
            }
            NixSection::Position(l) => {
                (0..self.chars.nc(l))
                    .map(|x| d.occ(l, x, sub.end) * self.nix_entry_len(l) + CLASS_DIR_LEN)
                    .sum::<f64>()
                    + self.key_len_at(sub.end)
            }
        };
        (section / self.params.page_size).ceil().clamp(1.0, full)
    }

    /// `CRT(primary(S), probe(e), pr)`, the retrieval through `sub`'s NIX
    /// primary index whichever section `pr` reads. The Yao level walk reads
    /// only the primary estimate and the probe count, so it is priced once
    /// per rank; `pr` enters only the spanning leaf term `t·pr`, which is
    /// re-folded first, then the memoized levels in order — `crt`'s
    /// operands in `crt`'s order (DESIGN.md §5.2).
    fn nix_crt(&self, sub: SubpathId, pr: f64) -> f64 {
        let rank = sub.rank(self.n());
        let primary = &self.nix_cache[rank].primary;
        let t = self.probe(sub.end);
        if t <= 0.0 {
            return 0.0;
        }
        let spanning = !primary.in_page(&self.params);
        let walk = self.nix_walks[rank].get_or_init(|| {
            // A spanning record's leaf level is the `t·pr` term itself.
            let walked = primary.height - usize::from(spanning);
            let mut t_cur = t;
            let levels = primary.levels[..walked].iter().rev();
            levels
                .map(|&(n_k, p_k)| {
                    t_cur = npa(t_cur.min(n_k), n_k, p_k);
                    t_cur
                })
                .collect()
        });
        let mut total = 0.0;
        if spanning {
            total += t * pr;
        }
        for &a in walk.iter() {
            total += a;
        }
        debug_assert_eq!(
            total.to_bits(),
            crt(primary, &self.params, t, pr).to_bits(),
            "NIX walk memo of S{sub}"
        );
        total
    }

    fn nix_retrieval(&self, sub: SubpathId, l: usize, x: usize) -> f64 {
        let pr = self.nix_pr(sub, self.nix(sub), NixSection::Class(l, x));
        self.nix_crt(sub, pr)
    }

    fn nix_retrieval_traversal(&self, sub: SubpathId) -> f64 {
        let pr = self.nix_pr(sub, self.nix(sub), NixSection::Position(sub.start));
        self.nix_crt(sub, pr)
    }

    /// Auxiliary-index cost shared by NIX insertion/deletion steps 2/4:
    /// `CRT(h_AX, tuples, 1) + CRR(class records)`.
    fn nix_aux_touch(&self, stats: &NixStats, tuples: f64, class_records: f64) -> f64 {
        let Some(aux) = &stats.auxiliary else {
            return 0.0;
        };
        let mut total = 0.0;
        if tuples > 0.0 {
            total += crt(aux, &self.params, tuples, 1.0);
        }
        if class_records > 0.0 {
            total += crr(
                class_records,
                stats.n_az,
                aux.leaf_pages,
                stats.ln_az_class,
                &self.params,
            );
        }
        total
    }

    fn nix_insert(&self, sub: SubpathId, l: usize, x: usize) -> f64 {
        let d = self.derived();
        let stats = self.nix(sub);
        // Steps 2+4 (CSI24): children 3-tuples gain a parent; the new
        // object's own 3-tuple is inserted (classes after the first).
        let children = if l < sub.end {
            self.chars.stats(l, x).nin
        } else {
            0.0
        };
        let own = if l > sub.start { 1.0 } else { 0.0 };
        let nar = if l < sub.end {
            d.nar_children(l, x)
        } else {
            0.0
        };
        let aux = self.nix_aux_touch(stats, children, nar + own);
        // Step 3 (CSI3): the object's oid enters its nin̄ primary records.
        let pm = self.nix_maintenance_pm(sub, stats, l, x);
        let primary = cmt(&stats.primary, &self.params, d.ninbar(l, x, sub.end), pm);
        aux + primary
    }

    /// `pmi_NIX`: whole class sections under the paper-faithful setting,
    /// single-page entry appends under the implementation-calibrated one
    /// (see `CostParams::nix_section_rewrites`).
    fn nix_maintenance_pm(&self, sub: SubpathId, stats: &NixStats, l: usize, x: usize) -> f64 {
        if self.params.nix_section_rewrites {
            self.nix_pr(sub, stats, NixSection::Class(l, x))
        } else {
            1.0
        }
    }

    /// `pmd_NIX = prd_NIX` for deletions: step 3a processes the whole
    /// *parentlist* inside each fetched primary record (action (a)ii), so
    /// beyond the object's own entry the `numchild` cascade edits the
    /// ancestors' entries at positions `s..l−1`. The pages holding the
    /// `anc_i` affected entries out of the `occ_i` entries of position `i`
    /// (spread over that position's section pages) follow Yao. Clamped to
    /// the full record.
    fn nix_delete_pm(&self, sub: SubpathId, stats: &NixStats, l: usize, x: usize) -> f64 {
        let full = stats.primary.pr_full(&self.params);
        if stats.primary.record_len <= self.params.page_size {
            return 1.0;
        }
        let d = self.derived();
        let mut pm = if self.params.nix_section_rewrites {
            // Paper-faithful: locating the object's entry fetches its whole
            // class section (no per-entry directory).
            self.nix_pr(sub, stats, NixSection::Class(l, x))
        } else {
            1.0
        };
        for i in sub.start..l {
            let anc = d.ancestors_at(l, i);
            let occ_i: f64 = (0..self.chars.nc(i)).map(|x| d.occ(i, x, sub.end)).sum();
            let pages_i = self.nix_pr(sub, stats, NixSection::Position(i));
            pm += npa(anc.min(occ_i), occ_i, pages_i);
        }
        pm.min(full)
    }

    fn nix_delete(&self, sub: SubpathId, l: usize, x: usize) -> f64 {
        let d = self.derived();
        let stats = self.nix(sub);
        // CSD2: children 3-tuples lose a parent; own 3-tuple removed.
        let children = if l < sub.end {
            self.chars.stats(l, x).nin
        } else {
            0.0
        };
        let own = if l > sub.start { 1.0 } else { 0.0 };
        let nar = if l < sub.end {
            d.nar_children(l, x)
        } else {
            0.0
        };
        let csd2 = self.nix_aux_touch(stats, children + own, nar + own);
        // CS3a: edit the nin̄ primary records containing the object.
        // `pmd_NIX = prd_NIX` (Section 3.1): the relevant pages fetched are
        // the pages rewritten, ancestor sections included (the cascade).
        let pm = self.nix_delete_pm(sub, stats, l, x);
        let cs3a = cmt(&stats.primary, &self.params, d.ninbar(l, x, sub.end), pm);
        // Steps 3b/3c: ancestor 3-tuples at positions (s+1 .. l-1) lose
        // pointers; their class records are rewritten (CU3bc) after being
        // located via leaf scan (SA1) or via the primary records (SA2).
        let mut cu3bc = 0.0;
        let mut anc_tuples = 0.0;
        let mut narp_sum = 0.0;
        if l >= sub.start + 2 {
            for i in sub.start + 1..l {
                cu3bc += self.nix_aux_touch(stats, 0.0, d.narp(l, i));
                anc_tuples += d.ancestors_at(l, i);
                narp_sum += d.narp(l, i);
            }
        }
        let sa = if anc_tuples > 0.0 {
            let aux = stats.auxiliary.as_ref().expect("multi-position subpath");
            let (n_leaf, p_leaf) = aux.leaf_level();
            let sa1 = npa(anc_tuples.min(n_leaf), n_leaf, p_leaf);
            let sa2 = if stats.ln_az_class <= self.params.page_size {
                npa(narp_sum.min(stats.n_az), stats.n_az, aux.leaf_pages)
            } else {
                narp_sum
            };
            sa1.min(sa2)
        } else {
            0.0
        };
        csd2 + cs3a + cu3bc + sa
    }

    fn nix_boundary_delete(&self, sub: SubpathId) -> f64 {
        let stats = self.nix(sub);
        let pages = self.params.record_pages(stats.primary.record_len);
        let mut total = cml(&stats.primary, &self.params, pages);
        // delpoint: drop, from the auxiliary index, every pointer into the
        // deleted primary record (objects of the non-root positions).
        if let Some(aux) = &stats.auxiliary {
            let d = self.derived();
            let mut touched = 0.0;
            for l in sub.start + 1..=sub.end {
                for x in 0..self.chars.nc(l) {
                    touched += d.occ(l, x, sub.end);
                }
            }
            let (n_leaf, p_leaf) = aux.leaf_level();
            total += npa(touched.min(n_leaf), n_leaf, p_leaf);
        }
        total
    }

    // ---- public dispatch ---------------------------------------------------

    /// `CR_X(C_{l,x})` — searching cost on subpath `sub` for a query (on the
    /// full path's ending attribute) with respect to class `x` at position
    /// `l ∈ [sub.start, sub.end]`.
    pub fn retrieval(&self, org: Org, sub: SubpathId, l: usize, x: usize) -> f64 {
        debug_assert!((sub.start..=sub.end).contains(&l));
        match org {
            Org::Mx => self.mx_retrieval(sub, l, x),
            Org::Mix => self.mix_retrieval(sub, l, x),
            Org::Nix => self.nix_retrieval(sub, l, x),
        }
    }

    /// `CR⁺_X` — searching cost on `sub` retrieving the *whole hierarchy* at
    /// the subpath's starting position. This is the cost charged per
    /// traversal when queries target classes upstream of `sub`
    /// (Section 3.2's folded load; Proposition 4.1 summands for `i > 1`).
    pub fn retrieval_traversal(&self, org: Org, sub: SubpathId) -> f64 {
        match org {
            Org::Mx => self.mx_retrieval_traversal(sub),
            Org::Mix => self.mix_retrieval_traversal(sub),
            Org::Nix => self.nix_retrieval_traversal(sub),
        }
    }

    /// `CM_X` due to an **insertion** of an object of class `x` at position
    /// `l` into the indexes of `sub`.
    pub fn maint_insert(&self, org: Org, sub: SubpathId, l: usize, x: usize) -> f64 {
        debug_assert!((sub.start..=sub.end).contains(&l));
        match org {
            Org::Mx => self.mx_insert(sub, l, x),
            Org::Mix => self.mix_insert(sub, l, x),
            Org::Nix => self.nix_insert(sub, l, x),
        }
    }

    /// `CM_X` due to a **deletion** of an object of class `x` at position
    /// `l` from the indexes of `sub` (the within-subpath part; the
    /// preceding subpath's share is [`CostModel::boundary_delete`]).
    pub fn maint_delete(&self, org: Org, sub: SubpathId, l: usize, x: usize) -> f64 {
        debug_assert!((sub.start..=sub.end).contains(&l));
        match org {
            Org::Mx => self.mx_delete(sub, l, x),
            Org::Mix => self.mix_delete(sub, l, x),
            Org::Nix => self.nix_delete(sub, l, x),
        }
    }

    /// `CMD_X(A_t)` (Section 4) — the extra maintenance on `sub`'s index
    /// caused by deleting one object of the class at position `sub.end + 1`
    /// (the starting class of the following subpath): the record keyed by
    /// the deleted oid disappears from the index on `sub`'s ending
    /// attribute. Only meaningful when `sub.end < n`.
    pub fn boundary_delete(&self, org: Org, sub: SubpathId) -> f64 {
        debug_assert!(sub.end < self.n(), "CMD only applies to interior cuts");
        match org {
            Org::Mx => self.mx_boundary_delete(sub),
            Org::Mix => self.mix_boundary_delete(sub),
            Org::Nix => self.nix_boundary_delete(sub),
        }
    }

    /// Estimated total pages (all levels, auxiliary structures included) of
    /// an index of `org` allocated on `sub` — the space side of the
    /// trade-off the paper prices only in time. Delegates to
    /// [`crate::size::index_size_pages`].
    pub fn size_pages(&self, org: Org, sub: SubpathId) -> f64 {
        crate::size::index_size_pages(self, sub, org)
    }

    /// Query cost on `sub` with **no index allocated** (Section 6
    /// extension): every class heap in the subpath's scope is scanned once
    /// per query.
    pub fn no_index_retrieval(&self, sub: SubpathId) -> f64 {
        let mut total = 0.0;
        for l in sub.start..=sub.end {
            for x in 0..self.chars.nc(l) {
                let n = self.chars.stats(l, x).n;
                total += (n * OBJ_LEN / self.params.page_size).ceil().max(1.0);
            }
        }
        total
    }
}

/// Which part of a NIX primary record a retrieval touches.
#[derive(Debug, Clone, Copy)]
enum NixSection {
    /// One class's section.
    Class(usize, usize),
    /// All sections of one position (hierarchy traversal).
    Position(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::example51;
    use oic_schema::fixtures;

    struct Fixture {
        schema: Schema,
        path: Path,
        chars: PathCharacteristics,
    }
    use oic_schema::Schema;

    fn fixture() -> Fixture {
        let (schema, _) = fixtures::paper_schema();
        let (path, chars) = example51(&schema);
        Fixture {
            schema,
            path,
            chars,
        }
    }

    fn sub(s: usize, e: usize) -> SubpathId {
        SubpathId { start: s, end: e }
    }

    #[test]
    fn nix_query_beats_mx_on_long_paths() {
        let f = fixture();
        let m = CostModel::new(&f.schema, &f.path, &f.chars, CostParams::default());
        let full = sub(1, 4);
        // A query w.r.t. the starting class: NIX answers with one primary
        // lookup; MX must chase noid⁺ oids through every position.
        let nix = m.retrieval(Org::Nix, full, 1, 0);
        let mx = m.retrieval(Org::Mx, full, 1, 0);
        assert!(
            nix < mx,
            "NIX ({nix:.2}) should undercut MX ({mx:.2}) for queries"
        );
    }

    #[test]
    fn mx_updates_beat_nix_on_long_paths() {
        let f = fixture();
        let m = CostModel::new(&f.schema, &f.path, &f.chars, CostParams::default());
        let full = sub(1, 4);
        // Deleting a middle-position object: NIX pays primary + auxiliary +
        // parent propagation; MX pays two B-tree touches.
        let nix = m.maint_delete(Org::Nix, full, 3, 0);
        let mx = m.maint_delete(Org::Mx, full, 3, 0);
        assert!(
            mx < nix,
            "MX deletes ({mx:.2}) should undercut NIX ({nix:.2})"
        );
    }

    #[test]
    fn retrieval_decreases_towards_the_ending_attribute() {
        let f = fixture();
        let m = CostModel::new(&f.schema, &f.path, &f.chars, CostParams::default());
        let full = sub(1, 4);
        // Fewer positions to traverse ⇒ cheaper MX retrieval.
        let c1 = m.retrieval(Org::Mx, full, 1, 0);
        let c3 = m.retrieval(Org::Mx, full, 3, 0);
        let c4 = m.retrieval(Org::Mx, full, 4, 0);
        assert!(c1 > c3 && c3 > c4, "{c1:.2} > {c3:.2} > {c4:.2}");
    }

    #[test]
    fn single_position_orgs_nearly_coincide_without_subclasses() {
        // Paper, Section 5: “in the case a path has length one and it does
        // not have subclasses the organizations for MX, MIX and NIX are
        // almost equivalent”. Position 4 (Division) has no subclasses.
        let f = fixture();
        let m = CostModel::new(&f.schema, &f.path, &f.chars, CostParams::default());
        let s44 = sub(4, 4);
        let mx = m.retrieval(Org::Mx, s44, 4, 0);
        let mix = m.retrieval(Org::Mix, s44, 4, 0);
        let nix = m.retrieval(Org::Nix, s44, 4, 0);
        assert!((mx - mix).abs() < 0.5, "MX {mx:.2} vs MIX {mix:.2}");
        assert!((mix - nix).abs() < 0.5, "MIX {mix:.2} vs NIX {nix:.2}");
        let mx_i = m.maint_insert(Org::Mx, s44, 4, 0);
        let nix_i = m.maint_insert(Org::Nix, s44, 4, 0);
        assert!((mx_i - nix_i).abs() < 1.0);
    }

    #[test]
    fn single_position_nix_equals_iix_semantics_with_subclasses() {
        // Position 2 (Vehicle hierarchy): single-position NIX reduces to an
        // inherited index — it has no auxiliary index.
        let f = fixture();
        let m = CostModel::new(&f.schema, &f.path, &f.chars, CostParams::default());
        let stats = m.nix(sub(2, 2));
        assert!(stats.auxiliary.is_none());
        assert_eq!(stats.n_az, 0.0);
    }

    #[test]
    fn nix_aux_exists_for_multi_position_subpaths() {
        let f = fixture();
        let m = CostModel::new(&f.schema, &f.path, &f.chars, CostParams::default());
        let stats = m.nix(sub(1, 3));
        let aux = stats
            .auxiliary
            .as_ref()
            .expect("positions 2..3 have parents");
        // Tuples: 20 000 vehicles + 1 000 companies.
        assert_eq!(aux.distinct_keys, 21_000.0);
        assert_eq!(stats.n_az, 4.0, "Veh, Bus, Truck, Comp class records");
    }

    #[test]
    fn boundary_delete_orders_sanely() {
        let f = fixture();
        let m = CostModel::new(&f.schema, &f.path, &f.chars, CostParams::default());
        let s = sub(1, 2);
        let mx = m.boundary_delete(Org::Mx, s);
        let mix = m.boundary_delete(Org::Mix, s);
        let nix = m.boundary_delete(Org::Nix, s);
        assert!(mx > 0.0 && mix > 0.0 && nix > 0.0);
        // NIX pays the extra delpoint pass over the auxiliary index.
        assert!(nix >= mix);
        // MX probes one B-tree per class at position 2 (three of them).
        assert!(mx > mix);
    }

    #[test]
    fn traversal_costs_at_least_single_class_retrieval() {
        let f = fixture();
        let m = CostModel::new(&f.schema, &f.path, &f.chars, CostParams::default());
        for org in Org::ALL {
            for (s, e) in [(1, 4), (2, 4), (2, 3), (3, 4)] {
                let t = m.retrieval_traversal(org, sub(s, e));
                let r = m.retrieval(org, sub(s, e), s, 0);
                assert!(
                    t >= r - 1e-9,
                    "{org}: traversal {t:.2} < class retrieval {r:.2} on S{s},{e}"
                );
            }
        }
    }

    #[test]
    fn no_index_scan_dwarfs_indexed_retrieval() {
        let f = fixture();
        let m = CostModel::new(&f.schema, &f.path, &f.chars, CostParams::default());
        let full = sub(1, 4);
        let scan = m.no_index_retrieval(full);
        for org in Org::ALL {
            let r = m.retrieval(org, full, 1, 0);
            assert!(scan > r, "{org}: scan {scan:.0} vs {r:.2}");
        }
    }

    #[test]
    fn costs_are_finite_and_positive_everywhere() {
        let f = fixture();
        let m = CostModel::new(&f.schema, &f.path, &f.chars, CostParams::default());
        for ids in f.path.subpath_ids() {
            for org in Org::ALL {
                for l in ids.start..=ids.end {
                    for x in 0..f.chars.nc(l) {
                        for v in [
                            m.retrieval(org, ids, l, x),
                            m.maint_insert(org, ids, l, x),
                            m.maint_delete(org, ids, l, x),
                        ] {
                            assert!(v.is_finite() && v > 0.0, "{org} S{ids} l={l} x={x}: {v}");
                        }
                    }
                }
                let t = m.retrieval_traversal(org, ids);
                assert!(t.is_finite() && t > 0.0);
                if ids.end < f.path.len() {
                    let b = m.boundary_delete(org, ids);
                    assert!(b.is_finite() && b > 0.0);
                }
            }
        }
    }

    #[test]
    fn nix_primary_record_spans_pages_on_example51() {
        // 560 persons + 56 vehicles + 4 companies + 1 division per name
        // record ⇒ several KB ⇒ spanning record; class sections keep the
        // per-query page count low.
        let f = fixture();
        let m = CostModel::new(&f.schema, &f.path, &f.chars, CostParams::default());
        let stats = m.nix(sub(1, 4));
        assert!(
            stats.primary.record_len > 4096.0,
            "ln = {}",
            stats.primary.record_len
        );
        let nix_q = m.retrieval(Org::Nix, sub(1, 4), 4, 0);
        assert!(nix_q < stats.primary.pr_full(m.params()) + stats.primary.height as f64);
    }

    /// The memos' oracle: costs as they were priced before the leaf-term
    /// and NIX-walk memos existed — every `CRT`/`CMT` term walked again
    /// for every `(sub, l, x)`, straight through `crt`/`cmt`, in the same
    /// fold order. NIX maintenance memoizes nothing; its arms call the
    /// model's own pricing.
    mod from_scratch {
        use super::super::*;

        fn nix_crt(m: &CostModel<'_>, sub: SubpathId, who: NixSection) -> f64 {
            let stats = m.nix(sub);
            let pr = m.nix_pr(sub, stats, who);
            crt(&stats.primary, &m.params, m.probe(sub.end), pr)
        }

        fn mx_crt(m: &CostModel<'_>, l: usize, x: usize) -> f64 {
            let est = m.est_mx(l, x);
            crt(est, &m.params, m.probe(l), est.pr_full(&m.params))
        }

        fn mix_crt(m: &CostModel<'_>, l: usize, class: Option<usize>) -> f64 {
            crt(m.est_mix(l), &m.params, m.probe(l), m.mix_pr(l, class))
        }

        fn mx_tail(m: &CostModel<'_>, sub: SubpathId, from: usize) -> f64 {
            let mut total = 0.0;
            for i in from..=sub.end {
                for j in 0..m.chars.nc(i) {
                    total += mx_crt(m, i, j);
                }
            }
            total
        }

        fn mix_tail(m: &CostModel<'_>, sub: SubpathId, from: usize) -> f64 {
            (from..=sub.end).map(|i| mix_crt(m, i, None)).sum()
        }

        pub fn retrieval(m: &CostModel<'_>, org: Org, sub: SubpathId, l: usize, x: usize) -> f64 {
            match org {
                Org::Mx => mx_crt(m, l, x) + mx_tail(m, sub, l + 1),
                Org::Mix => mix_crt(m, l, Some(x)) + mix_tail(m, sub, l + 1),
                Org::Nix => nix_crt(m, sub, NixSection::Class(l, x)),
            }
        }

        pub fn retrieval_traversal(m: &CostModel<'_>, org: Org, sub: SubpathId) -> f64 {
            let s = sub.start;
            match org {
                Org::Mx => {
                    let head: f64 = (0..m.chars.nc(s)).map(|x| mx_crt(m, s, x)).sum();
                    head + mx_tail(m, sub, s + 1)
                }
                Org::Mix => mix_tail(m, sub, s),
                Org::Nix => nix_crt(m, sub, NixSection::Position(s)),
            }
        }

        pub fn maint_insert(
            m: &CostModel<'_>,
            org: Org,
            sub: SubpathId,
            l: usize,
            x: usize,
        ) -> f64 {
            let nin = m.chars.stats(l, x).nin;
            match org {
                Org::Mx => cmt(m.est_mx(l, x), &m.params, nin, 1.0),
                Org::Mix => cmt(m.est_mix(l), &m.params, nin, 1.0),
                Org::Nix => m.nix_insert(sub, l, x),
            }
        }

        pub fn maint_delete(
            m: &CostModel<'_>,
            org: Org,
            sub: SubpathId,
            l: usize,
            x: usize,
        ) -> f64 {
            let mut total = maint_insert(m, org, sub, l, x);
            match org {
                Org::Mx if l > sub.start => {
                    for j in 0..m.chars.nc(l - 1) {
                        total += cml(m.est_mx(l - 1, j), &m.params, 1.0);
                    }
                }
                Org::Mix if l > sub.start => total += cml(m.est_mix(l - 1), &m.params, 1.0),
                Org::Nix => return m.nix_delete(sub, l, x),
                _ => {}
            }
            total
        }
    }

    /// A chain `P1.a.a…` of `shape.len()` positions; position `l` roots a
    /// hierarchy of `shape[l-1].0` classes and `shape[l-1].1` says whether
    /// its step is multi-valued. The path ends on an atomic attribute or,
    /// with `atomic_end` off, on a reference.
    fn chain(shape: &[(usize, bool)], atomic_end: bool) -> (Schema, Path) {
        use oic_schema::{AtomicType, Cardinality, SchemaBuilder};
        let mut b = SchemaBuilder::new();
        let n = shape.len();
        let roots: Vec<_> = (0..=n)
            .map(|i| b.declare(format!("P{}", i + 1)).unwrap())
            .collect();
        for (i, &(nc, multi)) in shape.iter().enumerate() {
            if i + 1 == n && atomic_end {
                b.atomic(roots[i], "a", AtomicType::Int).unwrap();
            } else {
                let card = if multi {
                    Cardinality::Multi
                } else {
                    Cardinality::Single
                };
                b.reference(roots[i], "a", roots[i + 1], card).unwrap();
            }
            for j in 1..nc {
                b.subclass(format!("P{}S{j}", i + 1), roots[i], vec![])
                    .unwrap();
            }
        }
        let schema = b.build().unwrap();
        let path = Path::new(&schema, roots[0], &vec!["a"; n]).unwrap();
        (schema, path)
    }

    fn assert_matches_from_scratch(m: &CostModel<'_>) {
        for sub in m.path.subpath_ids() {
            for org in Org::ALL {
                let ctx = format!("{org} S{sub}");
                assert_eq!(
                    m.retrieval_traversal(org, sub).to_bits(),
                    from_scratch::retrieval_traversal(m, org, sub).to_bits(),
                    "{ctx} traversal"
                );
                for l in sub.start..=sub.end {
                    for x in 0..m.chars.nc(l) {
                        let got = [
                            m.retrieval(org, sub, l, x),
                            m.maint_insert(org, sub, l, x),
                            m.maint_delete(org, sub, l, x),
                        ];
                        let want = [
                            from_scratch::retrieval(m, org, sub, l, x),
                            from_scratch::maint_insert(m, org, sub, l, x),
                            from_scratch::maint_delete(m, org, sub, l, x),
                        ];
                        assert_eq!(
                            got.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "{ctx} ({l},{x})"
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// Memoized leaf terms and NIX walks change no bit of any cost: random
        /// chains of up to 8 positions with hierarchies of 1–3 classes,
        /// statistics spread wide enough for in-page and spanning records
        /// on small and large pages, both NIX maintenance granularities.
        #[test]
        fn memoized_costs_equal_the_from_scratch_reference(
            shape in proptest::collection::vec((1usize..=3, proptest::prelude::any::<bool>()), 1..=8),
            stats in proptest::collection::vec((10.0f64..20_000.0, 0.0005f64..1.0, 1.0f64..6.0), 8),
            page in proptest::sample::select(vec![256.0, 1024.0, 4096.0]),
            nix_section_rewrites in proptest::prelude::any::<bool>(),
            atomic_end in proptest::prelude::any::<bool>(),
        ) {
            let (schema, path) = chain(&shape, atomic_end);
            let chars = PathCharacteristics::build(&schema, &path, |c| {
                let (n, d, nin) = stats[c.index() % stats.len()];
                crate::ClassStats::new(n.round(), (n * d).round().max(1.0), nin)
            });
            let params = CostParams { nix_section_rewrites, ..CostParams::with_page_size(page) };
            let m = CostModel::new(&schema, &path, &chars, params);
            assert_matches_from_scratch(&m);
            // Second read: every term now comes out of the memo.
            assert_matches_from_scratch(&m);
        }
    }

    #[test]
    fn reference_covers_in_page_and_spanning_records() {
        // The property above is only as good as its inputs: its domain
        // must reach both CRT branches for MX, MIX and the NIX primary.
        let (schema, path) = chain(&[(3, true), (2, false)], true);
        for (d, spanning) in [(50_000.0, false), (20.0, true)] {
            let chars = PathCharacteristics::build(&schema, &path, |_| {
                crate::ClassStats::new(50_000.0, d, 2.0)
            });
            let m = CostModel::new(&schema, &path, &chars, CostParams::with_page_size(1024.0));
            assert_eq!(!m.est_mx(1, 0).in_page(&m.params), spanning);
            assert_eq!(!m.est_mix(1).in_page(&m.params), spanning);
            for sub in path.subpath_ids() {
                assert_eq!(!m.nix(sub).primary.in_page(&m.params), spanning, "S{sub}");
            }
            assert_matches_from_scratch(&m);
        }
    }
}
