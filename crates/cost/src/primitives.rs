//! The paper's index-record cost functions (Section 3.1).
//!
//! `CRL`/`CML` price a *single, directly addressed* index record;
//! `CRT`/`CMT` price a *set* of records via Yao's formula over the tree's
//! level profile; `CRR` prices rewriting auxiliary records. OCR-degraded
//! branches are reconstructed per DESIGN.md §5.1–5.2.

use crate::est::IndexEst;
use crate::yao::npa;
use crate::CostParams;

/// `CRL(h_X, pr_X)` — retrieval cost of one specified index record:
///
/// ```text
/// CRL = h                 if ln ≤ p
///     = h − 1 + pr        otherwise
/// ```
pub fn crl(est: &IndexEst, params: &CostParams, pr: f64) -> f64 {
    if est.in_page(params) {
        est.height as f64
    } else {
        est.height as f64 - 1.0 + pr
    }
}

/// `CML(h_X, pm_X)` — maintenance cost of one specified index record. The
/// extra page in the in-page case rewrites the leaf; spanning records fetch
/// and rewrite the `pm` pages that change:
///
/// ```text
/// CML = h + 1             if ln ≤ p
///     = h − 1 + 2·pm      otherwise
/// ```
pub fn cml(est: &IndexEst, params: &CostParams, pm: f64) -> f64 {
    if est.in_page(params) {
        est.height as f64 + 1.0
    } else {
        est.height as f64 - 1.0 + 2.0 * pm
    }
}

/// `CRT(h_X, t_X, pr_X)` — retrieval cost of `t` index records.
///
/// For in-page records every level contributes `npa(t_k, n_k, p_k)` with
/// `t_h = t` and `t_{k−1} = npa(t_k, n_k, p_k)`; for spanning records the
/// leaf level costs `t · pr` and the non-leaf levels are estimated with
/// Yao as usual.
pub fn crt(est: &IndexEst, params: &CostParams, t: f64, pr: f64) -> f64 {
    if t <= 0.0 {
        return 0.0;
    }
    let h = est.height;
    let mut total = 0.0;
    let mut t_cur = t;
    if est.in_page(params) {
        // Leaf upward.
        for k in (0..h).rev() {
            let (n_k, p_k) = est.levels[k];
            let a = npa(t_cur.min(n_k), n_k, p_k);
            total += a;
            t_cur = a;
        }
    } else {
        total += t * pr;
        t_cur = t;
        for k in (0..h.saturating_sub(1)).rev() {
            let (n_k, p_k) = est.levels[k];
            let a = npa(t_cur.min(n_k), n_k, p_k);
            total += a;
            t_cur = a;
        }
    }
    total
}

/// `CMT(h_X, t_X, pm_X)` — maintenance cost of `t` index records: the
/// retrieval plus the rewrite of each affected leaf page (each page is
/// rewritten once when all its records are done — Section 3.1):
///
/// ```text
/// CMT = CRT-levels + npa(t_h, n_h, p_h)   if ln ≤ p
///     = Σ_{k<h} npa(t_k, n_k, p_k) + 2·t·pm  otherwise
/// ```
pub fn cmt(est: &IndexEst, params: &CostParams, t: f64, pm: f64) -> f64 {
    if t <= 0.0 {
        return 0.0;
    }
    if est.in_page(params) {
        let (n_h, p_h) = est.leaf_level();
        crt(est, params, t, 0.0) + npa(t.min(n_h), n_h, p_h)
    } else {
        let h = est.height;
        let mut total = 2.0 * t * pm;
        let mut t_cur = t;
        for k in (0..h.saturating_sub(1)).rev() {
            let (n_k, p_k) = est.levels[k];
            let a = npa(t_cur.min(n_k), n_k, p_k);
            total += a;
            t_cur = a;
        }
        total
    }
}

/// `CRR(m)` — cost of rewriting `m` (modified) auxiliary class records out
/// of `n_az` records stored on `pl_az` leaf pages:
///
/// ```text
/// CRR = npa(m, n_az, pl_az)   if ln_AX ≤ p
///     = m                     otherwise
/// ```
///
/// A spanning class record rewrites one page per modification
/// (`pm_AX = 1`, DESIGN.md §5.5).
pub fn crr(m: f64, n_az: f64, pl_az: f64, ln_ax: f64, params: &CostParams) -> f64 {
    if m <= 0.0 {
        return 0.0;
    }
    if ln_ax <= params.page_size {
        npa(m.min(n_az), n_az, pl_az)
    } else {
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::est::estimate_btree;

    fn params() -> CostParams {
        CostParams::default()
    }

    fn in_page_est() -> IndexEst {
        estimate_btree(100_000.0, 100.0, 9.0, &params())
    }

    fn spanning_est() -> IndexEst {
        estimate_btree(1_000.0, 20_000.0, 9.0, &params())
    }

    #[test]
    fn crl_in_page_is_height() {
        let e = in_page_est();
        assert_eq!(crl(&e, &params(), 0.0), e.height as f64);
    }

    #[test]
    fn crl_spanning_adds_pr() {
        let p = params();
        let e = spanning_est();
        let pr = e.pr_full(&p);
        assert_eq!(crl(&e, &p, pr), e.height as f64 - 1.0 + pr);
    }

    #[test]
    fn cml_adds_rewrite() {
        let p = params();
        let e = in_page_est();
        assert_eq!(cml(&e, &p, 1.0), e.height as f64 + 1.0);
        let s = spanning_est();
        assert_eq!(cml(&s, &p, 2.0), s.height as f64 - 1.0 + 4.0);
    }

    #[test]
    fn crt_of_one_approaches_crl() {
        let p = params();
        let e = in_page_est();
        let v = crt(&e, &p, 1.0, 0.0);
        // Retrieving one record touches one page per level.
        assert!((v - e.height as f64).abs() < 0.01, "{v}");
    }

    #[test]
    fn crt_zero_is_zero() {
        assert_eq!(crt(&in_page_est(), &params(), 0.0, 0.0), 0.0);
    }

    #[test]
    fn crt_monotone_and_bounded() {
        let p = params();
        let e = in_page_est();
        let mut prev = 0.0;
        for t in [1.0, 2.0, 5.0, 20.0, 100.0, 1000.0] {
            let v = crt(&e, &p, t, 0.0);
            assert!(v >= prev);
            prev = v;
        }
        // Never more than every page in the tree.
        let all_pages: f64 = e.levels.iter().map(|&(_, pk)| pk).sum();
        assert!(prev <= all_pages);
    }

    #[test]
    fn crt_spanning_charges_pr_per_record() {
        let p = params();
        let e = spanning_est();
        let pr = e.pr_full(&p);
        let v = crt(&e, &p, 10.0, pr);
        assert!(v >= 10.0 * pr, "leaf chains dominate: {v}");
    }

    #[test]
    fn cmt_exceeds_crt_in_page() {
        let p = params();
        let e = in_page_est();
        for t in [1.0, 10.0, 200.0] {
            assert!(cmt(&e, &p, t, 1.0) > crt(&e, &p, t, 0.0));
        }
    }

    #[test]
    fn cmt_spanning_uses_2tpm() {
        let p = params();
        let e = spanning_est();
        let v = cmt(&e, &p, 5.0, 1.0);
        assert!(v >= 10.0);
        assert!(v < 10.0 + 4.0 * e.height as f64);
    }

    #[test]
    fn crr_branches() {
        let p = params();
        // In-page class records: Yao over the aux leaves.
        let v = crr(3.0, 10.0, 40.0, 500.0, &p);
        assert!(v > 0.0 && v <= 40.0);
        // Spanning class records: one page each.
        let v = crr(3.0, 10.0, 40.0, 10_000.0, &p);
        assert_eq!(v, 3.0);
        assert_eq!(crr(0.0, 10.0, 40.0, 500.0, &p), 0.0);
    }
}
