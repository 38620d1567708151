//! Yao's block-access estimate (S.B. Yao, Comm. ACM 20(4), 1977).
//!
//! [`npa`] needs `L = Σ_{j=c}^{c+w−1} ln(1 − p/j)`, the log of its product,
//! with `p = n/m` records per page, `w = ⌊t⌋` and `c = n − w + 1`. Up to
//! `K = 1024` terms it is summed term by term, as it always was. A longer
//! one is the log-gamma difference `F(c + w) − F(c)`, `F(x) = lnΓ(x − p) −
//! lnΓ(x)`. Stirling's series `lnΓ(x) = (x − ½)·ln x − x + ½·ln 2π + S(x)`,
//! with `S(x) = 1/12x − 1/360x³ + 1/1260x⁵ − 1/1680x⁷ + 1/1188x⁹` (next term
//! < 2·10⁻¹⁶ for `x ≥ 16`), gives the cancellation-free `F(x) = (x − p − ½)·
//! log1p(−p/x) − p·ln x + p + S(x − p) − S(x)`. Two such `F`s still cancel
//! `p·ln n`-sized terms, so with `a = c`, `b = c + w` the difference is
//! taken term by term:
//!
//! ```text
//! L = w·log1p(−p/b) + (a − p − ½)·log1p(p·w / (b·(a − p))) − p·log1p(w/a)
//!     + [S(b − p) − S(b)] − [S(a − p) − S(a)]
//! ```
//!
//! The leading terms whose `j − p` is below 16 (at most 16) are summed
//! directly first, so the series never sees a small argument. Against a
//! Neumaier-compensated sum on 20 100 seeded inputs with `n ≤ 10⁷`, this
//! `L` is within 7·10⁻¹⁶ relative and `npa` within 2.7·10⁻¹² (the unchanged
//! fractional tail and `1 − e^L` add the rest); the loop's own `npa` is off
//! by up to 5.2·10⁻¹⁰ there. Why `K = 1024`: every call Example 5.1 makes
//! has at most 560 terms, so the paper's matrices keep their bits, while
//! longer calls carried 92 % of the loop's iterations on a 3k-path forest;
//! a smaller `K` flips an exact tie in Example 5.1 (DESIGN.md §5.2).

/// Products of more terms than this take the closed form (module docs).
const K: f64 = 1024.0;

/// `npa(t, n, m)` — expected number of pages accessed when retrieving `t`
/// records out of `n` records stored on `m` pages, assuming records are
/// distributed uniformly (`n/m` per page) and the `t` targets are a simple
/// random sample without replacement:
///
/// ```text
/// npa = m · [ 1 − Π_{i=1..t} (n − n/m − i + 1) / (n − i + 1) ]
/// ```
///
/// The inputs are real-valued because the cost model works with expected
/// cardinalities. Every input returns a value in O(1) work beyond at most
/// `1024 + 16` logarithms. Edge behaviour, as clamps: `t`, `n` or `m` that
/// is `≤ 0` (−∞ included) or NaN → `0`; `t ≥ n` (`t = +∞` included) → `m`;
/// `m ≤ 1` → `1` (everything on one page); otherwise an infinite `n` or `m`
/// → `min(t, m)`.
pub fn npa(t: f64, n: f64, m: f64) -> f64 {
    // `!(x > 0)` also holds for NaN.
    if !(t > 0.0 && n > 0.0 && m > 0.0) {
        return 0.0;
    }
    let m = m.max(1.0);
    let n = n.max(1.0);
    if t >= n {
        return m;
    }
    if m <= 1.0 {
        return 1.0;
    }
    if !(n.is_finite() && m.is_finite()) {
        return t.min(m);
    }
    let per_page = n / m;
    // Product of (n - per_page - i + 1)/(n - i + 1) for i = 1..=t. `t` is
    // real-valued; evaluate the integer part exactly and interpolate the
    // fractional tail linearly in log-space.
    let whole = t.floor();
    let frac = t - t.floor();
    let mut log_prod = 0.0f64;
    if whole > K {
        log_prod = log_product(n - whole + 1.0, whole, per_page);
        if log_prod < -40.0 {
            return m;
        }
    } else {
        for i in 1..=whole as u64 {
            let i = i as f64;
            let num = n - per_page - i + 1.0;
            let den = n - i + 1.0;
            if num <= 0.0 || den <= 0.0 {
                return m;
            }
            log_prod += (num / den).ln();
            if log_prod < -40.0 {
                // Product has vanished: all m pages are expected to be touched.
                return m;
            }
        }
    }
    if frac > 0.0 {
        let i = whole + 1.0;
        let num = n - per_page - i + 1.0;
        let den = n - i + 1.0;
        if num <= 0.0 || den <= 0.0 {
            return m;
        }
        log_prod += frac * (num / den).ln();
    }
    m * (1.0 - log_prod.exp())
}

/// `Σ_{j=c}^{c+r−1} ln(1 − p/j)` for a whole `r` in O(1) (module docs);
/// `−∞` when `c ≤ p`, where a factor of the product is `≤ 0`.
fn log_product(c: f64, r: f64, p: f64) -> f64 {
    if c - p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    // The (at most 16) leading terms with `j − p < 16` go one by one.
    let k = (16.0 - (c - p)).ceil().clamp(0.0, r);
    let direct: f64 = (0..k as u64).map(|i| (-p / (c + i as f64)).ln_1p()).sum();
    let (a, r) = (c + k, r - k);
    let b = a + r;
    direct + r * (-p / b).ln_1p() + (a - p - 0.5) * (p / b * (r / (a - p))).ln_1p()
        - p * (r / a).ln_1p()
        + (stirling(b - p) - stirling(b))
        - (stirling(a - p) - stirling(a))
}

/// Stirling's tail `S(x) = lnΓ(x) − (x − ½)·ln x + x − ½·ln 2π` through
/// its `x⁻⁹` term.
fn stirling(x: f64) -> f64 {
    let y = 1.0 / (x * x);
    (1.0 / 12.0 - y * (1.0 / 360.0 - y * (1.0 / 1260.0 - y * (1.0 / 1680.0 - y / 1188.0)))) / x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop `npa` was before the closed form, verbatim: the oracle for
    /// products of at most `K` terms.
    fn npa_loop(t: f64, n: f64, m: f64) -> f64 {
        if t <= 0.0 || n <= 0.0 || m <= 0.0 {
            return 0.0;
        }
        let m = m.max(1.0);
        let n = n.max(1.0);
        if t >= n {
            return m;
        }
        if m <= 1.0 {
            return 1.0;
        }
        let per_page = n / m;
        // Product of (n - per_page - i + 1)/(n - i + 1) for i = 1..=t. `t` is
        // real-valued; evaluate the integer part exactly and interpolate the
        // fractional tail linearly in log-space.
        let whole = t.floor() as u64;
        let frac = t - t.floor();
        let mut log_prod = 0.0f64;
        for i in 1..=whole {
            let i = i as f64;
            let num = n - per_page - i + 1.0;
            let den = n - i + 1.0;
            if num <= 0.0 || den <= 0.0 {
                return m;
            }
            log_prod += (num / den).ln();
            if log_prod < -40.0 {
                // Product has vanished: all m pages are expected to be touched.
                return m;
            }
        }
        if frac > 0.0 {
            let i = whole as f64 + 1.0;
            let num = n - per_page - i + 1.0;
            let den = n - i + 1.0;
            if num <= 0.0 || den <= 0.0 {
                return m;
            }
            log_prod += frac * (num / den).ln();
        }
        m * (1.0 - log_prod.exp())
    }

    /// `Σ_{j=c}^{c+r−1} ln(1 − p/j)` by Neumaier-compensated summation:
    /// ground truth when every `j` is exact (`c` with few fraction bits).
    fn reference_log(c: f64, r: u64, p: f64) -> f64 {
        let (mut sum, mut comp) = (0.0f64, 0.0f64);
        for k in 0..r {
            let x = (-p / (c + k as f64)).ln_1p();
            let s = sum + x;
            comp += if sum.abs() >= x.abs() {
                (sum - s) + x
            } else {
                (x - s) + sum
            };
            sum = s;
        }
        sum + comp
    }

    /// `npa` over [`reference_log`] under the same saturation rules, for
    /// `t > 0` and finite `m > 1`, with the whole part's log-product.
    fn reference_npa(t: f64, n: f64, m: f64) -> (f64, f64) {
        let p = n / m;
        let whole = t.floor();
        let c = n - whole + 1.0;
        if t >= n || c - p <= 0.0 {
            return (m, f64::NEG_INFINITY);
        }
        let whole_log = reference_log(c, whole as u64, p);
        if whole_log < -40.0 {
            return (m, whole_log);
        }
        let mut log_prod = whole_log;
        if t > whole {
            if c - 1.0 - p <= 0.0 {
                return (m, whole_log);
            }
            log_prod += (t - whole) * (-p / (c - 1.0)).ln_1p();
        }
        (-m * log_prod.exp_m1(), whole_log)
    }

    /// SplitMix64: a seeded stream with no dependency.
    struct Rng(u64);

    impl Rng {
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.unit()
        }

        fn log_range(&mut self, lo: f64, hi: f64) -> f64 {
            self.range(lo.ln(), hi.ln()).exp()
        }

        /// A record count on a 1/16 grid, so every `j = n − i + 1` is exact.
        fn records(&mut self, lo: f64, hi: f64) -> f64 {
            (self.log_range(lo, hi) * 16.0).round() / 16.0
        }
    }

    /// `ln 2⁻⁵⁴`: below it `1 − e^L` rounds to 1, so `npa` is exactly `m`
    /// whatever the saturation rule decided.
    const ROUNDS_TO_M: f64 = -37.42994775023705;

    /// One long-product input `(t, n, m)` of the given shape.
    fn long_case(rng: &mut Rng, shape: usize) -> (f64, f64, f64) {
        match shape {
            // Fractional `t` well inside `n`.
            0 => {
                let n = rng.records(2e3, 1e7);
                let t = rng.range(K + 1.0, (K + 2e4).min(n));
                (t, n, n / rng.log_range(1.0, 1e3))
            }
            // `t` within 1 of `n`: only fewer than ~2 records per page
            // leave the product unsaturated.
            1 => {
                let n = rng.records(1.1e3, 3e4);
                (n - rng.unit(), n, n / rng.log_range(0.05, 4.0))
            }
            // `c − p ∈ (0, 16]`: the direct-sum shift at work.
            2 => {
                let n = rng.records(1.1e3, 3e4);
                let whole = n.floor() - (rng.unit() * 24.0).floor();
                let c = n - whole + 1.0;
                let p = (c - c.min(16.0) * (1.0 - rng.unit())).max(1e-3);
                (whole + rng.unit(), n, n / p)
            }
            // `p ≥ 10⁴` records per page.
            3 => {
                let n = rng.records(1e6, 1e7);
                (rng.range(K + 1.0, K + 2e4), n, n / rng.log_range(1e4, 5e4))
            }
            // Whole-part log-product within 10⁻⁶ of −40: bisect `p`.
            4 => {
                let n = rng.records(2e3, 1e6);
                let whole = rng.range(K + 1.0, (K + 2e4).min(n - 1.0)).floor();
                let (c, target) = (n - whole + 1.0, -40.0 + rng.range(-1e-6, 1e-6));
                let (mut lo, mut hi) = (0.0, c);
                for _ in 0..200 {
                    let mid = 0.5 * (lo + hi);
                    if log_product(c, whole, mid) > target {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                (whole, n, n / lo)
            }
            // Long products, `t` up to `n`.
            _ => {
                let n = rng.records(1e4, 2e6);
                (rng.range(K + 1.0, n), n, n / rng.log_range(1.0, 1e2))
            }
        }
    }

    #[test]
    fn short_products_keep_the_loop_bits() {
        let mut rng = Rng(1);
        for case in 0..6_000 {
            let n = rng.log_range(0.5, 1e7);
            let t = rng.range(-1.0, K + 1.0 - 1e-9);
            let m = match case % 3 {
                0 => n / rng.log_range(1.0, 1e4),
                1 => rng.range(-1.0, 3.0),
                _ => n / rng.log_range(0.01, 1.0),
            };
            let n = if case % 50 == 0 { -n } else { n };
            assert_eq!(
                npa(t, n, m).to_bits(),
                npa_loop(t, n, m).to_bits(),
                "npa({t}, {n}, {m})"
            );
        }
    }

    #[test]
    fn long_products_match_a_compensated_reference() {
        let mut rng = Rng(2);
        for case in 0..1_500 {
            let shape = case % 6;
            if shape == 5 && case >= 60 {
                continue;
            }
            let (t, n, m) = long_case(&mut rng, shape);
            let (got, (want, log_prod)) = (npa(t, n, m), reference_npa(t, n, m));
            let at = format!("shape {shape}: npa({t}, {n}, {m}) = {got}, reference {want}");
            assert!((got - want).abs() <= 1e-9 * want, "{at}");
            // The closed form itself is good to a few ulps; what `npa` adds
            // is the fractional tail's and `1 − e^L`'s rounding.
            let whole = t.floor();
            let closed = log_product(n - whole + 1.0, whole, n / m);
            if log_prod.is_finite() {
                let err = ((closed - log_prod) / log_prod).abs();
                assert!(err <= 1e-14, "{at}: log-product {closed} vs {log_prod}");
            }
            // Exactly `m` when the loop is, outside the band where `1 − e^L`
            // starts rounding to 1.
            if (log_prod - ROUNDS_TO_M).abs() > 1e-9 {
                assert_eq!(got == m, npa_loop(t, n, m) == m, "{at}");
            }
        }
        // The series is exact where the shift hands it over:
        // S(x) − S(x + 1) = (x + ½)·log1p(1/x) − 1.
        for x in [16.0f64, 16.5, 17.25] {
            let exact = (x + 0.5) * (1.0 / x).ln_1p() - 1.0;
            let got = stirling(x) - stirling(x + 1.0);
            assert!(
                ((got - exact) / exact).abs() < 2e-12,
                "S at {x}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn monotone_in_t_across_k() {
        let mut rng = Rng(3);
        for _ in 0..2_000 {
            let n = rng.log_range(2e3, 1e7);
            let m = n / rng.log_range(0.5, 1e3);
            let mut prev = 0.0;
            for half_steps in -4..=4 {
                let t = K + 0.5 * half_steps as f64;
                let v = npa(t, n, m);
                assert!(v >= prev, "npa({t}, {n}, {m}) = {v} < {prev}");
                prev = v;
            }
        }
    }

    #[test]
    fn hostile_inputs_are_clamped_without_looping() {
        // The loop took 10¹² iterations here; the product is ≈ (c/n)^p.
        let v = npa(1e12, 1e13, 1e12);
        let asymptote = 1e12 * (1.0 - 0.9f64.powi(10));
        assert!(
            (v - asymptote).abs() <= 1e-9 * asymptote,
            "{v} vs {asymptote}"
        );
        assert_eq!(npa(1e20, 1e25, 1e10), 1e10, "saturated");
        assert!(npa(1e300, 1e301, 1e290).is_finite());
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for (t, n, m, want) in [
            (nan, 100.0, 10.0, 0.0),
            (5.0, nan, 10.0, 0.0),
            (5.0, 100.0, nan, 0.0),
            (-inf, 100.0, 10.0, 0.0),
            (5.0, -inf, 10.0, 0.0),
            (5.0, 100.0, -inf, 0.0),
            (inf, 100.0, 10.0, 10.0),
            (inf, inf, 10.0, 10.0),
            (5.0, inf, 10.0, 5.0),
            (50.0, inf, 10.0, 10.0),
            (5.0, 100.0, inf, 5.0),
            (5.0, inf, inf, 5.0),
            (5.0, inf, 0.5, 1.0),
        ] {
            assert_eq!(npa(t, n, m), want, "npa({t}, {n}, {m})");
        }
    }

    #[test]
    fn zero_targets_cost_nothing() {
        assert_eq!(npa(0.0, 100.0, 10.0), 0.0);
        assert_eq!(npa(-1.0, 100.0, 10.0), 0.0);
    }

    #[test]
    fn retrieving_everything_touches_every_page() {
        assert_eq!(npa(100.0, 100.0, 10.0), 10.0);
        assert_eq!(npa(150.0, 100.0, 10.0), 10.0);
    }

    #[test]
    fn single_record_touches_one_page() {
        let v = npa(1.0, 100.0, 10.0);
        assert!((v - 1.0).abs() < 1e-9, "one record → one page, got {v}");
    }

    #[test]
    fn single_page_store() {
        assert_eq!(npa(3.0, 100.0, 1.0), 1.0);
    }

    #[test]
    fn monotone_in_t() {
        let mut prev = 0.0;
        for t in 1..=100 {
            let v = npa(t as f64, 100.0, 10.0);
            assert!(v >= prev - 1e-12, "npa must be monotone, t={t}");
            prev = v;
        }
    }

    #[test]
    fn bounded_by_t_and_m() {
        for &(t, n, m) in &[(5.0, 1000.0, 50.0), (20.0, 200.0, 10.0), (7.0, 49.0, 7.0)] {
            let v = npa(t, n, m);
            assert!(v <= m + 1e-9);
            assert!(v <= t + 1e-9, "can't touch more pages than records");
            assert!(v > 0.0);
        }
    }

    #[test]
    fn textbook_value() {
        // n=100 records on m=10 pages (10 per page), t=10: the classic
        // expectation is 10·(1 − Π_{i=1..10} (90−i+1)/(100−i+1)) ≈ 6.6.
        let v = npa(10.0, 100.0, 10.0);
        assert!((v - 6.6).abs() < 0.3, "got {v}");
    }

    #[test]
    fn fractional_t_interpolates() {
        let lo = npa(2.0, 100.0, 10.0);
        let hi = npa(3.0, 100.0, 10.0);
        let mid = npa(2.5, 100.0, 10.0);
        assert!(lo < mid && mid < hi);
    }

    #[test]
    fn huge_t_saturates_without_overflow() {
        let v = npa(1e6, 1e7, 1e4);
        assert!(v <= 1e4 + 1e-6);
        assert!(v > 9.9e3, "t = 10% of n with 1000 per page saturates");
    }
}
