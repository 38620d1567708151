//! The paper's claims, reproduced: one deterministic report that sets each
//! reproduced number beside the value the paper states.
//!
//! 1. Figure 6 and the Section 5 walkthrough: the hypothetical matrix, the
//!    branch-and-bound trace, and branch and bound against exhaustive
//!    enumeration.
//! 2. Example 5.1 (Figures 7–8): the inputs, the cost matrix, the optimum,
//!    the whole-path baselines, the improvement factor, the number of
//!    configurations explored, and a page-size sweep.
//! 3. Design sweeps on the Figure 7 database: the query/update mix with and
//!    without the Section 6 no-index choice, fan-out and selectivity.
//! 4. The Section 5 complexity claims on chain paths up to length 16.
//! 5. The Section 3 cost model against measured page accesses of the real
//!    index structures, and the Section 1 motivation.
//!
//! The report has no timing column, so its bytes are a pure function of
//! the code: `tests/reports.rs` diffs them against `examples/paper.expected`.
//! The measured side of block 5 is the executor's page accounting, which
//! no performance change may move.
//!
//! ```sh
//! cargo run --release --example paper
//! ```

use oo_index_config::core::fig6::fig6_matrix;
use oo_index_config::core::opt_ind_con_traced;
use oo_index_config::cost::characteristics::example51;
use oo_index_config::prelude::*;
use oo_index_config::schema::fixtures;
use oo_index_config::sim::{scale_chars, validate, GenSpec};
use oo_index_config::workload::example51_load;
use std::fmt::{self, Write as _};

fn main() {
    print!("{}", report());
}

/// The whole report, byte for byte what `examples/paper.expected` holds.
pub fn report() -> String {
    let mut out = String::new();
    write_report(&mut out).expect("writing to a String cannot fail");
    out
}

fn write_report(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Reproduction of Choenni et al., \"On the Selection of Optimal Index \
         Configuration in OO Databases\" (ICDE 1994)."
    )?;
    writeln!(
        out,
        "Lines marked `paper:` give the paper's value beside the reproduced one.\n"
    )?;
    figure6(out)?;
    example_5_1(out)?;
    sweeps(out)?;
    complexity(out)?;
    model_validation(out)
}

fn heading(out: &mut String, title: &str) -> fmt::Result {
    writeln!(out, "{}\n{}\n", title, "=".repeat(title.chars().count()))
}

/// `numerator / denominator`, or a fixed token when the denominator is
/// zero (a configuration that costs nothing).
fn gain(numerator: f64, denominator: f64) -> String {
    if denominator > 0.0 {
        format!("{:.2}x", numerator / denominator)
    } else {
        "free".to_string()
    }
}

fn whole_path_nix(rec: &Recommendation) -> f64 {
    rec.whole_path
        .iter()
        .find(|(org, _)| *org == Org::Nix)
        .map(|&(_, cost)| cost)
        .expect("the advisor prices every whole-path organization")
}

fn figure6(out: &mut String) -> fmt::Result {
    heading(
        out,
        "1. Figure 6 / Section 5: the walkthrough on Pex = C1.A1.A2.A3.A4",
    )?;
    let matrix = fig6_matrix();
    writeln!(
        out,
        "cost matrix (row minima *; filler cells above a row minimum are never read)\n"
    )?;
    writeln!(
        out,
        "{:<10} {:>6} {:>6} {:>6}",
        "subpath", "MX", "MIX", "NIX"
    )?;
    for &sub in matrix.rows() {
        let (best, _) = matrix.min_cost(sub);
        let cell = |org| {
            let mark = if Choice::Index(org) == best { "*" } else { " " };
            format!("{:>5.0}{mark}", matrix.cost(sub, org))
        };
        writeln!(
            out,
            "S{},{:<7} {} {} {}",
            sub.start,
            sub.end,
            cell(Org::Mx),
            cell(Org::Mix),
            cell(Org::Nix)
        )?;
    }

    writeln!(out, "\nbranch-and-bound trace (the Section 5 narration):")?;
    let (bb, trace) = opt_ind_con_traced(&matrix);
    for (i, event) in trace.iter().enumerate() {
        writeln!(out, "  {:>2}. {event}", i + 1)?;
    }
    let ex = exhaustive(&matrix);
    assert_eq!(bb.cost, 8.0, "Figure 6's optimum costs 8");
    assert_eq!(bb.cost, ex.cost, "branch and bound is exact");
    assert_eq!(bb.best.pairs(), ex.best.pairs());

    writeln!(out, "\nOpt_Ind_Con:  {}  cost {}", bb.best, bb.cost)?;
    writeln!(
        out,
        "  paper:       {{(C1.A1, MX), (C2.A2.A3.A4, NIX)}}  cost 8"
    )?;
    writeln!(
        out,
        "evaluated {} of {} configurations, pruned {}",
        bb.evaluated, bb.candidate_space, bb.pruned
    )?;
    writeln!(
        out,
        "exhaustive:   {}  cost {}  evaluated {}\n",
        ex.best, ex.cost, ex.evaluated
    )
}

fn example_5_1(out: &mut String) -> fmt::Result {
    heading(
        out,
        "2. Example 5.1 / Figures 7-8: Pexa = Per.owns.man.divs.name",
    )?;
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = example51(&schema);
    let ld = example51_load(&schema, &path);

    writeln!(
        out,
        "Figure 7: database and workload characteristics (as given)\n"
    )?;
    writeln!(
        out,
        "{:<9} {:>8} {:>7} {:>4}   (alpha, beta, gamma)",
        "class", "n", "d", "nin"
    )?;
    for l in 1..=chars.len() {
        for (x, &(class, s)) in chars.classes_at(l).iter().enumerate() {
            let t = ld.triplet(l, x);
            writeln!(
                out,
                "{:<9} {:>8} {:>7} {:>4}   ({}, {}, {})",
                schema.class_name(class),
                s.n as u64,
                s.d as u64,
                s.nin,
                t.query,
                t.insert,
                t.delete
            )?;
        }
    }

    let params = CostParams::paper();
    let model = CostModel::new(&schema, &path, &chars, params);
    let matrix = CostMatrix::build(&model, &ld);
    writeln!(
        out,
        "\nFigure 8: cost matrix for {path} (page size {} B)\n",
        params.page_size
    )?;
    write!(out, "{}", matrix.render(&schema, &path))?;

    let rec = Advisor::new(&schema, &path, &chars, &ld)
        .with_params(params)
        .recommend();
    assert_eq!(
        exhaustive(&matrix).cost,
        rec.selection.cost,
        "branch and bound is exact on Example 5.1"
    );
    let selection = &rec.selection;
    let mut claims = vec![
        (
            "optimal configuration".to_string(),
            rec.config_rendering.clone(),
            "{(Per.owns.man, NIX), (Comp.divs.name, MX)}",
        ),
        (
            "processing cost".into(),
            format!("{:.2}", selection.cost),
            "16.03",
        ),
    ];
    for &(org, cost) in &rec.whole_path {
        let paper = if org == Org::Nix { "42.84" } else { "" };
        claims.push((format!("whole-path {org}"), format!("{cost:.2}"), paper));
    }
    claims.push((
        "improvement vs NIX".into(),
        gain(whole_path_nix(&rec), selection.cost),
        "2.7x",
    ));
    claims.push((
        "configurations explored".into(),
        format!(
            "{} of {} ({} pruned)",
            selection.evaluated, selection.candidate_space, selection.pruned
        ),
        "4 of 8",
    ));
    writeln!(out)?;
    for (label, ours, paper) in claims {
        writeln!(out, "{label:<24}{ours}")?;
        if !paper.is_empty() {
            writeln!(out, "{:<24}{paper}", "  paper:")?;
        }
    }
    writeln!(
        out,
        "(the paper's storage constants come from a companion report that is not \
         available:\n the structure of the optimum is the claim, see DESIGN.md section 4)"
    )?;

    writeln!(out, "\npage-size sweep (structure of the optimum):\n")?;
    writeln!(
        out,
        "{:>6}  {:<62} {:>8} {:>9}",
        "page", "optimal configuration", "cost", "vs NIX"
    )?;
    for page_size in [512.0, 1024.0, 2048.0, 4096.0, 8192.0] {
        let rec = Advisor::new(&schema, &path, &chars, &ld)
            .with_params(CostParams::with_page_size(page_size))
            .recommend();
        writeln!(
            out,
            "{:>6}  {:<62} {:>8.2} {:>9}",
            page_size as u64,
            rec.config_rendering,
            rec.selection.cost,
            gain(whole_path_nix(&rec), rec.selection.cost)
        )?;
    }
    writeln!(out)
}

fn sweeps(out: &mut String) -> fmt::Result {
    heading(out, "3. Design sweeps on the Figure 7 database")?;
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = example51(&schema);
    let params = CostParams::paper();
    let advise = |chars: &PathCharacteristics, ld: &LoadDistribution, no_index: bool| {
        Advisor::new(&schema, &path, chars, ld)
            .with_params(params)
            .allow_no_index(no_index)
            .recommend()
    };

    writeln!(
        out,
        "(a) query/update mix, without and with the Section 6 no-index choice\n    \
         (gain = indexed cost / cost with no-index; \"free\" = nothing left to pay)\n"
    )?;
    writeln!(
        out,
        "{:>12}  {:>9} {:>7}  {:<66} {:>9} {:>6}  with no-index",
        "query:update", "indexed", "vs NIX", "optimal configuration", "no-index", "gain"
    )?;
    for pct in [100, 90, 75, 50, 25, 20, 10, 5, 2, 1, 0] {
        let q = pct as f64 / 100.0;
        let u = (100 - pct) as f64 / 100.0;
        let ld = LoadDistribution::uniform(&schema, &path, Triplet::new(q, u / 2.0, u / 2.0));
        let indexed = advise(&chars, &ld, false);
        let open = advise(&chars, &ld, true);
        let with_no_index = if open.config_rendering == indexed.config_rendering {
            "(same)"
        } else {
            open.config_rendering.as_str()
        };
        writeln!(
            out,
            "{:>5}%:{:>4}%  {:>9.2} {:>7}  {:<66} {:>9.2} {:>6}  {}",
            pct,
            100 - pct,
            indexed.selection.cost,
            gain(whole_path_nix(&indexed), indexed.selection.cost),
            indexed.config_rendering,
            open.selection.cost,
            gain(indexed.selection.cost, open.selection.cost),
            with_no_index
        )?;
    }

    let ld = example51_load(&schema, &path);
    writeln!(
        out,
        "\n(b) fan-out: every nin multiplied by f (Figure 7 workload)\n"
    )?;
    writeln!(out, "{:>4}  {:>9}  optimal configuration", "f", "cost")?;
    for f in [1.0, 2.0, 4.0] {
        let scaled = chars.map_stats(|_, s| ClassStats::new(s.n, s.d, (s.nin * f).max(1.0)));
        let rec = advise(&scaled, &ld, false);
        writeln!(
            out,
            "{:>4}  {:>9.2}  {}",
            f, rec.selection.cost, rec.config_rendering
        )?;
    }

    writeln!(
        out,
        "\n(c) selectivity: d of the ending attribute (Figure 7 workload)\n"
    )?;
    writeln!(
        out,
        "{:>8}  {:>9}  optimal configuration",
        "d(name)", "cost"
    )?;
    let ending: Vec<ClassId> = chars
        .classes_at(chars.len())
        .iter()
        .map(|&(class, _)| class)
        .collect();
    for d in [100.0, 1_000.0, 10_000.0] {
        let scaled = chars.map_stats(|class, s| {
            if ending.contains(&class) {
                ClassStats::new(s.n, d, s.nin)
            } else {
                s
            }
        });
        let rec = advise(&scaled, &ld, false);
        writeln!(
            out,
            "{:>8}  {:>9.2}  {}",
            d as u64, rec.selection.cost, rec.config_rendering
        )?;
    }
    writeln!(out)
}

/// A chain schema `C1 → C2 → … → Cn → name` and its full path.
fn chain(n: usize) -> (Schema, Path) {
    let mut b = SchemaBuilder::new();
    let mut prev = b.declare(format!("C{n}")).unwrap();
    b.atomic(prev, "name", AtomicType::Str).unwrap();
    for i in (1..n).rev() {
        let c = b.declare(format!("C{i}")).unwrap();
        b.reference(c, "next", prev, Cardinality::Single).unwrap();
        prev = c;
    }
    let schema = b.build().unwrap();
    let mut attrs = vec!["next"; n - 1];
    attrs.push("name");
    let path = Path::parse(&schema, "C1", &attrs).unwrap();
    (schema, path)
}

fn complexity(out: &mut String) -> fmt::Result {
    heading(out, "4. Section 5 complexity: chain paths C1.next...name")?;
    writeln!(
        out,
        "paper: 2^(n-1) configurations, 3n(n+1)/2 matrix cells, and branch and bound \
         explores fewer\nconfigurations than the enumeration; every row checks the \
         interval DP against branch and bound,\nand branch and bound against \
         exhaustive enumeration up to n = 14\n"
    )?;
    writeln!(
        out,
        "{:>3} {:>6} {:>10} {:>8} {:>10} {:>12} {:>8} {:>8}  workload",
        "n", "cells", "3n(n+1)/2", "configs", "2^(n-1)", "bb evaluated", "pruned", "dp steps"
    )?;
    let mixes = [
        ("query-heavy", Triplet::new(1.0, 0.05, 0.05)),
        ("mixed", Triplet::new(0.4, 0.3, 0.3)),
        ("update-heavy", Triplet::new(0.05, 0.5, 0.5)),
    ];
    for n in [2usize, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16] {
        let (schema, path) = chain(n);
        let chars =
            PathCharacteristics::build(&schema, &path, |_| ClassStats::new(50_000.0, 5_000.0, 1.0));
        let model = CostModel::new(&schema, &path, &chars, CostParams::default());
        for (name, triplet) in mixes {
            let ld = LoadDistribution::uniform(&schema, &path, triplet);
            let matrix = CostMatrix::build(&model, &ld);
            let bb = opt_ind_con(&matrix);
            let dp = opt_ind_con_dp(&matrix);
            assert_eq!(dp.cost, bb.cost, "n={n} {name}: the DP and B&B agree");
            if n <= 14 {
                assert_eq!(
                    exhaustive(&matrix).cost,
                    bb.cost,
                    "n={n} {name}: B&B is exact"
                );
            }
            writeln!(
                out,
                "{:>3} {:>6} {:>10} {:>8} {:>10} {:>12} {:>8} {:>8}  {name}",
                n,
                3 * matrix.rows().len(),
                3 * n * (n + 1) / 2,
                bb.candidate_space,
                1u64 << (n - 1),
                bb.evaluated,
                bb.pruned,
                dp.evaluated
            )?;
        }
    }
    writeln!(out)
}

fn model_validation(out: &mut String) -> fmt::Result {
    heading(
        out,
        "5. Section 3 cost model vs measured page accesses; Section 1 motivation",
    )?;
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = example51(&schema);
    // 2% of the paper's Figure 7 database: 4 000 persons, 400 vehicles.
    let small = scale_chars(&chars, 0.02);
    let params = CostParams::calibrated(1024.0);
    let spec = GenSpec {
        page_size: 1024,
        seed: 99,
    };

    writeln!(
        out,
        "analytic model vs measured page accesses (whole-path indexes, 2% Figure 7 DB)\n"
    )?;
    writeln!(
        out,
        "{:<5} {:<10} {:>10} {:>10} {:>7}  (samples)",
        "org", "operation", "predicted", "measured", "ratio"
    )?;
    for org in Org::ALL {
        let rows = validate::validate_org(&schema, &path, &small, params, org, &spec, 12);
        for r in &rows {
            writeln!(
                out,
                "{:<5} {:<10} {:>10.2} {:>10.2} {:>7.2}  ({})",
                r.org.to_string(),
                r.op,
                r.predicted,
                r.measured,
                r.ratio(),
                r.samples
            )?;
        }
        writeln!(out)?;
    }

    let (naive, indexed) = validate::naive_vs_indexed(&schema, &path, &small, Org::Nix, &spec, 8);
    writeln!(
        out,
        "motivation (Section 1): naive navigation {naive:.0} pages/query vs \
         NIX {indexed:.1} pages/query ({:.0}x)",
        naive / indexed
    )
}
