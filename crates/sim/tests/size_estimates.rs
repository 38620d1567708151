//! Index-size estimates vs the pages the real structures actually allocate.

use oic_cost::characteristics::example51;
use oic_cost::{CostModel, CostParams, Org};
use oic_schema::{fixtures, SubpathId};
use oic_sim::{scale_chars, GenSpec};

/// Measured over predicted pages per organization on the Example 5.1
/// database, seed 77, at scale 0.01 and 0.02.
const MEASURED_RATIOS: [(Org, [f64; 2]); 3] = [
    (Org::Mx, [1.136364, 1.192771]),
    (Org::Mix, [1.342857, 1.426471]),
    (Org::Nix, [0.980456, 1.110749]),
];

/// How far a ratio may move from its recorded value.
const RATIO_MARGIN: f64 = 0.01;

/// The budgeted-selection contract with reality: on the Example 5.1
/// database the measured physical index pages hold their recorded ratio
/// to the `oic_cost::size` model ([`MEASURED_RATIOS`], ± [`RATIO_MARGIN`])
/// for every organization — all well within 2× — through the sim crate's
/// own validation entry point, at two database scales.
#[test]
fn measured_pages_within_2x_of_the_size_model() {
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = example51(&schema);
    let params = CostParams::calibrated(1024.0);
    let full = SubpathId { start: 1, end: 4 };
    for (k, scale) in [0.01f64, 0.02].into_iter().enumerate() {
        let small = scale_chars(&chars, scale);
        let spec = GenSpec {
            page_size: 1024,
            seed: 77,
        };
        for (org, recorded) in MEASURED_RATIOS {
            let (predicted, measured) =
                oic_sim::validate::validate_size(&schema, &path, &small, params, org, &spec, full);
            assert!(predicted > 0.0 && measured > 0.0);
            let ratio = measured / predicted;
            assert!(
                (ratio - recorded[k]).abs() <= RATIO_MARGIN,
                "{org} at scale {scale}: predicted {predicted:.0} pages vs \
                 measured {measured:.0} (ratio {ratio:.6}, recorded {})",
                recorded[k]
            );
        }
    }
}

#[test]
fn nix_trades_space_for_query_speed() {
    // The NIX carries the auxiliary index and fat primary records: it
    // should cost more pages than MIX on the same span.
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = example51(&schema);
    let model = CostModel::new(&schema, &path, &chars, CostParams::paper());
    let full = SubpathId { start: 1, end: 4 };
    let nix = model.size_pages(Org::Nix, full);
    let mix = model.size_pages(Org::Mix, full);
    let mx = model.size_pages(Org::Mx, full);
    assert!(nix > mix, "NIX {nix:.0} pages > MIX {mix:.0} pages");
    assert!(nix > mx, "NIX {nix:.0} pages > MX {mx:.0} pages");
}

#[test]
fn advisor_reports_configuration_size() {
    let (schema, _) = fixtures::paper_schema();
    let (path, chars) = example51(&schema);
    let ld = oic_workload::example51_load(&schema, &path);
    let rec = oic_core::Advisor::new(&schema, &path, &chars, &ld)
        .with_params(CostParams::paper())
        .recommend();
    assert!(rec.config_size_pages > 0.0);
    assert!(rec.to_string().contains("estimated index size"));
}
