//! The paper's own pipeline on Example 5.1, layer by layer: the cost model
//! and `Cost_Matrix` (layer `cost`), then `Opt_Ind_Con` branch and bound
//! (layer `select`). Microseconds per call, so it is repeated; the advisor
//! layers above it are timed by the other phases.

use crate::inputs::Paper;
use crate::Ctx;
use oic_core::{opt_ind_con, CostMatrix};
use oic_cost::{CostModel, CostParams};

/// Runs the pipeline `repeats` times.
pub fn run(ctx: &mut Ctx<'_>, paper: &Paper, repeats: usize) {
    let t = ctx.tracer;
    let mut first_cost = None;
    // Microsecond calls cannot be bracketed one by one: all repeats carry
    // the host speed of the two probes taken here.
    t.probe();
    t.probe();
    for _ in 0..repeats {
        let (matrix, d) = t.span("cost.matrix_build", || {
            let model = CostModel::new(
                &paper.schema,
                &paper.path,
                &paper.chars,
                CostParams::paper(),
            );
            CostMatrix::build(&model, &paper.ld)
        });
        ctx.time_us("cost.matrix_build_us", d);
        let (sel, d) = t.span("select.opt_ind_con", || opt_ind_con(&matrix));
        ctx.time_us("select.opt_ind_con_us", d);
        ctx.samples.push("select.evaluated", sel.evaluated as f64);
        ctx.samples.push("select.pruned", sel.pruned as f64);
        let first = *first_cost.get_or_insert(sel.cost);
        ctx.checks.check(
            sel.cost.to_bits() == first.to_bits(),
            "Opt_Ind_Con cost changed between repeats",
        );
    }
}
