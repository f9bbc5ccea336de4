//! Figure 6 — memory fault isolation: DISE vs. binary rewriting.

use std::sync::Arc;

use dise_acf::mfi::MfiVariant;
use dise_sim::{ExpansionCost, SimConfig};

use super::normalized_to_first;
use crate::{format_table, Cell, Scenario, Sweep, Workload};

/// Top panel: normalized execution time on the baseline machine for
/// rewriting, DISE4 (free), DISE +stall, DISE +pipe, DISE3 (free).
pub fn top(sweep: &Sweep) -> String {
    let sim = SimConfig::default();
    let mut cells = Vec::new();
    for &bench in &sweep.benches {
        cells.extend(top_column(&sweep.workload(bench), sim));
    }
    let rows = normalized_to_first(sweep, &sweep.run_cells(&cells), 6);
    format_table(
        "Figure 6 (top): MFI, normalized execution time",
        &["rewrite", "DISE4", "+stall", "+pipe", "DISE3"],
        &rows,
    )
}

/// One benchmark's top-panel cells: the baseline, then rewriting, DISE4,
/// DISE3 +stall, DISE3 +pipe and DISE3.
pub fn top_column(w: &Arc<Workload>, sim: SimConfig) -> Vec<Cell> {
    let mut cells = vec![
        Scenario::baseline(w, sim).cell(),
        Scenario::rewrite_mfi(w, sim).cell(),
    ];
    for (variant, cost) in [
        (MfiVariant::Dise4, ExpansionCost::Free),
        (MfiVariant::Dise3, ExpansionCost::StallPerExpansion),
        (MfiVariant::Dise3, ExpansionCost::ExtraStage),
        (MfiVariant::Dise3, ExpansionCost::Free),
    ] {
        cells.push(Scenario::dise_mfi(w, variant, cost, sim).cell());
    }
    cells
}

/// Middle panel: DISE3 vs. rewriting across I-cache sizes, normalized per
/// size to the MFI-free run.
pub fn cache(sweep: &Sweep) -> String {
    let sizes = [Some(8 * 1024), Some(32 * 1024), Some(128 * 1024), None];
    let sims = sizes.map(|size| SimConfig::default().with_icache_size(size));
    dise3_vs_rewrite(
        sweep,
        &sims,
        "Figure 6 (middle): MFI across I-cache sizes (DISE3 | rewrite per size)",
        &["D-8K", "R-8K", "D-32K", "R-32K", "D-128K", "R-128K", "D-inf", "R-inf"],
    )
}

/// Bottom panel: DISE3 vs. rewriting across processor widths at 32KB I$.
pub fn width(sweep: &Sweep) -> String {
    let sims = [2u64, 4, 8, 16].map(|width| SimConfig::default().with_width(width));
    dise3_vs_rewrite(
        sweep,
        &sims,
        "Figure 6 (bottom): MFI across processor widths (DISE3 | rewrite per width)",
        &["D-2", "R-2", "D-4", "R-4", "D-8", "R-8", "D-16", "R-16"],
    )
}

/// DISE3 and rewriting on each machine in `sims`, each normalized to the
/// MFI-free run on the same machine.
fn dise3_vs_rewrite(sweep: &Sweep, sims: &[SimConfig], title: &str, header: &[&str]) -> String {
    let mut cells = Vec::new();
    for &bench in &sweep.benches {
        let w = sweep.workload(bench);
        for &sim in sims {
            cells.push(Scenario::baseline(&w, sim).cell());
            cells.push(Scenario::dise_mfi(&w, MfiVariant::Dise3, ExpansionCost::Free, sim).cell());
            cells.push(Scenario::rewrite_mfi(&w, sim).cell());
        }
    }
    let vals = sweep.run_cells(&cells);
    let rows: Vec<(String, Vec<f64>)> = sweep
        .benches
        .iter()
        .zip(vals.chunks(3 * sims.len()))
        .map(|(bench, v)| {
            let row = v.chunks(3).flat_map(|t| [t[1][0] / t[0][0], t[2][0] / t[0][0]]);
            (bench.name().to_string(), row.collect())
        })
        .collect();
    format_table(title, header, &rows)
}
