//! Figure 7 — dynamic code decompression.

use std::sync::Arc;

use dise_acf::compress::{CompressionConfig, SelectAlgo};
use dise_core::{EngineConfig, RtOrganization};
use dise_sim::SimConfig;

use super::{baseline_cell, compressed_cell, ratio_cell};
use crate::{compress, format_table, Sweep};

/// Top panel: static compression ratio (code, and code+dictionary) over
/// the six-configuration feature walk, plus the DP-cover (v2)
/// selection on the full configuration. The walk pins v1 selection and
/// the last column pins v2.
pub fn ratio(sweep: &Sweep) -> String {
    let configs: [(&str, CompressionConfig); 7] = [
        ("dedicated", CompressionConfig::dedicated().with_select(SelectAlgo::V1)),
        ("-1insn", CompressionConfig::dedicated_no_single().with_select(SelectAlgo::V1)),
        ("-2byteCW", CompressionConfig::dise_unparameterized().with_select(SelectAlgo::V1)),
        ("+8byteDE", CompressionConfig::dise_wide_entries().with_select(SelectAlgo::V1)),
        ("+3param", CompressionConfig::dise_parameterized().with_select(SelectAlgo::V1)),
        ("DISE", CompressionConfig::dise_full().with_select(SelectAlgo::V1)),
        ("DISE-v2", CompressionConfig::dise_full().with_select(SelectAlgo::V2)),
    ];
    let mut cells = Vec::new();
    for &bench in &sweep.benches {
        let p = Arc::new(sweep.workload(bench));
        for (_, cc) in configs {
            cells.push(ratio_cell(sweep, bench, &p, cc));
        }
    }
    let vals = sweep.run_cells(&cells);
    let mut code_rows = Vec::new();
    let mut total_rows = Vec::new();
    for (bench, v) in sweep.benches.iter().zip(vals.chunks(configs.len())) {
        code_rows.push((
            bench.name().to_string(),
            v.iter().map(|c| c[0]).collect::<Vec<_>>(),
        ));
        total_rows.push((
            bench.name().to_string(),
            v.iter().map(|c| c[1]).collect::<Vec<_>>(),
        ));
    }
    let header: Vec<&str> = configs.iter().map(|(n, _)| *n).collect();
    let mut out = format_table(
        "Figure 7 (top): compression ratio, code only",
        &header,
        &code_rows,
    );
    out.push_str(&format_table(
        "Figure 7 (top): compression ratio, code + dictionary",
        &header,
        &total_rows,
    ));
    out
}

/// Middle panel: DISE decompression across I-cache sizes, normalized to
/// the uncompressed 32KB run; perfect RT.
pub fn perf(sweep: &Sweep) -> String {
    let sizes = [
        Some(8 * 1024),
        Some(32 * 1024),
        Some(128 * 1024),
        None,
    ];
    let cc = CompressionConfig::dise_full().with_select(SelectAlgo::V2);
    let mut cells = Vec::new();
    for &bench in &sweep.benches {
        let p = Arc::new(sweep.workload(bench));
        let c = Arc::new(compress(&p, cc));
        for size in sizes {
            let sim = SimConfig::default().with_icache_size(size);
            cells.push(baseline_cell(sweep, bench, &p, sim));
            cells.push(compressed_cell(
                sweep,
                bench,
                &c,
                cc,
                EngineConfig::default().perfect_rt(),
                sim,
            ));
        }
    }
    let vals = sweep.run_cells(&cells);
    let rows: Vec<(String, Vec<f64>)> = sweep
        .benches
        .iter()
        .zip(vals.chunks(2 * sizes.len()))
        .map(|(bench, v)| {
            // The uncompressed 32KB run (second size, first of its pair)
            // is the paper's normalizer.
            let base32 = v[2][0];
            (
                bench.name().to_string(),
                v.iter().map(|c| c[0] / base32).collect(),
            )
        })
        .collect();
    format_table(
        "Figure 7 (middle): DISE decompression vs I-cache size (uncompressed | DISE per size, normalized to uncompressed 32KB)",
        &[
            "U-8K", "D-8K", "U-32K", "D-32K", "U-128K", "D-128K", "U-inf", "D-inf",
        ],
        &rows,
    )
}

/// Bottom panel: execution time vs. RT configuration, 8KB I$, normalized
/// to a perfect RT.
pub fn rt(sweep: &Sweep) -> String {
    let configs: [(&str, usize, RtOrganization); 5] = [
        ("512-DM", 512, RtOrganization::DirectMapped),
        ("512-2way", 512, RtOrganization::SetAssociative(2)),
        ("2K-DM", 2048, RtOrganization::DirectMapped),
        ("2K-2way", 2048, RtOrganization::SetAssociative(2)),
        ("perfect", 0, RtOrganization::Perfect),
    ];
    let cc = CompressionConfig::dise_full().with_select(SelectAlgo::V2);
    // Small I-cache so decompression matters; compare RT realism.
    let sim = SimConfig::default().with_icache_size(Some(8 * 1024));
    let mut cells = Vec::new();
    for &bench in &sweep.benches {
        let p = Arc::new(sweep.workload(bench));
        let c = Arc::new(compress(&p, cc));
        cells.push(compressed_cell(
            sweep,
            bench,
            &c,
            cc,
            EngineConfig::default().perfect_rt(),
            sim,
        ));
        for (_, entries, org) in configs {
            let engine = EngineConfig {
                rt_entries: entries.max(1),
                rt_org: org,
                ..EngineConfig::default()
            };
            cells.push(compressed_cell(sweep, bench, &c, cc, engine, sim));
        }
    }
    let vals = sweep.run_cells(&cells);
    let rows: Vec<(String, Vec<f64>)> = sweep
        .benches
        .iter()
        .zip(vals.chunks(1 + configs.len()))
        .map(|(bench, v)| {
            let perfect = v[0][0];
            (
                bench.name().to_string(),
                v[1..].iter().map(|c| c[0] / perfect).collect(),
            )
        })
        .collect();
    format_table(
        "Figure 7 (bottom): execution time vs RT configuration (normalized to perfect RT, 8KB I$)",
        &["512-DM", "512-2w", "2K-DM", "2K-2w", "perfect"],
        &rows,
    )
}
