//! Figure 8 — composing decompression and fault isolation.

use std::sync::{Arc, OnceLock};

use dise_acf::compress::{CompressedProgram, CompressionConfig, SelectAlgo};
use dise_core::{EngineConfig, RtOrganization};
use dise_isa::Program;
use dise_rewrite::{DedicatedDecompressor, RewriteMfi};
use dise_sim::SimConfig;
use dise_workloads::Benchmark;

use super::{baseline_cell, cell_key, composed_cell};
use crate::{compress, format_table, run_compressed, Cell, CellOutput, Sweep};

/// A benchmark's rewrite-MFI program compressed for one decompressor,
/// built by whichever of its I-cache cells runs first and shared by the
/// rest (a warm cell cache never builds it).
type Recompressed = Arc<OnceLock<CompressedProgram>>;

/// Cycles of rewrite-MFI followed by compression with either
/// decompressor (the two non-DISE-MFI combinations of Figure 8 top).
fn rewrite_compress_cell(
    sweep: &Sweep,
    bench: Benchmark,
    p: &Arc<Program>,
    recompressed: &Recompressed,
    dedicated: bool,
    engine: EngineConfig,
    sim: SimConfig,
) -> Cell {
    let cc = CompressionConfig::dise_full().with_select(SelectAlgo::V2);
    let key = cell_key(
        sweep,
        "rewrite_compress",
        bench,
        &format!("dedicated={dedicated},cc={cc:?},engine={engine:?},sim={sim:?}"),
    );
    let fuel = sweep.fuel();
    let p = Arc::clone(p);
    let recompressed = Arc::clone(recompressed);
    Cell::new(key, move || {
        let compressed = recompressed.get_or_init(|| {
            let rewritten = RewriteMfi::new().rewrite(&p).expect("rewrite").program;
            if dedicated {
                DedicatedDecompressor::new()
                    .compress(&rewritten)
                    .expect("dedicated compression")
            } else {
                compress(&rewritten, cc)
            }
        });
        let stats = run_compressed(compressed, engine, sim, fuel);
        CellOutput {
            values: vec![stats.cycles as f64],
            stats: crate::stat_pairs(&stats),
        }
    })
}

/// Top panel: the three implementation combinations across I-cache sizes,
/// normalized to the unmodified program on a 32KB I$, perfect RT.
pub fn cache(sweep: &Sweep) -> String {
    let sizes = [
        Some(8 * 1024),
        Some(32 * 1024),
        Some(128 * 1024),
        None,
    ];
    let cc = CompressionConfig::dise_full().with_select(SelectAlgo::V2);
    let perfect = EngineConfig::default().perfect_rt();
    let mut cells = Vec::new();
    for &bench in &sweep.benches {
        let p = Arc::new(sweep.workload(bench));
        let c = Arc::new(compress(&p, cc));
        let (dedicated, dise) = (Recompressed::default(), Recompressed::default());
        cells.push(baseline_cell(
            sweep,
            bench,
            &p,
            SimConfig::default().with_icache_size(Some(32 * 1024)),
        ));
        for size in sizes {
            let sim = SimConfig::default().with_icache_size(size);
            cells.push(rewrite_compress_cell(sweep, bench, &p, &dedicated, true, perfect, sim));
            cells.push(rewrite_compress_cell(sweep, bench, &p, &dise, false, perfect, sim));
            cells.push(composed_cell(sweep, bench, &c, cc, perfect, sim, true));
        }
    }
    let vals = sweep.run_cells(&cells);
    let rows: Vec<(String, Vec<f64>)> = sweep
        .benches
        .iter()
        .zip(vals.chunks(1 + 3 * sizes.len()))
        .map(|(bench, v)| {
            let base32 = v[0][0];
            (
                bench.name().to_string(),
                v[1..].iter().map(|c| c[0] / base32).collect(),
            )
        })
        .collect();
    format_table(
        "Figure 8 (top): composed MFI+decompression vs I-cache size (rewrite+dedicated | rewrite+DISE | DISE+DISE per size, normalized to unmodified 32KB)",
        &[
            "RD-8K", "RW-8K", "DD-8K", "RD-32K", "RW-32K", "DD-32K", "RD-128K", "RW-128K",
            "DD-128K", "RD-inf", "RW-inf", "DD-inf",
        ],
        &rows,
    )
}

/// Bottom panel: DISE+DISE across RT configurations, eager (30-cycle
/// misses) vs. compose-on-miss (150-cycle composing misses), normalized
/// to perfect-RT eager composition. 8KB I$.
pub fn rt(sweep: &Sweep) -> String {
    let configs: [(&str, usize, RtOrganization); 4] = [
        ("512-DM", 512, RtOrganization::DirectMapped),
        ("512-2way", 512, RtOrganization::SetAssociative(2)),
        ("2K-DM", 2048, RtOrganization::DirectMapped),
        ("2K-2way", 2048, RtOrganization::SetAssociative(2)),
    ];
    let cc = CompressionConfig::dise_full().with_select(SelectAlgo::V2);
    let sim = SimConfig::default().with_icache_size(Some(8 * 1024));
    let mut cells = Vec::new();
    for &bench in &sweep.benches {
        let p = Arc::new(sweep.workload(bench));
        let c = Arc::new(compress(&p, cc));
        cells.push(composed_cell(
            sweep,
            bench,
            &c,
            cc,
            EngineConfig::default().perfect_rt(),
            sim,
            true,
        ));
        for (_, entries, org) in configs {
            let engine = EngineConfig {
                rt_entries: entries,
                rt_org: org,
                ..EngineConfig::default()
            };
            // Eager composition: plain 30-cycle misses. Compose-on-miss:
            // aware fills cost 150 cycles.
            cells.push(composed_cell(sweep, bench, &c, cc, engine, sim, true));
            cells.push(composed_cell(sweep, bench, &c, cc, engine, sim, false));
        }
    }
    let vals = sweep.run_cells(&cells);
    let rows: Vec<(String, Vec<f64>)> = sweep
        .benches
        .iter()
        .zip(vals.chunks(1 + 2 * configs.len()))
        .map(|(bench, v)| {
            let perfect = v[0][0];
            (
                bench.name().to_string(),
                v[1..].iter().map(|c| c[0] / perfect).collect(),
            )
        })
        .collect();
    format_table(
        "Figure 8 (bottom): DISE+DISE vs RT configuration (30-cycle eager | 150-cycle compose-on-miss per config, normalized to perfect RT)",
        &[
            "e512DM", "c512DM", "e512-2w", "c512-2w", "e2K-DM", "c2K-DM", "e2K-2w", "c2K-2w",
        ],
        &rows,
    )
}
