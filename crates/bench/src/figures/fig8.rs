//! Figure 8 — composing decompression and fault isolation.

use dise_acf::compress::{CompressionConfig, SelectAlgo};
use dise_core::{EngineConfig, RtOrganization};
use dise_sim::SimConfig;

use super::normalized_to_first;
use crate::{format_table, Scenario, Sweep};

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
        let w = sweep.workload(bench);
        let sim32 = SimConfig::default().with_icache_size(Some(32 * 1024));
        cells.push(Scenario::baseline(&w, sim32).cell());
        for size in sizes {
            let sim = SimConfig::default().with_icache_size(size);
            cells.push(Scenario::rewrite_compress(&w, true, perfect, sim).cell());
            cells.push(Scenario::rewrite_compress(&w, false, perfect, sim).cell());
            cells.push(Scenario::composed(&w, cc, perfect, sim, true).cell());
        }
    }
    let rows = normalized_to_first(sweep, &sweep.run_cells(&cells), 1 + 3 * sizes.len());
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
        let w = sweep.workload(bench);
        let perfect = EngineConfig::default().perfect_rt();
        cells.push(Scenario::composed(&w, cc, perfect, sim, true).cell());
        for (_, entries, org) in configs {
            let engine = EngineConfig {
                rt_entries: entries,
                rt_org: org,
                ..EngineConfig::default()
            };
            // Eager composition: plain 30-cycle misses. Compose-on-miss:
            // aware fills cost 150 cycles.
            cells.push(Scenario::composed(&w, cc, engine, sim, true).cell());
            cells.push(Scenario::composed(&w, cc, engine, sim, false).cell());
        }
    }
    let rows = normalized_to_first(sweep, &sweep.run_cells(&cells), 1 + 2 * configs.len());
    format_table(
        "Figure 8 (bottom): DISE+DISE vs RT configuration (30-cycle eager | 150-cycle compose-on-miss per config, normalized to perfect RT)",
        &[
            "e512DM", "c512DM", "e512-2w", "c512-2w", "e2K-DM", "c2K-DM", "e2K-2w", "c2K-2w",
        ],
        &rows,
    )
}
