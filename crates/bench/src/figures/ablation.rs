//! Ablations over the DISE design space beyond the paper's figures.

use std::sync::Arc;

use dise_acf::compress::{CompressionConfig, SelectAlgo};
use dise_acf::mfi::MfiVariant;
use dise_core::{EngineConfig, RtOrganization};
use dise_sim::{DiseCacheModel, ExpansionCost, SimConfig};

use super::normalized_to_first;
use crate::{format_table, Cell, CellOutput, Scenario, Sweep, Workload};

/// Fault-isolation formulation × engine placement matrix.
pub fn mfi(sweep: &Sweep) -> String {
    let variants = [MfiVariant::Dise4, MfiVariant::Dise3, MfiVariant::Sandbox];
    let costs = [
        ExpansionCost::Free,
        ExpansionCost::StallPerExpansion,
        ExpansionCost::ExtraStage,
    ];
    let sim = SimConfig::default();
    let mut cells = Vec::new();
    for &bench in &sweep.benches {
        let w = sweep.workload(bench);
        cells.push(Scenario::baseline(&w, sim).cell());
        for variant in variants {
            for cost in costs {
                cells.push(Scenario::dise_mfi(&w, variant, cost, sim).cell());
            }
        }
    }
    let vals = sweep.run_cells(&cells);
    let rows = normalized_to_first(sweep, &vals, 1 + variants.len() * costs.len());
    format_table(
        "Ablation: MFI formulation x engine placement (normalized execution time)",
        &[
            "D4-free", "D4-stal", "D4-pipe", "D3-free", "D3-stal", "D3-pipe", "SB-free",
            "SB-stal", "SB-pipe",
        ],
        &rows,
    )
}

/// PT/RT miss-penalty sensitivity for DISE decompression.
pub fn rtmiss(sweep: &Sweep) -> String {
    let penalties = [10u64, 30, 100, 300];
    let cc = CompressionConfig::dise_full().with_select(SelectAlgo::V2);
    // Small RT so misses actually occur; 8KB I$ like Figure 7 bottom.
    let sim = SimConfig::default().with_icache_size(Some(8 * 1024));
    let mut cells = Vec::new();
    for &bench in &sweep.benches {
        let w = sweep.workload(bench);
        let perfect = EngineConfig::default().perfect_rt();
        cells.push(Scenario::compressed(&w, cc, perfect, sim).cell());
        for penalty in penalties {
            let engine = EngineConfig {
                rt_entries: 512,
                rt_org: RtOrganization::DirectMapped,
                miss_penalty: penalty,
                ..EngineConfig::default()
            };
            cells.push(Scenario::compressed(&w, cc, engine, sim).cell());
        }
    }
    let vals = sweep.run_cells(&cells);
    let rows = normalized_to_first(sweep, &vals, 1 + penalties.len());
    format_table(
        "Ablation: RT miss penalty sweep (512-entry DM RT, normalized to perfect RT)",
        &["10cyc", "30cyc", "100cyc", "300cyc"],
        &rows,
    )
}

/// Context-switch rate sensitivity: DISE stall cycles per 1K application
/// instructions when the PT/RT are flushed every `interval` instructions.
fn ctx_cell(w: &Arc<Workload>, interval: u64) -> Cell {
    let key = w.cell_key(
        "ctxswitch",
        &format!("interval={interval},engine={:?}", EngineConfig::default()),
    );
    let mfi = Scenario::dise_mfi(w, MfiVariant::Dise3, ExpansionCost::Free, SimConfig::default());
    Cell::new(key, move || {
        let mut m = mfi.machine(true);
        // A functional run feeding the PT/RT model directly: only the
        // tables' stall cycles are measured, not the pipeline.
        let mut tables = DiseCacheModel::new(m.engine().unwrap());
        let mut next_switch = interval;
        while let Some(info) = m.step().unwrap() {
            tables.observe(&info, m.engine().unwrap());
            if info.first_of_fetch {
                next_switch -= 1;
                if next_switch == 0 {
                    tables.context_switch();
                    next_switch = interval;
                }
            }
        }
        let stats = tables.engine_stats(m.engine().unwrap());
        let (_, app) = m.inst_counts();
        // There is no SimStats registry, but the engine counters are
        // still worth exporting.
        let pairs = stats
            .named_counters()
            .iter()
            .map(|&(name, v)| (format!("engine.{name}"), v as f64))
            .collect();
        CellOutput {
            values: vec![stats.stall_cycles as f64 * 1000.0 / app as f64],
            stats: pairs,
        }
    })
}

/// Context-switch interval sweep.
pub fn ctx(sweep: &Sweep) -> String {
    let intervals = [100_000u64, 10_000, 1_000];
    let mut cells = Vec::new();
    for &bench in &sweep.benches {
        let w = sweep.workload(bench);
        for interval in intervals {
            cells.push(ctx_cell(&w, interval));
        }
    }
    let vals = sweep.run_cells(&cells);
    let rows: Vec<(String, Vec<f64>)> = sweep
        .benches
        .iter()
        .zip(vals.chunks(intervals.len()))
        .map(|(bench, v)| (bench.name().to_string(), v.iter().map(|c| c[0]).collect()))
        .collect();
    format_table(
        "Ablation: context-switch interval vs DISE stall cycles per 1K instructions",
        &["100K", "10K", "1K"],
        &rows,
    )
}

/// RT block coalescing sweep (§2.2).
pub fn rtblock(sweep: &Sweep) -> String {
    let blocks = [1u32, 2, 4, 8];
    let cc = CompressionConfig::dise_full().with_select(SelectAlgo::V2);
    let sim = SimConfig::default().with_icache_size(Some(8 * 1024));
    let mut cells = Vec::new();
    for &bench in &sweep.benches {
        let w = sweep.workload(bench);
        let perfect = EngineConfig::default().perfect_rt();
        cells.push(Scenario::compressed(&w, cc, perfect, sim).cell());
        for block in blocks {
            let engine = EngineConfig {
                rt_entries: 512,
                rt_org: RtOrganization::SetAssociative(2),
                rt_block: block,
                ..EngineConfig::default()
            };
            cells.push(Scenario::compressed(&w, cc, engine, sim).cell());
        }
    }
    let vals = sweep.run_cells(&cells);
    let rows = normalized_to_first(sweep, &vals, 1 + blocks.len());
    format_table(
        "Ablation: RT block coalescing (512 instruction slots, 2-way; normalized to perfect RT)",
        &["blk-1", "blk-2", "blk-4", "blk-8"],
        &rows,
    )
}
