//! Differential tests for the timing-model fast path.
//!
//! The direct-mapped store-granule table, the ring-buffer ROB/RS windows,
//! and the in-place `step_into` oracle loop are pure simulation-speed
//! devices: every test here runs the same workload with the fast path on
//! (the default) and off ([`SimConfig::slow_path`]: `HashMap` store
//! tracking, `VecDeque` windows, the allocating `step` loop) and demands
//! *bit-identical* [`SimResult`]s — cycles, every stall counter, and the
//! machine's architectural state.
//!
//! [`SimResult`]: dise::sim::SimResult

use dise::acf::compress::{CompressionConfig, Compressor};
use dise::acf::mfi::{Mfi, MfiVariant};
use dise::engine::{DiseEngine, EngineConfig, EngineStats, RtOrganization};
use dise::isa::{Program, Reg};
use dise::sim::{ExpansionCost, Machine, SimConfig, Simulator};
use dise::workloads::{Benchmark, WorkloadConfig};

fn workload(bench: Benchmark) -> Program {
    bench.build(&WorkloadConfig::tiny().with_dyn_insts(30_000))
}

fn final_state(m: &Machine) -> Vec<u64> {
    (0..32).map(|i| m.reg(Reg::r(i))).collect()
}

/// An MFI-protected machine over `p` (the frontend fast path stays on in
/// both runs — only the timing model's paths differ here).
fn mfi_machine(p: &Program) -> Machine {
    let mut m = Machine::load(p);
    let set = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(p.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();
    m.attach_engine(DiseEngine::with_productions(EngineConfig::default(), set).unwrap());
    Mfi::init_machine(&mut m);
    m
}

/// A DISE-decompressing machine with a *finite* RT, so engine stalls and
/// miss penalties flow through the timing model.
fn compressed_machine(p: &Program, engine: EngineConfig) -> Machine {
    let c = Compressor::new(CompressionConfig::dise_full())
        .compress(p)
        .unwrap();
    let mut m = Machine::load(&c.program);
    c.attach(&mut m, engine).unwrap();
    m
}

/// Decompression with MFI composed in — the densest expansion stream.
fn composed_machine(p: &Program) -> Machine {
    let c = Compressor::new(CompressionConfig::dise_full())
        .compress(p)
        .unwrap();
    let aware = c.productions.clone().unwrap();
    let mfi = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(c.program.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();
    let composed = dise::engine::compose::compose_nested(&mfi, &aware).unwrap();
    let mut m = Machine::load(&c.program);
    m.attach_engine(DiseEngine::with_productions(EngineConfig::default(), composed).unwrap());
    Mfi::init_machine(&mut m);
    m
}

/// Runs `build()` under `sim` with the fast path on and off; both runs
/// must agree bit-for-bit. Returns the engine statistics (if an engine is
/// attached) so callers can check that the path under test engaged.
fn assert_paths_identical(
    build: impl Fn() -> Machine,
    sim: SimConfig,
    tag: &str,
) -> Option<EngineStats> {
    let mut fast = Simulator::new(sim, build());
    let mut slow = Simulator::new(sim.slow_path(), build());
    let rf = fast.run(u64::MAX).unwrap();
    let rs = slow.run(u64::MAX).unwrap();
    assert_eq!(rf, rs, "{tag}: SimResult diverged between timing paths");
    assert_eq!(
        final_state(fast.machine()),
        final_state(slow.machine()),
        "{tag}: architectural state diverged"
    );
    assert_eq!(
        fast.machine().inst_counts(),
        slow.machine().inst_counts(),
        "{tag}: instruction counts diverged"
    );
    let stats = fast.machine().engine().map(|e| e.stats());
    assert_eq!(
        stats,
        slow.machine().engine().map(|e| e.stats()),
        "{tag}: EngineStats diverged"
    );
    stats
}

#[test]
fn baseline_timing_identical_fast_and_slow() {
    for bench in [Benchmark::Mcf, Benchmark::Gcc, Benchmark::Crafty] {
        let p = workload(bench);
        assert_paths_identical(|| Machine::load(&p), SimConfig::default(), bench.name());
    }
}

#[test]
fn mfi_timing_identical_across_expansion_costs() {
    // MFI expands every load and store — the densest store-table traffic —
    // under all three engine placement cost models.
    let p = workload(Benchmark::Gzip);
    for cost in [
        ExpansionCost::Free,
        ExpansionCost::StallPerExpansion,
        ExpansionCost::ExtraStage,
    ] {
        assert_paths_identical(
            || mfi_machine(&p),
            SimConfig::default().with_expansion_cost(cost),
            &format!("mfi/{cost:?}"),
        );
    }
}

#[test]
fn compressed_timing_identical_with_finite_rt() {
    // A small direct-mapped RT forces misses, so engine stall cycles and
    // the miss-penalty path go through the timing model in both runs.
    let p = workload(Benchmark::Mcf);
    let engine = EngineConfig {
        rt_entries: 64,
        rt_org: RtOrganization::DirectMapped,
        ..EngineConfig::default()
    };
    let stats = assert_paths_identical(
        || compressed_machine(&p, engine),
        SimConfig::default().with_icache_size(Some(8 * 1024)),
        "compressed/finite-rt",
    )
    .unwrap();
    // Engagement: the 64-entry RT really missed (about 3K times).
    assert!(
        stats.rt_misses >= 2_000,
        "only {} RT misses",
        stats.rt_misses
    );
}

#[test]
fn composed_timing_identical_fast_and_slow() {
    let p = workload(Benchmark::Gcc);
    assert_paths_identical(|| composed_machine(&p), SimConfig::default(), "composed");
}

#[test]
fn tiny_windows_timing_identical_fast_and_slow() {
    // A near-degenerate machine: 8-entry ROB, 4 reservation stations,
    // 8-wide fetch. The ring buffers wrap constantly and back-pressure
    // dominates — the configuration most likely to expose a ring/VecDeque
    // behavioral difference.
    let p = workload(Benchmark::Vpr);
    let sim = SimConfig {
        width: 8,
        rob_size: 8,
        rs_size: 4,
        ..SimConfig::default()
    };
    assert_paths_identical(|| mfi_machine(&p), sim, "tiny-windows");
}
