//! Differential tests for the functional fast path under the timing
//! model.
//!
//! The timing model has one implementation. What it consumes — the
//! functional [`Machine`]'s dynamic instruction stream and the DISE
//! engine's expansions — has a fast path (predecode, expansion cache)
//! and a byte-accurate slow path ([`MachineConfig::slow_path`] +
//! [`EngineConfig::slow_path`]), the reference the `--shadow` oracle
//! uses. Every test here runs the same workload through the same
//! [`SimConfig`] with both and demands *bit-identical* [`SimResult`]s —
//! cycles, every stall counter, engine statistics and the machine's
//! architectural state. Every engine-attached scenario also asserts that
//! it expanded something, so an engine that never engaged cannot pass.
//!
//! [`SimResult`]: dise::sim::SimResult

use dise::acf::compress::{CompressionConfig, Compressor};
use dise::acf::mfi::{Mfi, MfiVariant};
use dise::engine::{DiseEngine, EngineConfig, EngineStats, RtOrganization};
use dise::isa::{Program, Reg};
use dise::sim::{ExpansionCost, Machine, MachineConfig, SimConfig, Simulator};
use dise::workloads::{Benchmark, WorkloadConfig};

fn workload(bench: Benchmark) -> Program {
    bench.build(&WorkloadConfig::tiny().with_dyn_insts(30_000))
}

fn final_state(m: &Machine) -> Vec<u64> {
    (0..32).map(|i| m.reg(Reg::r(i))).collect()
}

/// The functional configuration under test: both fast paths, or both
/// slow paths.
#[derive(Clone, Copy)]
struct Paths {
    machine: MachineConfig,
    engine: EngineConfig,
}

impl Paths {
    /// Both fast paths on (`slow == false`) or both off, over `engine`.
    fn new(slow: bool, engine: EngineConfig) -> Paths {
        if slow {
            Paths {
                machine: MachineConfig::default().slow_path(),
                engine: engine.slow_path(),
            }
        } else {
            Paths {
                machine: MachineConfig::default(),
                engine,
            }
        }
    }
}

/// An unmodified machine over `p`.
fn baseline_machine(p: &Program, paths: Paths) -> Machine {
    Machine::with_config(p, paths.machine)
}

/// An MFI-protected machine over `p`.
fn mfi_machine(p: &Program, paths: Paths) -> Machine {
    let mut m = Machine::with_config(p, paths.machine);
    let set = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(p.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();
    m.attach_engine(DiseEngine::with_productions(paths.engine, set).unwrap());
    Mfi::init_machine(&mut m);
    m
}

/// A DISE-decompressing machine with a *finite* RT, so engine stalls and
/// miss penalties flow through the timing model.
fn compressed_machine(p: &Program, paths: Paths) -> Machine {
    let c = Compressor::new(CompressionConfig::dise_full())
        .compress(p)
        .unwrap();
    let mut m = Machine::with_config(&c.program, paths.machine);
    c.attach(&mut m, paths.engine).unwrap();
    m
}

/// Decompression with MFI composed in — the densest expansion stream.
fn composed_machine(p: &Program, paths: Paths) -> Machine {
    let c = Compressor::new(CompressionConfig::dise_full())
        .compress(p)
        .unwrap();
    let aware = c.productions.clone().unwrap();
    let mfi = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(c.program.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();
    let composed = dise::engine::compose::compose_nested(&mfi, &aware).unwrap();
    let mut m = Machine::with_config(&c.program, paths.machine);
    m.attach_engine(DiseEngine::with_productions(paths.engine, composed).unwrap());
    Mfi::init_machine(&mut m);
    m
}

/// Runs `build(paths)` under `sim` with the functional fast paths on
/// and off; both runs must agree bit-for-bit. Returns the engine
/// statistics (if an engine is attached) so callers can check that the
/// path under test engaged.
fn assert_paths_identical(
    build: impl Fn(Paths) -> Machine,
    engine: EngineConfig,
    sim: SimConfig,
    tag: &str,
) -> Option<EngineStats> {
    let mut fast = Simulator::new(sim, build(Paths::new(false, engine)));
    let mut slow = Simulator::new(sim, build(Paths::new(true, engine)));
    let rf = fast.run(u64::MAX).unwrap();
    let rs = slow.run(u64::MAX).unwrap();
    assert_eq!(rf, rs, "{tag}: SimResult diverged between functional paths");
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
    let stats = fast.machine().engine().map(|_| rf.stats.engine);
    assert_eq!(
        fast.machine().engine().map(|e| e.stats()),
        slow.machine().engine().map(|e| e.stats()),
        "{tag}: functional EngineStats diverged"
    );
    stats
}

/// [`assert_paths_identical`] for an engine-attached scenario, which
/// must have expanded at least one instruction.
fn assert_expanding_paths_identical(
    build: impl Fn(Paths) -> Machine,
    engine: EngineConfig,
    sim: SimConfig,
    tag: &str,
) -> EngineStats {
    let stats = assert_paths_identical(build, engine, sim, tag).expect("engine attached");
    assert!(stats.expansions > 0, "{tag}: the engine never expanded");
    stats
}

#[test]
fn baseline_timing_identical_fast_and_slow() {
    for bench in [Benchmark::Mcf, Benchmark::Gcc, Benchmark::Crafty] {
        let p = workload(bench);
        assert_paths_identical(
            |paths| baseline_machine(&p, paths),
            EngineConfig::default(),
            SimConfig::default(),
            bench.name(),
        );
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
        assert_expanding_paths_identical(
            |paths| mfi_machine(&p, paths),
            EngineConfig::default(),
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
    let stats = assert_expanding_paths_identical(
        |paths| compressed_machine(&p, paths),
        engine,
        SimConfig::default().with_icache_size(Some(8 * 1024)),
        "compressed/finite-rt",
    );
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
    assert_expanding_paths_identical(
        |paths| composed_machine(&p, paths),
        EngineConfig::default(),
        SimConfig::default(),
        "composed",
    );
}

#[test]
fn tiny_windows_timing_identical_fast_and_slow() {
    // A near-degenerate machine: 8-entry ROB, 4 reservation stations,
    // 8-wide fetch. The windows wrap constantly and back-pressure
    // dominates, so stall timing depends on every instruction's exact
    // place in the stream.
    let p = workload(Benchmark::Vpr);
    let sim = SimConfig {
        width: 8,
        rob_size: 8,
        rs_size: 4,
        ..SimConfig::default()
    };
    assert_expanding_paths_identical(
        |paths| mfi_machine(&p, paths),
        EngineConfig::default(),
        sim,
        "tiny-windows",
    );
}
