//! PT/RT residency is timing state only: the premise that lets the
//! functional engine ignore it.
//!
//! A compressed image (Figure 7 bottom) and a lazily composed
//! decompression+MFI image (Figure 8 bottom, compose-on-miss) run
//! through the timing simulator under every RT configuration those
//! panels sweep — 512/2K entries, direct-mapped/2-way, perfect — each at
//! one and two instructions per RT entry. The RT changes cycle counts
//! and miss counts, and must change nothing that commits: instruction
//! counts, final registers, and the engine's expansion counts all agree
//! across configurations.

use dise::acf::compress::{CompressedProgram, CompressionConfig, Compressor, SelectAlgo};
use dise::acf::mfi::{Mfi, MfiVariant};
use dise::engine::{Controller, DiseEngine, EngineConfig, RtOrganization};
use dise::isa::Reg;
use dise::sim::{Machine, SimConfig, Simulator};
use dise::workloads::{Benchmark, WorkloadConfig};

/// Every RT configuration of the Figure 7 and 8 bottom panels, at one
/// and two instructions per entry.
fn rt_configs() -> Vec<EngineConfig> {
    let geometries = [
        (512, RtOrganization::DirectMapped),
        (512, RtOrganization::SetAssociative(2)),
        (2048, RtOrganization::DirectMapped),
        (2048, RtOrganization::SetAssociative(2)),
        (1, RtOrganization::Perfect),
    ];
    [1, 2]
        .into_iter()
        .flat_map(|rt_block| {
            geometries.map(|(rt_entries, rt_org)| EngineConfig {
                rt_entries,
                rt_org,
                rt_block,
                ..EngineConfig::default()
            })
        })
        .collect()
}

/// What must not depend on the RT, and the RT misses that must.
#[derive(Debug, PartialEq)]
struct Outcome {
    total_insts: u64,
    app_insts: u64,
    regs: Vec<u64>,
    expansions: u64,
    replacement_insts: u64,
}

fn simulate(m: Machine) -> (Outcome, u64) {
    let mut sim = Simulator::new(SimConfig::default().with_icache_size(Some(8 * 1024)), m);
    let r = sim.run(u64::MAX).unwrap();
    assert!(r.halted);
    let s = r.stats;
    let outcome = Outcome {
        total_insts: s.total_insts,
        app_insts: s.app_insts,
        regs: (0..48)
            .map(|i| sim.machine().reg(Reg::from_index(i)))
            .collect(),
        expansions: s.engine.expansions,
        replacement_insts: s.engine.replacement_insts,
    };
    (outcome, s.engine.rt_misses)
}

/// Runs `build` under every RT configuration: the outcomes must agree,
/// and the RT must have missed, differently across configurations.
fn assert_rt_invisible(what: &str, build: impl Fn(EngineConfig) -> Machine) {
    let mut reference = None;
    let mut misses = Vec::new();
    for config in rt_configs() {
        let (outcome, rt_misses) = simulate(build(config));
        match &reference {
            None => reference = Some(outcome),
            Some(r) => assert_eq!(r, &outcome, "{what}: {config:?} changed what commits"),
        }
        misses.push(rt_misses);
    }
    assert!(
        misses.iter().all(|&m| m > 0),
        "{what}: an RT never missed: {misses:?}"
    );
    assert!(
        misses.iter().any(|&m| m != misses[0]),
        "{what}: the RT configuration never mattered: {misses:?}"
    );
}

fn compressed() -> CompressedProgram {
    let p = Benchmark::Gzip.build(&WorkloadConfig::tiny().with_dyn_insts(30_000));
    Compressor::new(CompressionConfig::dise_full().with_select(SelectAlgo::V2))
        .compress(&p)
        .unwrap()
}

#[test]
fn rt_configuration_never_changes_a_compressed_run() {
    let c = compressed();
    assert_rt_invisible("compressed", |config| {
        let mut m = Machine::load(&c.program);
        c.attach(&mut m, config).unwrap();
        m
    });
}

#[test]
fn rt_configuration_never_changes_a_lazily_composed_run() {
    let c = compressed();
    let mfi = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(c.program.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();
    let mut active = mfi.clone();
    active.absorb(c.productions.as_ref().unwrap()).unwrap();
    assert_rt_invisible("composed", |config| {
        let controller = Controller::new(active.clone()).with_inline_on_fill(mfi.clone());
        let mut m = Machine::load(&c.program);
        m.attach_engine(DiseEngine::with_controller(config, controller));
        Mfi::init_machine(&mut m);
        m
    });
}
