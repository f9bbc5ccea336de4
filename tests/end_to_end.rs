//! Cross-crate integration tests: full paper workflows on the synthetic
//! workload suite.

use dise::acf::compress::{CompressionConfig, Compressor};
use dise::acf::mfi::{Mfi, MfiVariant};
use dise::engine::{DiseEngine, EngineConfig, RtOrganization};
use dise::isa::{Program, Reg};
use dise::rewrite::RewriteMfi;
use dise::sim::{ExpansionCost, Machine, SimConfig, Simulator};
use dise::workloads::{Benchmark, WorkloadConfig};

fn workload(bench: Benchmark) -> Program {
    bench.build(&WorkloadConfig::tiny().with_dyn_insts(30_000))
}

/// Architectural register state after a run, for equivalence checks
/// (excludes registers the rewriter scavenges).
fn final_state(m: &Machine) -> Vec<u64> {
    (0..25).map(|i| m.reg(Reg::r(i))).collect()
}

#[test]
fn dise_mfi_preserves_semantics_on_every_benchmark() {
    for bench in Benchmark::ALL {
        let p = workload(bench);
        let mut plain = Machine::load(&p);
        plain.run(u64::MAX).unwrap();

        let mut protected = Machine::load(&p);
        let set = Mfi::new(MfiVariant::Dise3)
            .with_error_handler(p.symbol("mfi_error").unwrap())
            .productions()
            .unwrap();
        protected
            .attach_engine(DiseEngine::with_productions(EngineConfig::default(), set).unwrap());
        Mfi::init_machine(&mut protected);
        let r = protected.run(u64::MAX).unwrap();
        assert!(r.halted(), "{bench}");
        assert_eq!(
            final_state(&plain),
            final_state(&protected),
            "{bench}: MFI changed application results"
        );
        // No false positives: we never reached the error handler.
        assert_ne!(protected.pc().0, p.symbol("mfi_error").unwrap(), "{bench}");
    }
}

#[test]
fn rewriting_mfi_preserves_semantics_on_every_benchmark() {
    for bench in Benchmark::ALL {
        let p = workload(bench);
        let mut plain = Machine::load(&p);
        plain.run(u64::MAX).unwrap();
        let rewritten = RewriteMfi::new().rewrite(&p).unwrap();
        let mut m = Machine::load(&rewritten.program);
        let r = m.run(u64::MAX).unwrap();
        assert!(r.halted(), "{bench}");
        assert_eq!(final_state(&plain), final_state(&m), "{bench}");
        assert!(rewritten.stats.growth() > 1.2, "{bench}: no checks inserted?");

        // The rewrite inserts exactly DISE4's check (§4.1: DISE4 mirrors
        // rewriting). DISE4 runs the same instructions but for the
        // rewriter's two-instruction prologue, and leaves the same
        // registers outside the ones the rewriter scavenges (r25, r27–r29);
        // a code address only has to be some code address, since the
        // rewrite moves code.
        let mut dise4 = Machine::load(&p);
        let set = Mfi::new(MfiVariant::Dise4)
            .with_error_handler(p.symbol("mfi_error").unwrap())
            .productions()
            .unwrap();
        dise4.attach_engine(DiseEngine::with_productions(EngineConfig::default(), set).unwrap());
        Mfi::init_machine(&mut dise4);
        let d = dise4.run(u64::MAX).unwrap();
        assert!(d.halted(), "{bench}");
        assert_eq!(r.total_insts, d.total_insts + 2, "{bench}: rewrite vs DISE4");
        for i in (0..32).filter(|i| ![25, 27, 28, 29].contains(i)) {
            let (rw, di) = (m.reg(Reg::r(i)), dise4.reg(Reg::r(i)));
            if Program::segment_of(di) == Program::TEXT_SEGMENT {
                assert_eq!(Program::segment_of(rw), Program::TEXT_SEGMENT, "{bench}: r{i}");
            } else {
                assert_eq!(rw, di, "{bench}: r{i} diverged from DISE4");
            }
        }
    }
}

#[test]
fn compression_round_trips_on_every_benchmark() {
    for bench in Benchmark::ALL {
        let p = workload(bench);
        let mut plain = Machine::load(&p);
        plain.run(u64::MAX).unwrap();
        for config in [
            CompressionConfig::dedicated(),
            CompressionConfig::dise_full(),
        ] {
            let c = Compressor::new(config).compress(&p).unwrap();
            assert!(
                c.stats.compressed_text < c.stats.original_text,
                "{bench}: {config:?} did not compress"
            );
            let mut m = Machine::load(&c.program);
            c.attach(&mut m, EngineConfig::default().perfect_rt()).unwrap();
            let r = m.run(u64::MAX).unwrap();
            assert!(r.halted(), "{bench}");
            assert_eq!(
                final_state(&plain),
                final_state(&m),
                "{bench}: decompression diverged under {config:?}"
            );
        }
    }
}

#[test]
fn finite_rt_is_functionally_invisible() {
    // RT capacity affects cycles only, never results.
    let p = workload(Benchmark::Gcc);
    let c = Compressor::new(CompressionConfig::dise_full())
        .compress(&p)
        .unwrap();
    let run_with = |org: RtOrganization, entries: usize| {
        let mut m = Machine::load(&c.program);
        let config = EngineConfig {
            rt_entries: entries,
            rt_org: org,
            ..EngineConfig::default()
        };
        c.attach(&mut m, config).unwrap();
        m.run(u64::MAX).unwrap();
        final_state(&m)
    };
    let perfect = run_with(RtOrganization::Perfect, 0);
    assert_eq!(perfect, run_with(RtOrganization::DirectMapped, 64));
    assert_eq!(perfect, run_with(RtOrganization::SetAssociative(2), 512));
}

#[test]
fn timing_orderings_hold_on_a_workload() {
    let p = workload(Benchmark::Bzip2);
    let cycles = |m: Machine, cost: ExpansionCost| {
        let mut sim = Simulator::new(SimConfig::default().with_expansion_cost(cost), m);
        sim.run(u64::MAX).unwrap().stats.cycles
    };
    let base = cycles(Machine::load(&p), ExpansionCost::Free);
    let with_mfi = |cost| {
        let mut m = Machine::load(&p);
        let set = Mfi::new(MfiVariant::Dise3)
            .with_error_handler(p.symbol("mfi_error").unwrap())
            .productions()
            .unwrap();
        m.attach_engine(DiseEngine::with_productions(EngineConfig::default(), set).unwrap());
        Mfi::init_machine(&mut m);
        cycles(m, cost)
    };
    let free = with_mfi(ExpansionCost::Free);
    let stall = with_mfi(ExpansionCost::StallPerExpansion);
    assert!(free > base, "ACF work must cost cycles: {free} !> {base}");
    assert!(stall > free, "stall-per-expansion must cost more: {stall} !> {free}");
}

#[test]
fn dedicated_decompressor_runs_compressed_workloads() {
    let p = workload(Benchmark::Mcf);
    let c = Compressor::new(CompressionConfig::dedicated())
        .compress(&p)
        .unwrap();
    assert!(c.dictionary.is_some());
    let mut plain = Machine::load(&p);
    plain.run(u64::MAX).unwrap();
    let mut m = Machine::load(&c.program);
    c.attach(&mut m, EngineConfig::default()).unwrap();
    m.run(u64::MAX).unwrap();
    assert_eq!(final_state(&plain), final_state(&m));
}

#[test]
fn interrupted_expansions_resume_precisely_mid_workload() {
    // Interrupt the machine every few steps; results must be unchanged
    // (the PC:DISEPC precise-state model, §2.1).
    let p = workload(Benchmark::Eon);
    let mut plain = Machine::load(&p);
    plain.run(u64::MAX).unwrap();

    let mut m = Machine::load(&p);
    let set = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(p.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();
    m.attach_engine(DiseEngine::with_productions(EngineConfig::default(), set).unwrap());
    Mfi::init_machine(&mut m);
    let mut steps = 0u64;
    while let Some(_info) = m.step().unwrap() {
        steps += 1;
        if steps.is_multiple_of(7) {
            m.interrupt();
        }
    }
    assert_eq!(final_state(&plain), final_state(&m));
}
