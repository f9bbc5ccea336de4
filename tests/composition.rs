//! Integration tests for ACF composition (paper §3.3 / §4.3): the
//! composed system must behave exactly like applying the ACFs one after
//! another, however the composition is implemented.

use dise::acf::compress::{CompressionConfig, Compressor};
use dise::acf::mfi::{Mfi, MfiVariant};
use dise::acf::trace::StoreTracer;
use dise::engine::{compose, Controller, DiseEngine, EngineConfig};
use dise::isa::{Program, Reg};
use dise::sim::{Machine, SimConfig, Simulator};
use dise::workloads::{Benchmark, WorkloadConfig};

fn workload() -> Program {
    Benchmark::Twolf.build(&WorkloadConfig::tiny().with_dyn_insts(20_000))
}

fn final_state(m: &Machine) -> Vec<u64> {
    (0..25).map(|i| m.reg(Reg::r(i))).collect()
}

/// Eager (software, up-front) composition and RT-miss-handler composition
/// must produce identical executions.
#[test]
fn eager_and_lazy_composition_agree() {
    let p = workload();
    let c = Compressor::new(CompressionConfig::dise_full())
        .compress(&p)
        .unwrap();
    let aware = c.productions.clone().unwrap();
    let mfi = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(c.program.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();

    let run_eager = {
        let composed = compose::compose_nested(&mfi, &aware).unwrap();
        let mut m = Machine::load(&c.program);
        m.attach_engine(
            DiseEngine::with_productions(EngineConfig::default().perfect_rt(), composed).unwrap(),
        );
        Mfi::init_machine(&mut m);
        let r = m.run(u64::MAX).unwrap();
        assert!(r.halted());
        (final_state(&m), r.total_insts)
    };

    let run_lazy = {
        let mut active = mfi.clone();
        active.absorb(&aware).unwrap();
        let controller = Controller::new(active).with_inline_on_fill(mfi.clone());
        let mut m = Machine::load(&c.program);
        m.attach_engine(DiseEngine::with_controller(
            EngineConfig::default().perfect_rt(),
            controller,
        ));
        Mfi::init_machine(&mut m);
        // Through the timing model, whose RT fills do the composing.
        let mut sim = Simulator::new(SimConfig::default(), m);
        let r = sim.run(u64::MAX).unwrap();
        assert!(r.halted);
        assert!(r.stats.engine.composed_fills > 0);
        (final_state(sim.machine()), r.stats.total_insts)
    };

    assert_eq!(run_eager.0, run_lazy.0, "states diverged");
    assert_eq!(run_eager.1, run_lazy.1, "dynamic streams diverged");
}

/// The composed MFI∘decompression system must (a) compute what the
/// unmodified application computes, and (b) still catch violations.
#[test]
fn composed_system_is_correct_and_still_protects() {
    let p = workload();
    let mut reference = Machine::load(&p);
    reference.run(u64::MAX).unwrap();

    let c = Compressor::new(CompressionConfig::dise_full())
        .compress(&p)
        .unwrap();
    let aware = c.productions.clone().unwrap();
    let mfi = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(c.program.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();
    let composed = compose::compose_nested(&mfi, &aware).unwrap();

    let mut m = Machine::load(&c.program);
    m.attach_engine(
        DiseEngine::with_productions(EngineConfig::default().perfect_rt(), composed.clone())
            .unwrap(),
    );
    Mfi::init_machine(&mut m);
    m.run(u64::MAX).unwrap();
    assert_eq!(final_state(&reference), final_state(&m));

    // Protection: a crafted program whose store targets another module's
    // segment; after compression + composition the violation must still be
    // diverted (checks cannot be lost inside dictionary entries).
    let demo = dise::isa::Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
        .assemble(
            "       lda r2, 0x4FF(r31)
                    sll r2, #32, r2
                    stq r1, 0(r2)
                    halt
             mfi_error: halt",
        )
        .unwrap();
    let cd = Compressor::new(CompressionConfig::dise_full())
        .compress(&demo)
        .unwrap();
    let mfi2 = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(cd.program.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();
    let aware2 = cd.productions.clone().unwrap();
    let composed2 = compose::compose_nested(&mfi2, &aware2).unwrap();
    let mut m2 = Machine::load(&cd.program);
    m2.attach_engine(
        DiseEngine::with_productions(EngineConfig::default().perfect_rt(), composed2).unwrap(),
    );
    Mfi::init_machine(&mut m2);
    m2.run(10_000).unwrap();
    assert_eq!(
        m2.pc().0,
        cd.program.symbol("mfi_error").unwrap(),
        "violation in (possibly compressed) code must still be caught"
    );
}

/// Nested MFI∘tracing on a real program: every store is both traced and
/// checked, and the trace matches an unprotected tracing run.
#[test]
fn mfi_around_tracing_traces_identically() {
    let p = Benchmark::Mcf.build(&WorkloadConfig::tiny().with_dyn_insts(10_000));
    let data = Program::segment_base(Program::DATA_SEGMENT);
    let buffer = data + 0x80000;

    let trace_with = |set: dise::engine::ProductionSet| {
        let mut m = Machine::load(&p);
        m.attach_engine(
            DiseEngine::with_productions(EngineConfig::default().perfect_rt(), set).unwrap(),
        );
        Mfi::init_machine(&mut m);
        StoreTracer::init_machine(&mut m, buffer);
        m.run(u64::MAX).unwrap();
        StoreTracer::read_trace(&m, buffer)
    };
    let plain_trace = trace_with(StoreTracer::new().productions().unwrap());
    let mfi = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(p.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();
    let composed = compose::compose_nested(&mfi, &StoreTracer::new().productions().unwrap())
        .unwrap();
    let composed_trace = trace_with(composed);
    assert!(!plain_trace.is_empty());
    assert_eq!(plain_trace, composed_trace);
}
