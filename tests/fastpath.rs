//! Differential tests for the frontend fast path.
//!
//! The predecode table, the per-opcode PT index, and the engine's
//! PC-indexed expansion cache are pure simulation-speed devices: every test here
//! runs the same workload with the fast path on (the default) and off
//! (`MachineConfig::slow_path` + `EngineConfig::slow_path`) and demands
//! *bit-identical* results — architectural state, retirement counts,
//! cycle-level timing, engine statistics (the engine's own and the
//! timing model's PT/RT misses), and the executed instruction stream.

use dise::acf::compress::{CompressionConfig, Compressor};
use dise::acf::mfi::{Mfi, MfiVariant};
use dise::engine::{Controller, DiseEngine, EngineConfig, RtOrganization};
use dise::isa::{Inst, Program, Reg};
use dise::sim::{Machine, MachineConfig, SimConfig, Simulator};
use dise::workloads::{Benchmark, WorkloadConfig};

fn workload(bench: Benchmark) -> Program {
    bench.build(&WorkloadConfig::tiny().with_dyn_insts(30_000))
}

fn final_state(m: &Machine) -> Vec<u64> {
    (0..32).map(|i| m.reg(Reg::r(i))).collect()
}

/// An MFI-protected machine over `p`, fast path on or off in *both* the
/// machine (predecode) and the engine (index + expansion cache).
fn mfi_machine(p: &Program, fast: bool) -> Machine {
    let mconfig = if fast {
        MachineConfig::default()
    } else {
        MachineConfig::default().slow_path()
    };
    let econfig = if fast {
        EngineConfig::default()
    } else {
        EngineConfig::default().slow_path()
    };
    let mut m = Machine::with_config(p, mconfig);
    let set = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(p.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();
    m.attach_engine(DiseEngine::with_productions(econfig, set).unwrap());
    Mfi::init_machine(&mut m);
    m
}

#[test]
fn mfi_timing_identical_fast_and_slow() {
    for bench in [Benchmark::Mcf, Benchmark::Gcc, Benchmark::Crafty] {
        let p = workload(bench);
        let mut fast = Simulator::new(SimConfig::default(), mfi_machine(&p, true));
        let mut slow = Simulator::new(SimConfig::default(), mfi_machine(&p, false));
        let rf = fast.run(u64::MAX).unwrap();
        let rs = slow.run(u64::MAX).unwrap();
        assert_eq!(rf, rs, "{bench}: SimResult diverged");
        assert_eq!(
            fast.machine().engine().unwrap().stats(),
            slow.machine().engine().unwrap().stats(),
            "{bench}: functional EngineStats diverged"
        );
        assert_eq!(
            final_state(fast.machine()),
            final_state(slow.machine()),
            "{bench}: architectural state diverged"
        );
        assert_eq!(fast.machine().inst_counts(), slow.machine().inst_counts());
    }
}

#[test]
fn mfi_executed_stream_identical_fast_and_slow() {
    // Step both machines in lockstep and require the same dynamic
    // instruction stream — PCs, DISEPCs, disassembly, and the engine
    // references the timing model replays.
    let p = workload(Benchmark::Gzip);
    let mut fast = mfi_machine(&p, true);
    let mut slow = mfi_machine(&p, false);
    let mut steps = 0u64;
    loop {
        let sf = fast.step().unwrap();
        let ss = slow.step().unwrap();
        assert_eq!(sf, ss, "step {steps} diverged");
        let Some(info) = sf else { break };
        // Disassembly identity (Display is the disassembler).
        assert_eq!(info.inst.to_string(), ss.unwrap().inst.to_string());
        steps += 1;
    }
    assert!(steps > 10_000, "workload too small to be meaningful");
    assert!(fast.halted() && slow.halted());
}

#[test]
fn compression_identical_fast_and_slow_with_finite_rt() {
    // A finite direct-mapped RT makes the LRU order observable through
    // miss counts: an engine reference missing from either machine's
    // step stream would show up as diverging rt_misses / stall cycles.
    let p = workload(Benchmark::Parser);
    let c = Compressor::new(CompressionConfig::dise_full())
        .compress(&p)
        .unwrap();
    let econfig = EngineConfig {
        rt_entries: 16,
        rt_org: RtOrganization::DirectMapped,
        ..EngineConfig::default()
    };

    let mut fast = Machine::load(&c.program);
    c.attach(&mut fast, econfig).unwrap();
    let mut slow = Machine::with_config(&c.program, MachineConfig::default().slow_path());
    c.attach(&mut slow, econfig.slow_path()).unwrap();

    let mut fast = Simulator::new(SimConfig::default(), fast);
    let mut slow = Simulator::new(SimConfig::default(), slow);
    let rf = fast.run(u64::MAX).unwrap();
    let rs = slow.run(u64::MAX).unwrap();
    assert_eq!(rf, rs, "SimResult diverged");
    let stats = rf.stats.engine;
    assert_eq!(final_state(fast.machine()), final_state(slow.machine()));
    // Engagement: the 16-entry RT really missed (about 15K times).
    assert!(
        stats.rt_misses >= 10_000,
        "only {} RT misses",
        stats.rt_misses
    );
}

#[test]
fn interrupts_do_not_perturb_fast_path_identity() {
    // Interrupt mid-sequence every 97 steps: the re-fetch path must take
    // the same cached decisions as the slow path's re-inspection, and
    // report the same resumed-fetch inspects.
    let p = workload(Benchmark::Vpr);
    let mut fast = mfi_machine(&p, true);
    let mut slow = mfi_machine(&p, false);
    let mut steps = 0u64;
    loop {
        if steps % 97 == 96 {
            fast.interrupt();
            slow.interrupt();
        }
        let sf = fast.step().unwrap();
        let ss = slow.step().unwrap();
        assert_eq!(sf, ss, "step {steps} diverged");
        if sf.is_none() {
            break;
        }
        steps += 1;
    }
    assert_eq!(
        fast.engine().unwrap().stats(),
        slow.engine().unwrap().stats()
    );
    assert_eq!(final_state(&fast), final_state(&slow));
}

#[test]
fn predecode_fallback_handles_undecodable_pc_identically() {
    // Jumping outside the text segment must produce the same error with
    // the predecode table as with byte-accurate fetch.
    let p = workload(Benchmark::Mcf);
    let mut fast = Machine::with_config(&p, MachineConfig::default());
    let mut slow = Machine::with_config(&p, MachineConfig::default().slow_path());
    for m in [&mut fast, &mut slow] {
        m.set_pc(0xDEAD_0000);
    }
    let ef = fast.step().unwrap_err();
    let es = slow.step().unwrap_err();
    assert_eq!(format!("{ef}"), format!("{es}"));
}

#[test]
fn every_text_pc_round_trips_through_the_expansion_cache() {
    // Every instruction of the image inspected at its own PC, three
    // times over: the cache, filled on the first pass and hit on the
    // next two, must agree with the slow engine's live match at every
    // PC and opcode.
    let p = workload(Benchmark::Twolf);
    let set = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(p.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();
    let mut fast = DiseEngine::with_productions(EngineConfig::default(), set.clone()).unwrap();
    let pd = p.predecode();
    fast.bind_text(pd.text_base(), pd.slot_count());
    let mut slow = DiseEngine::with_productions(EngineConfig::default().slow_path(), set).unwrap();
    let insts: Vec<(u64, Inst)> = p
        .items()
        .unwrap()
        .into_iter()
        .filter_map(|(pc, item)| match item {
            dise::isa::TextItem::Inst(i) => Some((pc, i)),
            dise::isa::TextItem::Short(_) => None,
        })
        .collect();
    for round in 0..3 {
        for (pc, inst) in &insts {
            assert_eq!(
                fast.inspect_at(inst, *pc),
                slow.inspect(inst),
                "round {round}: {inst} at {pc:#x}"
            );
        }
    }
    assert_eq!(fast.stats(), slow.stats());
    assert!(fast.expansion_cache_hits() > 0, "the cache never hit");
}

/// A DISE+DISE machine: `c`'s aware decompression productions with DISE3
/// MFI composed in, either eagerly (composed up front in software) or
/// lazily (the controller inlines MFI into each aware sequence at RT-fill
/// time), fast path on or off in both the machine and the engine.
fn composed_machine(
    c: &dise::acf::compress::CompressedProgram,
    econfig: EngineConfig,
    eager: bool,
    fast: bool,
) -> Machine {
    let aware = c.productions.clone().unwrap();
    let mfi = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(c.program.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();
    let (mconfig, econfig) = if fast {
        (MachineConfig::default(), econfig)
    } else {
        (MachineConfig::default().slow_path(), econfig.slow_path())
    };
    let engine = if eager {
        let composed = dise::engine::compose::compose_nested(&mfi, &aware).unwrap();
        DiseEngine::with_productions(econfig, composed).unwrap()
    } else {
        let mut active = mfi.clone();
        active.absorb(&aware).unwrap();
        let controller = Controller::new(active).with_inline_on_fill(mfi);
        DiseEngine::with_controller(econfig, controller)
    };
    let mut m = Machine::with_config(&c.program, mconfig);
    m.attach_engine(engine);
    Mfi::init_machine(&mut m);
    m
}

#[test]
fn composition_identical_fast_and_slow_on_thrashing_rt() {
    // The Figure 8 RT panel's smallest geometries: a 512-entry RT under
    // the composed decompression+MFI stream misses constantly, so every
    // fill evicts sequences whose expansions and instantiations the fast
    // path has cached. The 2-way case makes the LRU stamp order
    // observable through which way each fill evicts.
    let p = workload(Benchmark::Gzip);
    let c = Compressor::new(CompressionConfig::dise_full())
        .compress(&p)
        .unwrap();
    for org in [
        RtOrganization::DirectMapped,
        RtOrganization::SetAssociative(2),
    ] {
        let econfig = EngineConfig {
            rt_entries: 512,
            rt_org: org,
            ..EngineConfig::default()
        };
        for eager in [true, false] {
            let tag = format!("{org:?}/{}", if eager { "eager" } else { "lazy" });
            let sim = SimConfig::default().with_icache_size(Some(8 * 1024));
            let mut fast = Simulator::new(sim, composed_machine(&c, econfig, eager, true));
            let mut slow = Simulator::new(sim, composed_machine(&c, econfig, eager, false));
            let rf = fast.run(u64::MAX).unwrap();
            let rs = slow.run(u64::MAX).unwrap();
            assert_eq!(rf, rs, "{tag}: SimResult diverged");
            let stats = rf.stats.engine;
            assert_eq!(
                final_state(fast.machine()),
                final_state(slow.machine()),
                "{tag}: architectural state diverged"
            );
            // Engagement: the RT really thrashed, and the lazy runs really
            // composed at fill time.
            assert!(
                stats.rt_misses >= 500,
                "{tag}: only {} RT misses",
                stats.rt_misses
            );
            if !eager {
                assert!(stats.composed_fills > 0, "{tag}: no composing fills");
            }
        }
    }
}
